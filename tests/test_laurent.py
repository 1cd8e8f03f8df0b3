import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abelpell.pell import laurent_sqrt_polypart
from abelpell.unipoly import UniPoly, poly


def long_expansion_polypart(r: UniPoly, terms: int) -> UniPoly:
    """Oracle: the first ``terms`` coefficients of sqrt(r) at infinity, top
    down from x^(deg r / 2), keeping those of degree >= 0."""
    n = r.degree
    s = [Fraction(1)]
    for j in range(1, terms):
        s.append((r.coeff(n - j) - sum(s[i] * s[j - i] for i in range(1, j))) / 2)
    return UniPoly(reversed(s[: n // 2 + 1]))


def test_polypart_examples():
    assert laurent_sqrt_polypart(poly(-2, 0, 1)) == poly(0, 1)
    assert laurent_sqrt_polypart(poly(1, 0, 0, 0, 1)) == poly(0, 0, 1)
    assert laurent_sqrt_polypart(poly(0, 2, 0, 0, 1)) == poly(0, 0, 1)
    with pytest.raises(ValueError):
        laurent_sqrt_polypart(poly(1, 1, 0, 1))  # odd degree
    with pytest.raises(ValueError):
        laurent_sqrt_polypart(poly(1, 0, 2))  # not monic
    with pytest.raises(ValueError):
        laurent_sqrt_polypart(poly())  # zero


def test_polypart_roundtrip():
    # laurent_sqrt_polypart(Y^2 + r) = Y whenever deg r < deg Y.
    rng = random.Random(3)
    for _ in range(40):
        deg_y = rng.randint(1, 5)
        y = UniPoly([Fraction(rng.randint(-6, 6)) for _ in range(deg_y)] + [Fraction(1)])
        r = UniPoly([Fraction(rng.randint(-6, 6)) for _ in range(rng.randint(0, deg_y))])
        assert laurent_sqrt_polypart(y * y + r) == y


FRACTIONS = st.fractions(min_value=-20, max_value=20, max_denominator=12)


@settings(max_examples=60, deadline=None)
@given(st.lists(FRACTIONS, min_size=1, max_size=6), st.data())
def test_polypart_property_against_long_expansion(lower, data):
    # Y monic of degree len(lower); any r with deg r < deg Y.
    y = UniPoly(lower + [Fraction(1)])
    r = UniPoly(data.draw(st.lists(FRACTIONS, max_size=y.degree)))
    big_r = y * y + r
    assert laurent_sqrt_polypart(big_r) == y
    assert long_expansion_polypart(big_r, 2 * big_r.degree + 4) == y


@settings(max_examples=60, deadline=None)
@given(st.lists(FRACTIONS, min_size=0, max_size=11), st.integers(min_value=1, max_value=10**6))
def test_polypart_matches_the_fraction_recurrence(lower, scale):
    # Any monic r of even degree, with denominators up to 12 * scale: the
    # integer recurrence gives the Fraction recurrence's coefficients.
    if len(lower) % 2:
        lower = lower[:-1]
    r = UniPoly([c / scale for c in lower] + [Fraction(1)])
    assert laurent_sqrt_polypart(r) == long_expansion_polypart(r, r.degree // 2 + 1)
