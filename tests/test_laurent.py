import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abelpell.laurent import LaurentTail, PrecisionError, laurent_sqrt_polypart, sqrt_tail
from abelpell.unipoly import UniPoly, poly


def test_window_bookkeeping():
    t = LaurentTail.from_poly(poly(-2, 0, 1), -3)
    assert t.top == 2 and t.floor == -3 and t.precision == 6
    assert t.coeff(0) == -2 and t.coeff(-1) == 0
    with pytest.raises(PrecisionError):
        t.coeff(-4)


def test_add_trims_and_keeps_window():
    a = LaurentTail.from_poly(poly(0, 0, 1), -2)
    b = LaurentTail.from_poly(poly(5, 0, -1), -4)
    s = a + b
    assert s.top == 0 and s.floor == -2
    assert s.coeff(0) == 5


def test_mul_precision_rule():
    # Both factors known to 4 coefficients: the product is too.
    a = LaurentTail(-1, (Fraction(1), Fraction(2), Fraction(3), Fraction(4)))
    b = LaurentTail(-2, (Fraction(1), Fraction(-1), Fraction(0), Fraction(2)))
    prod = a * b
    assert prod.precision == min(a.precision, b.precision)
    assert prod.top == a.top + b.top
    assert prod.coeff(prod.top) == 1


def test_sqrt_squares_back():
    rng = random.Random(11)
    for _ in range(20):
        degree = rng.choice([2, 4, 6])
        p = UniPoly(
            [Fraction(rng.randint(-5, 5)) for _ in range(degree)] + [Fraction(1)]
        )
        root = sqrt_tail(p, 12)
        square = root * root
        for d in range(square.top, square.floor - 1, -1):
            assert square.coeff(d) == (p.coeff(d) if d >= 0 else 0)


def test_poly_part_needs_window():
    t = LaurentTail.from_poly(poly(0, 0, 1), 1)
    with pytest.raises(PrecisionError):
        t.poly_part()


def test_polypart_examples():
    assert laurent_sqrt_polypart(poly(-2, 0, 1)) == poly(0, 1)
    assert laurent_sqrt_polypart(poly(1, 0, 0, 0, 1)) == poly(0, 0, 1)
    assert laurent_sqrt_polypart(poly(0, 2, 0, 0, 1)) == poly(0, 0, 1)
    with pytest.raises(ValueError):
        laurent_sqrt_polypart(poly(1, 1, 0, 1))  # odd degree
    with pytest.raises(ValueError):
        laurent_sqrt_polypart(poly(1, 0, 2))  # not monic


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
    assert sqrt_tail(big_r, 2 * big_r.degree + 4).poly_part() == y
