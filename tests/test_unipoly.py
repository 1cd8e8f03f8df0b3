import math
import pickle
import random
import re
from fractions import Fraction
from itertools import zip_longest

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from abelpell import unipoly
from abelpell.unipoly import (
    UniPoly,
    gcd,
    interpolate,
    is_squarefree,
    poly,
    resultant,
    squarefree_decomposition,
)


def random_poly(rng: random.Random, max_degree: int, monic: bool = False) -> UniPoly:
    degree = rng.randint(0, max_degree)
    coeffs = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(degree)]
    coeffs.append(Fraction(1) if monic else Fraction(rng.choice([c for c in range(-9, 10) if c])))
    return UniPoly(coeffs)


def test_ring_basics():
    p = poly(-2, 0, 1)
    q = poly(1, 1)
    assert p + q == poly(-1, 1, 1)
    assert p - p == UniPoly(())
    assert p * q == poly(-2, -2, 1, 1)
    assert (q**3) == poly(1, 3, 3, 1)
    assert p.degree == 2 and UniPoly(()).degree == -1
    assert p.evaluate(Fraction(3, 2)) == Fraction(1, 4)


SCALAR_OPERATORS = {
    "p + c": lambda p, c: p + c,
    "c + p": lambda p, c: c + p,
    "p - c": lambda p, c: p - c,
    "c - p": lambda p, c: c - p,
    "p * c": lambda p, c: p * c,
    "c * p": lambda p, c: c * p,
    "p // c": lambda p, c: p // c,
    "p % c": lambda p, c: p % c,
    "divmod(p, c)": lambda p, c: divmod(p, c),
}
SCALARS = [3, Fraction(-2, 3), 0.1, "1", None]


@pytest.mark.parametrize("scalar", SCALARS, ids=repr)
@pytest.mark.parametrize("operator", SCALAR_OPERATORS)
def test_scalar_operands(operator, scalar):
    # An int or Fraction is taken exactly, as the constant polynomial it is;
    # any other type is a TypeError, never a float's binary expansion.
    apply, p = SCALAR_OPERATORS[operator], poly(1, 2, 3)
    if isinstance(scalar, (int, Fraction)):
        assert apply(p, scalar) == apply(p, UniPoly([scalar]))
    else:
        with pytest.raises(TypeError):
            apply(p, scalar)


@pytest.mark.parametrize("scalar", SCALARS, ids=repr)
def test_scalar_coefficients(scalar):
    if isinstance(scalar, (int, Fraction)):
        assert UniPoly([scalar, 1]).coeffs == poly(scalar, 1).coeffs == (Fraction(scalar), 1)
    else:
        with pytest.raises(TypeError):
            UniPoly([scalar, 1])
        with pytest.raises(TypeError):
            poly(scalar, 1)


def test_scalar_divisors_and_exponents():
    p = poly(1, 2, 3)
    assert p // 2 == poly(Fraction(1, 2), 1, Fraction(3, 2))
    assert divmod(p, Fraction(2, 3)) == (poly(Fraction(3, 2), 3, Fraction(9, 2)), poly())
    assert p % 2 == poly()
    with pytest.raises(ZeroDivisionError):
        p // 0
    assert p**2 == p**Fraction(2) == p * p
    for exponent in (Fraction(1, 2), 0.5, "2", None):
        with pytest.raises(TypeError, match=re.escape(f"exponent {exponent!r} ")):
            p**exponent


def test_divmod_exact():
    p = poly(-1, 0, 0, 1)
    quo, rem = divmod(p, poly(-1, 1))
    assert quo == poly(1, 1, 1) and rem.is_zero()
    quo, rem = divmod(poly(1, 2, 3), poly(0, 0, 5))
    assert quo == poly(Fraction(3, 5)) and rem == poly(1, 2)


def test_compose_and_substitute():
    p = poly(1, 2, 1)  # (x+1)^2
    assert p.compose_linear(2, -1) == poly(0, 0, 4)  # (2x-1+1)^2 = 4x^2
    assert poly(1, 1).substitute_power(3) == poly(1, 0, 0, 1)
    assert poly(0, 1).shift_degree(2) == poly(0, 0, 0, 1)


def test_squarefree_examples():
    # x^2 -> [(x, 2)]
    assert squarefree_decomposition(poly(0, 0, 1)) == [(poly(0, 1), 2)]
    # x^4 - 1 is squarefree: gcd with its derivative is 1.
    p = poly(-1, 0, 0, 0, 1)
    assert gcd(p, p.derivative()) == poly(1)
    assert squarefree_decomposition(p) == [(p, 1)]
    # 4x^4(x^4+1): direct expansion of P^2 - 1 for P = 2x^4 + 1.
    big = (poly(1, 0, 0, 0, 2) ** 2) - 1
    assert squarefree_decomposition(big) == [
        (poly(1, 0, 0, 0, 1), 1),
        (poly(0, 1), 4),
    ]


def test_squarefree_decomposition_of_a_linear_input_runs_no_gcd(monkeypatch):
    calls = []
    monkeypatch.setattr(unipoly, "gcd", lambda p, q: calls.append((p, q)) or gcd(p, q))
    assert squarefree_decomposition(poly(3, 2)) == [(poly(Fraction(3, 2), 1), 1)]
    assert squarefree_decomposition(poly(Fraction(-1, 3), -5)) == [(poly(Fraction(1, 15), 1), 1)]
    assert calls == []
    squarefree_decomposition(poly(0, 0, 0, 1))  # the wrapper does count a cubic's gcds
    assert calls


def test_squarefree_decomposition_of_a_quadratic_runs_no_gcd(monkeypatch):
    calls = []
    monkeypatch.setattr(unipoly, "gcd", lambda p, q: calls.append((p, q)) or gcd(p, q))
    third = poly(Fraction(-1, 3), 1)
    assert squarefree_decomposition(5 * third**2) == [(third, 2)]
    assert squarefree_decomposition(poly(9, 12, 4)) == [(poly(Fraction(3, 2), 1), 2)]
    assert squarefree_decomposition(poly(0, 0, -7)) == [(poly(0, 1), 2)]
    for p in (poly(4, 0, 27), poly(-1, 0, 1), poly(Fraction(1, 2), 3, -2)):
        assert squarefree_decomposition(p) == [(p.monic(), 1)]
    assert calls == []


def test_squarefree_reassembles(triples):
    rng = random.Random(7)
    fixtures = [t.p - 1 for t in triples] + [t.p + 1 for t in triples]
    fixtures += [random_poly(rng, 6) * random_poly(rng, 3) ** 2 for _ in range(20)]
    for p in fixtures:
        parts = squarefree_decomposition(p)
        assert math.prod((f**m for f, m in parts), start=poly(p.leading)) == p
        for factor, _ in parts:
            assert is_squarefree(factor) and factor.is_monic()


def sylvester_matrix(p: UniPoly, q: UniPoly) -> list[list[int]]:
    """The (deg p + deg q) square Sylvester matrix of two nonzero
    polynomials, on their numerators: its first deg q rows are scaled by
    p.den and its last deg p rows by q.den."""
    m, n = p.degree, q.degree
    prow, qrow = list(reversed(p.num)), list(reversed(q.num))
    rows = [[0] * i + prow + [0] * (n - 1 - i) for i in range(n)]
    rows += [[0] * i + qrow + [0] * (m - 1 - i) for i in range(m)]
    return rows


def bareiss(rows: list[list[int]]) -> tuple[int, int]:
    """(rank, det) of an integer matrix by fraction-free (Bareiss)
    elimination over Z: each update x*piv - f*y divides exactly by the
    previous pivot, so every entry stays an integer minor.  The determinant
    is that of a square matrix: the last pivot, signed by the row swaps, when
    the rank is full, and 0 otherwise."""
    rows = [row[:] for row in rows]
    rank, prev, sign = 0, 1, 1
    for c in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        if pivot != rank:
            rows[rank], rows[pivot] = rows[pivot], rows[rank]
            sign = -sign
        piv, top = rows[rank][c], rows[rank][c + 1 :]
        for row in rows[rank + 1 :]:
            f = row[c]
            for j, (x, y) in enumerate(zip(row[c + 1 :], top), c + 1):
                quo, rem = divmod(x * piv - f * y, prev)
                assert not rem, "Bareiss exact division failed"
                row[j] = quo
            row[c] = 0
        prev, rank = piv, rank + 1
    return rank, sign * prev if rank == len(rows) else 0


def sylvester_resultant(p: UniPoly, q: UniPoly) -> Fraction:
    """Oracle: the determinant of the Sylvester matrix, by :func:`bareiss` on
    the numerators, divided by the scales of its rows."""
    return Fraction(bareiss(sylvester_matrix(p, q))[1], p.den**q.degree * q.den**p.degree)


COEFF = st.fractions(min_value=-9, max_value=9, max_denominator=5)


def nonzero_polys(max_degree: int):
    """Rational coefficients and a leading coefficient that is rarely 1."""
    return st.builds(
        lambda low, lead: UniPoly(low + [lead]),
        st.lists(COEFF, max_size=max_degree),
        COEFF.filter(bool),
    )


@settings(max_examples=80, deadline=None)
@given(nonzero_polys(6), nonzero_polys(6), nonzero_polys(3))
@example(poly(Fraction(-3, 2)), poly(1, 2, Fraction(1, 3)), poly(1))  # deg p = 0
@example(poly(0, 2, -3, 5), poly(Fraction(7, 4)), poly(1))  # deg q = 0
@example(poly(1, -2), poly(3, 0, Fraction(-1, 2), 4), poly(Fraction(2, 3), -1))  # deg p < deg q
def test_resultant_matches_sylvester_property(p, q, common):
    assert resultant(p, q) == sylvester_resultant(p, q)
    assert resultant(q, p) == (-1) ** (p.degree * q.degree) * resultant(p, q)
    if common.degree >= 1:
        assert sylvester_resultant(p * common, q * common) == 0
        assert resultant(p * common, q * common) == 0


@settings(max_examples=80, deadline=None)
@given(nonzero_polys(8), nonzero_polys(4))
@example(poly(1, 2), poly(0, 0, 3))  # deg a < deg b
def test_mod_is_divmod_remainder_property(a, b):
    assert a % b == divmod(a, b)[1]


# -- the kernel against the Fraction schoolbook loops -------------------------


def schoolbook_mul(a: UniPoly, b: UniPoly) -> UniPoly:
    """Oracle: one Fraction multiply and add per pair of terms."""
    out = [Fraction(0)] * (len(a.coeffs) + len(b.coeffs))
    for i, x in enumerate(a.coeffs):
        for j, y in enumerate(b.coeffs):
            out[i + j] += x * y
    return UniPoly(out)


def schoolbook_divmod(a: UniPoly, b: UniPoly) -> tuple[UniPoly, UniPoly]:
    """Oracle: long division with one Fraction division per quotient term."""
    rem = list(a.coeffs)
    dd, dl = b.degree, b.leading
    quo = [Fraction(0)] * max(len(rem) - dd, 0)
    for i in range(len(rem) - 1, dd - 1, -1):
        c = rem[i] / dl
        quo[i - dd] = c
        for j, y in enumerate(b.coeffs):
            rem[i - dd + j] -= c * y
    return UniPoly(quo), UniPoly(rem)


def canonical(p: UniPoly) -> bool:
    """The normal form: integer numerators, trimmed, over a positive
    denominator sharing no factor with all of them; Fraction coefficients."""
    return (
        type(p.den) is int and p.den > 0 and all(type(c) is int for c in p.num)
        and (not p.num or p.num[-1] != 0) and math.gcd(p.den, *p.num) == 1
        and all(type(c) is Fraction for c in p.coeffs)
    )


def trimmed(cs) -> tuple[Fraction, ...]:
    cs = list(cs)
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def fraction_oracles(a: UniPoly, b: UniPoly, c: Fraction) -> dict:
    """Coefficient tuples of each kernel operation, computed on Fractions."""
    pairs = list(zip_longest(a.coeffs, b.coeffs, fillvalue=Fraction(0)))
    oracles = {
        "a + b": [x + y for x, y in pairs],
        "a - b": [x - y for x, y in pairs],
        "-a": [-x for x in a.coeffs],
        "a * c": [x * c for x in a.coeffs],
        "a'": [i * x for i, x in enumerate(a.coeffs)][1:],
        "a x^2": [Fraction(0)] * 2 + list(a.coeffs),
        "a + c": [x + y for x, y in zip_longest(a.coeffs, [c], fillvalue=Fraction(0))],
        "c - a": [y - x for x, y in zip_longest(a.coeffs, [c], fillvalue=Fraction(0))],
        "b monic": [y / b.coeffs[-1] for y in b.coeffs],
    }
    return {name: trimmed(cs) for name, cs in oracles.items()}


WIDE = st.one_of(
    COEFF,
    st.builds(Fraction, st.integers(-(2**70), 2**70), st.integers(2**64 + 1, 2**80)),
)


def polys(max_degree: int):
    """Possibly zero, with small and above-2^64 denominators and any lead."""
    return st.lists(WIDE, max_size=max_degree + 1).map(UniPoly)


def divisors(max_degree: int):
    """Nonzero: rational, non-primitive integer (content k > 1), or constant."""
    nonzero_int = st.integers(-9, 9).filter(bool)
    return st.one_of(
        st.builds(lambda low, lead: UniPoly(low + [lead]), st.lists(WIDE, max_size=max_degree),
                  WIDE.filter(bool)),
        st.builds(lambda low, lead, k: UniPoly([k * c for c in low + [lead]]),
                  st.lists(st.integers(-9, 9), max_size=max_degree), nonzero_int,
                  st.integers(2, 12)),
        WIDE.filter(bool).map(lambda c: UniPoly([c])),
    )


BIG = Fraction(2**65 + 3, 2**67 - 1)


@settings(max_examples=150, deadline=None)
@given(polys(9), divisors(5), WIDE)
@example(poly(1, 2, 3, 4, 5), poly(4, 0, 6), Fraction(1, 2))  # 6x^2 + 4 is not primitive
@example(UniPoly(()), poly(3), Fraction(0))  # zero dividend, constant divisor
@example(poly(BIG, -1, 0, BIG), poly(Fraction(-3, 7)), BIG)  # negative constant divisor
@example(poly(1, 2), poly(0, 0, -3), Fraction(2))  # deg a < deg b
@example(poly(BIG, -1, 0, BIG), poly(1, -BIG, Fraction(-7, 2**70 + 1)), BIG)
@example(poly(Fraction(1, 2), Fraction(1, 2)), poly(Fraction(-1, 2), Fraction(1, 2)), Fraction(2))
def test_kernel_matches_schoolbook_property(a, b, c):
    product = a * b
    assert product == schoolbook_mul(a, b) == b * a
    quo, rem = divmod(a, b)
    school_quo, school_rem = schoolbook_divmod(a, b)
    assert (quo, rem) == (school_quo, school_rem)
    assert a % b == rem and a // b == quo
    assert schoolbook_mul(quo, b) + rem == a and rem.degree < b.degree
    results = {
        "a * b": product, "a // b": quo, "a % b": rem,
        "a + b": a + b, "a - b": a - b, "-a": -a, "a * c": a * c, "a'": a.derivative(),
        "a x^2": a.shift_degree(2), "b monic": b.monic(), "a + c": a + c, "c - a": c - a,
    }
    oracles = fraction_oracles(a, b, c)
    oracles.update({"a * b": schoolbook_mul(a, b).coeffs, "a // b": school_quo.coeffs,
                    "a % b": school_rem.coeffs})
    for name, p in results.items():
        assert canonical(p), name
        assert p.coeffs == oracles[name], name
        # Equal coefficients, equal representation: == and hash follow.
        rebuilt = UniPoly(oracles[name])
        assert p == rebuilt and hash(p) == hash(rebuilt), name


# -- the remainder sequences against the Euclidean loops on UniPoly -----------


def euclid_gcd(p: UniPoly, q: UniPoly) -> UniPoly:
    """Oracle of ``gcd``: the Euclidean algorithm on ``%``, made monic."""
    a, b = p, q
    while not b.is_zero():
        a, b = b, a % b
    return a if a.is_zero() else a.monic()


def euclid_resultant(p: UniPoly, q: UniPoly) -> Fraction:
    """Oracle of ``resultant``: with r = a mod b, res(a, b) = (-1)^(deg a
    deg b) lc(b)^(deg a - deg r) res(b, r), 0 at a zero remainder, and
    res(a, c) = c^(deg a) for a constant c."""
    out, a, b = Fraction(1), p, q
    while b.degree > 0:
        r = a % b
        if r.is_zero():
            return Fraction(0)
        out *= (-1) ** (a.degree * b.degree) * b.leading ** (a.degree - r.degree)
        a, b = b, r
    return out * b.leading**a.degree


@settings(max_examples=120, deadline=None)
@given(polys(5), polys(5), divisors(2))
@example(UniPoly(()), UniPoly(()), poly(1))  # both zero
@example(poly(0, 4, -6), UniPoly(()), poly(3))  # non-primitive and zero
@example(poly(Fraction(-3, 2)), poly(1, 2, -3), poly(-2, 4))  # a constant
@example(poly(1, 2), poly(0, 0, -3), poly(Fraction(1, 2), -1))  # deg a < deg b
@example(poly(-1, 0, -1), poly(-1, 0, 0, -1), poly(5, 0, -10))  # negative leads
@example(poly(BIG, -1, 0, BIG), poly(1, -BIG, Fraction(-7, 2**70 + 1)), poly(BIG, 1))
def test_gcd_and_resultant_match_the_euclidean_oracles_property(a, b, c):
    for p, q in ((a, b), (b, a), (a * c, b * c)):
        assert gcd(p, q) == euclid_gcd(p, q)
        if not p.is_zero() and not q.is_zero():
            assert resultant(p, q) == euclid_resultant(p, q) == sylvester_resultant(p, q)


def test_gcd_builds_one_polynomial(monkeypatch):
    common, line = poly(-2, 0, 1), poly(1, 1)
    p, q = poly(Fraction(1, 2), 0, 3) * common, poly(6, Fraction(4, 3)) * common
    built = []
    init = unipoly._init
    monkeypatch.setattr(unipoly, "_init", lambda *args: built.append(args) or init(*args))
    assert gcd(p, q) == common and len(built) == 1
    assert resultant(p, q) == 0 and resultant(p, line) == p.evaluate(-1) == Fraction(-7, 2)
    assert len(built) == 1


@settings(max_examples=80, deadline=None)
@given(polys(6), st.integers(-2, 2), st.integers(0, 3))
@example(UniPoly(()), 1, 2)  # zero stays zero
@example(poly(3), -1, 0)  # a nonzero constant has no root
def test_deflate_property(p, root, k):
    # Multiply the root in k times; deflate takes out every copy, the k
    # and any p had, and nothing else.
    linear = poly(-root, 1)
    q = p * linear**k
    out = q.deflate(root)
    assert canonical(out)
    if p.is_zero():
        assert out.is_zero()
        return
    assert out.evaluate(root) != 0
    copies = q.degree - out.degree
    assert copies >= k and out * linear**copies == q
    assert out == p.deflate(root)


@settings(max_examples=80, deadline=None)
@given(polys(5), st.integers(1, 4), st.data())
def test_power_part_inverts_substitute_power_property(p0, m, data):
    if p0.is_zero():
        with pytest.raises(ValueError):
            p0.power_part(m)
        return
    j = data.draw(st.integers(0, m - 1))
    p = p0.substitute_power(m).shift_degree(j)
    # p0 may have low zero coefficients, so p's lowest term can sit above x^j.
    assert p.power_part(m) == (p0, j)
    assert canonical(p.power_part(m)[0])
    if m > 1:
        # A stray term off the exponents j + m*i leaves the form.
        stray = p + poly(*[0] * ((j + 1) % m + m * p0.degree), 1)
        with pytest.raises(ValueError, match="is not x\\^"):
            stray.power_part(m)


def test_power_part_examples():
    assert poly(0, 0, 0, 1, 0, 0, 5).power_part(3) == (poly(0, 1, 5), 0)
    with pytest.raises(ValueError):  # x (1 + x^3) + x^2
        poly(0, 1, 1, 0, 1).power_part(3)
    with pytest.raises(ValueError):
        poly(1, 1).power_part(0)


def test_an_instance_holds_num_and_den_only():
    assert UniPoly.__slots__ == ("num", "den")
    assert not hasattr(poly(1, 2), "__dict__")


def test_deflate_rejects_a_root_that_is_not_an_int():
    with pytest.raises(TypeError, match=re.escape("root Fraction(-1, 2)")):
        poly(1, 2).deflate(Fraction(-1, 2))
    with pytest.raises(TypeError, match="root 1.0"):
        poly(-1, 1).deflate(1.0)


def test_normal_form_examples():
    half = poly(Fraction(1, 2), 0, 3)
    assert (half.num, half.den) == ((1, 0, 6), 2)
    assert (UniPoly(()).num, UniPoly(()).den) == ((), 1)
    assert UniPoly([Fraction(2, 4)]) == UniPoly([Fraction(1, 2)])
    assert (poly(2, 4, 0) * Fraction(1, 2)).num == (1, 2)
    assert (poly(2, 4) * Fraction(1, 2)).den == 1
    assert poly(Fraction(1, 2), Fraction(1, 2)) - poly(Fraction(1, 2)) == poly(0, Fraction(1, 2))
    assert (poly(1, 3) * 0).den == 1 and (poly(Fraction(1, 3)) - Fraction(1, 3)).den == 1
    assert hash(poly(1, 2) * Fraction(1, 2)) == hash(poly(Fraction(1, 2), 1))
    assert poly(Fraction(1, 2), 1) != poly(1, 2)
    # coeffs is built from num and den on each read.
    assert half.coeffs == half.coeffs == (Fraction(1, 2), 0, 3)
    assert half.leading == 3 and half.coeff(0) == Fraction(1, 2) and half.coeff(9) == 0
    assert poly(Fraction(1, 2), 1).is_monic() and poly(Fraction(1, 2), 0, 1).is_normalized()
    with pytest.raises(AttributeError):
        half.num = (1,)
    assert pickle.loads(pickle.dumps(half)) == half


def test_resultant_examples():
    assert resultant(poly(-1, 1), poly(1, 1)) == 2
    # Sylvester determinant of (x^2 - 2, 2x) by hand:
    # det [[1, 0, -2], [2, 0, 0], [0, 2, 0]] = -8.
    assert resultant(poly(-2, 0, 1), poly(0, 2)) == -8
    # res(x^2, x + 1) = value of x^2 at -1.
    assert resultant(poly(0, 0, 1), poly(1, 1)) == 1
    with pytest.raises(ValueError):
        resultant(UniPoly(()), poly(1, 1))


def test_gcd_resultant_agreement():
    rng = random.Random(2024)
    for _ in range(60):
        p = random_poly(rng, 8)
        q = random_poly(rng, 8)
        g = gcd(p, q)
        assert (p % g).is_zero() and (q % g).is_zero()
        if g.degree >= 1:
            assert g.is_monic()
            # Cofactors are coprime, so g really is the gcd.
            assert gcd(p.exact_div(g), q.exact_div(g)) == poly(1)
        assert (resultant(p, q) != 0) == (g == poly(1))


def test_exact_rational_identity():
    rng = random.Random(64)
    for _ in range(100):
        a, c = rng.getrandbits(64), rng.getrandbits(64)
        b, d = rng.getrandbits(64) + 1, rng.getrandbits(64) + 1
        assert (Fraction(a, b) + Fraction(c, d)) * d * b == a * d + c * b


def newton_interpolate(points) -> UniPoly:
    """Oracle: Newton's divided differences on Fractions, at any distinct nodes."""
    xs = [Fraction(x) for x, _ in points]
    coeffs = [Fraction(y) for _, y in points]
    for level in range(1, len(points)):
        for i in range(len(points) - 1, level - 1, -1):
            coeffs[i] = (coeffs[i] - coeffs[i - 1]) / (xs[i] - xs[i - level])
    acc = UniPoly(())
    for x, c in zip(reversed(xs), reversed(coeffs)):
        acc = acc * UniPoly((-x, 1)) + c
    return acc


def test_interpolate_roundtrip():
    rng = random.Random(5)
    for _ in range(20):
        p = random_poly(rng, 6)
        assert interpolate([p.evaluate(Fraction(s)) for s in range(p.degree + 1)]) == p
    assert interpolate([]) == UniPoly(()) and interpolate([Fraction(-3, 4)]) == poly(Fraction(-3, 4))


@settings(max_examples=150, deadline=None)
@given(st.lists(WIDE, max_size=12))
@example([0, 0, 0])
@example([1, -1, 1, -1, 1, -1, 1, -1, 1, -1, 1, -1])
def test_interpolate_matches_newton_property(values):
    p = interpolate(values)
    assert canonical(p) and p.degree < len(values)
    assert p == newton_interpolate(list(enumerate(values)))
    assert [p.evaluate(s) for s in range(len(values))] == values
