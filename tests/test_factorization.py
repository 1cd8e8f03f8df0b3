"""Zassenhaus factorization over Q, checked against sympy's ``factor_list``.

sympy is only a test dependency: it is the oracle here, for the primes of
the good-prime scan here and in ``test_pell.py``, and for the matrix rank
in ``test_strata.py``, and nowhere else.
"""
import hashlib
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from itertools import count
from math import gcd
from pathlib import Path

import pytest
import sympy
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from test_unipoly import COEFF, nonzero_polys

from abelpell import factorization, geometry, pell
from abelpell.factorization import (
    _add,
    _good_prime,
    _sub,
    _zassenhaus,
    factor_rational,
    fp_divmod,
    fp_gcd,
    fp_mul,
    fp_powmod,
    fp_xgcd,
)
from abelpell.limits import ResourceLimit
from abelpell.pell import PellTriple
from abelpell.unipoly import UniPoly, is_squarefree, poly, resultant

ROOT = Path(__file__).resolve().parents[1]


def sympy_factors(p: UniPoly) -> list[tuple[UniPoly, int]]:
    """Oracle: sympy's factorization over QQ, in factor_rational's form."""
    x = sympy.Symbol("x")
    coeffs = [sympy.Rational(c.numerator, c.denominator) for c in reversed(p.coeffs)]
    _, factors = sympy.Poly(coeffs, x, domain="QQ").factor_list()
    out = [
        (UniPoly(Fraction(int(c.p), int(c.q)) for c in reversed(f.all_coeffs())).monic(), int(m))
        for f, m in factors
    ]
    return sorted(out, key=lambda fm: (fm[0].degree, fm[0].coeffs))


def swinnerton_dyer(primes: list[int]) -> UniPoly:
    """prod (x - sum of +-sqrt(q)) over all sign choices: irreducible of
    degree 2^len(primes), yet a product of factors of degree <= 2 modulo
    every prime.  Each q doubles f by f(x - y) f(x + y) with y^2 = q."""
    f = poly(0, 1)
    for q in primes:
        even, odd = UniPoly(()), UniPoly(())  # f(x + y) = even + y * odd
        pe, po = poly(1), UniPoly(())  # (x + y)^i = pe + y * po
        for c in f.coeffs:
            even, odd = even + pe * c, odd + po * c
            pe, po = pe * poly(0, 1) + po * q, pe + po * poly(0, 1)
        f = even * even - odd * odd * q
    return f


#: SHA-256 over the sorted reprs of workload_factor_inputs(), recorded when
#: every triple, inflations too, passed its own deflated branch polynomial to
#: factor_rational: 321 polynomials of degrees 0-11.
WORKLOAD_FACTOR_INPUTS_SHA256 = "5a91799529aca15c8086d8c3a9a84e88b490be659052a6c61909c236a370b94a"


def workload_factor_inputs() -> set[UniPoly]:
    """The branch polynomial of every triple of the benchmark's
    triple_analysis workload (seeds 101-103, rounds 0-2), with its roots at
    +-1 divided out: what unassigned_branch factors for a triple that is no
    inflation, and the same polynomials of higher degree for one that is."""
    sys.path.insert(0, str(ROOT))
    try:
        from perfbench import workloads
    finally:
        sys.path.remove(str(ROOT))
    seen: set[UniPoly] = set()
    for seed in (101, 102, 103):
        for index in range(3):
            for case in workloads.triple_cases(seed, index):
                t = PellTriple.build(UniPoly(case.p), UniPoly(case.q), UniPoly(case.r))
                seen.add(geometry.branch_polynomial(t).deflate(1).deflate(-1))
    return seen


def test_matches_sympy_on_workload_inputs():
    inputs = workload_factor_inputs()
    digest = hashlib.sha256("\n".join(sorted(map(repr, inputs))).encode())
    assert digest.hexdigest() == WORKLOAD_FACTOR_INPUTS_SHA256
    for p in inputs:
        assert factor_rational(p) == sympy_factors(p), p


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.tuples(nonzero_polys(4), st.integers(1, 3)), min_size=1, max_size=3),
    st.fractions(min_value=-9, max_value=9, max_denominator=5).filter(bool),
)
def test_matches_sympy_on_products_property(parts, scale):
    p = poly(scale)
    for factor, mult in parts:
        p = p * factor**mult
    assert factor_rational(p) == sympy_factors(p)


def integer_polys(max_degree: int):
    """Integer polynomials of degree 1 to max_degree."""
    return st.builds(
        lambda low, lead: UniPoly(low + [lead]),
        st.lists(st.integers(-20, 20), min_size=1, max_size=max_degree),
        st.integers(-20, 20).filter(bool),
    )


# Both squarefree parts of (x^4 + 1)(x^4 + 2)^2 split modulo 3 into several
# factors of one degree: two quadratics, and two linear factors beside x^2 + 1.
X4_PLUS_1, X4_PLUS_2 = poly(1, 0, 0, 0, 1), poly(2, 0, 0, 0, 1)


@settings(max_examples=60, deadline=None)
@given(integer_polys(5), integer_polys(5))
@example(X4_PLUS_1, X4_PLUS_2)
@example(X4_PLUS_2, X4_PLUS_1)
def test_two_part_products_match_sympy_property(a, b):
    # a * b^2 for coprime squarefree a and b: Yun's decomposition gives two
    # parts, each factored on its own.
    assume(is_squarefree(a) and is_squarefree(b) and resultant(a, b))
    p = a * b**2
    assert factor_rational(p) == sympy_factors(p)


def test_each_part_that_splits_seeds_its_own_generator(monkeypatch):
    parts, drawn = [], []
    factor_squarefree = factorization._factor_squarefree
    monkeypatch.setattr(factorization, "_factor_squarefree",
                        lambda part: parts.append(part) or factor_squarefree(part))

    class Counting(random.Random):
        def __init__(self, seed):
            assert seed == 0
            drawn.append(parts[-1])
            super().__init__(seed)

    monkeypatch.setattr(random, "Random", Counting)
    p = X4_PLUS_1 * X4_PLUS_2**2
    assert factor_rational(p) == sympy_factors(p)
    assert parts == [X4_PLUS_1, X4_PLUS_2]
    assert set(drawn) == {X4_PLUS_1, X4_PLUS_2}


def test_a_factorization_seeds_one_generator(monkeypatch):
    # x^3 - 4x + 3 = (x - 1)(x^2 + x - 3) is x(x - 1)(x + 1) modulo 3: the
    # equal-degree step splits twice, from one generator.
    seeds = []

    class Counting(random.Random):
        def __init__(self, seed):
            seeds.append(seed)
            super().__init__(seed)

    monkeypatch.setattr(random, "Random", Counting)
    p = poly(3, -4, 0, 1)
    assert factorization._good_prime([3, -4, 0, 1], 3)[0] == 3
    assert factor_rational(p) == sympy_factors(p)
    assert seeds == [0]
    seeds.clear()
    assert factor_rational(poly(-1, -1, 0, 1)) == [(poly(-1, -1, 0, 1), 1)]  # irreducible mod 3
    assert seeds == []


def test_small_workload_inputs_never_reach_the_modular_pipeline(monkeypatch):
    # A squarefree part of degree <= 2 is answered in closed form, so no
    # input of degree <= 2 runs distinct-degree factorization.
    def fail(f, p):
        raise AssertionError(f"distinct-degree factorization ran on {f} mod {p}")

    monkeypatch.setattr(factorization, "_distinct_degree", fail)
    small = [p for p in workload_factor_inputs() if p.degree <= 2]
    assert small
    for p in small:
        factor_rational(p)


#: Irreducible cubics with Galois group S3 (no square discriminant), and two
#: quartics that split modulo every prime, so the degree analysis cannot
#: prove them irreducible: x^4 + 1 and x^4 - 10 x^2 + 1, the minimal
#: polynomial of sqrt 2 + sqrt 3.
S3_CUBICS = [poly(1, 1, 0, 1), poly(-1, -1, 0, 1), poly(-2, 0, 0, 1), poly(3, -4, 0, 1)]
SPLIT_QUARTICS = [X4_PLUS_1, poly(1, 0, -10, 0, 1)]


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.tuples(st.sampled_from(S3_CUBICS + SPLIT_QUARTICS), COEFF.filter(bool), COEFF,
                       st.integers(1, 2)), min_size=1, max_size=2),
    nonzero_polys(3),
)
def test_degree_analysis_matches_sympy_property(parts, other):
    # Each special part under x -> a x + b, which keeps its Galois group.
    p = other
    for f, a, b, mult in parts:
        p = p * f.compose_linear(a, b) ** mult
    assert factor_rational(p) == sympy_factors(p)


def test_degree_analysis_lifts_only_what_it_cannot_prove_irreducible(monkeypatch):
    # x^3 + x + 1 is (x - 1)(x^2 + x - 1) modulo 3, the first good prime,
    # and irreducible modulo 5; x^4 + 1 splits modulo every odd prime.
    lifted = []
    hensel_lift = factorization._hensel_lift
    monkeypatch.setattr(factorization, "_hensel_lift",
                        lambda f, *args: lifted.append(f) or hensel_lift(f, *args))
    cubic = S3_CUBICS[0]
    p, fp = _good_prime(list(cubic.num), 3)
    assert p == 3 and [d for _, d in factorization._distinct_degree(fp, p)] == [1, 2]
    assert factor_rational(cubic) == [(cubic, 1)]
    assert lifted == []
    assert factor_rational(X4_PLUS_1) == [(X4_PLUS_1, 1)]
    assert lifted

HEIGHT = 2**256
RATIONALS = st.builds(Fraction, st.integers(-HEIGHT, HEIGHT), st.integers(1, HEIGHT))
NONZERO_RATIONALS = RATIONALS.filter(bool)


@st.composite
def quadratics(draw) -> UniPoly:
    """A quadratic with rational coefficients of height up to 2^256: half of
    them the product of two rational linear factors, so they split."""
    if draw(st.booleans()):
        linear = st.tuples(RATIONALS, NONZERO_RATIONALS)
        return poly(*draw(linear)) * poly(*draw(linear))
    return poly(draw(RATIONALS), draw(RATIONALS), draw(NONZERO_RATIONALS))


@settings(max_examples=100, deadline=None)
@given(quadratics())
@example(poly(0, 3, -6))  # a zero constant term and a negative lead
@example(poly(0, 0, -5))  # a square: Yun leaves a linear part
@example(poly(1, 0, -HEIGHT))  # splits: 1 - (2^128 x)^2
@example(poly(-2, 0, -HEIGHT))  # irreducible, negative discriminant
@example(poly(Fraction(HEIGHT - 1, HEIGHT), Fraction(-HEIGHT, 3), Fraction(7, HEIGHT + 1)))
def test_quadratics_match_sympy_and_zassenhaus_property(p):
    expected = sympy_factors(p)
    assert factor_rational(p) == expected
    if is_squarefree(p):
        modular = _zassenhaus(p.monic())
        modular.sort(key=lambda f: (f.degree, f.coeffs))
        assert [(f, 1) for f in modular] == expected


def test_explicit_cases():
    assert factor_rational(poly(3, 2)) == [(poly(Fraction(3, 2), 1), 1)]
    assert factor_rational(poly(Fraction(-7, 3))) == []
    with pytest.raises(ValueError):
        factor_rational(UniPoly(()))
    # Non-monic, with denominators and a repeated factor.
    p = poly(Fraction(-1, 3), 2) ** 2 * poly(1, 0, Fraction(3, 5)) * Fraction(7, 4)
    assert factor_rational(p) == [
        (poly(Fraction(-1, 6), 1), 2),
        (poly(Fraction(5, 3), 0, 1), 1),
    ]
    for primes in ([2, 3], [2, 3, 5]):
        sd = swinnerton_dyer(primes)
        assert factor_rational(sd) == [(sd, 1)] == sympy_factors(sd)


def test_cyclotomic():
    # x^n - 1 is the product of the cyclotomic Phi_d over d | n, each
    # irreducible; Phi_n is computed by exact division, without sympy.
    phi = {}
    for n in range(1, 31):
        rest = poly(-1, *([0] * (n - 1)), 1)
        for d in range(1, n):
            if n % d == 0:
                rest = rest.exact_div(phi[d])
        phi[n] = rest
        assert factor_rational(phi[n]) == [(phi[n], 1)]
        expected = [(phi[d], 1) for d in range(1, n + 1) if n % d == 0]
        expected.sort(key=lambda fm: (fm[0].degree, fm[0].coeffs))
        assert factor_rational(poly(-1, *([0] * (n - 1)), 1)) == expected


def test_recombination_cap():
    # Degree 64, irreducible, and 32 quadratic factors modulo every good
    # prime: recombination would try about 2^31 subsets.
    sd = swinnerton_dyer([2, 3, 5, 7, 11, 13])
    start = time.perf_counter()
    with pytest.raises(ResourceLimit, match="cap"):
        factor_rational(sd)
    assert time.perf_counter() - start < 2


def reduced(coeffs, p: int) -> list[int]:
    out = [c % p for c in coeffs]
    while out and not out[-1]:
        out.pop()
    return out


def fp_add(a: list[int], b: list[int], p: int) -> list[int]:
    longer, shorter = (a, b) if len(a) >= len(b) else (b, a)
    return reduced([c + (shorter[i] if i < len(shorter) else 0) for i, c in enumerate(longer)], p)


FP_POLY = st.lists(st.integers(0, 10**6), max_size=8)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([3, 5, 7, 101, 10007]), FP_POLY, FP_POLY.filter(any), st.integers(0, 40))
def test_fp_kernel_laws(p, a, b, e):
    a, b = reduced(a, p), reduced(b, p)
    if not b:
        return
    q, r = fp_divmod(a, b, p)
    assert len(r) < len(b) and fp_add(fp_mul(q, b, p), r, p) == a
    g, s, t = fp_xgcd(a, b, p)
    assert g == fp_gcd(a, b, p) and g[-1] == 1
    assert fp_add(fp_mul(s, a, p), fp_mul(t, b, p), p) == g
    assert not fp_divmod(a, g, p)[1] and not fp_divmod(b, g, p)[1]
    power = fp_divmod([1], b, p)[1]
    for _ in range(e):
        power = fp_divmod(fp_mul(power, a, p), b, p)[1]
    assert fp_powmod(a, e, b, p) == power


def schoolbook_fp_divmod(a: list[int], b: list[int], m: int) -> tuple[list[int], list[int]]:
    """Oracle of ``fp_divmod``: quotient and remainder of a by b modulo m,
    each step subtracting c * b, its top term too, from a copy of a."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(a)
    db = len(b) - 1
    inv = pow(b[-1], -1, m)
    quo = [0] * max(len(rem) - db, 0)
    for i in range(len(rem) - 1, db - 1, -1):
        c = rem[i] * inv % m
        if c:
            quo[i - db] = c
            for j, y in enumerate(b):
                rem[i - db + j] -= c * y
    return reduced(quo, m), reduced(rem[:db], m)


def kernel_fp_gcd(a: list[int], b: list[int], p: int) -> list[int]:
    """Oracle of ``fp_gcd``: the Euclidean loop on ``schoolbook_fp_divmod``,
    made monic."""
    while b:
        a, b = b, schoolbook_fp_divmod(a, b, p)[1]
    return fp_mul(a, [pow(a[-1], -1, p)], p) if a else a


FP_WIDE = st.lists(st.integers(0, 2**31), max_size=8)
# Primes and, as Hensel lifting uses, prime powers.
FP_MODULI = [3, 3**5, 7, 7**3, 101, 101**2, pell._PRIME, pell._PRIME**2]


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(FP_MODULI), FP_WIDE, FP_WIDE, st.integers(1, 2**62))
@example(3**5, [], [1, 2], 4)  # zero dividend
@example(7, [5], [], 2)  # constant dividend and divisor
@example(7**3, [5], [1, 2, 3], 5)  # constant dividend, longer divisor
@example(pell._PRIME**2, [1, 2], [0, 0, 0], 1)  # a monomial divisor, longer
@example(101, [1, 2, 3, 4, 5, 6, 7, 8], [9, 9], 100)  # a top term of -1
def test_fp_divmod_matches_the_schoolbook_loop_property(m, a, low, lead):
    # The divisor's leading coefficient is a unit modulo m.
    if gcd(lead, m) != 1:
        return
    a, b = reduced(a, m), [c % m for c in low] + [lead % m]
    held = list(a)
    assert fp_divmod(a, b, m) == schoolbook_fp_divmod(a, b, m)
    assert a == held


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([3, 5, 7, 101, pell._PRIME]), FP_WIDE, FP_WIDE, FP_WIDE)
@example(3, [], [], [])  # both zero
@example(5, [2], [], [1])  # a nonzero constant and zero
@example(7, [1, 2, 1], [3, 3], [])  # a common root, b not monic
@example(pell._PRIME, [1, 0, 1], [pell._PRIME - 1, 0, 1], [2, 1])  # coprime
def test_fp_gcd_matches_the_divmod_loop_property(p, a, b, c):
    a, b, c = reduced(a, p), reduced(b, p), reduced(c, p)
    for x, y in ((a, b), (b, a), (fp_mul(a, c, p), fp_mul(b, c, p))):
        held = (list(x), list(y))
        assert fp_gcd(x, y, p) == kernel_fp_gcd(x, y, p)
        assert (x, y) == held


FP_SMALL = st.lists(st.integers(-3, 3), max_size=5)  # zeros, and sums that cancel


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([2, 3, 7**3, 101, pell._PRIME]), FP_SMALL | FP_WIDE, FP_SMALL | FP_WIDE)
@example(3, [], [])  # both empty
@example(5, [], [1, 2])  # one empty, on either side
@example(5, [1, 2], [])
@example(7, [1, 2, 3], [1, 2, 3])  # a - b cancels to zero
@example(7, [1, 2, 3], [6, 5, 4])  # a + b cancels to zero modulo 7
@example(5, [1, 2, 3], [0, 1, 2])  # only the top term of a + b cancels
@example(7**3, [7, 14], [49])  # a product that vanishes modulo a prime power
def test_fp_add_sub_mul_match_the_schoolbook_loops_property(m, a, b):
    n = max(len(a), len(b))
    pairs = list(zip(a + [0] * (n - len(a)), b + [0] * (n - len(b))))
    product = [0] * (len(a) + len(b))
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            product[i + j] += x * y
    held = (list(a), list(b))
    assert _add(a, b, m) == reduced([x + y for x, y in pairs], m)
    assert _sub(a, b, m) == reduced([x - y for x, y in pairs], m)
    assert fp_mul(a, b, m) == reduced(product, m)
    assert (a, b) == held


def test_good_prime_scans_to_the_next_prime():
    # p0 x^2 + 1 is bad only at p0, which divides its lead (its discriminant
    # is -4 p0), so the scan from p0 returns the prime after it.  The starts
    # take in 3, the start of factor_rational, and pell._PRIME, the largest
    # prime below 2^30 and the start of the F_p search.
    assert pell._PRIME == 2**30 - 35 and sympy.isprime(pell._PRIME)
    assert sympy.nextprime(pell._PRIME) > 2**30
    starts = [*sympy.primerange(3, 1000), *sympy.primerange(2**30 - 1000, 2**30),
              *sympy.primerange(2**31 - 1000, 2**31)]
    assert starts[0] == 3 and pell._PRIME in starts
    for p0 in starts:
        assert _good_prime([1, 0, p0], p0)[0] == sympy.nextprime(p0), p0


def trial_good_prime(f: list[int]) -> int:
    """Oracle of ``_good_prime(f, 3)``: the least odd prime, by sympy, that
    divides neither lc(f) nor the resultant of f and f' (modulo a p not
    dividing lc(f), f is squarefree exactly when p does not divide that
    resultant)."""
    res = resultant(UniPoly(f), UniPoly(f).derivative())
    return next(p for p in count(3, 2) if sympy.isprime(p) and f[-1] % p and res % p)


@pytest.mark.parametrize("f, p", [
    ([1, 1, 105], 11),  # 105 x^2 + x + 1: the lead is 3 * 5 * 7
    ([-105, 0, 1], 11),  # x^2 - 105: the discriminant 420 is 4 * 3 * 5 * 7
    ([7, 0, 15], 11),  # 15 x^2 + 7: 3 and 5 divide the lead, 7 the discriminant
    ([1, 1, 1155], 13),  # and 11 too
    ([-1155 * 13, 0, 1], 17),
    ([1, 0, 0, 0, 3 * 5 * 7 * 11 * 13 * 17 * 19 * 23], 29),
])
def test_good_prime_matches_a_trial_division_scan(f, p):
    # The scan also returns f made monic modulo the prime it picks.
    assert trial_good_prime(f) == p
    assert _good_prime(f, 3) == (p, reduced([c * pow(f[-1], -1, p) for c in f], p))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(-30, 30), min_size=2, max_size=6),
       st.sets(st.sampled_from([3, 5, 7])), st.integers(1, 9))
def test_good_prime_matches_a_trial_division_scan_property(low, lead_primes, lead):
    # The lead is a multiple of the chosen primes among 3, 5 and 7.
    for q in lead_primes:
        lead *= q
    f = low + [lead]
    if resultant(UniPoly(f), UniPoly(f).derivative()) == 0:
        return
    p = trial_good_prime(f)
    assert _good_prime(f, 3) == (p, reduced([c * pow(f[-1], -1, p) for c in f], p))


CONJUGATE_X5_X = ("x^5+x", "1", "(x^5+x)^2-1")


@pytest.mark.parametrize("script", [
    "from abelpell.cli import main\n"
    f"assert main(['abel', 'ramspec', *{CONJUGATE_X5_X!r}]) == 0\n"
    f"assert main(['abel', 'hurwitz', *{CONJUGATE_X5_X!r}]) == 0\n",
    "from abelpell import hurwitz_report, ramspec_of\n"
    "from abelpell.parsing import parse_poly\n"
    "from abelpell.pell import PellTriple\n"
    f"t = PellTriple.build(*map(parse_poly, {CONJUGATE_X5_X!r}))\n"
    "assert ramspec_of(t).members == ((2, 1, 1, 1),) * 4 + ((1,) * 5,) * 2\n"
    "hurwitz_report(t)\n",
], ids=["cli", "library"])
def test_runtime_never_imports_sympy(script):
    # x^5 + x has the conjugate branch values t^4 = -256/3125, a quartic, so
    # the modular factorization runs.
    script += "import sys\nassert 'sympy' not in sys.modules, 'sympy was imported'\n"
    done = subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
