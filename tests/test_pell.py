import dataclasses
import json
import random
from fractions import Fraction
from itertools import islice
from pathlib import Path

import pytest
import sympy
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from conftest import chebyshev_triple, kubert_r
from test_factorization import schoolbook_fp_divmod
from test_parsing import int_digit_limit

from abelpell import factorization, pell, unipoly
from abelpell.factorization import _add, _squarefree_mod, _sub, fp_mul
from abelpell.parsing import parse_poly
from abelpell.pell import (
    CHART_GENERAL,
    CHART_MONIC,
    CHART_NORMALIZED,
    INFLATE_DIVIDES,
    INFLATE_EVEN_HALF,
    INFLATE_ODD,
    Obstruction,
    PellTriple,
    cf_steps,
    fundamental_unit,
    inflate,
    laurent_sqrt_polypart,
    least_unit,
    minimal_solution,
    normalize,
    pell_compose,
    pell_power,
    pell_solve,
    pell_verify,
    rational_nth_root,
    unit_compose,
)
from abelpell.unipoly import UniPoly, is_squarefree, poly

R_MINUS2 = poly(-2, 0, 1)
R_PLUS2 = poly(2, 0, 1)
R_QUARTIC = poly(1, 1, 0, 0, 1)  # x^4 + x + 1


def test_cf_first_convergents():
    steps = list(islice(cf_steps(R_MINUS2), 1))
    assert (steps[0].p, steps[0].q) == (poly(0, 1), poly(1))
    assert steps[0].norm == poly(2)
    steps = list(islice(cf_steps(R_PLUS2), 2))
    assert (steps[1].p, steps[1].q) == (poly(1, 0, 1), poly(0, 1))
    assert steps[1].norm == poly(1)


def test_cf_no_constant_norm_for_quartic():
    steps = list(islice(cf_steps(R_QUARTIC), 10))
    bounded = [s for s in steps if s.p.degree <= 10]
    assert bounded and not any(s.constant_norm for s in bounded)


def test_cf_surd_invariant_and_rejections():
    # Each surd stays reduced by exact_div, which raises otherwise; its
    # denominator is the step's norm up to sign, checked against P^2 - R*Q^2
    # by the norm tests below.
    with pytest.raises(ValueError):
        cf_steps(poly(0, 0, 1))  # x^2 is not squarefree
    with pytest.raises(ValueError):
        cf_steps(poly(0, 1))  # odd degree


def test_solve_examples():
    t = pell_solve(R_MINUS2, 5)
    assert (t.p, t.q, t.order) == (poly(-1, 0, 1), poly(0, 1), 2)
    t = pell_solve(R_PLUS2, 5)
    assert (t.p, t.q, t.order) == (poly(1, 0, 1), poly(0, 1), 2)
    assert pell_solve(R_QUARTIC, 10) is None
    with pytest.raises(ValueError):
        pell_solve(R_MINUS2, 0)  # n_max below genus + 1


def test_solve_minimality_against_convergents():
    for r in (R_MINUS2, R_PLUS2, poly(-3, 1, 1, 0, 0, 0, 1)):
        t = pell_solve(r, 12)
        if t is None:
            continue
        # no convergent of smaller degree already has a square constant norm
        for step in islice(cf_steps(r), 12):
            if step.p.degree >= t.order:
                break
            if step.constant_norm:
                assert rational_nth_root(step.norm.constant_value(), 2) is None


def test_fundamental_unit():
    unit = fundamental_unit(R_MINUS2, 5)
    assert (unit.p, unit.q, unit.norm) == (poly(0, 1), poly(1), poly(2))
    assert fundamental_unit(R_QUARTIC, 10) is None


def affine_image(r, a, b):
    """R(a*x + b) / a^deg R: monic, squarefree, and Pellian exactly when R is."""
    return r.compose_linear(a, b) * (1 / Fraction(a) ** r.degree)


L_CUBIC = poly(1, -2, 1, 1)  # L^2 - 1 is Pellian of order 3
NORM_ORACLE_R = [
    R_MINUS2,
    R_PLUS2,
    poly(1, 0, 0, 0, 1),
    poly(-2, 0, 0, 0, 0, 0, 1),
    L_CUBIC * L_CUBIC - 1,
    R_QUARTIC,
    poly(-3, 1, 1, 0, 0, 0, 1),
    affine_image(poly(-2, 0, 0, 0, 0, 0, 1), Fraction(2, 3), 1),
    affine_image(L_CUBIC * L_CUBIC - 1, Fraction(3, 2), -2),
    affine_image(R_QUARTIC, Fraction(2, 3), 3),
    affine_image(R_QUARTIC, Fraction(3, 2), -1),
]


def test_cf_steps_deep_golden():
    # Recorded when the kernel ran Fraction schoolbook loops.  By step 20 the
    # convergents of x^4 + x + 1 carry coefficients of about 1,000 bits, and
    # those of the affine image of x^6 - 2 have rational coefficients.
    golden = json.loads((Path(__file__).parent / "golden" / "cf_steps_deep.json").read_text())
    for r in (R_QUARTIC, affine_image(poly(-2, 0, 0, 0, 0, 0, 1), Fraction(2, 3), 1)):
        steps = [
            {"index": step.index, "p": str(step.p), "q": str(step.q), "norm": str(step.norm),
             "partial_quotient": str(step.partial_quotient)}
            for step in islice(cf_steps(r), 20)
        ]
        assert steps == golden[str(r)]


@pytest.mark.parametrize("r", NORM_ORACLE_R, ids=str)
def test_cf_norm_matches_convergent_norm(r):
    # The norm read off the surd denominator against the multiplied-out one.
    for step in islice(cf_steps(r), 12):
        assert step.norm == step.p * step.p - r * step.q * step.q


@st.composite
def monic_squarefree(draw):
    degree = draw(st.sampled_from([2, 4, 6]))
    coeff = st.fractions(min_value=-9, max_value=9, max_denominator=4)
    r = UniPoly(draw(st.lists(coeff, min_size=degree, max_size=degree)) + [1])
    assume(is_squarefree(r))
    return r


@settings(max_examples=40, deadline=None)
@given(monic_squarefree())
def test_cf_norm_identity_property(r):
    for step in islice(cf_steps(r), 8):
        assert step.norm == step.p * step.p - r * step.q * step.q


def eager_cf_steps(r):
    """The expansion with every convergent multiplied out as it goes, as
    (index, partial quotient, P_k, Q_k, norm); a test-only oracle."""
    y = laurent_sqrt_polypart(r)
    a, b = UniPoly(()), UniPoly((1,))
    p_prev, p_prev2 = UniPoly((1,)), UniPoly(())
    q_prev, q_prev2 = UniPoly(()), UniPoly((1,))
    k = 0
    while True:
        partial = (a + y) // b
        p_k = partial * p_prev + p_prev2
        q_k = partial * q_prev + q_prev2
        a = partial * b - a
        b = (r - a * a).exact_div(b)
        yield k, partial, p_k, q_k, b if k % 2 else -b
        p_prev, p_prev2 = p_k, p_prev
        q_prev, q_prev2 = q_k, q_prev
        k += 1


PELLIAN_R = [R_MINUS2, R_PLUS2, poly(1, 0, 0, 0, 1), poly(-2, 0, 0, 0, 0, 0, 1),
             L_CUBIC * L_CUBIC - 1]


@st.composite
def pellian_affine_image(draw):
    r = draw(st.sampled_from(PELLIAN_R))
    a = draw(st.fractions(min_value=-3, max_value=3, max_denominator=3).filter(bool))
    b = draw(st.fractions(min_value=-3, max_value=3, max_denominator=3))
    return affine_image(r, a, b)


@settings(max_examples=40, deadline=None)
@given(st.one_of(monic_squarefree(), pellian_affine_image()))
def test_steps_match_the_eager_expansion(r):
    # A step holds only its partial quotients and norm; what it reads off
    # them must equal what the eager loop multiplied out.
    for step, (k, partial, p, q, norm) in zip(islice(cf_steps(r), 10), eager_cf_steps(r)):
        assert (step.index, step.partial_quotient, step.norm) == (k, partial, norm)
        assert (step.p, step.q, step.degree) == (p, q, p.degree)


def count_convergents(monkeypatch) -> list[int]:
    """The indices of the steps whose convergent is built from now on."""
    built = []
    convergent = pell.CFStep.convergent
    monkeypatch.setattr(pell.CFStep, "convergent",
                        lambda self: built.append(self.index) or convergent(self))
    return built


def refuse_convergents(monkeypatch) -> None:
    """Make building any convergent from now on raise."""
    def refuse(self):
        raise AssertionError("a convergent was built")

    monkeypatch.setattr(pell.CFStep, "convergent", refuse)


def built_degrees(monkeypatch) -> list[int]:
    """The convergent degrees of the continued-fraction steps built from now on."""
    built = []
    cf_step = pell.CFStep

    def build(*args):
        step = cf_step(*args)
        built.append(step.degree)
        return step

    monkeypatch.setattr(pell, "CFStep", build)
    return built


# x^4 + x + 1 with x scaled by the prime of least_unit: the prime divides
# the denominators of its coefficients, so it is bad for this R, and the
# search moves on to the next prime.
R_BAD_AT_P = affine_image(R_QUARTIC, pell._PRIME, 0)


def bad_prime_cases(p: int) -> list:
    """R bad at the first prime p of least_unit, or at p and the next, each
    with the degree of its least unit over Q (None: none of degree <= 10)."""
    q = sympy.nextprime(p)
    cases = [
        (affine_image(R_QUARTIC, p, 0), None),
        (poly(1, p, 2, 0, 1), None),  # (x^2 + 1)^2 + p x, a square mod p
        (affine_image(R_QUARTIC, p * q, 0), None),  # bad at both
        (affine_image(kubert_r(7, 3), p, 0), 7),
        (affine_image(kubert_r(7, 3), p * q, 0), 7),
    ]
    return [pytest.param(p, q, r, degree, id=f"{r}-{degree}") for r, degree in cases]


def test_a_miss_the_prefilter_proves_reads_step_0(monkeypatch):
    # Modulo the prime, x^4 + x + 1 has no unit of degree <= 10.
    refuse_convergents(monkeypatch)
    built = built_degrees(monkeypatch)
    assert pell_solve(R_QUARTIC, 10) is None
    assert built == [2]


def test_a_miss_builds_no_convergent(monkeypatch):
    refuse_convergents(monkeypatch)
    assert pell_solve(R_BAD_AT_P, 20) is None


# The search does not depend on the prime it starts from: 2^31 - 1, the
# first prime of an earlier least_unit, moves on the same way.
@pytest.mark.parametrize("p, q, r, unit_degree",
                         bad_prime_cases(pell._PRIME) + bad_prime_cases(2**31 - 1))
def test_a_bad_prime_moves_the_search_to_the_next_good_one(monkeypatch, p, q, r, unit_degree):
    # A miss is still proved at step 0, and a unit is still found: a search
    # that gave up at a bad prime would miss Kubert's unit of degree 7.
    assert sympy.isprime(q)
    assert is_squarefree(r)
    monkeypatch.setattr(pell, "_PRIME", p)
    built = built_degrees(monkeypatch)
    assert index_of(least_unit(r, cf_steps(r), 10)) == plain_least_unit(r, 10)
    assert built == ([2] if unit_degree is None else list(range(2, unit_degree + 1)))


# Kubert's quartic plus p x: modulo the prime of least_unit it is Kubert's
# quartic, whose unit there has degree N, but it has no unit over Q of
# degree <= 12.  The degree over F_p only bounds the exact search.
ACCIDENTAL_TORSION = {n: kubert_r(n, 3) + poly(0, pell._PRIME) for n in (5, 7, 9, 12)}


@pytest.mark.parametrize("n", ACCIDENTAL_TORSION)
def test_accidental_torsion_is_searched_up_to_its_degree_mod_p(monkeypatch, n):
    # The search reads every step up to degree N and stops at the first
    # step past it.
    r = ACCIDENTAL_TORSION[n]
    built = built_degrees(monkeypatch)
    assert least_unit(r, cf_steps(r), 12) is None
    assert plain_least_unit(r, 12) is None
    assert built[-2] == n < built[-1]


def plain_least_unit(r, n_max):
    """The index of the first constant-norm step of degree <= n_max in the
    eager expansion, or None; the search with no stopping rule."""
    for k, _, p, _, norm in eager_cf_steps(r):
        if p.degree > n_max:
            return None
        if norm.degree <= 0:
            return k


def index_of(unit):
    return None if unit is None else unit.index


def assert_verifies(solution):
    """The solver builds its answer unverified; the oracle checks it."""
    assert solution is None or pell_verify(solution.p, solution.q, solution.r).valid


@st.composite
def small_squarefree(draw, height=3):
    degree = draw(st.sampled_from([2, 4, 6]))
    coeff = st.integers(-height, height)
    r = UniPoly(draw(st.lists(coeff, min_size=degree, max_size=degree)) + [1])
    assume(is_squarefree(r))
    return r


@st.composite
def affine_l_squared_minus_c(draw):
    """An affine image of L^2 - c, whose unit is L of degree g + 1."""
    ell = UniPoly(draw(st.lists(st.integers(-3, 3), min_size=1, max_size=3)) + [1])
    r = ell * ell - draw(st.sampled_from([1, -1, 2, -3]))
    assume(is_squarefree(r))
    a = draw(st.fractions(min_value=-3, max_value=3, max_denominator=3).filter(bool))
    return affine_image(r, a, draw(st.integers(-3, 3)))


@settings(max_examples=120, deadline=None)
@given(st.one_of(small_squarefree(), affine_l_squared_minus_c()), st.integers(1, 16))
@example(ACCIDENTAL_TORSION[5], 12)
@example(ACCIDENTAL_TORSION[7], 12)
@example(ACCIDENTAL_TORSION[9], 12)
@example(ACCIDENTAL_TORSION[12], 12)
def test_least_unit_matches_the_plain_search(r, n_max):
    # Deciding a miss modulo a good prime never changes an answer.
    n_max = max(n_max, r.degree // 2)
    assert index_of(least_unit(r, cf_steps(r), n_max)) == plain_least_unit(r, n_max)
    assert_verifies(pell_solve(r, n_max))


# The centre (k, j, deg P_k) of the period, as found below, on Kubert's
# quartic of order N, the same at t = 3 and t = 5/2; each unit is step N - 2.
KUBERT_FIRES = {4: (1, 0, 3), 5: (2, 0, 4), 6: (2, 1, 4), 7: (3, 1, 5),
                8: (3, 2, 5), 9: (4, 2, 6), 10: (4, 3, 6), 12: (5, 4, 7)}
KUBERT_T = (3, Fraction(5, 2))

# Pellian R with long periods: (R, unit degree, index k of the centre of the
# period, the earlier step j whose norm is a constant times norm_k, deg P_k).
# An even period mirrors norm_k onto norm_(k-2), an odd one onto
# norm_(k-1).  The third quartic is (x^2 - x - 2)^2 + 8x, the double cover
# x = Y/X of the Tate normal form Y^2 + (1-c)XY - bY = X^3 - bX^2 with the
# 7-torsion parameters b = -2, c = 2; the rest are Kubert's forms (see
# ``conftest.kubert_r``).
LONG_PERIODS = [
    ("x^6-2*x^2+1", 6, 2, 0, 5),
    ("x^6+2*x^5+x^4-2*x^3+2*x^2+1", 9, 2, 1, 6),
    ("x^4-2*x^3-3*x^2+12*x+4", 7, 3, 1, 5),
] + [(str(kubert_r(n, t)).replace(" ", ""), n, *fire)
     for n, fire in KUBERT_FIRES.items() for t in KUBERT_T]


def proportional(u: UniPoly, v: UniPoly) -> bool:
    """Whether u is a constant times v, by polynomial arithmetic."""
    return (u * v.leading - v * u.leading).is_zero()


@pytest.mark.parametrize("text, degree, k, j, centre_degree", LONG_PERIODS, ids=str)
def test_long_periods_against_the_plain_search(text, degree, k, j, centre_degree):
    r = parse_poly(text)
    for n_max in range(3, 15):
        unit = least_unit(r, cf_steps(r), n_max)
        assert index_of(unit) == plain_least_unit(r, n_max)
        assert (unit is not None) == (n_max >= degree)
        assert_verifies(pell_solve(r, n_max))


@pytest.mark.parametrize("text, degree, k, j, centre_degree", LONG_PERIODS, ids=str)
def test_where_the_centre_test_fires(text, degree, k, j, centre_degree):
    # The period of a Pellian R is a palindrome: with the unit at step r - 1,
    # norm_(r-1-j) is a constant times norm_(j-1) for 1 <= j <= r - 1 (Abel;
    # Berry, Arch. Math. 55 (1990); van der Poorten and Tran, Monatsh. Math.
    # 131 (2000)).  So its centre, the first step whose norm is a constant
    # times one of the two before it, has degree <= d // 2 + g + 1.
    r = parse_poly(text)
    steps = list(islice(cf_steps(r), k + 1))
    fired = [(i, i - back) for i in range(len(steps)) for back in (1, 2)
             if i >= back and proportional(steps[i].norm, steps[i - back].norm)]
    assert fired[0] == (k, j)
    assert steps[k].degree == centre_degree <= degree // 2 + r.degree // 2  # + g + 1


@pytest.mark.parametrize("text", [text for text, *_ in LONG_PERIODS], ids=str)
def test_steps_past_the_unit_match_the_eager_expansion(text):
    # The eager loop recomputes A_(k+1) = a_k B_k - A_k from A_0 = 0, B_0 = 1;
    # the expansion reads it off the floor's remainder and starts at step 0.
    r = parse_poly(text)
    for step, (k, partial, p, q, norm) in zip(islice(cf_steps(r), 14), eager_cf_steps(r)):
        assert (step.index, step.partial_quotient, step.norm) == (k, partial, norm)
        assert step.convergent() == (p, q)


@pytest.mark.parametrize("t", KUBERT_T, ids=str)
@pytest.mark.parametrize("n", KUBERT_FIRES)
def test_kubert_units(n, t):
    # The unit has the order n of the torsion point; the solution is the
    # unit itself for odd n and its square for even n.  The point reduces to
    # one of order n modulo the prime of least_unit, which is good for these
    # R, so the unit over F_p has degree n too.
    r = kubert_r(n, t)
    unit = fundamental_unit(r, 30)
    assert (unit.index, unit.degree) == (n - 2, n)
    assert pell_solve(r, 30).order == (n if n % 2 else 2 * n)
    y = laurent_sqrt_polypart(r)
    assert pell._unit_degree_mod_p(r, y, 30) == n
    assert pell._unit_degree_mod_p(r, y, n - 1) is None


def kernel_good_prime(y, b):
    """(p, Y mod p, B_1 mod p, R mod p) at the first prime p >= ``_PRIME``
    that divides no denominator of Y or B_1 and modulo which R = Y^2 + B_1
    stays squarefree: the rule put on Y and B_1, the oracle of
    ``_good_prime`` on the numerators of R."""
    p = pell._PRIME
    while True:
        if y.den % p and b.den % p:
            yp = fp_mul(y.num, [pow(y.den, -1, p)], p)
            bp = fp_mul(b.num, [pow(b.den, -1, p)], p)
            r = _add(fp_mul(yp, yp, p), bp, p)
            if _squarefree_mod(r, p):
                break
        p = sympy.nextprime(p)
    return p, yp, bp, r


def kernel_unit_degree_mod_p(y, b, max_order):
    """The expansion modulo p on the generic modular kernel: the good prime
    of ``kernel_good_prime``, then per step the floor by the schoolbook
    division, its degree read off the quotient, and the exact division
    checked on the remainder; the oracle of the fused loop."""
    p, yp, bp, r = kernel_good_prime(y, b)
    a, b, degree = yp, bp, len(yp) - 1
    while len(b) > 1:
        partial, rem = schoolbook_fp_divmod(_add(a, yp, p), b, p)
        degree += len(partial) - 1
        if degree > max_order:
            return None
        a = _sub(yp, rem, p)
        b, rest = schoolbook_fp_divmod(_sub(r, fp_mul(a, a, p), p), b, p)
        assert not rest
    return degree


# The a of the affine images in perfbench's cf_solve: they give R
# denominators, which the reduction modulo p must invert.
BENCH_AFFINE_A = (1, 2, 3, -1, -2, Fraction(1, 2), Fraction(2, 3), Fraction(3, 2))


@st.composite
def miss_like_r(draw):
    """A monic squarefree R of degree 4, 6 or 8 with small integer
    coefficients, as a miss of the benchmark draws them, or an affine
    image of one."""
    degree = draw(st.sampled_from([4, 6, 8]))
    r = UniPoly(draw(st.lists(st.integers(-3, 3), min_size=degree, max_size=degree)) + [1])
    assume(is_squarefree(r))
    if draw(st.booleans()):
        r = affine_image(r, draw(st.sampled_from(BENCH_AFFINE_A)), draw(st.integers(-3, 3)))
    return r


@settings(max_examples=150, deadline=None)
@given(miss_like_r(), st.integers(1, 60))
@example(R_BAD_AT_P, 20)
@example(poly(1, pell._PRIME, 2, 0, 1), 20)  # (x^2 + 1)^2 + p x
@example(ACCIDENTAL_TORSION[12], 12)
@example(kubert_r(7, 3), 7)
@example(parse_poly(LONG_PERIODS[1][0]), 9)  # a sextic unit: deg B_k is 2 or 1
def test_the_fused_step_matches_the_kernel_loop(r, max_order):
    y, b = pell._sqrt_and_rest(r)
    assert pell._unit_degree_mod_p(r, y, max_order) == kernel_unit_degree_mod_p(y, b, max_order)


def test_square_root_checks_its_contract(monkeypatch):
    # Y + 1 leaves R - (Y + 1)^2 = B_1 - 2Y - 1, of degree deg Y
    reduced = pell._reduced
    monkeypatch.setattr(pell, "_reduced", lambda num, den: reduced(num, den) + 1)
    with pytest.raises(AssertionError, match="square-root polynomial part failed its contract"):
        pell._sqrt_and_rest(R_QUARTIC)


def assert_the_good_prime_is_the_kernel_one(r):
    # An odd p does not divide den R exactly when it divides neither den Y
    # nor den B_1: den Y divides (4 den R)^h, B_1 = R - Y^2, R = Y^2 + B_1.
    y, b = pell._sqrt_and_rest(r)
    h, w = y.degree, 4 * r.den
    assert pow(w, h, y.den) == 0 and pow(w, 2 * h, b.den) == 0
    found = []
    good_prime = factorization._good_prime

    def record(f, p):
        found.append(good_prime(f, p))
        return found[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(factorization, "_good_prime", record)
        pell._unit_degree_mod_p(r, y, 1)
    p, _, _, r_mod_p = kernel_good_prime(y, b)
    assert found == [(p, r_mod_p)]


@settings(max_examples=100, deadline=None)
@given(miss_like_r())
def test_the_good_prime_rule_on_den_r_property(r):
    assert_the_good_prime_is_the_kernel_one(r)


@pytest.mark.parametrize("p, q, r, unit_degree",
                         bad_prime_cases(pell._PRIME) + bad_prime_cases(2**31 - 1))
def test_the_good_prime_rule_on_den_r_at_a_bad_prime(monkeypatch, p, q, r, unit_degree):
    monkeypatch.setattr(pell, "_PRIME", p)
    assert_the_good_prime_is_the_kernel_one(r)
    assert factorization._good_prime(r.num, p)[0] != p


def test_one_inverse_per_fused_step(monkeypatch):
    # x^4 + x + 1 has no unit of degree <= 40 mod p; its steps 1 to 38 reach
    # degree 40, and each takes one inverse.  The rest: two to reduce R and
    # Y, and four in the squarefree test's gcd.  The kernel loop took 83.
    calls = []

    def counting_pow(*args):
        calls.append(args)
        return pow(*args)

    for module in (pell, factorization):
        monkeypatch.setattr(module, "pow", counting_pow, raising=False)
    assert pell._unit_degree_mod_p(R_QUARTIC, laurent_sqrt_polypart(R_QUARTIC), 40) is None
    assert len(calls) <= 44


def test_a_miss_mod_p_builds_no_polynomial(monkeypatch):
    # R is reduced where the good prime is found, and B_1 mod p is R - Y^2
    # mod p, so the expansion modulo p builds no UniPoly.
    y = laurent_sqrt_polypart(R_QUARTIC)
    built = []
    init = unipoly._init
    monkeypatch.setattr(unipoly, "_init", lambda *args: built.append(args) or init(*args))
    assert pell._unit_degree_mod_p(R_QUARTIC, y, 40) is None
    assert built == []


def test_the_fused_step_still_checks_its_exact_division(monkeypatch):
    # R - A_(k+1)^2 is divisible by B_k whenever the step's arithmetic is
    # right.  A wrong inverse of lc(B_k) leaves a remainder, and the guard
    # raises.
    monkeypatch.setattr(pell, "pow", lambda c, e, m: 2 * pow(c, e, m) % m, raising=False)
    with pytest.raises(AssertionError, match="a surd modulo p is not reduced"):
        pell._unit_degree_mod_p(R_QUARTIC, laurent_sqrt_polypart(R_QUARTIC), 40)


AFFINE_X6 = parse_poly("x^6 + 9*x^5 + 135/4*x^4 + 135/2*x^3 + 1215/16*x^2 + 729/16*x - 729/64")


@pytest.mark.parametrize("r", [R_PLUS2, AFFINE_X6], ids=str)
def test_a_hit_builds_one_convergent(monkeypatch, r):
    # Both units have a norm that is not a square, so the solution is the
    # unit squared, and the square is composed from the one convergent.
    assert rational_nth_root(fundamental_unit(r, 12).norm.constant_value(), 2) is None
    built = count_convergents(monkeypatch)
    assert pell_solve(r, 40).order == 2 * (r.degree // 2)
    assert built == [0]


def test_solve_checks_the_norm_of_the_unit():
    # least_unit reads only the surd norm; the solver builds the unit's
    # convergent and checks its norm against that one.
    steps = list(islice(cf_steps(R_MINUS2), 3))
    assert least_unit(R_MINUS2, steps, 5).norm == poly(2)
    forged = [dataclasses.replace(steps[0], norm=poly(3))] + steps[1:]
    with pytest.raises(AssertionError):
        minimal_solution(R_MINUS2, least_unit(R_MINUS2, forged, 5), 5)


def test_minimal_solution_from_expanded_steps():
    for r in NORM_ORACLE_R:
        unit = least_unit(r, list(islice(cf_steps(r), 14)), 12)
        assert minimal_solution(r, unit, 12) == pell_solve(r, 12)
    with pytest.raises(ValueError):
        minimal_solution(R_QUARTIC, None, 1)  # n_max below genus + 1


def unit_oracle_rs():
    """x^2 + 2 and x^4 + 1, whose units have norms -2 and -1, and random
    affine images of them, drawn as the benchmark draws its Pellian R."""
    rng = random.Random(20)
    bases = [R_PLUS2, poly(1, 0, 0, 0, 1)]
    a_values = (1, 2, 3, -1, -2, Fraction(1, 2), Fraction(2, 3), Fraction(3, 2))
    return bases + [affine_image(r, Fraction(rng.choice(a_values)), rng.randint(-3, 3))
                    for r in bases for _ in range(4)]


@pytest.mark.parametrize("r", unit_oracle_rs(), ids=str)
def test_unit_and_its_square_against_the_expansion(r):
    # The unit is the first step whose multiplied-out norm is constant; the
    # search is bounded, so a wrong convergent fails it instead of hanging.
    first = next(step for step in islice(cf_steps(r), 12)
                 if (step.p * step.p - r * step.q * step.q).degree <= 0)
    unit = least_unit(r, cf_steps(r), 12)
    assert unit == first
    c = unit.norm.constant_value()
    assert rational_nth_root(c, 2) is None  # so the solution is the unit squared
    # The solver squares from its norm check's products, not by the group law.
    p, q = unit_compose(unit.p, unit.q, unit.p, unit.q, r)
    p, q = p * (1 / c), q * (1 / c)
    if p.leading < 0:
        p, q = -p, -q
    solution = minimal_solution(r, unit, 12)
    assert (solution.p, solution.q, solution.order) == (p, q, 2 * unit.p.degree)


def test_a_hit_squares_without_the_group_law(monkeypatch):
    def refuse(*args):
        raise AssertionError("unit_compose was called")

    monkeypatch.setattr(pell, "unit_compose", refuse)
    t = pell_solve(R_MINUS2, 4)
    assert (t.p, t.q) == (poly(-1, 0, 1), poly(0, 1))


def test_solve_checks_r_once(monkeypatch):
    # cf_steps checks R, and neither a hit nor a miss checks it again.
    calls, squarefree = [], []
    check = pell._r_failures
    monkeypatch.setattr(pell, "_r_failures", lambda r: calls.append(r) or check(r))
    monkeypatch.setattr(pell, "is_squarefree", lambda r: squarefree.append(r) or is_squarefree(r))
    assert pell_solve(R_MINUS2, 5) is not None
    assert (len(calls), len(squarefree)) == (1, 1)
    assert pell_solve(R_QUARTIC, 10) is None
    assert (len(calls), len(squarefree)) == (2, 2)
    fundamental_unit(R_MINUS2, 5)
    assert (len(calls), len(squarefree)) == (3, 3)


def test_verify_examples():
    rep = pell_verify(poly(0, 1), poly(1), poly(-1, 0, 1))
    assert rep.valid and rep.order == 1 and rep.genus == 0
    rep = pell_verify(poly(0, 0, 1), poly(1), poly(-1, 0, 0, 0, 1))
    assert rep.valid and (rep.order, rep.genus) == (2, 1)
    assert rep.chart == CHART_NORMALIZED
    rep = pell_verify(poly(0, 1), poly(1), R_MINUS2)
    assert not rep.valid and any("defect" in f for f in rep.failures)


def test_triple_holds_only_p_q_r():
    # Order, genus and chart are read off the polynomials, so none can be
    # passed in to disagree with them.
    assert [field.name for field in dataclasses.fields(PellTriple)] == ["p", "q", "r"]
    t = PellTriple(poly(1, 1), poly(1), poly(0, 2, 1))  # (x + 1)^2 - (x^2 + 2x) = 1
    assert (t.order, t.genus, t.chart) == (1, 0, CHART_MONIC)
    assert t == PellTriple.build(poly(1, 1), poly(1), poly(0, 2, 1))
    with pytest.raises(TypeError):
        PellTriple(poly(1, 1), poly(1), poly(0, 2, 1), 1, 0, CHART_NORMALIZED)
    assert PellTriple(poly(0, 1), poly(1), poly(-1, 0, 1)).chart == CHART_NORMALIZED
    assert PellTriple(poly(0, 2), poly(2), poly(Fraction(-1, 4), 0, 1)).chart == CHART_GENERAL


def test_verify_reports_an_unprintable_defect():
    # The defect 10^8000 - x^2 has more digits than str() may print; the
    # report says so instead of raising.
    args = (parse_poly("10^4000"), poly(1), poly(-1, 0, 1))
    with int_digit_limit(4300):
        rep = pell_verify(*args)
    assert not rep.valid
    assert rep.failures == ("defect of P^2 - R*Q^2 - 1 is nonzero and too large to print, expected 0",)
    with int_digit_limit(0):
        (failure,) = pell_verify(*args).failures
    assert failure.startswith("defect of P^2 - R*Q^2 - 1 is -x^2 + 1000") and len(failure) > 8000


def test_verify_rejects_structure():
    assert not pell_verify(poly(0, 1), UniPoly(()), poly(-1, 0, 1)).valid
    assert not pell_verify(poly(-1, 0, 1), poly(0, 1), poly(-2, 0, 2)).valid  # not monic
    bad_r = poly(0, 0, 1)  # x^2: not squarefree
    assert "squarefree" in " ".join(pell_verify(poly(1, 0, 1) * 0 + 1, poly(1), bad_r).failures)


def test_compose_examples():
    t = PellTriple.build(poly(-1, 0, 1), poly(0, 1), R_MINUS2)
    squared = pell_compose(t, t)
    assert (squared.p, squared.q) == (poly(1, 0, -4, 0, 2), poly(0, -2, 0, 2))
    assert squared.order == 4
    u = PellTriple.build(poly(1, 0, 1), poly(0, 1), R_PLUS2)
    squared = pell_compose(u, u)
    assert (squared.p, squared.q) == (poly(1, 0, 4, 0, 2), poly(0, 2, 0, 2))
    # group identity at the pair level
    p, q = unit_compose(t.p, t.q, poly(1), UniPoly(()), t.r)
    assert (p, q) == (t.p, t.q)
    # Opposite orientations: T_3 times the inverse (x, -1) of (x, 1) has order 3 - 1.
    r = poly(-1, 0, 1)
    t3 = PellTriple.build(poly(0, -3, 0, 4), poly(-1, 0, 4), r)
    inverse = PellTriple.build(poly(0, 1), poly(-1), r)
    assert pell_compose(t3, inverse) == PellTriple.build(poly(-1, 0, 2), poly(0, 2), r)
    with pytest.raises(ValueError):  # (x, 1)(x, -1) is the trivial unit (1, 0)
        pell_compose(PellTriple.build(poly(0, 1), poly(1), r), inverse)


def test_compose_group_laws():
    a = PellTriple.build(poly(-1, 0, 1), poly(0, 1), R_MINUS2)
    b = pell_compose(a, a)
    c = pell_compose(b, a)
    assert pell_compose(a, b) == pell_compose(b, a)
    assert pell_compose(pell_compose(a, b), c) == pell_compose(a, pell_compose(b, c))
    for k in range(1, 6):
        assert pell_power(a, k).order == k * a.order


def test_normalize_fixed_point_and_obstruction():
    out = normalize(poly(-1, 0, 1), poly(0, 1), R_MINUS2, CHART_NORMALIZED)
    assert isinstance(out, PellTriple)
    assert (out.p, out.q, out.r) == (poly(-1, 0, 1), poly(0, 1), R_MINUS2)
    obs = normalize(poly(1, 0, 0, 0, 2), poly(0, 0, 2), poly(1, 0, 0, 0, 1), CHART_MONIC)
    assert isinstance(obs, Obstruction)
    assert obs.root_degree == 4 and obs.radicand == 2
    with pytest.raises(ValueError):
        normalize(poly(0, 1), poly(1), R_MINUS2, CHART_MONIC)  # not a solution
    general = (poly(0, 2), poly(2), poly(Fraction(-1, 4), 0, 1))
    assert normalize(*general, CHART_GENERAL) == PellTriple.build(*general)


@pytest.mark.parametrize("order, ordinal", [
    (2, "2nd"), (3, "3rd"), (4, "4th"), (11, "11th"), (12, "12th"), (13, "13th"),
    (21, "21st"), (22, "22nd"), (23, "23rd"), (111, "111th"),
])
def test_normalize_obstruction_names_the_root_in_english(order, ordinal):
    # P of the order-n Chebyshev solution leads with 2^(n-1), which has no
    # rational n-th root.
    t = chebyshev_triple(order)
    obs = normalize(t.p, t.q, t.r, CHART_MONIC)
    assert isinstance(obs, Obstruction) and obs.root_degree == order
    assert obs.message == f"requires a rational {ordinal} root of {2 ** (order - 1)}"


def test_normalize_checks_its_target_chart(monkeypatch):
    # a = 1/2 makes P = 2x + 1 monic; twice that root does not
    root = pell.rational_nth_root
    monkeypatch.setattr(pell, "rational_nth_root", lambda value, n: 2 * root(value, n))
    with pytest.raises(AssertionError, match="normalisation missed its target chart"):
        normalize(poly(1, 2), poly(2), poly(0, 1, 1), CHART_MONIC)


def test_normalize_shift_clears_odd_part():
    p = poly(0, 1, 1)  # x^2 + x
    r = p * p - 1
    out = normalize(p, poly(1), r, CHART_NORMALIZED)
    assert isinstance(out, PellTriple)
    assert out.chart == CHART_NORMALIZED
    # the shift x -> x - 1/2 turns P into x^2 - 1/4; no rescaling is needed
    assert out.p == poly(Fraction(-1, 4), 0, 1)
    assert out.r.is_normalized()


def test_normalize_scaling_recovers_monic_form():
    # The torsor action with a = 2, lambda = 2 moves (x^2-1, x, x^2-2) to a
    # general-chart point; normalize must walk it back.
    p = poly(-1, 0, 4)  # P(2x)
    q = poly(0, 4)  # lambda Q(2x)
    r = poly(Fraction(-1, 2), 0, 1)  # R(2x) / 4
    assert pell_verify(p, q, r).valid
    out = normalize(p, q, r, CHART_MONIC)
    assert isinstance(out, PellTriple)
    assert (out.p, out.q, out.r) == (poly(-1, 0, 1), poly(0, 1), R_MINUS2)


@pytest.mark.parametrize("b", [10**6, 10**200])
def test_normalize_huge_leading_coefficient(b):
    # a = 1/b needs the square root of b^2; 10^400 is beyond any float.
    p, q, r = poly(-1, 0, b * b), poly(0, b * b), poly(Fraction(-2, b * b), 0, 1)
    out = normalize(p, q, r, CHART_NORMALIZED)
    assert isinstance(out, PellTriple)
    assert (out.p, out.q, out.r) == (poly(-1, 0, 1), poly(0, 1), R_MINUS2)


def test_inflate_worked_examples():
    base = PellTriple.build(poly(-1, 0, 1), poly(0, 1), R_MINUS2)
    out = inflate(base, 2, "divides_g_plus_1")
    assert (out.p, out.q, out.r) == (poly(-1, 0, 0, 0, 1), poly(0, 0, 1), poly(-2, 0, 0, 0, 1))
    assert (out.order, out.genus) == (4, 1)

    base2 = PellTriple.build(poly(1, 1), poly(1), poly(0, 2, 1))
    out = inflate(base2, 3, "odd")
    assert (out.p, out.q, out.r) == (poly(1, 0, 0, 1), poly(0, 1), poly(0, 2, 0, 0, 1))
    assert (out.order, out.genus) == (3, 1)

    out = inflate(base2, 2, "even_half")
    assert (out.p, out.q, out.r) == (poly(1, 0, 1), poly(0, 1), poly(2, 0, 1))
    assert (out.order, out.genus) == (2, 0)
    solved = pell_solve(R_PLUS2, 5)
    assert (out.p, out.q, out.r) == (solved.p, solved.q, solved.r)


def test_inflate_rejections():
    base = PellTriple.build(poly(-1, 0, 1), poly(0, 1), R_MINUS2)
    with pytest.raises(ValueError, match="takes case 'divides_g_plus_1'"):
        inflate(base, 2, "even_half")  # R(0) != 0
    with pytest.raises(ValueError):
        inflate(base, 1, "divides_g_plus_1")
    with pytest.raises(ValueError, match="takes case 'divides_g_plus_1'"):
        inflate(base, 2, "even")  # not a case name
    base2 = PellTriple.build(poly(1, 1), poly(1), poly(0, 2, 1))
    with pytest.raises(ValueError, match="takes case 'odd'"):
        inflate(base2, 3, "even_half")  # R(0) = 0 and m odd
    with pytest.raises(ValueError, match="takes case 'even_half'"):
        inflate(base2, 2, "odd")  # R(0) = 0 and m even


def test_inflate_tests_no_squarefreeness(monkeypatch):
    # The substitution keeps R squarefree (see the docstring), so inflate
    # answers in all three cases without testing it.
    base = PellTriple.build(poly(-1, 0, 1), poly(0, 1), R_MINUS2)
    base2 = PellTriple.build(poly(1, 1), poly(1), poly(0, 2, 1))

    def refuse(r):
        raise AssertionError("is_squarefree was called")

    monkeypatch.setattr(pell, "is_squarefree", refuse)
    outs = [inflate(base, 2, "divides_g_plus_1"), inflate(base2, 2, "even_half"),
            inflate(base2, 3, "odd")]
    monkeypatch.undo()
    assert all(pell_verify(out.p, out.q, out.r).valid for out in outs)


def test_every_operation_output_verifies(triples):
    for t in triples:
        assert pell_verify(t.p, t.q, t.r).valid


# -- algebraic laws on random Chebyshev-type units ----------------------------


@st.composite
def chebyshev_bases(draw, constant=None):
    """(L, 1, L^2 - 1) for a random monic L, with L^2 - 1 squarefree."""
    degree = draw(st.integers(1, 3))
    coeff = st.fractions(min_value=-3, max_value=3, max_denominator=3)
    low = draw(st.lists(coeff, min_size=degree, max_size=degree))
    if constant is not None:
        low[0] = draw(constant)
    ell = UniPoly(low + [1])
    r = ell * ell - 1
    assume(is_squarefree(r))
    return PellTriple.build(ell, poly(1), r)


def signed_power(t: PellTriple, k: int, sign: int) -> PellTriple:
    """sign * t^k for k != 0; a negative k is a power of the inverse (P, -Q)."""
    u = pell_power(t, abs(k))
    return PellTriple.build(u.p * sign, u.q * sign * (1 if k > 0 else -1), u.r)


@settings(max_examples=30, deadline=None)
@given(chebyshev_bases(), st.lists(st.tuples(st.sampled_from([-3, -2, -1, 1, 2, 3]),
                                             st.sampled_from([1, -1])), min_size=3, max_size=3))
def test_compose_associative_and_inverse_property(base, exponents):
    a, b, c = (signed_power(base, k, sign) for k, sign in exponents)
    for s, t in ((a, b), (b, c), (a, c)):
        # The order rule by orientation lc(Q)/lc(P) = +-1.
        if s.q.leading / s.p.leading == t.q.leading / t.p.leading:
            assert pell_compose(s, t).order == s.order + t.order
        elif s.order != t.order:
            assert pell_compose(s, t).order == abs(s.order - t.order)
        else:
            with pytest.raises(ValueError):  # the trivial unit (+-1, 0)
                pell_compose(s, t)
    ka, kb, kc = (k for k, _ in exponents)
    if 0 not in (ka + kb, kb + kc, ka + kb + kc):
        assert pell_compose(pell_compose(a, b), c) == pell_compose(a, pell_compose(b, c))
    for t in (a, b, c):
        # (P, -Q) is the inverse: the product is the identity (1, 0).
        assert unit_compose(t.p, t.q, t.p, -t.q, t.r) == (poly(1), UniPoly(()))


@settings(max_examples=30, deadline=None)
@given(chebyshev_bases(), st.integers(1, 6), st.sampled_from([1, -1]), st.sampled_from([1, -1]))
def test_power_is_the_chain_of_composites_property(base, k, sign, orientation):
    # pell_power builds its result unverified; the chain of verified
    # composites and pell_verify are its oracles.
    t = PellTriple.build(base.p * sign, base.q * orientation, base.r)
    chain = t
    for _ in range(k - 1):
        chain = pell_compose(chain, t)
    power = pell_power(t, k)
    assert power == chain and power.order == k * t.order
    assert pell_verify(power.p, power.q, power.r).valid


@st.composite
def inflation_inputs(draw):
    """A base (L, 1, L^2 - 1), m = 2..5 and the case they take."""
    m = draw(st.integers(2, 5))
    if draw(st.booleans()):
        # R(s^m) stays squarefree exactly when R(0) = L(0)^2 - 1 is not 0.
        constant = st.fractions(-3, 3, max_denominator=3).filter(lambda c: c * c != 1)
        case = pell.INFLATE_DIVIDES
    else:
        constant = st.sampled_from([Fraction(1), Fraction(-1)])
        case = pell.INFLATE_EVEN_HALF if m % 2 == 0 else pell.INFLATE_ODD
    return draw(chebyshev_bases(constant)), m, case


@settings(max_examples=40, deadline=None)
@given(inflation_inputs())
def test_inflate_verifies_property(inputs):
    base, m, case = inputs
    out = inflate(base, m, case)
    assert pell_verify(out.p, out.q, out.r).valid
    assert out.order == m * base.order and out.p == base.p.substitute_power(m)
    assert out.r * out.q * out.q == (base.r * base.q * base.q).substitute_power(m)
    for wrong in {INFLATE_DIVIDES, INFLATE_EVEN_HALF, INFLATE_ODD} - {case}:
        with pytest.raises(ValueError, match=f"takes case {case!r}"):
            inflate(base, m, wrong)


@settings(max_examples=30, deadline=None)
@given(chebyshev_bases(), st.fractions(-3, 3, max_denominator=4).filter(bool),
       st.fractions(-3, 3, max_denominator=4), st.sampled_from(pell.CHARTS))
def test_normalize_idempotent_property(base, a, b, target):
    # Move the base to the general chart by x -> a*x + b, keeping R monic.
    g = base.genus
    p = base.p.compose_linear(a, b)
    q = base.q.compose_linear(a, b) * a ** (g + 1)
    r = base.r.compose_linear(a, b) * a ** (-2 * g - 2)
    once = normalize(p, q, r, target)
    assert isinstance(once, PellTriple)
    assert pell_verify(once.p, once.q, once.r).valid
    assert normalize(once.p, once.q, once.r, target) == once
