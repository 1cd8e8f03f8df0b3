import dataclasses
import json
import random
from fractions import Fraction
from itertools import islice
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from conftest import chebyshev_triple
from test_parsing import int_digit_limit

from abelpell import pell
from abelpell.parsing import parse_poly
from abelpell.rationals import rational_nth_root
from abelpell.pell import (
    CHART_GENERAL,
    CHART_MONIC,
    CHART_NORMALIZED,
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


def test_a_miss_builds_no_convergent(monkeypatch):
    refuse_convergents(monkeypatch)
    assert pell_solve(R_QUARTIC, 20) is None


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
    assert least_unit(steps, 5).norm == poly(2)
    forged = [dataclasses.replace(steps[0], norm=poly(3))] + steps[1:]
    with pytest.raises(AssertionError):
        minimal_solution(R_MINUS2, least_unit(forged, 5), 5)


def test_minimal_solution_from_expanded_steps():
    for r in NORM_ORACLE_R:
        unit = least_unit(list(islice(cf_steps(r), 14)), 12)
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
    # The unit is the first step whose multiplied-out norm is constant.
    first = next(step for step in cf_steps(r)
                 if (step.p * step.p - r * step.q * step.q).degree <= 0)
    unit = least_unit(cf_steps(r), 12)
    assert unit == first
    c = unit.norm.constant_value()
    assert rational_nth_root(c, 2) is None  # so the solution is the unit squared
    p = (unit.p * unit.p + r * unit.q * unit.q) * (1 / c)
    q = (unit.p * unit.q * 2) * (1 / c)
    if p.leading < 0:
        p, q = -p, -q
    solution = minimal_solution(r, unit, 12)
    assert (solution.p, solution.q, solution.order) == (p, q, 2 * unit.p.degree)


def test_solve_checks_r_once(monkeypatch):
    calls = []
    check = pell._check_pell_r
    monkeypatch.setattr(pell, "_check_pell_r", lambda r: calls.append(r) or check(r))
    assert pell_solve(R_MINUS2, 5) is not None
    assert pell_solve(R_QUARTIC, 10) is None
    assert len(calls) == 2
    fundamental_unit(R_MINUS2, 5)
    assert len(calls) == 3


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
    with pytest.raises(ValueError):
        inflate(base, 2, "even_half")  # R(0) != 0
    with pytest.raises(ValueError):
        inflate(base, 1, "divides_g_plus_1")
    base2 = PellTriple.build(poly(1, 1), poly(1), poly(0, 2, 1))
    with pytest.raises(ValueError):
        inflate(base2, 3, "even_half")  # m must be even
    with pytest.raises(ValueError):
        inflate(base2, 2, "odd")  # m must be odd


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
    """sign * t^k: the solutions of one R that never cancel under the group law."""
    u = pell_power(t, k)
    return PellTriple.build(u.p * sign, u.q * sign, u.r)


@settings(max_examples=30, deadline=None)
@given(chebyshev_bases(), st.lists(st.tuples(st.integers(1, 3), st.sampled_from([1, -1])),
                                   min_size=3, max_size=3))
def test_compose_associative_and_inverse_property(base, exponents):
    a, b, c = (signed_power(base, k, sign) for k, sign in exponents)
    assert pell_compose(pell_compose(a, b), c) == pell_compose(a, pell_compose(b, c))
    for t in (a, b, c):
        # (P, -Q) is the inverse: the product is the identity (1, 0).
        assert unit_compose(t.p, t.q, t.p, -t.q, t.r) == (poly(1), UniPoly(()))


@st.composite
def inflation_inputs(draw):
    case = draw(st.sampled_from(pell.INFLATE_CASES))
    if case == pell.INFLATE_DIVIDES:
        # R(s^m) stays squarefree exactly when R(0) = L(0)^2 - 1 is not 0.
        constant = st.fractions(-3, 3, max_denominator=3).filter(lambda c: c * c != 1)
        m = draw(st.integers(2, 4))
    else:
        constant = st.sampled_from([Fraction(1), Fraction(-1)])
        m = draw(st.sampled_from([2, 4] if case == pell.INFLATE_EVEN_HALF else [3, 5]))
    return draw(chebyshev_bases(constant)), m, case


@settings(max_examples=30, deadline=None)
@given(inflation_inputs())
def test_inflate_verifies_property(inputs):
    base, m, case = inputs
    out = inflate(base, m, case)
    assert pell_verify(out.p, out.q, out.r).valid
    assert out.order == m * base.order and out.p == base.p.substitute_power(m)


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
    assert normalize(once.p, once.q, once.r, target) == once
