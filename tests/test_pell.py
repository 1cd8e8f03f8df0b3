import dataclasses
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from abelpell import pell
from abelpell.rationals import rational_nth_root
from abelpell.pell import (
    CHART_GENERAL,
    CHART_MONIC,
    CHART_NORMALIZED,
    Obstruction,
    PellTriple,
    cf_expand,
    fundamental_unit,
    inflate,
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
    steps = cf_expand(R_MINUS2, 1)
    assert (steps[0].p, steps[0].q) == (poly(0, 1), poly(1))
    assert steps[0].norm == poly(2)
    steps = cf_expand(R_PLUS2, 2)
    assert (steps[1].p, steps[1].q) == (poly(1, 0, 1), poly(0, 1))
    assert steps[1].norm == poly(1)


def test_cf_no_constant_norm_for_quartic():
    steps = cf_expand(R_QUARTIC, 10)
    bounded = [s for s in steps if s.p.degree <= 10]
    assert bounded and not any(s.constant_norm for s in bounded)


def test_cf_surd_invariant_and_rejections():
    for step in cf_expand(poly(-3, 1, 1, 0, 0, 0, 1), 8):
        surd = step.surd
        assert surd.b.divides(surd.r - surd.a * surd.a)
    with pytest.raises(ValueError):
        cf_expand(poly(0, 0, 1), 3)  # x^2 is not squarefree
    with pytest.raises(ValueError):
        cf_expand(poly(0, 1), 3)  # odd degree


def test_cf_loop_hands_each_surd_its_rest(monkeypatch):
    # The loop computes R - A^2 once and each surd divides that value.
    r = poly(-3, 1, 1, 0, 0, 0, 1)
    seen = []
    surd = pell.QuadraticSurd
    monkeypatch.setattr(pell, "QuadraticSurd",
                        lambda a, b, r, rest=None: seen.append((a, rest)) or surd(a, b, r, rest))
    cf_expand(r, 8)
    assert len(seen) == 8
    assert all(rest == r - a * a for a, rest in seen)


def test_surd_checks_itself_and_the_rest_it_is_given():
    r = poly(-3, 1, 1, 0, 0, 0, 1)
    assert pell.QuadraticSurd(poly(0), poly(0, 1), r + 3)  # x divides x^6 + x^2 + x
    with pytest.raises(ValueError):
        pell.QuadraticSurd(poly(1), poly(0, 1), r)  # x does not divide R - 1
    with pytest.raises(ValueError):
        pell.QuadraticSurd(poly(0), poly(0, 1), r + 3, poly(1))  # x does not divide 1
    with pytest.raises(ValueError):
        pell.QuadraticSurd(poly(0), poly(), r)


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
        for step in cf_expand(r, 12):
            if step.p.degree >= t.order:
                break
            if step.constant_norm:
                assert rational_nth_root(step.norm.constant_value(), 2) is None


def test_fundamental_unit():
    unit = fundamental_unit(R_MINUS2, 5)
    assert (unit.p, unit.q, unit.norm) == (poly(0, 1), poly(1), 2)
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


@pytest.mark.parametrize("r", NORM_ORACLE_R, ids=str)
def test_cf_norm_matches_convergent_norm(r):
    # The norm read off the surd denominator against the multiplied-out one.
    for step in cf_expand(r, 12):
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
    for step in cf_expand(r, 8):
        assert step.norm == step.p * step.p - r * step.q * step.q


def test_least_unit_checks_the_norm_it_returns():
    steps = cf_expand(R_MINUS2, 3)
    assert least_unit(steps, R_MINUS2, 5).norm == 2
    forged = [dataclasses.replace(steps[0], norm=poly(3))] + steps[1:]
    with pytest.raises(AssertionError):
        least_unit(forged, R_MINUS2, 5)


def test_minimal_solution_from_expanded_steps():
    for r in NORM_ORACLE_R:
        unit = least_unit(cf_expand(r, 14), r, 12)
        assert minimal_solution(r, unit, 12) == pell_solve(r, 12)
    with pytest.raises(ValueError):
        minimal_solution(R_QUARTIC, None, 1)  # n_max below genus + 1


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
