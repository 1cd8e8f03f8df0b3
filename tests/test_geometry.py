import hashlib
from fractions import Fraction

import pytest
from conftest import chebyshev_triple, fixture_family
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from test_cli import ABEL_GOLDEN_TRIPLES
from test_pell import LONG_PERIODS, chebyshev_bases, inflation_inputs
from test_unipoly import sylvester_resultant

from abelpell.geometry import (
    BranchClass,
    RamSpec,
    assigned_profile,
    branch_polynomial,
    genus_of_ramspec,
    hurwitz_report,
    multiplicity_partition,
    polt_dimension,
    ramspec_of,
    unassigned_branch,
)
from abelpell import geometry
from abelpell.pell import PellTriple, inflate, pell_power, pell_solve
from abelpell.factorization import factor_rational
from abelpell.parsing import parse_poly
from abelpell.unipoly import (
    UniPoly,
    gcd,
    interpolate,
    is_squarefree,
    poly,
    resultant,
    squarefree_decomposition,
)

T_GENUS0 = lambda: PellTriple.build(poly(-1, 0, 1), poly(0, 1), poly(-2, 0, 1))
T_GENUS1 = lambda: PellTriple.build(poly(0, 0, 1), poly(1), poly(-1, 0, 0, 0, 1))
T_QUARTIC = lambda: PellTriple.build(poly(1, 0, 0, 0, 2), poly(0, 0, 2), poly(1, 0, 0, 0, 1))


def test_assigned_profile_examples():
    assert assigned_profile(T_GENUS0()) == ((1, 1), (2,), (2,))
    assert assigned_profile(T_GENUS1()) == ((1, 1), (1, 1), (2,))
    assert assigned_profile(T_QUARTIC()) == ((4,), (1, 1, 1, 1), (4,))


def two_yun_profile(t: PellTriple) -> tuple[tuple[int, ...], ...]:
    """Oracle: the fibres over +-1 read off Yun(P - 1) and Yun(P + 1), of
    degree n, with the odd parts checked against the roots of R."""
    sides = [squarefree_decomposition(t.p - 1), squarefree_decomposition(t.p + 1)]
    odd = poly(1)
    for factor, mult in sides[0] + sides[1]:
        if mult % 2:
            odd = odd * factor
    assert odd == t.r.monic(), t
    plus, minus = (tuple(sorted((mult for factor, mult in side for _ in range(factor.degree)),
                                reverse=True)) for side in sides)
    return plus, minus, (t.order,)


def shifted(t: PellTriple, b: int) -> PellTriple:
    """The triple at x + b: the same fibres, and no inflation once b != 0
    moves the point x = 0 that an inflation's rotation fixes."""
    return PellTriple.build(*(f.compose_linear(1, b) for f in (t.p, t.q, t.r)))


KUBERT_7 = "x^4 - 10*x^3 + 61*x^2 - 108*x - 36"  # Kubert's E(b, c) for N = 7 at t = 3


def profile_oracle_cases() -> list[PellTriple]:
    """The long periods, the Kubert quartic of order 7, their squares and
    cubes, and odd inflations moved off 0 (gcd(R, Q) = x + 1, no inflation)."""
    # A unit of non-square norm c is squared to the rational solution.
    solved = [pell_solve(parse_poly(text), 2 * degree) for text, degree, *_ in LONG_PERIODS]
    solved.append(pell_solve(parse_poly(KUBERT_7), 30))
    assert solved[-1].order == 7
    odd = [t for t in chebyshev_and_inflated(12) if t.r.coeff(0) == 0 and t.q.coeff(0) == 0]
    moved = [shifted(t, 1) for t in odd]
    assert moved and all(gcd(t.r, t.q) == poly(1, 1) and not geometry._base_of(t) for t in moved)
    return [pell_power(t, k) for t in solved + moved for k in (1, 2, 3)]


def test_assigned_profile_matches_two_yun_oracle():
    for t in chebyshev_and_inflated(20) + profile_oracle_cases():
        assert assigned_profile(t) == two_yun_profile(t), t


@settings(max_examples=60, deadline=None)
@given(inflation_inputs(), st.integers(1, 2), st.integers(-2, 2))
def test_assigned_profile_of_inflations_property(inputs, k, b):
    # Every inflation case, raised to a power for a nonconstant base Q, and
    # moved to x + b, which keeps the fibres but (b != 0) leaves the lift.
    t = pell_power(inflate(*inputs), k)
    assert geometry._base_of(t) is not None
    assert assigned_profile(t) == assigned_profile(shifted(t, b)) == two_yun_profile(t)


def test_assigned_profile_decomposes_only_q_or_its_base_q(monkeypatch):
    # Never P -+ 1, of degree n; an inflation's base is no inflation itself.
    degrees = []
    yun = geometry.squarefree_decomposition
    monkeypatch.setattr(geometry, "squarefree_decomposition",
                        lambda p: degrees.append(p.degree) or yun(p))
    cases = chebyshev_and_inflated(20) + profile_oracle_cases()
    assert any(geometry._base_of(t) for t in cases) and not all(geometry._base_of(t) for t in cases)
    for t in cases:
        inflated = geometry._base_of(t)
        degrees.clear()
        assigned_profile(t)
        assert degrees == [(inflated[0] if inflated else t).q.degree], t


def test_unassigned_branch_examples():
    classes = unassigned_branch(T_GENUS1())
    assert len(classes) == 1
    assert classes[0].factor == poly(0, 1) and classes[0].partition == (2,)
    assert unassigned_branch(T_GENUS0()) == []
    assert unassigned_branch(T_QUARTIC()) == []


def test_unassigned_branch_rational_values():
    # x^3 - 3x has critical values -+2 over the critical points +-1.
    p = poly(0, -3, 0, 1)
    t = PellTriple.build(p, poly(1), p * p - 1)
    classes = unassigned_branch(t)
    assert [(c.factor, c.partition) for c in classes] == [
        (poly(-2, 1), (2, 1)),
        (poly(2, 1), (2, 1)),
    ]


def test_unassigned_branch_conjugate_points():
    # x^3 + x has the conjugate critical values t with t^2 = -4/27; both
    # carry the fibre partition (2, 1), read off gcds over Q.
    p = poly(0, 1, 0, 1)
    t = PellTriple.build(p, poly(1), p * p - 1)
    classes = unassigned_branch(t)
    assert len(classes) == 1
    assert classes[0].factor == poly(Fraction(4, 27), 0, 1)
    assert classes[0].count == 2
    assert classes[0].partition == (2, 1)


def test_ramspec_examples():
    spec = ramspec_of(T_GENUS0())
    assert spec.members == ((2,), (1, 1)) and spec.assigned == ((1, 1), (2,))
    spec = ramspec_of(T_GENUS1())
    assert spec.members == ((2,), (1, 1), (1, 1)) and spec.assigned == ((1, 1), (1, 1))
    inflated = inflate(PellTriple.build(poly(1, 1), poly(1), poly(0, 2, 1)), 3, "odd")
    spec = ramspec_of(inflated)
    assert spec.members == ((3,), (1, 1, 1)) and spec.assigned == ((3,), (1, 1, 1))


def test_genus_of_ramspec():
    assert genus_of_ramspec(ramspec_of(T_GENUS0())) == 0
    assert genus_of_ramspec(ramspec_of(T_GENUS1())) == 1
    assert genus_of_ramspec(ramspec_of(T_QUARTIC())) == 1
    assert genus_of_ramspec(RamSpec(3, ((3,), (1, 1, 1)), ((3,), (1, 1, 1)))) == 1


def partitions(n: int, largest: int | None = None):
    """The partitions of n with parts at most ``largest``, parts descending."""
    if n == 0:
        yield ()
        return
    for e in range(min(n, largest or n), 0, -1):
        for rest in partitions(n - e, e):
            yield (e, *rest)


def test_marked_profiles_have_an_even_odd_part_count_of_at_least_2():
    # Every pair of marked profiles up to n = 7: a RamSpec holds them (padded
    # with simple branch points up to the total n - 1) exactly when their own
    # ramification is at most n - 1, and then genus_of_ramspec's t is even
    # and at least 2.
    for n in range(1, 8):
        for a in partitions(n):
            for b in partitions(n):
                ramification = sum(e - 1 for e in a + b)
                pad = ((2,) + (1,) * (n - 2),) * max(n - 1 - ramification, 0)
                if ramification > n - 1:
                    with pytest.raises(ValueError):
                        RamSpec(n, (a, b), (a, b))
                    continue
                t = RamSpec(n, (a, b, *pad), (a, b)).odd_marked_parts()
                assert t % 2 == 0 and t >= 2


def test_ramspec_validation():
    with pytest.raises(ValueError):
        RamSpec(3, ((3,), (2, 1)), ((3,), (2, 1)))  # total ramification 3 != 2
    with pytest.raises(ValueError):
        RamSpec(3, ((2,), (1, 1, 1)), ((2,), (1, 1, 1)))  # (2,) does not sum to 3
    with pytest.raises(ValueError):
        RamSpec(2, ((2,), (1, 1)), ((2,), (2,)))  # marked profile not a member twice


def test_polt_dimension_examples():
    assert polt_dimension(ramspec_of(T_GENUS1())) == 1
    assert polt_dimension(ramspec_of(T_QUARTIC())) == 1
    assert polt_dimension(ramspec_of(T_GENUS0())) == 0


def dimension_by_members(spec: RamSpec) -> int:
    """Oracle: the deformation dimension summed member by member.  Each part
    e of an unassigned member moves in e - 1 directions; a marked part stays
    a square (even e: e/2 - 1) or a square times a linear factor (odd e:
    (e - 1)/2)."""
    pool = list(spec.members)
    for marked in spec.assigned:
        pool.remove(marked)
    return sum(e - 1 for part in pool for e in part) + sum(
        e // 2 - 1 if e % 2 == 0 else (e - 1) // 2 for part in spec.assigned for e in part)


def all_ramspecs(max_order: int):
    """Every valid RamSpec of order at most max_order: an ordered pair of
    marked profiles, and a multiset of ramified partitions that brings the
    total ramification to n - 1."""
    def ramification(part):
        return sum(e - 1 for e in part)

    def multisets(ramified, total):
        if total == 0:
            yield ()
        for i, part in enumerate(ramified):
            if ramification(part) <= total:
                for rest in multisets(ramified[i:], total - ramification(part)):
                    yield (part, *rest)

    for n in range(1, max_order + 1):
        parts = list(partitions(n))
        ramified = [part for part in parts if ramification(part)]
        for a in parts:
            for b in parts:
                left = n - 1 - ramification(a) - ramification(b)
                if left >= 0:
                    for rest in multisets(ramified, left):
                        yield RamSpec(n, (a, b, *rest), (a, b))


def test_polt_dimension_matches_member_sum(triples):
    specs = list(all_ramspecs(7))
    assert len(specs) == 546
    for spec in specs + [ramspec_of(t) for t in triples]:
        assert polt_dimension(spec) == dimension_by_members(spec), spec


def test_hurwitz_examples():
    rep = hurwitz_report(T_GENUS1())
    assert (rep.e, rep.e_prime, rep.w, rep.generic_stratum) == (1, 0, 4, True)
    rep = hurwitz_report(T_GENUS0())
    assert (rep.e, rep.e_prime, rep.w, rep.generic_stratum) == (0, 1, 2, True)
    rep = hurwitz_report(T_QUARTIC())
    assert (rep.e, rep.e_prime, rep.w, rep.generic_stratum) == (0, 1, 4, False)
    assert rep.genus_check


def test_hurwitz_report_checks_e_on_the_generic_stratum(monkeypatch):
    # One more class with one simple ramification point keeps T_GENUS1 on the
    # generic stratum but makes e = g + 1.
    t = T_GENUS1()
    branch = geometry.unassigned_branch
    monkeypatch.setattr(geometry, "unassigned_branch", lambda t: branch(t) + [
        BranchClass(poly(-5, 1), (2,) + (1,) * (t.order - 2))])
    with pytest.raises(AssertionError, match="generic stratum but e = 2 != g = 1"):
        hurwitz_report(t)


def test_base_of_checks_that_r_is_a_power_too():
    # P = x^3 + 1 is L(x^3), but R = x^2 is x^e R~(x^3) with e = 2, not 0 or 1
    t = PellTriple(poly(1, 0, 0, 1), poly(1), poly(0, 0, 1))
    with pytest.raises(AssertionError, match=r"has P = L\(x\^3\) but Q = x\^0 Q0"):
        assigned_profile(t)


def test_an_inflation_lift_needs_l0_among_the_base_branch_values(monkeypatch):
    # L'(0) = 0 and L(0) = 5/27 is not +-1, so x - 5/27 is a branch class of
    # the base; a factorization that loses it trips the lift's guard.
    base = PellTriple.build(
        poly(Fraction(5, 27), 0, -2, 1), poly(Fraction(-4, 3), 1),
        poly(Fraction(-44, 81), Fraction(-22, 27), Fraction(-4, 3), Fraction(-4, 3), 1))
    t = inflate(base, 2, "divides_g_plus_1")
    assert poly(Fraction(-5, 27), 1) in [cls.factor for cls in unassigned_branch(base)]
    monkeypatch.setattr(geometry, "factor_rational", lambda p: [])
    with pytest.raises(AssertionError, match=r"0 is a critical point of .* but L\(0\) is no branch value"):
        unassigned_branch(t)


def squarefree_part(p: UniPoly) -> UniPoly:
    """Oracle: the monic radical, the product of the distinct irreducible factors."""
    acc = poly(1)
    for f, _ in squarefree_decomposition(p):
        acc = acc * f
    return acc


def stripped_branch_classes(t: PellTriple) -> list[BranchClass]:
    """Oracle: the branch classes found by dividing the roots +-1 out of the
    branch polynomial and factoring the squarefree part of what is left."""
    b = branch_polynomial(t)
    for assigned in (Fraction(1), Fraction(-1)):
        linear = UniPoly((-assigned, 1))
        while b.degree >= 1 and b.evaluate(assigned) == 0:
            b = b.exact_div(linear)
    if b.degree < 1:
        return []
    yun = squarefree_decomposition(t.p.derivative())
    return [
        BranchClass(factor, multiplicity_partition(factor, t.p, yun))
        for factor, _ in factor_rational(squarefree_part(b))
    ]


def chebyshev_of(ell: UniPoly, k: int) -> PellTriple:
    """T_k(L): P = T_k(L), Q = U_(k-1)(L), R = L^2 - 1."""
    p_prev, p = poly(1), ell
    q_prev, q = poly(), poly(1)
    for _ in range(k - 1):
        p_prev, p = p, 2 * ell * p - p_prev
        q_prev, q = q, 2 * ell * q - q_prev
    return PellTriple.build(p, q, ell * ell - 1)


def chebyshev_and_inflated(max_order: int) -> list[PellTriple]:
    """T_k(L) and (L, 1, L^2 - 1) inflated by s -> s^m, of order <= max_order,
    for L of degree 1-4; L(0) = +-1 takes the even_half and odd cases."""
    out = []
    for ell in (poly(0, 1), poly(2, 1, 1), poly(3, -2, 0, 1), poly(3, 1, 0, 0, 1),
                poly(1, 1, 1), poly(-1, 2, 0, 1)):
        base = PellTriple.build(ell, poly(1), ell * ell - 1)
        for k in range(2, max_order // ell.degree + 1):
            out.append(chebyshev_of(ell, k))
            if abs(ell.coeff(0)) != 1:
                out.append(inflate(base, k, "divides_g_plus_1"))
            else:
                out.append(inflate(base, k, "even_half" if k % 2 == 0 else "odd"))
    return out


def test_unassigned_branch_matches_stripping_oracle(triples):
    golden = [PellTriple.build(*map(parse_poly, argv)) for _, argv in ABEL_GOLDEN_TRIPLES]
    cases = triples + golden + chebyshev_and_inflated(20)
    for t in cases:
        assert unassigned_branch(t) == stripped_branch_classes(t), t
    # The cases reach both things the oracle does differently: branch values
    # at +-1, and unassigned factors of multiplicity above 1.
    factored = [(f, m) for t in cases for f, m in factor_rational(branch_polynomial(t))]
    assert {poly(-1, 1), poly(1, 1)} <= {f for f, _ in factored}
    assert any(m > 1 and f.evaluate(1) and f.evaluate(-1) for f, m in factored)


def test_family_invariants(triples):
    for t in triples:
        spec = ramspec_of(t)
        assert spec.total_ramification() == t.order - 1
        assert genus_of_ramspec(spec) == t.genus
        assert polt_dimension(spec) == t.genus
        assert spec.odd_marked_parts() == 2 * t.genus + 2
        # distinct roots of R = odd parts among the marked profiles
        assert squarefree_part(t.r).degree == spec.odd_marked_parts()
        assert_hurwitz_counts(t)


def assert_hurwitz_counts(t: PellTriple) -> bool:
    """The counts on hurwitz_report's result: w = 2g + 2, and on the generic
    stratum Riemann-Hurwitz for the line map, -2 = -2n + (n - 1) + e' + e,
    and for the double cover, 2g - 2 = -4 + 2(n - e').  Returns whether t is
    on the generic stratum."""
    rep = hurwitz_report(t)
    n, g = t.order, t.genus
    assert rep.w == 2 * g + 2, t
    if rep.generic_stratum:
        assert rep.e + rep.e_prime == n - 1, t
        assert rep.e_prime == n - g - 1, t
    return rep.generic_stratum


def test_inflated_ramspec_is_pullback():
    # Under s -> s^m a fibre root away from 0 lifts to m roots of the same
    # multiplicity; a root at 0 lifts to one root with multiplicity times m.
    base = PellTriple.build(poly(-1, 0, 1), poly(0, 1), poly(-2, 0, 1))
    assert ramspec_of(base).assigned == ((1, 1), (2,))
    spec = ramspec_of(inflate(base, 2, "divides_g_plus_1"))
    # over +1 the fibre x^2 - 2 lifts off 0; over -1 the double root 0 deepens
    assert spec.assigned == ((1, 1, 1, 1), (4,))
    base23 = PellTriple.build(poly(1, 1), poly(1), poly(0, 2, 1))
    assert ramspec_of(base23).assigned == ((1,), (1,))
    for m, case, expected_assigned in (
        (3, "odd", ((3,), (1, 1, 1))),
        (2, "even_half", ((2,), (1, 1))),
    ):
        spec = ramspec_of(inflate(base23, m, case))
        assert spec.assigned == expected_assigned


def test_branch_polynomial_degree_bound(triples):
    for t in triples:
        b = branch_polynomial(t)
        assert b.degree <= t.order - 1


def test_branch_polynomial_matches_sylvester_oracle():
    # The interpolation of Sylvester determinants at s = 0 .. n - 1, over
    # constant Q (one with lc != +-1 among them) and over Q = U_(k-1)(L)
    # and the powers of s of the inflations.
    constant_q = PellTriple.build(poly(0, 2), poly(2), poly(Fraction(-1, 4), 0, 1))
    for t in fixture_family() + [chebyshev_triple(12), constant_q] + chebyshev_and_inflated(12):
        dp = t.p.derivative()
        oracle = interpolate([sylvester_resultant(t.p - s, dp) for s in range(t.order)])
        assert branch_polynomial(t) == oracle


def n_node_branch(p: UniPoly) -> UniPoly:
    """Oracle: res_x(p(x) - s, p'(x)) interpolated from its values at the
    deg p nodes s = 0 .. deg p - 1, with no use of Q."""
    dp = p.derivative()
    return interpolate([resultant(p - s, dp) for s in range(p.degree)])


@st.composite
def pell_triples(draw) -> PellTriple:
    """The k-th power of (cM, c, M^2 - 1/c^2), that is P = T_k(cM) with
    lc(Q) = 2^(k-1) c^k, and (M, 1, M^2 - 1) inflated by s -> s^m, then
    raised to a power: orders 1-12, constant and nonconstant Q."""
    m_poly = poly(*draw(st.lists(st.integers(-3, 3), min_size=1, max_size=3)), 1)
    if draw(st.booleans()):
        c = draw(st.sampled_from([1, -1, 2, Fraction(1, 2), Fraction(-2, 3)]))
        r = m_poly * m_poly - Fraction(1) / (c * c)
        assume(is_squarefree(r))
        base = PellTriple.build(m_poly * c, poly(c), r)
        return pell_power(base, draw(st.integers(1, 12 // m_poly.degree)))
    r = m_poly * m_poly - 1
    assume(is_squarefree(r))
    m = draw(st.integers(2, 4))
    if m_poly.coeff(0) ** 2 != 1:
        case = "divides_g_plus_1"
    else:
        case = "even_half" if m % 2 == 0 else "odd"
    try:
        t = inflate(PellTriple.build(m_poly, poly(1), r), m, case)
    except ValueError:  # an R that loses squarefreeness under s -> s^m
        assume(False)
    return pell_power(t, draw(st.integers(1, max(1, 12 // t.order))))


@settings(max_examples=60, deadline=None)
@given(pell_triples())
def test_branch_data_matches_n_node_oracle_property(t):
    assert branch_polynomial(t) == n_node_branch(t.p)
    # The partitions from Yun(W), against Yun(P') in the stripping oracle.
    assert unassigned_branch(t) == stripped_branch_classes(t)


def q_split_branch_classes(t: PellTriple) -> list[BranchClass]:
    """Oracle: unassigned_branch of t computed as for a triple that is no
    inflation, by resultants and factor_rational."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(geometry, "_base_of", lambda t: None)
        return unassigned_branch(t)


def assert_lift_matches_q_split(t: PellTriple) -> None:
    inflated = geometry._base_of(t)
    if inflated:
        # The base is built unverified: it must pass PellTriple.build as is.
        base = inflated[0]
        assert base == PellTriple.build(base.p, base.q, base.r), t
    assert unassigned_branch(t) == q_split_branch_classes(t), t


def test_inflation_lift_matches_q_split_path():
    cases = chebyshev_and_inflated(20)
    assert sum(geometry._base_of(t) is not None for t in cases) > len(cases) // 2
    for t in cases:
        assert_lift_matches_q_split(t)


@settings(max_examples=60, deadline=None)
@given(pell_triples())
def test_inflation_lift_matches_q_split_path_property(t):
    assert_lift_matches_q_split(t)


def inflation_bases() -> list[PellTriple]:
    """(L, 1, L^2 - 1) for three L of degree 3 and two of degree 1."""
    return [PellTriple.build(ell, poly(1), ell * ell - 1) for ell in (
        poly(3, 0, 1, 1),  # L(0) = 3 with e0 = 2
        poly(2, 1, -2, 1),  # the critical point 1 over L(0) = 2, e0 = 1
        poly(1, 1, 0, 1),  # L(0) = 1 is assigned: the even_half and odd cases
        poly(3, 1),  # order 1 and genus 0, as most of the benchmark's bases
        poly(1, 1),  # order 1 with L(0) = 1 assigned
    )]


def test_inflation_lift_explicit_bases():
    for base in inflation_bases():
        ell = base.p
        e0 = next(i for i in range(1, ell.degree + 1) if ell.coeff(i))
        for m in range(2, 6):
            if abs(ell.coeff(0)) == 1:
                t = inflate(base, m, "even_half" if m % 2 == 0 else "odd")
            else:
                t = inflate(base, m, "divides_g_plus_1")
                # L(0) is a branch value of P, and y = 0 lifts to one point.
                at_zero = [c for c in unassigned_branch(t) if c.factor == poly(-ell.coeff(0), 1)]
                assert m * e0 in at_zero[0].partition
            assert geometry._base_of(t) == (base, m)
            assert_lift_matches_q_split(t)
    # T_k of an even L is an inflation too, with a nonconstant Q.
    for k in (2, 3, 4):
        t = chebyshev_of(poly(3, 0, 1), k)
        assert geometry._base_of(t) == (chebyshev_of(poly(3, 1), k), 2)
        assert_lift_matches_q_split(t)


def test_hurwitz_counts_on_chebyshev_and_inflated():
    generic = [assert_hurwitz_counts(t) for t in chebyshev_and_inflated(20)]
    assert any(generic) and not all(generic)


@settings(max_examples=60, deadline=None)
@given(st.one_of(pell_triples(), chebyshev_bases(),
                 inflation_inputs().map(lambda inputs: inflate(*inputs))))
def test_hurwitz_counts_property(t):
    assert_hurwitz_counts(t)


def test_hurwitz_report_of_an_inflation_computes_the_base_branch_twice(monkeypatch):
    base = inflation_bases()[0]
    calls = []
    branch = geometry.branch_polynomial
    monkeypatch.setattr(geometry, "branch_polynomial", lambda t: calls.append(t) or branch(t))
    hurwitz_report(inflate(base, 4, "divides_g_plus_1"))
    assert calls == [base, base]


def test_genus_0_branch_polynomial_matches_n_node_oracle():
    # T_k(c x) with R = x^2 - 1/c^2, and the order-1 bases: W is a constant.
    family = [pell_power(PellTriple.build(poly(0, c), poly(c), poly(-1 / (c * c), 0, 1)), k)
              for c in (Fraction(1), Fraction(3), Fraction(-2, 5)) for k in range(1, 11)]
    family += [t for t in inflation_bases() if t.order == 1]
    assert len(family) == 32 and all(t.genus == 0 for t in family)
    for t in family:
        assert branch_polynomial(t) == n_node_branch(t.p), t


@pytest.mark.parametrize("f, calls", [
    (assigned_profile, 1), (unassigned_branch, 1), (ramspec_of, 1), (hurwitz_report, 2)])
def test_each_public_call_tests_for_an_inflation_once(monkeypatch, f, calls):
    # The lift analyses the base by the plain path: a base is no inflation.
    tested = []
    base_of = geometry._base_of
    monkeypatch.setattr(geometry, "_base_of", lambda t: tested.append(t) or base_of(t))
    t = inflate(inflation_bases()[0], 2, "divides_g_plus_1")
    f(t)
    assert tested == [t] * calls


def test_branch_polynomial_interpolates_g_plus_1_resultants(monkeypatch):
    # T_5(L) with deg L = 4 has order 20 but genus 3: four resultants, not 20.
    t = chebyshev_of(poly(3, 1, 0, 0, 1), 5)
    assert (t.order, t.genus) == (20, 3)
    calls = []
    res = geometry.resultant
    monkeypatch.setattr(geometry, "resultant", lambda p, q: calls.append(q) or res(p, q))
    geometry.branch_polynomial(t)
    assert len(calls) == t.genus + 1 == 4


@pytest.mark.parametrize("t", [
    chebyshev_of(poly(3, 1, 0, 0, 1), 5),  # roots of Q over +1 and over -1
    PellTriple.build(poly(2, 1), poly(1), poly(3, 4, 1)),  # an order-1 base
])
def test_branch_polynomial_multiplies_no_polynomials(monkeypatch, t):
    # the ends (s - 1)^a (s + 1)^(deg Q - a) and the sign go in on numerators
    a = gcd(t.p - 1, t.q).degree
    assert t.q.degree == 0 or 0 < a < t.q.degree
    calls = []
    for name in ("__mul__", "__rmul__", "__pow__"):
        method = getattr(UniPoly, name)
        monkeypatch.setattr(UniPoly, name, lambda x, y, name=name, method=method:
                            calls.append(name) or method(x, y))
    branch_polynomial(t)
    assert calls == []


#: One SHA-256 over the reprs of branch_polynomial, unassigned_branch,
#: ramspec_of and hurwitz_report on chebyshev_and_inflated(12), recorded
#: from the n-node interpolation of res(P - s, P') and partitions off Yun(P').
BRANCH_DATA_SHA256 = "514468422ba195dacd318f8007d02b2fa41766fd4dfd5feb110494263e65b3bd"


def test_branch_data_pinned():
    digest = hashlib.sha256()
    for t in chebyshev_and_inflated(12):
        for f in (branch_polynomial, unassigned_branch, ramspec_of, hurwitz_report):
            digest.update(repr(f(t)).encode())
    assert digest.hexdigest() == BRANCH_DATA_SHA256


#: One SHA-256 over the reprs of unassigned_branch, ramspec_of and
#: hurwitz_report on the 936 triples of the benchmark's triple_analysis
#: workload, seeds 101-103, rounds 0-2 (Chebyshev and inflated alike).
TRIPLE_ANALYSIS_SHA256 = "bb55a5f0569fa74fd1de63845bfec212308c165e0b0a8a56e57702cbe7c0919b"


def test_triple_analysis_branch_data_pinned(workloads):
    digest, count = hashlib.sha256(), 0
    for seed in (101, 102, 103):
        for index in range(3):
            for case in workloads.triple_cases(seed, index):
                t = PellTriple.build(UniPoly(case.p), UniPoly(case.q), UniPoly(case.r))
                count += 1
                for f in (unassigned_branch, ramspec_of, hurwitz_report):
                    digest.update(repr(f(t)).encode())
    assert count == 936
    assert digest.hexdigest() == TRIPLE_ANALYSIS_SHA256


def norm_partition(m: UniPoly, p: UniPoly) -> tuple[int, ...]:
    """Oracle: m(p) is the product of p - theta over the roots theta of m, so
    a squarefree part of multiplicity e and degree d of m(p) holds d / deg m
    points of multiplicity e over each conjugate."""
    norm = UniPoly(())
    for c in reversed(m.coeffs):
        norm = norm * p + c
    parts = []
    for factor, e in squarefree_decomposition(norm):
        assert factor.degree % m.degree == 0
        parts.extend([e] * (factor.degree // m.degree))
    return tuple(sorted(parts, reverse=True))


def branch_values(p: UniPoly) -> list[UniPoly]:
    """The irreducible factors of res_x(p(x) - s, p'(x)), all branch values."""
    return [m for m, _ in factor_rational(squarefree_part(n_node_branch(p)))]


def test_multiplicity_partition_rational_point():
    p = poly(-1, 1) ** 2 * poly(2, 1) + 3  # (x - 1)^2 (x + 2) + 3, over theta = 3
    yun = squarefree_decomposition(p.derivative())
    assert multiplicity_partition(poly(-3, 1), p, yun) == (2, 1)


def test_multiplicity_partition_true_extension():
    # x^4 - 2 - sqrt 2 is separable; (x^2 - 2)^2 has the two roots +-sqrt 2
    # over 0, each double; x^4 is one point of multiplicity 4 over 0.
    for m, p, partition in ((poly(-2, 0, 1), poly(-2, 0, 0, 0, 1), (1, 1, 1, 1)),
                            (poly(0, 1), poly(-2, 0, 1) ** 2, (2, 2)),
                            (poly(0, 1), poly(0, 0, 0, 0, 1), (4,))):
        assert multiplicity_partition(m, p, squarefree_decomposition(p.derivative())) == partition


def test_multiplicity_partition_rejects_unequal_fibres():
    # m = (x - 1)(x - 2): p = (x - 1)^2 + 1 is ramified over 1 but not over 2.
    p = poly(2, -2, 1)
    with pytest.raises(AssertionError):
        multiplicity_partition(poly(2, -3, 1), p, squarefree_decomposition(p.derivative()))


def test_multiplicity_partition_matches_norm_oracle_chebyshev():
    t = chebyshev_triple(12)
    values = branch_values(t.p)
    assert values == [poly(-1, 1), poly(1, 1)]
    yun = squarefree_decomposition(t.p.derivative())
    for m in values:
        assert multiplicity_partition(m, t.p, yun) == norm_partition(m, t.p)


SMALL = st.integers(min_value=-3, max_value=3)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(SMALL, max_size=1),
    st.sampled_from([1, -1, 2]),
    st.lists(SMALL, min_size=2, max_size=3),
    SMALL,
)
def test_multiplicity_partition_matches_norm_oracle_property(a_low, a_lead, b_low, c):
    # p = A(B(x)) + c with A = x^2 (...): the double root of A and the
    # critical points of B force ramification, often over irrational values.
    a = poly(0, 0, *a_low, a_lead)
    b = poly(*b_low, 1)
    p = UniPoly(())
    for coeff in reversed(a.coeffs):
        p = p * b + coeff
    p = p + c
    yun = squarefree_decomposition(p.derivative())
    for m in branch_values(p):
        assert multiplicity_partition(m, p, yun) == norm_partition(m, p)
