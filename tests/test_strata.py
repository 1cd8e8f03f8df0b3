
import dataclasses
import itertools
import math
from collections import Counter
from fractions import Fraction

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from abelpell import strata
from abelpell.pell import (
    CHART_GENERAL,
    CHART_MONIC,
    CHART_NORMALIZED,
    Obstruction,
    PellTriple,
    _sqrt_and_rest,
    inflate,
    normalize,
    pell_power,
    pell_solve,
)
from abelpell.strata import (
    Monomials,
    TangentReport,
    WeightedSymmetricSystem,
    format_monomials,
    nilpotence_identity_check,
    odd_nilpotency_check,
    tangent_rank,
    weighted_sigma,
)
from abelpell.unipoly import ONE, ZERO, UniPoly, gcd, poly

from conftest import exponent_lists, fixture_family, kubert_r
from test_geometry import chebyshev_and_inflated
from test_pell import KUBERT_FIRES, KUBERT_T, inflation_inputs
from test_unipoly import bareiss


def sigma_by_combinations(exponents: list[int]) -> tuple[dict, ...]:
    """sigma_j as the j-th elementary symmetric polynomial of the multiset in
    which a_i appears e_i - 1 times: one monomial per choice of j positions."""
    positions = [i for i, e in enumerate(exponents) for _ in range(e - 1)]
    sigmas = []
    for j in range(1, len(positions) + 1):
        counts = Counter()
        for chosen in itertools.combinations(positions, j):
            exp = [0] * len(exponents)
            for i in chosen:
                exp[i] += 1
            counts[tuple(exp)] += 1
        sigmas.append(dict(counts))
    return tuple(sigmas)


def _add_term(acc: Monomials, exp: tuple[int, ...], c: int) -> None:
    c += acc.pop(exp, 0)
    if c:
        acc[exp] = c


def _bump(exp: tuple[int, ...], i: int, k: int) -> tuple[int, ...]:
    """The exponent of a_(i+1)^k times the monomial exp (i is 0-based)."""
    return exp[:i] + (exp[i] + k,) + exp[i + 1 :]


def identity_expansion(sys: WeightedSymmetricSystem, i: int) -> Monomials:
    """Oracle of ``nilpotence_identity_check``: a_i^e + sum_j (-1)^j sigma_j
    a_i^(e-j) expanded as an integer monomial dict, empty exactly when the
    identity holds (i is 1-based)."""
    e = sys.total
    acc = {_bump((0,) * len(sys.exponents), i - 1, e): 1}
    for j in range(1, e + 1):
        for exp, c in sys.generators[j - 1].items():
            _add_term(acc, _bump(exp, i - 1, e - j), (-1) ** j * c)
    return acc


def identity_defect(sys: WeightedSymmetricSystem, point: tuple[int, ...], s: int) -> int:
    """s^e + sum_j (-1)^j sigma_j(a) s^(e-j) minus prod_i (s - a_i)^(e_i - 1),
    the product evaluated directly, at the integer point a."""
    e = sys.total
    values = [sum(c * math.prod(map(pow, point, exp)) for exp, c in sigma.items())
              for sigma in sys.generators]
    expanded = s**e + sum((-1) ** j * v * s ** (e - j) for j, v in enumerate(values, 1))
    return expanded - math.prod((s - a) ** (k - 1) for a, k in zip(point, sys.exponents))


def identity_holds_at_integer_points(sys: WeightedSymmetricSystem) -> bool:
    """Oracle of ``weighted_sigma``: the defining identity at two fixed
    integer points a and e + 1 values of s, which fix the polynomial in s."""
    m = len(sys.exponents)
    return not any(identity_defect(sys, point, s)
                   for point in (tuple(range(1, m + 1)), tuple(3 - 2 * i for i in range(m)))
                   for s in range(sys.total + 1))


def truncated_ring_square_check(n: int, k: int) -> bool:
    """Oracle: the root of sum_i a^i t^(2n-i) extracted coefficient by
    coefficient in (Q[a]/(a^k))[t], each coefficient a polynomial in a cut to
    its first k terms, from the leading (unit) coefficient down; then the
    square is compared with the sum mod a^k."""

    def cut(p: UniPoly) -> UniPoly:
        return UniPoly(p.coeffs[:k])

    # q[d] is the t^d coefficient: a^(2n-d).
    q = [cut(ONE.shift_degree(2 * n - d)) for d in range(2 * n + 1)]
    s = [ZERO] * (n + 1)
    s[n] = ONE
    for j in range(1, n + 1):
        acc = q[2 * n - j]
        for i in range(1, j):
            acc = acc - s[n - i] * s[n - j + i]
        s[n - j] = cut(acc * Fraction(1, 2))
    square = [ZERO] * (2 * n + 1)
    for i in range(n + 1):
        for j in range(n + 1):
            square[i + j] = square[i + j] + s[i] * s[j]
    return all(cut(square[d]) == q[d] for d in range(2 * n + 1))


def test_odd_nilpotency_paper_values():
    assert odd_nilpotency_check(1, 2) is True
    assert odd_nilpotency_check(1, 3) is False
    assert odd_nilpotency_check(3, 4) is True
    assert odd_nilpotency_check(3, 5) is False


def test_odd_nilpotency_exhaustive():
    # Oracle: the criterion k <= 2n - deg(R - Y^2) on the computed top-down
    # root Y of R = 1 + x + ... + x^(2n), whose remainder the proof says has
    # degree n - 1.
    for n in [*range(1, 121), 250]:
        rest = _sqrt_and_rest(UniPoly((1,) * (2 * n + 1)))[1]
        assert rest.degree == n - 1, n
        for k in range(1, 2 * n + 3):
            assert odd_nilpotency_check(n, k) == (k <= 2 * n - rest.degree), (n, k)


def test_odd_nilpotency_matches_truncated_ring_oracle():
    for n in range(1, 13):
        for k in range(1, 2 * n + 3):
            assert odd_nilpotency_check(n, k) == truncated_ring_square_check(n, k), (n, k)


def test_odd_nilpotency_bounds():
    for n, k in ((0, 1), (1, 0), (-1, -1)):
        with pytest.raises(ValueError):
            odd_nilpotency_check(n, k)


def test_weighted_sigma_examples():
    sys = weighted_sigma([2])
    assert sys.total == 1 and sys.generators == ({(1,): 1},)

    sys = weighted_sigma([2, 2])
    assert sys.total == 2 and sys.variables == ("a1", "a2")
    assert sys.generators == ({(1, 0): 1, (0, 1): 1}, {(1, 1): 1})

    sys = weighted_sigma([3, 2])
    assert sys.total == 3
    assert sys.generators == ({(1, 0): 2, (0, 1): 1}, {(2, 0): 1, (1, 1): 2}, {(2, 1): 1})
    assert [format_monomials(g, sys.variables) for g in sys.generators] == [
        "2*a1 + a2",
        "a1^2 + 2*a1*a2",
        "a1^2*a2",
    ]


def test_weighted_sigma_against_combinations():
    for exps in exponent_lists(6):
        assert weighted_sigma(exps).generators == sigma_by_combinations(exps), exps


def test_weighted_sigma_rejects_a_wrong_expansion(monkeypatch):
    # A wrong binomial coefficient: C(k, 1) one too large.
    monkeypatch.setattr(strata, "comb", lambda k, j: math.comb(k, j) + (j == 1))
    assert not identity_holds_at_integer_points(weighted_sigma([3, 2]))
    # Wrong exponents: each tuple reversed, so that a_2 takes the powers
    # 0..2 of a_1 and a_1 those of a_2.
    monkeypatch.setattr(strata, "comb", math.comb)
    monkeypatch.setattr(strata, "product", lambda *ranges: (
        js[::-1] for js in itertools.product(*ranges)))
    assert not identity_holds_at_integer_points(weighted_sigma([3, 2]))


def test_nilpotence_identity_detects_a_wrong_generator():
    sys = weighted_sigma([3, 2])
    broken = dataclasses.replace(sys, generators=({(1, 0): 1, (0, 1): 1}, *sys.generators[1:]))
    assert identity_expansion(broken, 1)
    assert identity_expansion(broken, 2)
    assert not identity_holds_at_integer_points(broken)
    with pytest.raises(ValueError):
        nilpotence_identity_check(sys, 3)


def test_weighted_sigma_rejects_small_exponents():
    with pytest.raises(ValueError):
        weighted_sigma([1, 2])
    with pytest.raises(ValueError):
        weighted_sigma([])


def test_weighted_sigma_and_nilpotence_up_to_8():
    # both oracles on the full range: the identity at integer points, and
    # the substitution identity expanded at every index
    for exps in exponent_lists(8):
        sys = weighted_sigma(exps)
        assert identity_holds_at_integer_points(sys), exps
        for i in range(1, len(exps) + 1):
            assert nilpotence_identity_check(sys, i), (exps, i)
            assert not identity_expansion(sys, i), (exps, i)
        with pytest.raises(ValueError):
            nilpotence_identity_check(sys, len(exps) + 1)
        with pytest.raises(ValueError):
            nilpotence_identity_check(sys, 0)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(2, 5), min_size=1, max_size=4).flatmap(lambda exps: st.tuples(
    st.just(exps),
    st.tuples(*(st.integers(-50, 50) for _ in exps)),
    st.integers(-50, 50),
)))
@example(([2], (0,), 0))
@example(([3, 2], (1, 2), 3))
@example(([5, 5, 5, 5], (-7, 0, 4, 50), -50))
def test_weighted_sigma_identity_at_random_points(case):
    exps, point, s = case
    assert identity_defect(weighted_sigma(exps), point, s) == 0


def test_tangent_rank_examples():
    t = PellTriple.build(poly(-1, 0, 1), poly(0, 1), poly(-2, 0, 1))
    rep = tangent_rank(t)
    assert (rep.variables, rep.rank, rep.corank) == (4, 4, 0)
    t = PellTriple.build(poly(0, 0, 1), poly(1), poly(-1, 0, 0, 0, 1))
    rep = tangent_rank(t)
    assert (rep.variables, rep.rank, rep.corank) == (5, 4, 1)
    t = PellTriple.build(poly(1, 0, 1), poly(0, 1), poly(2, 0, 1))
    rep = tangent_rank(t)
    assert (rep.variables, rep.rank, rep.corank) == (4, 4, 0)


def test_tangent_rank_reads_the_chart_off_the_triple():
    # R = x^2 + 2x is monic but not normalized, so the monic chart applies.
    t = PellTriple(poly(1, 1), poly(1), poly(0, 2, 1))
    assert t.chart == "monic"
    assert tangent_rank(t).corank == 1


def test_tangent_rank_chart_gate():
    t = PellTriple.build(poly(1, 0, 0, 0, 2), poly(0, 0, 2), poly(1, 0, 0, 0, 1))
    assert t.chart == "general"
    with pytest.raises(ValueError):
        tangent_rank(t)


def test_tangent_corank_is_genus_on_normalized_fixtures(triples):
    for t in triples:
        if t.chart != "normalized":
            continue
        rep = tangent_rank(t)
        assert rep.corank == t.genus, t


def test_tangent_corank_on_inflated_points():
    base = PellTriple.build(poly(-1, 0, 1), poly(0, 1), poly(-2, 0, 1))
    out = inflate(base, 2, "divides_g_plus_1")
    assert out.chart == "normalized"
    assert tangent_rank(out).corank == out.genus
    base23 = PellTriple.build(poly(1, 1), poly(1), poly(0, 2, 1))
    for m, case in ((3, "odd"), (2, "even_half")):
        out = inflate(base23, m, case)
        assert out.chart == "normalized"
        assert tangent_rank(out).corank == out.genus


@st.composite
def integer_matrices(draw):
    """Small integer matrices: random ones, and rank-deficient products A*B
    with an inner dimension below min(rows, columns)."""
    m, n = draw(st.integers(1, 5)), draw(st.integers(1, 5))

    def block(rows, cols):
        return draw(st.lists(st.lists(st.integers(-9, 9), min_size=cols, max_size=cols),
                             min_size=rows, max_size=rows))

    if draw(st.booleans()):
        return block(m, n)
    k = draw(st.integers(0, min(m, n) - 1))
    a, b = block(m, k), block(k, n)
    return [[sum(a[i][l] * b[l][j] for l in range(k)) for j in range(n)] for i in range(m)]


@settings(max_examples=300, deadline=None)
@given(integer_matrices())
def test_bareiss_rank_matches_sympy(rows):
    # The determinant is checked on the leading square block.
    assert bareiss(rows)[0] == sympy.Matrix(rows).rank()
    k = min(len(rows), len(rows[0]))
    square = [row[:k] for row in rows[:k]]
    assert bareiss(square)[1] == sympy.Matrix(square).det()


def bareiss_report(t: PellTriple, chart: str) -> TangentReport:
    """The tangent rank by elimination: the linearisation 2P dP - 2RQ dQ -
    Q^2 dR as an integer matrix, ranked by :func:`bareiss`.

    dP, dQ and dR run over the coefficients below the tops of P, Q and R,
    and, for the normalized chart, below x^(2g+1) in R.  Column j holds the
    numerators of direction j, that is the direction times its denominator
    d_j > 0, which leaves the rank as it is over Q.  Row i is the x^i
    coefficient, i < 2n.
    """
    n, g = t.order, t.genus
    r_top = 2 * g + 2 if chart == CHART_MONIC else 2 * g + 1
    columns = [
        (0,) * j + d.num + (0,) * (2 * n - j - len(d.num))
        for d, count in ((t.p * 2, n), (t.r * t.q * -2, t.q.degree), (t.q * t.q * -1, r_top))
        for j in range(count)
    ]
    rank = bareiss([list(row) for row in zip(*columns)])[0]
    return TangentReport(len(columns), rank, len(columns) - rank)


def assert_tangent_rank_matches_bareiss(t: PellTriple) -> None:
    assert bareiss_report(t, t.chart) == tangent_rank(t), t


def charted(triples: list[PellTriple]) -> list[PellTriple]:
    """The distinct points that ``normalize`` moves the triples to, in the
    monic and the normalized chart (where Q holds the n-th root of 1/lc(P)
    that this takes), and each normalized point translated by x -> x + 1,
    which leaves the normalized chart for the monic one."""
    moved = (normalize(t.p, t.q, t.r, chart) for t in triples for chart in (CHART_MONIC, CHART_NORMALIZED))
    points = list(dict.fromkeys(t for t in moved if isinstance(t, PellTriple)))
    return points + [PellTriple.build(*(f.compose_linear(1, 1) for f in (t.p, t.q, t.r)))
                     for t in points if t.chart == CHART_NORMALIZED]


def kubert_solutions() -> list[PellTriple]:
    """The solutions over Kubert's quartics at t = 3, of order N or 2N for the
    torsion orders N = 4-10 and 12, and their squares and cubes of order
    <= 24 (elimination at order 24 already takes about a second)."""
    units = [pell_solve(kubert_r(n, KUBERT_T[0]), 30) for n in KUBERT_FIRES]
    return units + [pell_power(t, k) for t in units for k in (2, 3) if k * t.order <= 24]


def test_tangent_rank_matches_bareiss_on_the_corpus():
    corpus = charted(fixture_family() + chebyshev_and_inflated(20))
    assert {t.chart for t in corpus} == {CHART_MONIC, CHART_NORMALIZED}
    assert sum(gcd(t.r, t.q).degree >= 1 for t in corpus) >= 10
    for t in corpus:
        assert_tangent_rank_matches_bareiss(t)


def test_full_row_rank_at_kubert_solutions_and_their_powers():
    # lc(P) is no n-th power in Q at any of these, so no chart holds them and
    # tangent_rank refuses them.  The proof never uses lc(P) = lc(Q) = 1:
    # the linearisation that keeps the tops of P, Q and R fixed has full row
    # rank 2n at every solution, which elimination confirms here.
    for t in kubert_solutions():
        assert t.chart == CHART_GENERAL
        assert isinstance(normalize(t.p, t.q, t.r, CHART_MONIC), Obstruction)
        with pytest.raises(ValueError, match="chart"):
            tangent_rank(t)
        for chart in (CHART_MONIC, CHART_NORMALIZED):
            assert bareiss_report(t, chart).rank == 2 * t.order, (t, chart)


def test_tangent_rank_matches_bareiss_on_workload_triples(workloads):
    count = 0
    for seed in (101, 102, 103):
        for index in range(3):
            for case in workloads.triple_cases(seed, index):
                t = PellTriple.build(UniPoly(case.p), UniPoly(case.q), UniPoly(case.r))
                if t.chart != CHART_GENERAL:
                    assert_tangent_rank_matches_bareiss(t)
                    count += 1
    assert count == 9 * 90  # 45 inflation kinds a round, two triples each


@settings(max_examples=40, deadline=None)
@given(inflation_inputs())
def test_tangent_rank_matches_bareiss_on_inflations(inputs):
    for t in charted([inflate(*inputs)]):
        assert_tangent_rank_matches_bareiss(t)
