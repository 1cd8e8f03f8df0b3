
import dataclasses
import itertools
import math
from collections import Counter
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from abelpell import strata
from abelpell.factorization import _is_prime
from abelpell.limits import MAX_DEGREE, ResourceLimit
from abelpell.pell import PellTriple, inflate
from abelpell.strata import (
    format_monomials,
    nilpotence_identity_check,
    odd_nilpotency_check,
    tangent_rank,
    weighted_sigma,
)
from abelpell.unipoly import ONE, ZERO, UniPoly, poly

RANK_PRIME = strata._RANK_PRIME


def exponent_lists(max_total: int):
    """All lists [e_1, ..., e_m] with e_i >= 2 and sum (e_i - 1) <= max_total,
    by length and then lexicographically."""

    def lists(m: int, budget: int):
        # m entries, each taking e - 1 >= 1 of the budget
        if m == 0:
            yield []
            return
        for e in range(2, budget - m + 3):
            for rest in lists(m - 1, budget - (e - 1)):
                yield [e, *rest]

    for m in range(1, max_total + 1):
        yield from lists(m, max_total)


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
    for n in range(1, 21):
        for k in range(1, 2 * n + 3):
            assert odd_nilpotency_check(n, k) == (k <= n + 1), (n, k)


def test_odd_nilpotency_matches_truncated_ring_oracle():
    for n in range(1, 13):
        for k in range(1, 2 * n + 3):
            assert odd_nilpotency_check(n, k) == truncated_ring_square_check(n, k), (n, k)


def test_odd_nilpotency_bounds():
    for n, k in ((0, 1), (1, 0), (-1, -1)):
        with pytest.raises(ValueError):
            odd_nilpotency_check(n, k)
    with pytest.raises(ResourceLimit, match="cap"):
        odd_nilpotency_check(MAX_DEGREE // 2 + 1, 1)


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
    with pytest.raises(AssertionError, match="identity"):
        weighted_sigma([3, 2])
    # Wrong exponents: each tuple reversed, so that a_2 takes the powers
    # 0..2 of a_1 and a_1 those of a_2.
    monkeypatch.setattr(strata, "comb", math.comb)
    monkeypatch.setattr(strata, "product", lambda *ranges: (
        js[::-1] for js in itertools.product(*ranges)))
    with pytest.raises(AssertionError, match="identity"):
        weighted_sigma([3, 2])


def test_nilpotence_identity_detects_a_wrong_generator():
    sys = weighted_sigma([3, 2])
    broken = dataclasses.replace(sys, generators=({(1, 0): 1, (0, 1): 1}, *sys.generators[1:]))
    assert not nilpotence_identity_check(broken, 1)
    assert not nilpotence_identity_check(broken, 2)
    with pytest.raises(ValueError):
        nilpotence_identity_check(sys, 3)


def test_weighted_sigma_rejects_small_exponents():
    with pytest.raises(ValueError):
        weighted_sigma([1, 2])
    with pytest.raises(ValueError):
        weighted_sigma([])


def test_weighted_sigma_and_nilpotence_up_to_8():
    # the identity is re-verified inside weighted_sigma; here we sweep the
    # full range and check the substitution identity at every index
    for exps in exponent_lists(8):
        sys = weighted_sigma(exps)
        for i in range(1, len(exps) + 1):
            assert nilpotence_identity_check(sys, i), (exps, i)


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
    with an inner dimension below min(rows, columns).  Entries are small or
    small multiples of the certificate's prime, and either kind is scaled by
    1 or by that prime, which makes every entry 0 mod p."""
    m, n = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    entries = st.integers(-9, 9) | st.integers(-2, 2).map(lambda k: k * RANK_PRIME)

    def block(rows, cols):
        return draw(st.lists(st.lists(entries, min_size=cols, max_size=cols),
                             min_size=rows, max_size=rows))

    if draw(st.booleans()):
        rows = block(m, n)
    else:
        k = draw(st.integers(0, min(m, n) - 1))
        a, b = block(m, k), block(k, n)
        rows = [[sum(a[i][l] * b[l][j] for l in range(k)) for j in range(n)] for i in range(m)]
    scale = draw(st.sampled_from((1, RANK_PRIME)))
    return [[scale * x for x in row] for row in rows]


@settings(max_examples=300, deadline=None)
@given(integer_matrices())
def test_certified_rank_matches_bareiss_and_sympy(rows):
    expected = sympy.Matrix(rows).rank()
    assert strata._integer_rank(rows) == expected
    assert strata._certified_rank(rows) == expected


@pytest.fixture
def bareiss_calls(monkeypatch):
    """The matrices that reach Bareiss over Z (``_integer_rank`` without a
    modulus), recorded as they are passed."""
    calls, integer_rank = [], strata._integer_rank

    def counted(rows, modulus=0):
        if not modulus:
            calls.append(rows)
        return integer_rank(rows, modulus)

    monkeypatch.setattr(strata, "_integer_rank", counted)
    return calls


@pytest.mark.parametrize("rows, rank_mod_p, rank", [
    # det = p: full rank over Q, rank 1 mod p.
    ([[1, 1], [1, 1 + RANK_PRIME]], 1, 2),
    # Row 3 is row 1 + row 2; the entry p, which no update reduces, must not
    # be taken for a pivot.
    ([[0, RANK_PRIME, 1], [1, 0, 0], [1, RANK_PRIME, 1]], 2, 2),
])
def test_certified_rank_falls_back_below_full_rank_mod_p(bareiss_calls, rows, rank_mod_p, rank):
    assert strata._integer_rank(rows, RANK_PRIME) == rank_mod_p
    assert not bareiss_calls
    assert strata._certified_rank(rows) == rank
    assert bareiss_calls == [rows]


def test_tangent_rank_takes_no_fallback_on_fixtures(triples, bareiss_calls):
    demo = [
        PellTriple.build(poly(-1, 0, 1), poly(0, 1), poly(-2, 0, 1)),
        PellTriple.build(poly(0, 0, 1), poly(1), poly(-1, 0, 0, 0, 1)),
        PellTriple.build(poly(1, 0, 1), poly(0, 1), poly(2, 0, 1)),
    ]
    charted = [t for t in triples + demo if t.chart in ("monic", "normalized")]
    assert len(charted) > len(demo)
    for t in charted:
        tangent_rank(t)
    assert bareiss_calls == []


def test_rank_modulus_is_prime():
    # Mod a composite the certificate is unsound: nonzero pivots can have a
    # zero product.
    assert _is_prime(RANK_PRIME)
    assert not _is_prime(RANK_PRIME + 2)
