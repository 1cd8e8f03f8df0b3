
import pytest

from abelpell.multipoly import MultiPoly
from abelpell.pell import PellTriple, inflate
from abelpell.strata import (
    TruncatedRing,
    nilpotence_identity_check,
    odd_nilpotency_check,
    tangent_rank,
    weighted_sigma,
)
from abelpell.unipoly import poly


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


def test_truncated_ring():
    ring = TruncatedRing(3)
    a = ring.gen_power(1)
    assert ring.mul(a, a) == ring.gen_power(2)
    assert ring.is_zero(ring.mul(ring.gen_power(2), a))
    assert ring.gen_power(5) == ring.zero()


def test_odd_nilpotency_paper_values():
    assert odd_nilpotency_check(1, 2) is True
    assert odd_nilpotency_check(1, 3) is False
    assert odd_nilpotency_check(3, 4) is True
    assert odd_nilpotency_check(3, 5) is False


def test_odd_nilpotency_exhaustive():
    for n in range(1, 6):
        for k in range(1, 2 * n + 3):
            assert odd_nilpotency_check(n, k) == (k <= n + 1), (n, k)


def test_weighted_sigma_examples():
    sys = weighted_sigma([2])
    a1 = MultiPoly.var(("a1",), "a1")
    assert sys.total == 1 and sys.generators == (a1,)

    sys = weighted_sigma([2, 2])
    names = ("a1", "a2")
    a1, a2 = (MultiPoly.var(names, v) for v in names)
    assert sys.total == 2
    assert sys.generators == (a1 + a2, a1 * a2)

    sys = weighted_sigma([3, 2])
    assert sys.total == 3
    assert sys.generators == (2 * a1 + a2, a1 * a1 + 2 * a1 * a2, a1 * a1 * a2)


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
