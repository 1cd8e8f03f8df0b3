"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every assertion is exact -- zero tolerance -- except the single wall-clock
budget on the largest enumeration.  Run with ``pytest tests/test_acceptance.py
-v -s`` to see the per-criterion lines.
"""
import io
import itertools
import time
from contextlib import redirect_stdout

from abelpell.cli import main as cli_main
from abelpell.components import (
    applicable_moves,
    apply_move,
    component_count,
    enumerate_m,
    key_to_tuple,
    validate_tuple,
)
from abelpell.geometry import hurwitz_report, polt_dimension, ramspec_of
from abelpell.pell import inflate, pell_power, pell_solve, pell_verify
from abelpell.perms import (
    compose_all,
    cycle_type,
    fixed_points,
    inverse,
    is_involution,
)
from abelpell.strata import nilpotence_identity_check, odd_nilpotency_check, tangent_rank, weighted_sigma
from abelpell.unipoly import poly

from conftest import chebyshev_triple, exponent_lists, fixture_family, small_triples


def _criterion(number: int, name: str, body) -> None:
    try:
        body()
    except BaseException:
        print(f"criterion {number} ({name}): FAIL")
        raise
    print(f"criterion {number} ({name}): PASS")


def test_criterion_1_pell_identity_suite():
    def body():
        for t in fixture_family():
            report = pell_verify(t.p, t.q, t.r)
            assert report.valid, report.failures
        # the Chebyshev ladder really reaches order 10
        assert chebyshev_triple(10).order == 10

    _criterion(1, "Pell identity suite", body)


def test_criterion_2_solver_correctness():
    def body():
        t = pell_solve(poly(-2, 0, 1), 5)
        assert (t.p, t.q, t.order) == (poly(-1, 0, 1), poly(0, 1), 2)
        u = pell_solve(poly(2, 0, 1), 5)
        assert (u.p, u.q, u.order) == (poly(1, 0, 1), poly(0, 1), 2)
        assert pell_solve(poly(1, 1, 0, 0, 1), 10) is None
        for minimal in (t, u):
            for k in range(1, 6):
                power = pell_power(minimal, k)
                assert pell_verify(power.p, power.q, power.r).valid
                assert power.order == k * minimal.order

    _criterion(2, "solver correctness", body)


def test_criterion_3_inflation_suite():
    def body():
        base = pell_solve(poly(-2, 0, 1), 5)
        out = inflate(base, 2, "divides_g_plus_1")
        assert (out.p, out.q, out.r) == (
            poly(-1, 0, 0, 0, 1),
            poly(0, 0, 1),
            poly(-2, 0, 0, 0, 1),
        )
        assert (out.genus, out.order) == (1, 4)
        from abelpell.pell import PellTriple

        base23 = PellTriple.build(poly(1, 1), poly(1), poly(0, 2, 1))
        out = inflate(base23, 3, "odd")
        assert (out.p, out.q, out.r) == (poly(1, 0, 0, 1), poly(0, 1), poly(0, 2, 0, 0, 1))
        assert (out.genus, out.order) == (1, 3)
        out = inflate(base23, 2, "even_half")
        assert (out.p, out.q, out.r) == (poly(1, 0, 1), poly(0, 1), poly(2, 0, 1))
        assert (out.genus, out.order) == (0, 2)
        solved = pell_solve(poly(2, 0, 1), 5)
        assert (out.p, out.q, out.r) == (solved.p, solved.q, solved.r)

    _criterion(3, "inflation suite", body)


def test_criterion_4_hurwitz_deformation_invariants():
    def body():
        for t in fixture_family():
            spec = ramspec_of(t)
            total = spec.total_ramification() + (t.order - 1)
            assert total == 2 * t.order - 2
            report = hurwitz_report(t)  # aborts if any identity fails
            assert report.w == 2 * t.genus + 2
            if report.generic_stratum:
                assert report.e == t.genus
                assert -2 == -2 * t.order + (t.order - 1) + report.e_prime + report.e
                assert 2 * t.genus - 2 == -4 + (2 * t.order - 2 * report.e_prime)
            assert polt_dimension(spec) == t.genus
        # the non-generic quartic is part of the family; check it by name too
        quartic = small_triples()[4]
        assert not hurwitz_report(quartic).generic_stratum
        assert polt_dimension(ramspec_of(quartic)) == quartic.genus == 1

    _criterion(4, "Hurwitz and deformation invariants", body)


def test_criterion_5_tangent_ranks():
    def body():
        for triple, expected in (
            (small_triples()[1], 0),  # (x^2-1, x, x^2-2)
            (small_triples()[2], 0),  # (x^2+1, x, x^2+2)
            (small_triples()[3], 1),  # (x^2, 1, x^4-1)
        ):
            assert tangent_rank(triple).corank == expected

    _criterion(5, "tangent ranks", body)


def test_criterion_6_strata_lemmas():
    def body():
        for n in range(1, 6):
            for k in range(1, 2 * n + 3):
                assert odd_nilpotency_check(n, k) == (k <= n + 1)
        for exps in exponent_lists(8):
            sys = weighted_sigma(exps)  # a theorem; test_strata.py expands it
            for i in range(1, len(exps) + 1):
                assert nilpotence_identity_check(sys, i)

    _criterion(6, "strata lemmas", body)


def _brute_force_class_count(g: int, n: int) -> int:
    perms = list(itertools.permutations(range(n)))
    transpositions = [p for p in perms if cycle_type(p) == (2,) + (1,) * (n - 2)]
    involutions_n = [p for p in perms if is_involution(p)]
    tuples = []
    for sigma in involutions_n:
        for middles in itertools.product(transpositions, repeat=g):
            for tau in involutions_n:
                if fixed_points(sigma) + fixed_points(tau) != 2 * g + 2:
                    continue
                if cycle_type(compose_all((sigma, *middles, tau), n)) != (n,):
                    continue
                tuples.append((sigma, *middles, tau))
    orbits = set()
    for t in tuples:
        orbit = frozenset(
            tuple(tuple(rho[p[inverse(rho)[i]]] for i in range(n)) for p in t)
            for rho in perms
        )
        orbits.add(orbit)
    return len(orbits)


def test_criterion_7_component_counts():
    def body():
        expected = {
            (0, 2, "split"): 2,
            (0, 2, "nonsplit"): 1,
            (0, 3, "split"): 1,
            (1, 2, "split"): 1,
            (1, 2, "nonsplit"): 1,
        }
        for (g, n, variant), count in expected.items():
            assert component_count(g, n, variant).component_count == count, (g, n, variant)
        for n in range(2, 7):
            assert component_count(0, n, "nonsplit").component_count == 1
        # move validity: every applicable move on every class, both variants
        applied = 0
        for g, n in ((0, 4), (1, 3), (1, 4), (2, 4)):
            for key in enumerate_m(g, n):
                words = key_to_tuple(key, n)
                for move in applicable_moves(g, "nonsplit"):
                    validate_tuple(apply_move(words, move))  # product and types, exactly
                    applied += 1
        assert applied > 0
        # base-cycle invariance by full-conjugation brute force for n <= 4
        for g, n in ((0, 2), (1, 2), (0, 3), (1, 3), (2, 3), (0, 4), (1, 4), (2, 4), (3, 4)):
            assert _brute_force_class_count(g, n) == len(enumerate_m(g, n)), (g, n)
        # runtime budget: the largest advertised enumeration stays under a minute
        start = time.monotonic()
        component_count(3, 6, "split")
        assert time.monotonic() - start < 60.0

    _criterion(7, "component counts", body)


def test_criterion_8_determinism():
    def body():
        def run(argv):
            buffer = io.StringIO()
            with redirect_stdout(buffer):
                code = cli_main(argv)
            return code, buffer.getvalue()

        for argv in (
            ["components", "count", "--genus", "1", "--order", "4", "--format", "structured"],
            ["components", "count", "--genus", "0", "--order", "5", "--split", "--format", "structured"],
            ["pell", "solve", "x^2-2", "--format", "structured"],
            ["pell", "solve", "x^4+x+1", "--n-max", "10", "--format", "structured"],
        ):
            first = run(argv)
            for _ in range(2):
                assert run(argv) == first

    _criterion(8, "determinism", body)
