import functools
import hashlib
import itertools
import math
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abelpell import components
from abelpell.components import (
    ResourceLimit,
    applicable_moves,
    apply_move,
    canonical_key,
    component_count,
    enumerate_m,
    enumerate_m_with_cycle,
    key_to_tuple,
    tuple_ramspec,
    validate_tuple,
)
from abelpell.ramspec import genus_of_ramspec
from abelpell.perms import (
    compose,
    compose_all,
    count_involutions,
    cycle_type,
    fixed_points,
    identity,
    inverse,
    is_involution,
    standard_cycle,
    transposition,
)


def involutions(n):
    """All involutions of S_n (identity included), by recursive pairing."""
    word = list(range(n))

    def fill(free):
        if not free:
            yield tuple(word)
            return
        i = free[0]
        # i stays fixed
        yield from fill(free[1:])
        # or i pairs with a later free point
        for idx in range(1, len(free)):
            j = free[idx]
            word[i], word[j] = j, i
            yield from fill(free[1:idx] + free[idx + 1 :])
            word[i], word[j] = i, j

    return fill(list(range(n)))


def conjugate(p, rho):
    """rho^(-1) * p * rho in left-to-right convention, entry by entry: the
    oracle for the package's two-translate conjugation."""
    out = [0] * len(p)
    for i in range(len(p)):
        out[rho[i]] = rho[p[i]]
    return tuple(out)


def test_conjugate_oracle():
    # (0 1) conjugated by the 3-cycle (0 1 2) is (1 2).
    assert conjugate((1, 0, 2), (1, 2, 0)) == (0, 2, 1)


def cycle_powers(cycle):
    powers = [identity(len(cycle))]
    for _ in range(len(cycle) - 1):
        powers.append(compose(powers[-1], cycle))
    return powers


def brute_force_key(comps, powers):
    """The least flattening over all the given conjugators."""
    return min(tuple(x for comp in comps for x in conjugate(comp, rho)) for rho in powers)


def brute_force_keys(g, n, base_cycle):
    """Slow reference for enumerate_m_with_cycle, the full scan: every
    involution sigma, every g-tuple of transpositions, tau forced by the
    product, and the key as the least flattening over all n powers of the
    cycle."""
    powers = cycle_powers(base_cycle)
    transpositions = [transposition(n, i, j) for i in range(n) for j in range(i + 1, n)]
    keys = set()

    def scan(prefix, chosen, sigma):
        if len(chosen) == g:
            tau = compose(inverse(prefix), base_cycle)
            if is_involution(tau) and fixed_points(sigma) + fixed_points(tau) == 2 * g + 2:
                keys.add(brute_force_key((sigma, *chosen, tau), powers))
            return
        for t in transpositions:
            scan(compose(prefix, t), chosen + [t], sigma)

    for sigma in involutions(n):
        if fixed_points(sigma) <= 2 * g + 2:
            scan(sigma, [], sigma)
    return keys


def random_n_cycle(rng, n):
    order = list(range(n))
    rng.shuffle(order)
    cycle = [0] * n
    for i, x in enumerate(order):
        cycle[x] = order[(i + 1) % n]
    return tuple(cycle)


def test_enumerate_small_by_hand():
    # (g, n) = (0, 2): exactly (e, (01)) and ((01), e).
    keys = enumerate_m(0, 2)
    e, t = identity(2), transposition(2, 0, 1)
    assert keys == {canonical_key((e, t)), canonical_key((t, e))}
    assert len(keys) == 2
    # (1, 2): the fixed-point budget forces both ends to the identity.
    keys = enumerate_m(1, 2)
    assert keys == {canonical_key((e, t, e))}
    # (0, 3): all pairs of distinct transpositions with 3-cycle product agree
    # up to conjugation.
    assert len(enumerate_m(0, 3)) == 1


def test_enumerated_tuples_validate():
    for g, n in ((0, 2), (0, 3), (1, 2), (1, 3), (2, 4), (0, 5)):
        for key in enumerate_m(g, n):
            words = key_to_tuple(key, n)
            validate_tuple(words)
            assert len(words) == g + 2 and len(words[0]) == n


def test_infeasible_is_empty():
    # the fixed-point budget 2g+2 cannot exceed 2n
    assert enumerate_m(3, 2) == set()
    assert enumerate_m(4, 3) == set()


def test_feasible_exactly_when_n_exceeds_g():
    # The ends' fixed points total 2g+2, each count at most n and congruent
    # to n mod 2; the guard reads this as n >= g + 1 and returns at once.
    for g in range(6):
        for n in range(1, 10):
            if count_involutions(n) * (n * (n - 1) // 2) ** g <= components.SIZE_LIMIT:
                assert bool(enumerate_m(g, n)) == (n >= g + 1), (g, n)
    assert enumerate_m(10**9, 5) == set()


#: The (g, n) that the census admits: I(n) * C(n,2)^g <= SIZE_LIMIT and n >= g + 1.
ADMITTED = (
    [(0, n) for n in range(1, 15)] + [(1, n) for n in range(2, 12)]
    + [(2, n) for n in range(3, 10)] + [(3, n) for n in range(4, 8)] + [(4, 5), (4, 6)]
)


def test_admitted_matches_its_oracle():
    # The guard raises exactly where the candidate count passes the cap.
    admitted = []
    for n in range(1, 61):
        for g in range(n):
            if count_involutions(n) * math.comb(n, 2) ** g > components.SIZE_LIMIT:
                with pytest.raises(ResourceLimit, match="exceeds the cap of 5000000"):
                    components._admitted(g, n)
            else:
                assert components._admitted(g, n) is True
                admitted.append((g, n))
    assert sorted(admitted) == ADMITTED


def test_size_guard():
    # For g <= 4 the largest admitted n answers and n + 1 is refused; for g = 5
    # every feasible n is refused, and a huge n is refused at once.
    for g in range(5):
        largest = max(n for h, n in ADMITTED if h == g)
        assert enumerate_m(g, largest)
        with pytest.raises(ResourceLimit):
            enumerate_m(g, largest + 1)
    for n in range(6, 61):
        with pytest.raises(ResourceLimit):
            enumerate_m(5, n)
    start = time.perf_counter()
    with pytest.raises(ResourceLimit):
        enumerate_m(0, 10**18)
    assert time.perf_counter() - start < 0.1


def test_base_cycle_checked_after_the_guard():
    # A bad or over-cap (g, n) raises before a bad cycle does; a bad cycle
    # raises even where (g, n) is infeasible.
    with pytest.raises(ValueError, match="need g >= 0"):
        enumerate_m_with_cycle(-1, 3, (0, 0, 0))
    with pytest.raises(ResourceLimit):
        enumerate_m_with_cycle(5, 12, (0,) * 12)
    for g, n, cycle in ((0, 3, (0, 1, 2)), (3, 2, (0, 0)), (0, 4, (1, 0, 3, 2))):
        with pytest.raises(ValueError, match="base cycle must be an n-cycle"):
            enumerate_m_with_cycle(g, n, cycle)
    assert enumerate_m_with_cycle(3, 2, (1, 0)) == set()
    assert len(enumerate_m_with_cycle(0, 3, (2, 0, 1))) == len(enumerate_m(0, 3)) > 0


def test_count_involutions_cap():
    assert [count_involutions(n) for n in range(7)] == [1, 1, 2, 4, 10, 26, 76]
    # the oracle's generator makes each involution once
    for n in range(7):
        found = list(involutions(n))
        assert all(map(is_involution, found)) and len(set(found)) == len(found) == (
            count_involutions(n))


def test_brute_force_full_conjugation_n_le_4():
    # Quotient of all valid tuples (product any n-cycle) by all of S_n equals
    # the canonical-key count.
    for g, n in ((0, 2), (1, 2), (0, 3), (1, 3), (0, 4), (1, 4), (2, 4)):
        perms = list(itertools.permutations(range(n)))
        tuples = []
        for sigma in perms:
            if not is_involution(sigma):
                continue
            for middles in itertools.product(
                [p for p in perms if cycle_type(p) == (2,) + (1,) * (n - 2)], repeat=g
            ):
                for tau in perms:
                    if not is_involution(tau):
                        continue
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
        assert len(orbits) == len(enumerate_m(g, n)), (g, n)


def test_base_cycle_invariance_n_le_5():
    for n in range(2, 6):
        cycles = [p for p in itertools.permutations(range(n)) if cycle_type(p) == (n,)]
        for g in range(0, 3):
            reference = len(enumerate_m(g, n))
            for cycle in cycles:
                assert len(enumerate_m_with_cycle(g, n, cycle)) == reference


def test_flip_example():
    e, t = identity(2), transposition(2, 0, 1)
    assert apply_move((e, t), "flip") == (t, e)


def test_left_turn_fixed_point():
    e, t = identity(2), transposition(2, 0, 1)
    words = (e, t, e)
    assert apply_move(words, "left_turn") == words
    assert apply_move(words, "right_turn") == words


def test_swap_needs_room():
    e, t = identity(2), transposition(2, 0, 1)
    with pytest.raises(ValueError):
        apply_move((e, t, e), ("swap", 1))
    with pytest.raises(ValueError):
        apply_move((e, t), "left_turn")


def test_moves_preserve_validity_everywhere():
    for g, n, variant in ((1, 3, "split"), (2, 3, "nonsplit"), (2, 4, "nonsplit")):
        for key in enumerate_m(g, n):
            words = key_to_tuple(key, n)
            for move in applicable_moves(g, variant):
                out = apply_move(words, move)  # apply_move does not validate
                validate_tuple(out)
                assert compose_all(out, n) == standard_cycle(n)


def test_moves_commute_with_conjugation():
    # the orbit relation on keys is independent of the representative
    rng = random.Random(9)
    for g, n in ((1, 3), (2, 4)):
        keys = sorted(enumerate_m(g, n))
        cycle = standard_cycle(n)
        for key in keys:
            words = key_to_tuple(key, n)
            rho = identity(n)
            for _ in range(rng.randint(0, n - 1)):
                rho = compose(rho, cycle)
            conjugated = tuple(tuple(rho[p[inverse(rho)[i]]] for i in range(n)) for p in words)
            for move in applicable_moves(g, "nonsplit"):
                a = canonical_key(apply_move(words, move))
                b = canonical_key(apply_move(conjugated, move))
                assert a == b


def test_component_counts_paper_values():
    assert component_count(0, 2, "split").component_count == 2
    assert component_count(0, 2, "nonsplit").component_count == 1
    assert component_count(0, 3, "split").component_count == 1
    assert component_count(1, 2, "split").component_count == 1
    assert component_count(1, 2, "nonsplit").component_count == 1
    for n in range(2, 7):
        assert component_count(0, n, "nonsplit").component_count == 1, n


def test_split_vs_nonsplit_bounds():
    for g, n in ((0, 3), (0, 4), (1, 3), (1, 4), (2, 4), (1, 5)):
        split = component_count(g, n, "split").component_count
        nonsplit = component_count(g, n, "nonsplit").component_count
        assert split >= nonsplit >= (split + 1) // 2, (g, n)


def test_orbit_sizes_partition_m():
    cert = component_count(1, 4, "split")
    assert sum(cert.orbit_sizes) == cert.m_count
    assert len(cert.representatives) == cert.component_count
    assert list(cert.representatives) == sorted(cert.representatives)


def test_union_order_independence():
    # two shuffled move applications give the same counts
    rng = random.Random(31)
    base = component_count(2, 4, "nonsplit")
    keys = sorted(enumerate_m(2, 4))
    for _ in range(3):
        pairs = []
        for key in keys:
            words = key_to_tuple(key, 4)
            for move in applicable_moves(2, "nonsplit"):
                pairs.append((key, canonical_key(apply_move(words, move))))
        rng.shuffle(pairs)
        index = {k: i for i, k in enumerate(keys)}
        parent = list(range(len(keys)))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for a, b in pairs:
            ra, rb = find(index[a]), find(index[b])
            if ra != rb:
                parent[ra] = rb
        assert len({find(i) for i in range(len(keys))}) == base.component_count


def slow_orbits(g, n, variant):
    """Slow reference for component_count: union-find over the moves, each
    image validated explicitly and keyed by the least flattening over all n
    powers of the cycle.  Returns (representatives, orbit sizes, the number
    of images whose sigma is fixed by a power other than the identity)."""
    keys = sorted(enumerate_m(g, n))
    powers = cycle_powers(standard_cycle(n))
    index = {k: i for i, k in enumerate(keys)}
    parent = list(range(len(keys)))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    symmetric = 0
    for key in keys:
        words = key_to_tuple(key, n)
        for move in applicable_moves(g, variant):
            out = apply_move(words, move)
            validate_tuple(out)
            symmetric += sum(conjugate(out[0], rho) == out[0] for rho in powers) > 1
            ra, rb = find(index[key]), find(index[brute_force_key(out, powers)])
            if ra != rb:
                parent[ra] = rb
    orbits = {}
    for key in keys:
        orbits.setdefault(find(index[key]), []).append(key)
    ordered = sorted(orbits.values())
    return tuple(o[0] for o in ordered), tuple(len(o) for o in ordered), symmetric


def test_component_count_matches_slow_orbit_oracle():
    cases = [(g, n) for g in range(4) for n in range(1, 7) if enumerate_m(g, n)] + [(2, 7)]
    symmetric = 0
    for g, n in cases:
        for variant in ("split", "nonsplit"):
            reps, sizes, sym = slow_orbits(g, n, variant)
            cert = component_count(g, n, variant)
            assert (cert.representatives, cert.orbit_sizes) == (reps, sizes), (g, n, variant)
            symmetric += sym
    # sigma with a nontrivial stabiliser in the cycle's powers occur, so the
    # closure's branch with several least rotations is exercised
    assert symmetric > 0


def test_unknown_variant_rejected_before_enumerating(monkeypatch):
    def fail(g, n, base_cycle):
        raise AssertionError("the keys enumerated for an unknown variant")

    monkeypatch.setattr(components, "_keys", fail)
    with pytest.raises(ValueError, match="unknown variant"):
        component_count(4, 6, "bogus")


#: The least key of each split orbit of (g, n) = (2, 6), recorded from the
#: closure that converted M's tuple keys; the nonsplit orbits join the first
#: with the last and the middle two.
REPS_2_6 = (
    (0, 1, 2, 3, 4, 5, 0, 1, 2, 5, 4, 3, 0, 3, 2, 1, 4, 5, 1, 0, 3, 2, 5, 4),
    (0, 1, 2, 3, 5, 4, 0, 1, 2, 4, 3, 5, 0, 3, 2, 1, 4, 5, 1, 0, 3, 2, 4, 5),
    (0, 1, 3, 2, 5, 4, 0, 1, 4, 3, 2, 5, 0, 2, 1, 3, 4, 5, 1, 0, 2, 3, 4, 5),
    (1, 0, 3, 2, 5, 4, 0, 1, 4, 3, 2, 5, 2, 1, 0, 3, 4, 5, 0, 1, 2, 3, 4, 5),
)


@pytest.mark.parametrize("variant, reps, sizes", [
    ("split", REPS_2_6, (2, 54, 54, 2)),
    ("nonsplit", REPS_2_6[:2], (4, 108)),
])
def test_census_keeps_bytes_from_enumeration_to_certificate(monkeypatch, variant, reps, sizes):
    # component_count reads the bytes keys as built; neither public
    # enumeration, which returns tuples, is on its path.
    def fail(*args):
        raise AssertionError("component_count took its keys as tuples")

    monkeypatch.setattr(components, "enumerate_m", fail)
    monkeypatch.setattr(components, "enumerate_m_with_cycle", fail)
    cert = component_count(2, 6, variant)
    assert cert == components.OrbitCertificate(2, 6, variant, 112, len(reps), reps, sizes)
    assert all(type(key) is tuple for key in cert.representatives)


def test_closure_rejects_a_move_that_leaves_m(monkeypatch):
    # right_turn followed by an extra transposition on tau breaks the product,
    # so its image's key is not among the enumerated keys; the closure's
    # words are byte strings
    real = components.apply_move

    def broken(words, move):
        out = real(words, move)
        if move != "right_turn":
            return out
        return (*out[:-1], bytes(compose(out[-1], transposition(len(out[0]), 0, 1))))

    monkeypatch.setattr(components, "apply_move", broken)
    with pytest.raises(AssertionError, match="out of M"):
        component_count(2, 5, "split")


def test_closure_rejects_a_flip_that_leaves_m(monkeypatch):
    # the nonsplit closure flips one key per split orbit; a flip broken on
    # every tuple must still be caught
    real = components.apply_move

    def broken(words, move):
        out = real(words, move)
        if move != "flip":
            return out
        return (*out[:-1], bytes(compose(out[-1], transposition(len(out[0]), 0, 1))))

    monkeypatch.setattr(components, "apply_move", broken)
    with pytest.raises(AssertionError, match="out of M"):
        component_count(2, 5, "nonsplit")


def test_closure_rejects_a_flip_that_is_no_involution(monkeypatch):
    # a flip that sends every tuple to the least key of M stays in M, but it
    # does not pair the split orbits, which the nonsplit count relies on
    least = key_to_tuple(bytes(min(enumerate_m(2, 5))), 5)
    real = components.apply_move
    monkeypatch.setattr(
        components, "apply_move", lambda words, move: least if move == "flip" else real(words, move))
    assert component_count(2, 5, "split").component_count > 2
    with pytest.raises(AssertionError, match="does not pair"):
        component_count(2, 5, "nonsplit")


def test_certificate_checks_its_orbit_sizes():
    # four keys in the orbits of a count of five
    with pytest.raises(AssertionError, match="orbit sizes do not sum to the class count"):
        components.OrbitCertificate(1, 4, "split", 5, 1, ((0,),), (4,))


def test_closure_applies_each_split_move_once_per_key(monkeypatch):
    # The benchmark's tracer counts moves_applied through the module
    # attribute: |M| (g + 1) split images, and the nonsplit count adds one
    # flip per split orbit.
    real, calls = components.apply_move, []

    def counted(words, move):
        calls.append(move)
        return real(words, move)

    monkeypatch.setattr(components, "apply_move", counted)
    split = component_count(2, 5, "split")
    assert len(calls) == split.m_count * 3 == 105
    calls.clear()
    component_count(2, 5, "nonsplit")
    assert len(calls) == 105 + split.component_count == 108
    assert calls.count("flip") == split.component_count


def test_canonical_key_refuses_a_key_past_256_bytes():
    # the closure's keys are byte strings; the census never comes near this
    n = 129
    with pytest.raises(ValueError, match="range"):
        canonical_key((identity(n), standard_cycle(n)))


def test_flip_conjugates_split_moves_on_keys():
    # The premise of the nonsplit closure: on keys, F swap_i F = swap_(g-i),
    # F left_turn F = right_turn^-1 and F right_turn F = left_turn^-1 (the
    # last two checked as F left_turn F right_turn = F right_turn F
    # left_turn = 1).
    cases = [(g, n) for g in range(4) for n in range(1, 8)] + [(4, 6)]
    checked = 0
    for g, n in cases:
        for key in enumerate_m(g, n):
            words = key_to_tuple(key, n)

            def run(*moves):
                out = words
                for move in moves:
                    out = apply_move(out, move)
                return canonical_key(out)

            for i in range(1, g):
                assert run("flip", ("swap", i), "flip") == run(("swap", g - i)), (key, i)
            if g:
                assert run("flip", "left_turn", "flip", "right_turn") == key, key
                assert run("flip", "right_turn", "flip", "left_turn") == key, key
            checked += 1
    assert checked > 2500


def test_tie_free_images_are_their_own_keys():
    # An image whose sigma is smaller than each of its other conjugates by
    # powers of the cycle is its own key, so the closure skips conjugating it.
    tie_free = 0
    for g, n in ((1, 4), (2, 5), (2, 6), (3, 5)):
        powers = cycle_powers(standard_cycle(n))
        for key in enumerate_m(g, n):
            words = key_to_tuple(key, n)
            for move in applicable_moves(g, "nonsplit"):
                comps = apply_move(words, move)
                if all(conjugate(comps[0], rho) > comps[0] for rho in powers[1:]):
                    flat = tuple(x for comp in comps for x in comp)
                    assert brute_force_key(comps, powers) == flat, (key, move)
                    tie_free += 1
    assert tie_free > 100


#: One SHA-256 over repr(component_count(g, n, v)) for g in 0..5, n in
#: 1..10 and both variants in VARIANTS order, cases past the size cap
#: skipped; recorded from the closure that applied every move to every key.
CENSUS_SHA256 = "3df958a1d0456d712ed19248735aefa76d1766e0815ad0325fdb652dc9bce32f"


def test_census_certificates_pinned():
    digest = hashlib.sha256()
    for g in range(6):
        for n in range(1, 11):
            for variant in components.VARIANTS:
                try:
                    cert = component_count(g, n, variant)
                except ResourceLimit:
                    continue
                digest.update(repr(cert).encode())
    assert digest.hexdigest() == CENSUS_SHA256


#: One SHA-256 over repr(sorted(enumerate_m_with_cycle(g, n, c))) for every
#: feasible (g, n) within the size cap with g <= 6 and n <= 13, on the
#: standard cycle and then two cycles from random.Random(19); recorded from
#: the scan that rebuilt the remainder's cycle lists at every node.
KEY_SETS_SHA256 = "7a3122e68d15d93413220702ef370f4e6da933fd81b5a32d192042d7a22a61ef"


def test_key_sets_pinned():
    rng = random.Random(19)
    digest = hashlib.sha256()
    cases = 0
    for g in range(7):
        for n in range(1, 14):
            try:
                keys = enumerate_m_with_cycle(g, n, None)
            except ResourceLimit:
                continue
            if not keys:
                continue
            digest.update(repr(sorted(keys)).encode())
            for cycle in (random_n_cycle(rng, n), random_n_cycle(rng, n)):
                digest.update(repr(sorted(enumerate_m_with_cycle(g, n, cycle))).encode())
            cases += 1
    assert cases == 36
    assert digest.hexdigest() == KEY_SETS_SHA256


def test_tuple_ramspec():
    e, t = identity(2), transposition(2, 0, 1)
    spec = tuple_ramspec((e, t))
    assert spec.assigned == ((1, 1), (2,))
    assert genus_of_ramspec(spec) == 0
    spec = tuple_ramspec((e, t, e))
    assert spec.members == ((2,), (1, 1), (1, 1))
    assert genus_of_ramspec(spec) == 1


#: One malformed tuple per defect, with the message validation gives.
MALFORMED = [
    (((0, 1), (0, 1)), "multiply"),  # product the identity, not (0 1)
    (((1, 2, 0), (0, 1, 2)), "involutions"),  # sigma a 3-cycle
    (((0, 1, 2), (1, 2, 0), (0, 1, 2)), "transpositions"),  # middle a 3-cycle
    (((1, 0), (1, 0), (1, 0)), "2g \\+ 2"),  # no fixed points at g = 1
    (((0, 1), (1, 0, 2), (0, 1)), "length"),  # a middle on 3 points, n = 2
    (((0, 1, 2), (1, 0), (0, 1, 2)), "length"),  # a middle on 2 points, n = 3
    (((0, 5), (1, 0)), "permutation"),  # an entry out of range, not an IndexError
    (((0, 0), (1, 0)), "permutation"),  # a repeated entry
    (((1, 0, 2), (2, 1, 0, 3)), "length"),  # tau on 4 points after sigma on 3
    (((5, 0, 1), (0, 1, 2)), "permutation"),  # sigma's 5 out of range
    (((), ()), "length n >= 1"),  # empty words, not min() of an empty sequence
]


@pytest.mark.parametrize("words, message", MALFORMED)
def test_malformed_tuples_rejected(words, message):
    with pytest.raises(ValueError, match=message):
        validate_tuple(words)
    with pytest.raises(ValueError, match=message):
        tuple_ramspec(words)
    # canonical_key checks the shape only, not the monodromy conditions:
    # test_canonical_key_refuses_a_key_past_256_bytes keys (identity, cycle)
    if message in ("length", "length n >= 1", "permutation"):
        with pytest.raises(ValueError, match=message):
            canonical_key(words)


@pytest.mark.parametrize("words", [(), ((0,),), ((1, 0),)])
def test_short_tuples_rejected(words):
    message = "a monodromy tuple has at least two words"
    for check in (validate_tuple, tuple_ramspec, canonical_key):
        with pytest.raises(ValueError, match=message):
            check(words)


def test_key_to_tuple_rejects_a_ragged_key():
    assert key_to_tuple((0, 2, 1, 1, 0, 2), 3) == ((0, 2, 1), (1, 0, 2))
    assert key_to_tuple(bytes((0, 2, 1, 1, 0, 2)), 3) == (b"\0\2\1", b"\1\0\2")
    for key in ((0, 2, 1, 1, 0, 2, 7), bytes((0, 2, 1, 1, 0, 2, 7)), (0, 1)):
        with pytest.raises(ValueError, match="not a multiple of n = 3"):
            key_to_tuple(key, 3)


def test_key_to_tuple_needs_n_at_least_1():
    for n in (0, -1):
        with pytest.raises(ValueError, match=f"need n >= 1, got n = {n}"):
            key_to_tuple((0, 1, 1, 0), n)


def test_tuple_ramspec_genus_everywhere():
    for g, n in ((0, 4), (1, 4), (2, 4), (1, 5)):
        for key in enumerate_m(g, n):
            spec = tuple_ramspec(key_to_tuple(key, n))
            assert genus_of_ramspec(spec) == g
            assert spec.total_ramification() == n - 1


def test_enumeration_matches_brute_force_oracle():
    rng = random.Random(2024)
    cases = [(g, n) for g in range(4) for n in range(1, 7)] + [(2, 7)]
    for g, n in cases:
        cycles = [standard_cycle(n), random_n_cycle(rng, n), random_n_cycle(rng, n)]
        for cycle in cycles:
            assert cycle_type(cycle) == (n,)
            assert enumerate_m_with_cycle(g, n, cycle) == brute_force_keys(g, n, cycle), (
                g, n, cycle)
    # g = 4 splits a cycle at three depths before the last middle
    cycle = random_n_cycle(rng, 5)
    assert enumerate_m_with_cycle(4, 5, cycle) == brute_force_keys(4, 5, cycle), cycle
    # sigma with four and five transpositions, which n <= 7 never reaches
    for g, n in ((0, 10), (0, 11), (1, 9)):
        cycle = random_n_cycle(rng, n)
        assert enumerate_m_with_cycle(g, n, cycle) == brute_force_keys(g, n, cycle), (g, n)


def test_each_sigma_is_built_once(monkeypatch):
    # For g <= 1 the scan calls _splits only to extend sigma, once for each
    # sigma it builds, and the remainder sigma^-1 * cycle determines sigma.
    # The sigma extended are those whose transpositions all split a cycle of
    # the remainder and that leave room for one more.
    calls = []
    real = components._splits
    monkeypatch.setattr(
        components, "_splits", lambda p, *rest: calls.append(tuple(p)) or real(p, *rest))
    rng = random.Random(5)
    for g, n in ((0, 9), (1, 8)):
        cycle = random_n_cycle(rng, n)
        calls.clear()
        enumerate_m_with_cycle(g, n, cycle)
        expected = sum(
            1 for sigma in involutions(n)
            if fixed_points(sigma) >= 2 * g + 4 - n
            and len(cycle_type(compose(sigma, cycle))) == 1 + (n - fixed_points(sigma)) // 2
        )
        assert len(calls) == len(set(calls)) == expected, (g, n)


@pytest.mark.parametrize("base_cycle", [(5, 0, 1), (1, 2), (-1, 0, 1)])
def test_malformed_base_cycle_rejected(base_cycle):
    # out-of-range points, a short word, and a negative point that indexes
    # from the end and would pass as a 3-cycle
    with pytest.raises(ValueError, match="n-cycle"):
        enumerate_m_with_cycle(0, 3, base_cycle)


def test_list_base_cycle_is_a_tuple():
    assert enumerate_m_with_cycle(1, 3, [1, 2, 0]) == enumerate_m_with_cycle(1, 3, (1, 2, 0))


def test_every_middle_splits_a_cycle_of_the_remainder():
    # The premise of the scan's pruning, checked on the tuples it found: the
    # remainder r = (sigma s_1 ... s_k)^-1 * cycle starts with
    # 1 + (n - fix sigma)/2 cycles, each middle adds exactly one, and the
    # last remainder is tau.
    checked = 0
    for g in range(4):
        for n in range(1, 8):
            cycle = standard_cycle(n)
            for key in enumerate_m(g, n):
                sigma, *middles, tau = key_to_tuple(key, n)
                prefix = sigma
                count = len(cycle_type(compose(inverse(prefix), cycle)))
                assert count == 1 + (n - fixed_points(sigma)) // 2, key
                for middle in middles:
                    prefix = compose(prefix, middle)
                    rest = len(cycle_type(compose(inverse(prefix), cycle)))
                    assert rest == count + 1, key
                    count = rest
                assert compose(inverse(prefix), cycle) == tau, key
                checked += 1
    assert checked > 1000


def test_splits_oracle():
    # the pairs (i, j), i < j, whose swap gives p one more cycle; with sigma
    # and least, those of them fixed by sigma with i >= least.  Every sigma
    # and least on every p for n <= 6, and on 200 random p for n = 7.
    rng = random.Random(7)
    for n in range(1, 8):
        perms = list(itertools.permutations(range(n)))
        swept = set(perms if n < 7 else rng.sample(perms, 200))
        sigmas = list(involutions(n))
        for p in perms:
            splits = set()
            for i, j in itertools.combinations(range(n), 2):
                q = list(p)
                q[i], q[j] = p[j], p[i]
                if len(cycle_type(q)) == len(cycle_type(p)) + 1:
                    splits.add((i, j))
            found = components._splits(list(p), identity(n), 0)
            assert len(found) == len(splits) and set(found) == splits, p
            if p not in swept:
                continue
            for sigma in sigmas:
                kept = [(i, j) for i, j in splits if sigma[i] == i and sigma[j] == j]
                for least in range(n + 1):
                    found = components._splits(list(p), sigma, least)
                    expected = {(i, j) for i, j in kept if i >= least}
                    assert len(found) == len(expected) and set(found) == expected, (
                        p, sigma, least)


def test_involution_splits_oracle():
    # the pairs whose swap turns p into an involution with one more cycle;
    # n = 7 is the first with a 3-cycle and a 4-cycle together
    for n in range(1, 8):
        for p in itertools.permutations(range(n)):
            expected = set()
            for i, j in itertools.combinations(range(n), 2):
                q = list(p)
                q[i], q[j] = p[j], p[i]
                if is_involution(q) and len(cycle_type(q)) == len(cycle_type(p)) + 1:
                    expected.add((i, j))
            found = components._involution_splits(list(p))
            assert len(found) == len(expected), p
            assert {tuple(sorted(pair)) for pair in found} == expected, p


#: (g, n) -> (|M|, split orbit sizes, nonsplit orbit sizes).  The first three
#: are the benchmark's census reference values; (4, 6) was confirmed once
#: against the brute-force enumeration with union-find orbit closure.
CENSUS = {
    (3, 6): (324, (54, 216, 54), (108, 216)),
    (2, 7): (294, (49, 196, 49), (98, 196)),
    (2, 8): (672, (16, 320, 320, 16), (32, 640)),
    (4, 6): (432, (216, 216), (432,)),
}


@pytest.mark.parametrize("g, n", sorted(CENSUS))
def test_census_reference(g, n):
    m_count, split_sizes, nonsplit_sizes = CENSUS[(g, n)]
    for variant, sizes in (("split", split_sizes), ("nonsplit", nonsplit_sizes)):
        cert = component_count(g, n, variant)
        assert cert.m_count == m_count
        assert sorted(cert.orbit_sizes) == sorted(sizes), variant
        assert cert.component_count == len(sizes)


# -- algebraic laws on small cases ---------------------------------------------------

LAW_CASES = ((1, 3), (1, 4), (2, 4), (2, 5))
SORTED_KEYS = {case: sorted(enumerate_m(*case)) for case in LAW_CASES}
LAWS = settings(max_examples=40, deadline=None)


@st.composite
def case_and_key(draw):
    g, n = draw(st.sampled_from(LAW_CASES))
    return g, n, draw(st.sampled_from(SORTED_KEYS[(g, n)]))


@LAWS
@given(st.sampled_from(LAW_CASES), st.data())
def test_each_move_is_a_bijection_on_keys(case, data):
    g, n = case
    move = data.draw(st.sampled_from(applicable_moves(g, "nonsplit")))
    keys = SORTED_KEYS[case]
    images = [canonical_key(apply_move(key_to_tuple(k, n), move)) for k in keys]
    assert sorted(images) == keys


@LAWS
@given(case_and_key())
def test_flip_is_an_involution_on_classes(drawn):
    g, n, key = drawn
    once = apply_move(key_to_tuple(key, n), "flip")
    twice = apply_move(key_to_tuple(canonical_key(once), n), "flip")
    assert canonical_key(twice) == key


@LAWS
@given(case_and_key(), st.integers(min_value=0, max_value=7))
def test_canonical_key_invariant_under_cycle_conjugation(drawn, power):
    g, n, key = drawn
    rho = identity(n)
    for _ in range(power % n):
        rho = compose(rho, standard_cycle(n))
    comps = key_to_tuple(key, n)
    assert canonical_key(tuple(conjugate(comp, rho) for comp in comps)) == key


@LAWS
@given(case_and_key(), st.lists(st.integers(min_value=0, max_value=99), max_size=3),
       st.integers(min_value=0, max_value=7))
def test_canonical_key_is_least_over_all_powers(drawn, picks, power):
    # valid tuples off the key set: a few moves from a key, then conjugation
    # by a power of the cycle
    g, n, key = drawn
    moves = applicable_moves(g, "nonsplit")
    words = key_to_tuple(key, n)
    for pick in picks:
        words = apply_move(words, moves[pick % len(moves)])
    validate_tuple(words)
    powers = cycle_powers(standard_cycle(n))
    comps = tuple(conjugate(comp, powers[power % n]) for comp in words)
    assert canonical_key(comps) == brute_force_key(comps, powers)


def test_ties_are_the_least_rotations_of_sigma():
    # every involution sigma with n <= 7, over 1-4 blocks: the rotations
    # whose conjugate of sigma is least, in the order of the powers
    for n in range(1, 8):
        cycle = standard_cycle(n)
        powers = cycle_powers(cycle)
        for blocks in range(1, 5):
            rotations = components._rotations(cycle, blocks)
            assert [rho[:n] for rho, _ in rotations] == list(map(bytes, powers))
            for sigma in involutions(n):
                firsts = [conjugate(sigma, rho) for rho in powers]
                least = tuple(tie for tie, first in zip(rotations, firsts) if first == min(firsts))
                assert components._ties(bytes(sigma), cycle, blocks) == least


# -- the moves against their tuple formulas -------------------------------------------


def oracle_move(words, move):
    """Slow reference for apply_move: the moves' formulas on tuple words, by
    perms.compose, conjugate and inverse."""
    if isinstance(move, tuple):
        i = move[1]
        a, b = words[i], words[i + 1]
        return (*words[:i], compose(compose(a, b), a), a, *words[i + 2 :])
    if move == "left_turn":
        sigma, s1 = words[0], words[1]
        new_s1 = compose(compose(sigma, s1), sigma)
        return (compose(compose(new_s1, s1), sigma), new_s1, *words[2:])
    if move == "right_turn":
        sg, tau = words[-2], words[-1]
        new_sg = compose(compose(tau, sg), tau)
        return (*words[:-2], new_sg, compose(compose(new_sg, sg), tau))
    prefix, rewritten = words[0], []
    for word in words[1:]:
        rewritten.append(conjugate(word, inverse(prefix)))
        prefix = compose(prefix, word)
    return (*reversed(rewritten), words[0])


#: Every admitted (g, n) with n <= 9 and a nonempty M.
ORACLE_CASES = [(g, n) for g in range(5) for n in range(g + 1, 10)
                if count_involutions(n) * math.comb(n, 2) ** g <= components.SIZE_LIMIT]


@functools.lru_cache(maxsize=None)
def sorted_keys(g, n):
    return sorted(enumerate_m(g, n))


@LAWS
@given(st.sampled_from(ORACLE_CASES), st.data(),
       st.lists(st.integers(min_value=0, max_value=99), max_size=3),
       st.integers(min_value=0, max_value=13))
def test_moves_match_the_tuple_oracle(case, data, picks, power):
    # valid tuples off the key set, drawn as in
    # test_canonical_key_is_least_over_all_powers
    g, n = case
    moves = applicable_moves(g, "nonsplit")
    words = key_to_tuple(data.draw(st.sampled_from(sorted_keys(g, n))), n)
    for pick in picks:
        words = oracle_move(words, moves[pick % len(moves)])
    cycle = standard_cycle(n)
    powers = cycle_powers(cycle)
    words = tuple(conjugate(word, powers[power % n]) for word in words)
    validate_tuple(words)
    for move in moves:
        expected = oracle_move(words, move)
        assert apply_move(words, move) == expected, move
        # the closure's byte-form image key: the image of the byte words,
        # conjugated by the least rotations of its sigma
        image = apply_move(tuple(map(bytes, words)), move)
        assert all(type(word) is bytes for word in image)
        ties = components._ties(image[0], cycle, g + 2)
        key = components._least_conjugate(b"".join(image), ties)
        assert tuple(key) == canonical_key(expected) == brute_force_key(expected, powers), move
        if ties == components._rotations(cycle, g + 2)[:1]:
            assert b"".join(image) == key  # the closure skips conjugating it
