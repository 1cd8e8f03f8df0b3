"""Seeded workloads of the abelpell benchmark.

A workload is an endless sequence of rounds.  Every round has the same mix of
operation kinds for every seed -- only the random inputs inside each kind
change -- so a run that stops on a round boundary measures the same mix
whatever the seed, and medians stay comparable across seeds.

Each operation calls the public API through its module attribute (for example
``pell.pell_solve``), so a traced run can rebind that attribute to a wrapper.
Its check recomputes the answer independently where that is cheap (the Pell
identity on plain ``Fraction`` lists) and otherwise compares with values known
by construction or recorded below.
"""
from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

from abelpell import components, geometry, pell, strata
from abelpell.pell import PellTriple
from abelpell.unipoly import UniPoly, format_poly


@dataclass
class Op:
    """One closed-loop request: ``call`` does the work, ``check`` judges it."""

    kind: str
    call: Callable[[], Any]
    check: Callable[[Any], bool]


# -- exact polynomial oracle on Fraction lists (constant term first) ---------------


def trim(cs: list) -> list[Fraction]:
    cs = [Fraction(c) for c in cs]
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


def fmul(a: list, b: list) -> list[Fraction]:
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return trim(out)


def fadd(a: list, b: list) -> list[Fraction]:
    n = max(len(a), len(b))
    return trim([(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n)])


def fscale(a: list, c) -> list[Fraction]:
    return trim([x * c for x in a])


def fmod(a: list, b: list) -> list[Fraction]:
    rem = trim(a)
    while len(rem) >= len(b):
        c = rem[-1] / b[-1]
        shift = len(rem) - len(b)
        for j, y in enumerate(b):
            rem[shift + j] -= c * y
        rem = trim(rem)
    return rem


def is_squarefree(cs: list) -> bool:
    """gcd(p, p') is constant, by the Euclidean algorithm over Q."""
    a = trim(cs)
    b = trim([i * c for i, c in enumerate(a)][1:])
    while b:
        a, b = b, fmod(a, b)
    return len(a) == 1


def pell_identity_holds(p: list, q: list, r: list) -> bool:
    """P^2 - R*Q^2 - 1 == 0, recomputed without UniPoly."""
    return not fadd(fadd(fmul(p, p), fscale(fmul(r, fmul(q, q)), -1)), [-1])


def compose_poly(f: list, g: list) -> list[Fraction]:
    """f(g(x)) by Horner."""
    acc: list[Fraction] = []
    for c in reversed(trim(f)):
        acc = fadd(fmul(acc, g), [c])
    return acc


def substitute_power(f: list, m: int) -> list[Fraction]:
    out = [Fraction(0)] * (m * (len(f) - 1) + 1)
    for i, c in enumerate(f):
        out[m * i] = Fraction(c)
    return trim(out)


def chebyshev(ell: list, k: int) -> tuple[list[Fraction], list[Fraction]]:
    """(T_k(L), U_(k-1)(L)), so that T^2 - (L^2 - 1) U^2 = 1."""
    two_l = fscale(ell, 2)
    t_prev, t = [Fraction(1)], trim(ell)
    u_prev, u = [], [Fraction(1)]
    for _ in range(k - 1):
        t_prev, t = t, fadd(fmul(two_l, t), fscale(t_prev, -1))
        u_prev, u = u, fadd(fmul(two_l, u), fscale(u_prev, -1))
    return t, u


def random_monic(rng: random.Random, degree: int) -> list[Fraction]:
    return trim([rng.randint(-3, 3) for _ in range(degree)] + [1])


# -- cf_solve ----------------------------------------------------------------------

#: Solvable R of known minimal order (R, order).  x^(2m) - 2 are the inflations
#: of x^2 - 2; L^2 - 1 for random monic L is added per round.
CF_BASES = (
    ([-2, 0, 1], 2),
    ([1, 0, 0, 0, 1], 4),
    ([-1, 0, 0, 0, 1], 2),
    ([-2, 0, 0, 0, 1], 4),
    ([-2, 0, 0, 0, 0, 0, 1], 6),
    ([-2, 0, 0, 0, 0, 0, 0, 0, 1], 8),
)
CF_L_DEGREES = (2, 3, 4)
CF_HIT_REPEATS = 3
CF_AFFINE_A = (1, 2, 3, -1, -2, Fraction(1, 2), Fraction(2, 3), Fraction(3, 2))
CF_MISS_DEGREES = (4, 6)
CF_MISS_NMAX = (8, 10, 12, 14)
CF_HIT_NMAX = 12


def affine_image(r: list, a, b) -> list[Fraction]:
    """R(a*x + b) / a^deg R: monic, squarefree and Pellian of the same order as R."""
    image = compose_poly(r, [Fraction(b), Fraction(a)])
    return fscale(image, Fraction(1) / Fraction(a) ** (len(trim(r)) - 1))


def cf_hit_inputs(rng: random.Random) -> list[tuple[list[Fraction], int]]:
    bases = [(trim(r), order) for r, order in CF_BASES]
    for degree in CF_L_DEGREES:
        ell = random_l(rng, degree)
        bases.append((fadd(fmul(ell, ell), [-1]), degree))
    out = []
    for _ in range(CF_HIT_REPEATS):
        for r, order in bases:
            out.append((affine_image(r, rng.choice(CF_AFFINE_A), rng.randint(-3, 3)), order))
    return out


def random_squarefree_monic(rng: random.Random, degree: int) -> list[Fraction]:
    while True:
        r = random_monic(rng, degree)
        if is_squarefree(r):
            return r


def cf_miss_inputs(rng: random.Random) -> list[tuple[list[Fraction], int]]:
    return [
        (random_squarefree_monic(rng, degree), n_max)
        for degree in CF_MISS_DEGREES
        for n_max in CF_MISS_NMAX
    ]


def check_solution(triple, r: list, n_max: int, order: int | None) -> bool:
    """A returned triple solves the equation for this R within n_max; a known
    order must be met exactly, and only an unknown one allows no answer."""
    if triple is None:
        return order is None
    if list(triple.r.coeffs) != r or triple.order > n_max:
        return False
    if order is not None and triple.order != order:
        return False
    return pell_identity_holds(list(triple.p.coeffs), list(triple.q.coeffs), r)


def cf_solve_round(seed: int, index: int) -> list[Op]:
    rng = random.Random(f"cf_solve:{seed}:{index}")
    ops = []
    for r, order in cf_hit_inputs(rng):
        rp = UniPoly(r)
        ops.append(Op(
            "hit",
            lambda rp=rp: pell.pell_solve(rp, CF_HIT_NMAX),
            lambda out, r=r, order=order: check_solution(out, r, CF_HIT_NMAX, order),
        ))
    for r, n_max in cf_miss_inputs(rng):
        rp = UniPoly(r)
        ops.append(Op(
            "miss",
            lambda rp=rp, n_max=n_max: pell.pell_solve(rp, n_max),
            lambda out, r=r, n_max=n_max: check_solution(out, r, n_max, None),
        ))
    rng.shuffle(ops)
    return ops


# -- triple_analysis ---------------------------------------------------------------

TRIPLE_CHEB_DEGREES = (2, 3, 4)
TRIPLE_CHEB_K = (2, 3, 4, 5)
#: Chebyshev kinds of at least this order take 1-3 s each; a round holds one
#: of them, in turn, so a three-round run holds each once.
TRIPLE_CHEB_SLOW = 15
#: The Chebyshev order whose kinds (deg L, k) = (3, 4), (4, 3) appear
#: ``TRIPLE_CHEB_TAIL_COPIES`` times per round, each with its own random L.
#: A three-round run then has 3 slow triples and 18 of order 12, so
#: op_tail_ms (the 11th slowest) falls near the middle of the order-12
#: cluster instead of on the edge of the slowest ones.
TRIPLE_CHEB_TAIL = 12
TRIPLE_CHEB_TAIL_COPIES = 3
TRIPLE_INFLATE_M = (2, 3, 4)
#: Distinct random bases per inflation kind, by the degree of L.  With nine
#: of each kind for deg L = 1 (orders 2-4, 1.5-7 ms), op_p50_ms falls inside
#: their dense top cluster (order 4, about 6 ms) instead of on the edge
#: between the order-6 clusters (12 and 25 ms), where a few operations that
#: swap sides moved it by 20%.
TRIPLE_INFLATE_REPEATS = {1: 9, 2: 3, 3: 3}


@dataclass(frozen=True)
class TripleCase:
    p: list
    q: list
    r: list
    order: int
    genus: int


def random_l(rng: random.Random, degree: int, constant=None) -> list[Fraction]:
    """Monic L with L^2 - 1 squarefree and L(0) = ``constant``; without one,
    L(0) != +-1, so that L^2 - 1 does not vanish at 0."""
    while True:
        ell = random_monic(rng, degree)
        if constant is not None:
            ell[0] = Fraction(constant)
        elif abs(ell[0]) == 1:
            continue
        if is_squarefree(fadd(fmul(ell, ell), [-1])):
            return ell


def chebyshev_case(rng: random.Random, degree: int, k: int) -> TripleCase:
    ell = random_l(rng, degree)
    p, q = chebyshev(ell, k)
    return TripleCase(p, q, fadd(fmul(ell, ell), [-1]), k * degree, degree - 1)


def inflation_cases(rng: random.Random, degree: int, m: int) -> list[TripleCase]:
    """The base (L, 1, L^2 - 1) inflated by s -> s^m, in both kinds of case:
    ``divides_g_plus_1`` (L(0) != +-1) and, for R(0) = 0, ``even_half`` or
    ``odd`` by the parity of m."""
    out = []
    ell = random_l(rng, degree)
    r = fadd(fmul(ell, ell), [-1])
    out.append(TripleCase(substitute_power(ell, m), [Fraction(1)], substitute_power(r, m), m * degree,
                          (len(r) - 1) * m // 2 - 1))
    ell = random_l(rng, degree, constant=rng.choice((1, -1)))
    r_factor = fadd(fmul(ell, ell), [-1])[1:]
    if m % 2 == 0:
        q = [Fraction(0)] * (m // 2) + [Fraction(1)]
        r = substitute_power(r_factor, m)
    else:
        q = [Fraction(0)] * ((m - 1) // 2) + [Fraction(1)]
        r = [Fraction(0)] + substitute_power(r_factor, m)
    out.append(TripleCase(substitute_power(ell, m), q, r, m * degree, (len(r) - 1) // 2 - 1))
    return out


def triple_cases(seed: int, index: int) -> list[TripleCase]:
    rng = random.Random(f"triple_analysis:{seed}:{index}")
    kinds = [(d, k) for d in TRIPLE_CHEB_DEGREES for k in TRIPLE_CHEB_K]
    slow = [(d, k) for d, k in kinds if d * k >= TRIPLE_CHEB_SLOW]
    kinds = [kind for kind in kinds if kind not in slow]
    kinds += [(d, k) for d, k in kinds if d * k == TRIPLE_CHEB_TAIL] * (TRIPLE_CHEB_TAIL_COPIES - 1)
    kinds.append(slow[index % len(slow)])
    cases = [chebyshev_case(rng, d, k) for d, k in kinds]
    for d, repeats in TRIPLE_INFLATE_REPEATS.items():
        for _ in range(repeats):
            for m in TRIPLE_INFLATE_M:
                cases.extend(inflation_cases(rng, d, m))
    rng.shuffle(cases)
    return cases


def analyse_triple(t: PellTriple) -> dict:
    """Everything the workload asks of one triple."""
    out = {"verify": pell.pell_verify(t.p, t.q, t.r)}
    spec = geometry.ramspec_of(t)
    out["spec"] = spec
    out["hurwitz"] = geometry.hurwitz_report(t)
    out["genus_of_ramspec"] = geometry.genus_of_ramspec(spec)
    out["polt_dimension"] = geometry.polt_dimension(spec)
    if t.chart in (pell.CHART_MONIC, pell.CHART_NORMALIZED):
        out["tangent"] = strata.tangent_rank(t)
    exponents = [e for e in spec.assigned[0] if e >= 2]
    if exponents:
        system = strata.weighted_sigma(exponents)
        out["nilpotence"] = [
            strata.nilpotence_identity_check(system, i) for i in range(1, len(exponents) + 1)
        ]
    return out


def check_analysis(out: dict, t: PellTriple, case: TripleCase) -> bool:
    n, g = case.order, case.genus
    verify, spec, rep = out["verify"], out["spec"], out["hurwitz"]
    if not verify.valid or verify.order != n or verify.genus != g:
        return False
    if spec.total_ramification() + (n - 1) != 2 * n - 2:
        return False
    if out["genus_of_ramspec"] != g or out["polt_dimension"] != g:
        return False
    if rep.order != n or rep.genus != g or not rep.genus_check or rep.w != 2 * g + 2:
        return False
    if t.chart in (pell.CHART_MONIC, pell.CHART_NORMALIZED):
        expected = g if t.chart == pell.CHART_NORMALIZED else g + 1
        if out["tangent"].corank != expected:
            return False
    return all(out.get("nilpotence", ()))


def triple_analysis_round(seed: int, index: int) -> list[Op]:
    ops = []
    for case in triple_cases(seed, index):
        t = PellTriple.build(UniPoly(case.p), UniPoly(case.q), UniPoly(case.r))
        kind = "inflated" if t.chart != pell.CHART_GENERAL else "chebyshev"
        ops.append(Op(
            kind,
            lambda t=t: analyse_triple(t),
            lambda out, t=t, case=case: check_analysis(out, t, case),
        ))
    return ops


# -- moduli_census -----------------------------------------------------------------

#: (g, n) -> (|M|, split orbit sizes, nonsplit orbit sizes), recorded from
#: component_count; the n <= 4 entries agree with the brute-force conjugation
#: count in the tests.  (4, 6) is left out: it takes 14-17 s.
CENSUS_REFERENCE = {
    (1, 4): (6, (1, 4, 1), (2, 4)),
    (1, 5): (10, (5, 5), (10,)),
    (1, 6): (19, (2, 12, 3, 2), (4, 12, 3)),
    (2, 4): (8, (4, 4), (8,)),
    (2, 5): (35, (5, 25, 5), (10, 25)),
    (2, 6): (112, (2, 54, 54, 2), (4, 108)),
    (3, 4): (4, (4,), (4,)),
    (3, 5): (50, (25, 25), (50,)),
    (3, 6): (324, (54, 216, 54), (108, 216)),
    (2, 7): (294, (49, 196, 49), (98, 196)),
    (2, 8): (672, (16, 320, 320, 16), (32, 640)),
}

#: Times each (g, n) appears in a round (129 operations), so that both
#: statistics fall in the middle of a cluster of similar operations:
#: op_p50_ms among the 24 of (3, 4) and (1, 6) (about 7 ms), above the 54 of
#: the smallest cases; op_tail_ms (the 11th slowest) on the middle one of
#: the three (2, 7) cycle enumerations (about 0.4 s), below the three
#: nonsplit (2, 7) counts and the six operations of (3, 6) and (2, 8).
CENSUS_REPEATS = {
    (1, 4): 6, (1, 5): 6, (2, 4): 6,
    (3, 4): 4, (1, 6): 4,
    (2, 5): 4, (3, 5): 4, (2, 6): 4,
    (3, 6): 1, (2, 7): 3, (2, 8): 1,
}

#: Component counts stated in the paper and asserted in the tests.
PAPER_COUNTS = {
    (0, 2, "split"): 2,
    (0, 2, "nonsplit"): 1,
    (0, 3, "split"): 1,
    (1, 2, "split"): 1,
    (1, 2, "nonsplit"): 1,
    **{(0, n, "nonsplit"): 1 for n in range(2, 7)},
}


def random_n_cycle(rng: random.Random, n: int) -> tuple[int, ...]:
    order = list(range(n))
    rng.shuffle(order)
    cycle = [0] * n
    for i, x in enumerate(order):
        cycle[x] = order[(i + 1) % n]
    return tuple(cycle)


def check_certificate(cert, g: int, n: int, variant: str) -> bool:
    m_count, split_sizes, nonsplit_sizes = CENSUS_REFERENCE[(g, n)]
    sizes = split_sizes if variant == components.VARIANT_SPLIT else nonsplit_sizes
    return (
        cert.m_count == m_count
        and sum(cert.orbit_sizes) == cert.m_count
        and sorted(cert.orbit_sizes) == sorted(sizes)
        and cert.component_count == len(sizes)
    )


def moduli_census_round(seed: int, index: int) -> list[Op]:
    rng = random.Random(f"moduli_census:{seed}:{index}")
    ops = []
    for (g, n), (m_count, _, _) in CENSUS_REFERENCE.items():
        for _ in range(CENSUS_REPEATS[(g, n)]):
            for variant in components.VARIANTS:
                ops.append(Op(
                    variant,
                    lambda g=g, n=n, v=variant: components.component_count(g, n, v),
                    lambda out, g=g, n=n, v=variant: check_certificate(out, g, n, v),
                ))
            cycle = random_n_cycle(rng, n)
            ops.append(Op(
                "cycle",
                lambda g=g, n=n, c=cycle: components.enumerate_m_with_cycle(g, n, c),
                lambda out, m=m_count: len(out) == m,
            ))
    rng.shuffle(ops)
    return ops


def census_prechecks() -> tuple[int, int]:
    """The paper's component counts, checked once per run: (attempted, failed)."""
    failed = 0
    for (g, n, variant), count in PAPER_COUNTS.items():
        cert = components.component_count(g, n, variant)
        if cert.component_count != count or sum(cert.orbit_sizes) != cert.m_count:
            failed += 1
    return len(PAPER_COUNTS), failed


# -- cli_cold ----------------------------------------------------------------------


def _fs(c: Fraction) -> str:
    return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"


def _poly_json(p: UniPoly) -> dict:
    return {"text": format_poly(p), "coefficients": [_fs(c) for c in p.coeffs]}


def _triple_json(t: PellTriple) -> dict:
    return {"p": _poly_json(t.p), "q": _poly_json(t.q), "r": _poly_json(t.r),
            "order": t.order, "genus": t.genus, "chart": t.chart}


def _key_json(key, n: int) -> list[list[int]]:
    return [list(key[i : i + n]) for i in range(0, len(key), n)]


#: Times per round each ``abel`` command (the ones that import sympy) runs:
#: 6 of the 15 commands, so op_tail_ms falls inside the sympy-import cluster
#: and op_p50_ms among the commands without it.
CLI_ABEL_REPEATS = 3


@dataclass(frozen=True)
class CliCase:
    """One CLI invocation with the answer the library gives in-process."""

    kind: str
    argv: tuple[str, ...]
    code: int
    result: Any


def _text(cs: list) -> str:
    return format_poly(UniPoly(cs))


def _solve_case(kind: str, r: list, n_max: int) -> CliCase:
    t = pell.pell_solve(UniPoly(r), n_max)
    result = {"solution": None if t is None else _triple_json(t), "n_max": n_max}
    return CliCase(kind, ("pell", "solve", _text(r), "--n-max", str(n_max)), 1 if t is None else 0, result)


def cli_cases(seed: int, index: int) -> list[CliCase]:
    rng = random.Random(f"cli_cold:{seed}:{index}")
    cases = []
    r, _ = rng.choice(CF_BASES)
    cases.append(_solve_case("hit", affine_image(r, rng.choice(CF_AFFINE_A), rng.randint(-3, 3)), 8))
    cases.append(_solve_case("miss", random_squarefree_monic(rng, 4), 6))

    ell = random_l(rng, rng.choice((2, 3)))
    r = fadd(fmul(ell, ell), [-1])
    base = PellTriple.build(UniPoly(ell), UniPoly([1]), UniPoly(r))
    triple_args = (_text(ell), "1", _text(r))
    rep = pell.pell_verify(base.p, base.q, base.r)
    cases.append(CliCase("verify", ("pell", "verify", *triple_args), 0, {
        "valid": rep.valid, "failures": list(rep.failures), "order": rep.order, "genus": rep.genus,
        "chart": rep.chart, "monic": rep.monic, "normalized": rep.normalized}))
    out = pell.pell_compose(base, base)
    cases.append(CliCase("compose", ("pell", "compose", _text(ell), "1", _text(ell), "1", _text(r)), 0,
                         {"composite": _triple_json(out)}))
    m = rng.choice((2, 3))
    out = pell.inflate(base, m, pell.INFLATE_DIVIDES)
    cases.append(CliCase("inflate", ("pell", "inflate", *triple_args, "--m", str(m), "--case",
                                     pell.INFLATE_DIVIDES), 0,
                         {"base": _triple_json(base), "inflated": _triple_json(out), "m": m,
                          "case": pell.INFLATE_DIVIDES}))

    for _ in range(CLI_ABEL_REPEATS):
        case = chebyshev_case(rng, 2, rng.choice((2, 3)))
        t = PellTriple.build(UniPoly(case.p), UniPoly(case.q), UniPoly(case.r))
        args = (_text(case.p), _text(case.q), _text(case.r))
        spec = geometry.ramspec_of(t)
        cases.append(CliCase("ramspec", ("abel", "ramspec", *args), 0, {
            "order": spec.order,
            "members": [list(x) for x in spec.members],
            "assigned": [list(x) for x in spec.assigned],
            "unassigned_classes": [
                {"factor": _poly_json(c.factor), "count": c.count, "partition": list(c.partition)}
                for c in geometry.unassigned_branch(t)
            ],
            "genus": geometry.genus_of_ramspec(spec),
            "deformation_dimension": geometry.polt_dimension(spec),
        }))
        hr = geometry.hurwitz_report(t)
        cases.append(CliCase("hurwitz", ("abel", "hurwitz", *args), 0, {
            "order": hr.order, "genus": hr.genus, "e": hr.e, "e_prime": hr.e_prime, "w": hr.w,
            "genus_check": hr.genus_check, "generic_stratum": hr.generic_stratum}))

    n = rng.randint(1, 5)
    k = rng.randint(1, 2 * n + 2)
    cases.append(CliCase("nilpotency", ("strata", "nilpotency", "--n", str(n), "--k", str(k)), 0,
                         {"n": n, "k": k, "is_square": strata.odd_nilpotency_check(n, k)}))
    case = inflation_cases(rng, rng.choice((1, 2)), rng.choice((2, 3)))[1]
    t = PellTriple.build(UniPoly(case.p), UniPoly(case.q), UniPoly(case.r))
    tr = strata.tangent_rank(t)
    cases.append(CliCase("tangent_rank", ("strata", "tangent-rank", _text(case.p), _text(case.q),
                                          _text(case.r)), 0,
                         {"chart": t.chart, "variables": tr.variables, "rank": tr.rank,
                          "corank": tr.corank}))

    g, n = rng.choice(((1, 4), (1, 5), (2, 4), (2, 5)))
    variant = rng.choice(components.VARIANTS)
    cert = components.component_count(g, n, variant)
    argv = ("components", "count", "--genus", str(g), "--order", str(n))
    if variant == components.VARIANT_SPLIT:
        argv += ("--split",)
    cases.append(CliCase("count", argv, 0 if cert.m_count else 1, {
        "genus": g, "order": n, "variant": variant, "m_count": cert.m_count,
        "component_count": cert.component_count, "orbit_sizes": list(cert.orbit_sizes),
        "representatives": [_key_json(key, n) for key in cert.representatives]}))
    g, n = rng.choice(((0, 3), (1, 3), (1, 4), (2, 4)))
    keys = sorted(components.enumerate_m(g, n))
    cases.append(CliCase("list", ("components", "list", "--genus", str(g), "--order", str(n)),
                         0 if keys else 1,
                         {"genus": g, "order": n, "m_count": len(keys),
                          "classes": [_key_json(key, n) for key in keys]}))
    rng.shuffle(cases)
    return cases


@dataclass(frozen=True)
class CliRun:
    """What one spawned CLI process produced."""

    code: int
    stdout: str


def check_cli(out: CliRun, case: CliCase) -> bool:
    """Exit code 0 or 1 as expected, every reported check ok, and the result
    equal to the in-process library answer."""
    if out.code != case.code or out.code not in (0, 1):
        return False
    report = json.loads(out.stdout)
    if not all(entry["ok"] for entry in report["checks"]):
        return False
    return report["result"] == json.loads(json.dumps(case.result))


def cli_cold_round(seed: int, index: int, launch: Callable[[CliCase], CliRun]) -> list[Op]:
    return [
        Op(case.kind, lambda case=case: launch(case), lambda out, case=case: check_cli(out, case))
        for case in cli_cases(seed, index)
    ]
