"""Command-line front end.

Subcommands mirror the library: ``pell`` (solve / verify / compose /
inflate), ``abel`` (ramspec / hurwitz), ``strata`` (nilpotency /
tangent-rank) and ``components`` (count / list).  ``--format structured``
emits a single JSON object with the command, its inputs, the result and every
invariant checked along the way; the output is byte-identical across runs.

A polynomial argument that starts with "-" reads as an option: put "--"
after the options and before the polynomials, as in
``abel hurwitz -- -2*x^2+1 2*x x^2-1``, or write it in parentheses,
``"(-2*x^2+1)"``.

Exit codes: 0 result, 1 empty result, 2 bad input, 3 resource limit.
"""
from __future__ import annotations

import argparse
import json
import sys
from typing import TYPE_CHECKING

# Each handler imports the layers it runs, so a command loads no other layer.
from .cases import INFLATE_CASES
from .limits import ResourceLimit

if TYPE_CHECKING:
    from . import pell
    from .unipoly import UniPoly

EXIT_OK = 0
EXIT_EMPTY = 1
EXIT_BAD_INPUT = 2
EXIT_RESOURCE = 3


def parse_poly(text: str) -> UniPoly:
    """``parsing.parse_poly``, imported on the first call."""
    from .parsing import parse_poly

    return parse_poly(text)


def poly_json(p: UniPoly) -> dict:
    from .parsing import printable
    from .unipoly import format_poly

    # Handlers build the result before their text lines, so p is checked
    # here before anything prints it.
    if not printable(p):
        raise ResourceLimit("a coefficient of the answer exceeds the int-to-str digit limit")
    return {"text": format_poly(p), "coefficients": [str(c) for c in p.coeffs]}


def triple_json(t: pell.PellTriple) -> dict:
    return {
        "p": poly_json(t.p),
        "q": poly_json(t.q),
        "r": poly_json(t.r),
        "order": t.order,
        "genus": t.genus,
        "chart": t.chart,
    }


def check(name: str, ok: bool, **extra) -> dict:
    entry = {"name": name, "ok": bool(ok)}
    entry.update(extra)
    return entry


def _triple_from_args(args) -> pell.PellTriple:
    from . import pell

    return pell.PellTriple.build(parse_poly(args.p), parse_poly(args.q), parse_poly(args.r))


# -- handlers: each returns (exit code, result, checks, text lines) ----------------


def _cmd_pell_solve(args):
    from . import pell

    r = parse_poly(args.r)
    expansion = pell.cf_steps(r)
    steps: list[pell.CFStep] = []
    # One lazy expansion: the search reads it up to the unit, or to the first
    # step above n_max on a miss (convergent degrees rise strictly).  Only the
    # steps' norms and degrees are read; minimal_solution builds the unit's
    # convergent.
    unit = pell.least_unit((steps.append(step) or step for step in expansion), args.n_max)
    triple = pell.minimal_solution(r, unit, args.n_max)
    last = args.n_max if unit is None else unit.degree
    searched = [step.degree for step in steps if step.degree <= last]
    checks = [check("orders_searched_up_to_n_max", True, orders=searched)]
    if triple is None:
        result = {"solution": None, "n_max": args.n_max}
        lines = [f"no solution of order <= {args.n_max} over the rationals"]
        return EXIT_EMPTY, result, checks, lines
    checks.append(check("solution_verifies", True))  # PellTriple.build verified it
    # The minimality check reads the norm of every step below the solution's
    # order, which is twice the unit's when the unit's norm is not a square.
    while steps[-1].degree < triple.order:
        steps.append(next(expansion))
    smaller = [
        s
        for s in steps
        if s.constant_norm and s.degree < triple.order and s.norm.constant_value() > 0
        and pell.rational_nth_root(s.norm.constant_value(), 2) is not None
    ]
    checks.append(check("minimal_among_convergents", not smaller))
    result = {"solution": triple_json(triple), "n_max": args.n_max}
    lines = [
        f"P = {triple.p}",
        f"Q = {triple.q}",
        f"R = {triple.r}",
        f"order {triple.order}, genus {triple.genus}, chart {triple.chart}",
    ]
    return EXIT_OK, result, checks, lines


def _cmd_pell_verify(args):
    from . import pell

    p, q, r = parse_poly(args.p), parse_poly(args.q), parse_poly(args.r)
    rep = pell.pell_verify(p, q, r)
    result = {
        "valid": rep.valid,
        "failures": list(rep.failures),
        "order": rep.order,
        "genus": rep.genus,
        "chart": rep.chart,
        "monic": rep.monic,
        "normalized": rep.normalized,
    }
    checks = [check("triple_valid", rep.valid)]
    if rep.valid:
        lines = [f"valid: order {rep.order}, genus {rep.genus}, chart {rep.chart}"]
    else:
        lines = ["invalid:"] + [f"  - {f}" for f in rep.failures]
    return EXIT_OK, result, checks, lines


def _cmd_pell_compose(args):
    from . import pell

    r = parse_poly(args.r)
    t1 = pell.PellTriple.build(parse_poly(args.p1), parse_poly(args.q1), r)
    t2 = pell.PellTriple.build(parse_poly(args.p2), parse_poly(args.q2), r)
    out = pell.pell_compose(t1, t2)
    checks = [
        check("composite_verifies", True),
        check("orders_add", out.order == t1.order + t2.order),
    ]
    result = {"composite": triple_json(out)}
    lines = [f"P = {out.p}", f"Q = {out.q}", f"order {out.order}"]
    return EXIT_OK, result, checks, lines


def _cmd_pell_inflate(args):
    from . import pell

    base = _triple_from_args(args)
    out = pell.inflate(base, args.m, args.case)
    checks = [
        check("inflated_verifies", True),
        check("order_multiplied", out.order == args.m * base.order),
    ]
    result = {"base": triple_json(base), "inflated": triple_json(out), "m": args.m, "case": args.case}
    lines = [
        f"P = {out.p}",
        f"Q = {out.q}",
        f"R = {out.r}",
        f"order {out.order}, genus {out.genus}",
    ]
    return EXIT_OK, result, checks, lines


def _cmd_abel_ramspec(args):
    from . import geometry

    t = _triple_from_args(args)
    # ramspec_of(t) spelled out, so that the branch classes are found once.
    plus, minus, _ = geometry.assigned_profile(t)
    branch = geometry.unassigned_branch(t)
    members = [plus, minus] + [c.partition for c in branch for _ in range(c.count)]
    spec = geometry.RamSpec(t.order, tuple(members), (plus, minus))
    genus = geometry.genus_of_ramspec(spec)
    dim = geometry.polt_dimension(spec)
    result = {
        "order": spec.order,
        "members": [list(m) for m in spec.members],
        "assigned": [list(m) for m in spec.assigned],
        "unassigned_classes": [
            {"factor": poly_json(c.factor), "count": c.count, "partition": list(c.partition)}
            for c in branch
        ],
        "genus": genus,
        "deformation_dimension": dim,
    }
    checks = [
        check("total_ramification_is_order_minus_1", spec.total_ramification() == spec.order - 1),
        check("genus_matches_triple", genus == t.genus),
        check("deformation_dimension_equals_genus", dim == t.genus),
    ]
    lines = [
        f"S = {{{', '.join(str(set_like) for set_like in result['members'])}}}",
        f"T = ({result['assigned'][0]}, {result['assigned'][1]})",
        f"genus {genus}, deformation dimension {dim}",
    ]
    return EXIT_OK, result, checks, lines


def _cmd_abel_hurwitz(args):
    from . import geometry

    t = _triple_from_args(args)
    rep = geometry.hurwitz_report(t)
    result = {
        "order": rep.order,
        "genus": rep.genus,
        "e": rep.e,
        "e_prime": rep.e_prime,
        "w": rep.w,
        "genus_check": rep.genus_check,
        "generic_stratum": rep.generic_stratum,
    }
    checks = [
        check("riemann_hurwitz_total", True, total=2 * rep.order - 2),
        check("odd_count_is_2g_plus_2", rep.w == 2 * rep.genus + 2),
        check("genus_check", rep.genus_check),
    ]
    if rep.generic_stratum:
        checks.append(check("generic_e_equals_genus", rep.e == rep.genus))
    lines = [
        f"e = {rep.e}, e' = {rep.e_prime}, w = {rep.w}",
        f"generic stratum: {rep.generic_stratum}",
    ]
    return EXIT_OK, result, checks, lines


def _cmd_strata_nilpotency(args):
    from . import strata

    value = strata.odd_nilpotency_check(args.n, args.k)
    result = {"n": args.n, "k": args.k, "is_square": value}
    checks = [check("matches_nilpotency_bound", value == (args.k <= args.n + 1))]
    lines = [f"square in Q[a]/(a^{args.k}): {str(value).lower()}"]
    return EXIT_OK, result, checks, lines


def _cmd_strata_tangent_rank(args):
    from . import pell, strata

    t = _triple_from_args(args)
    rep = strata.tangent_rank(t)
    result = {
        "chart": t.chart,
        "variables": rep.variables,
        "rank": rep.rank,
        "corank": rep.corank,
    }
    expected = t.genus if t.chart == pell.CHART_NORMALIZED else t.genus + 1
    checks = [check("corank_is_chart_dimension", rep.corank == expected, expected=expected)]
    lines = [f"variables {rep.variables}, rank {rep.rank}, corank {rep.corank}"]
    return EXIT_OK, result, checks, lines


def _cmd_components_count(args):
    from . import components as comp

    variant = comp.VARIANT_SPLIT if args.split else comp.VARIANT_NONSPLIT
    cert = comp.component_count(args.genus, args.order, variant)
    # no g - 1 swap moves for an empty M, so a huge --genus answers at once
    applied = cert.m_count and cert.m_count * len(comp.applicable_moves(cert.g, cert.variant))
    reps = [comp.key_to_tuple(k, cert.n) for k in cert.representatives]
    result = {
        "genus": cert.g,
        "order": cert.n,
        "variant": cert.variant,
        "m_count": cert.m_count,
        "component_count": cert.component_count,
        "orbit_sizes": list(cert.orbit_sizes),
        "representatives": [list(map(list, words)) for words in reps],
    }
    # component_count raises unless every image it computes has its key in M.
    # It flips only the least key of each split orbit; the flip's images of
    # the other keys follow from F swap_i F = swap_(g-i) and F turn F = turn^-1,
    # so every move still holds on all m_count keys.
    checks = [
        check("moves_preserve_validity", True, applied=applied),
        check("orbit_sizes_sum_to_m_count", sum(cert.orbit_sizes) == cert.m_count),
    ]
    lines = [
        f"|M| = {cert.m_count}, components = {cert.component_count} ({cert.variant})",
        f"orbit sizes: {list(cert.orbit_sizes)}",
    ]
    code = EXIT_OK if cert.m_count else EXIT_EMPTY
    return code, result, checks, lines


def _cmd_components_list(args):
    from . import components as comp, ramspec

    keys = sorted(comp.enumerate_m(args.genus, args.order))
    tuples = [comp.key_to_tuple(k, args.order) for k in keys]
    classes = [list(map(list, words)) for words in tuples]
    result = {
        "genus": args.genus,
        "order": args.order,
        "m_count": len(keys),
        "classes": classes,
    }
    checks = [
        check(
            "ramspec_genus_matches",
            all(
                ramspec.genus_of_ramspec(comp.tuple_ramspec(words)) == args.genus
                for words in tuples
            ),
        )
    ]
    lines = [f"|M| = {len(keys)}"] + [str(c) for c in classes]
    code = EXIT_OK if keys else EXIT_EMPTY
    return code, result, checks, lines


# -- wiring -----------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format", choices=("text", "structured"), default="text", help="output format"
    )
    common.add_argument("--out", default=None, help="write output to this file")

    parser = argparse.ArgumentParser(prog="abelpell", description=__doc__)
    groups = parser.add_subparsers(dest="group", required=True)

    g_pell = groups.add_parser("pell", help="solve and transform Pell triples")
    sub = g_pell.add_subparsers(dest="command", required=True)
    sp = sub.add_parser("solve", parents=[common])
    sp.add_argument("r")
    sp.add_argument("--n-max", type=int, default=20, dest="n_max")
    sp.set_defaults(func=_cmd_pell_solve)
    sp = sub.add_parser("verify", parents=[common])
    for name in ("p", "q", "r"):
        sp.add_argument(name)
    sp.set_defaults(func=_cmd_pell_verify)
    sp = sub.add_parser("compose", parents=[common])
    for name in ("p1", "q1", "p2", "q2", "r"):
        sp.add_argument(name)
    sp.set_defaults(func=_cmd_pell_compose)
    sp = sub.add_parser("inflate", parents=[common])
    for name in ("p", "q", "r"):
        sp.add_argument(name)
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--case", choices=INFLATE_CASES, required=True)
    sp.set_defaults(func=_cmd_pell_inflate)

    g_abel = groups.add_parser("abel", help="ramification data of the induced line map")
    sub = g_abel.add_subparsers(dest="command", required=True)
    for name, func in (("ramspec", _cmd_abel_ramspec), ("hurwitz", _cmd_abel_hurwitz)):
        sp = sub.add_parser(name, parents=[common])
        for arg in ("p", "q", "r"):
            sp.add_argument(arg)
        sp.set_defaults(func=func)

    g_strata = groups.add_parser("strata", help="stratum-local checks")
    sub = g_strata.add_subparsers(dest="command", required=True)
    sp = sub.add_parser("nilpotency", parents=[common])
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--k", type=int, required=True)
    sp.set_defaults(func=_cmd_strata_nilpotency)
    sp = sub.add_parser("tangent-rank", parents=[common])
    for arg in ("p", "q", "r"):
        sp.add_argument(arg)
    sp.set_defaults(func=_cmd_strata_tangent_rank)

    g_comp = groups.add_parser("components", help="moduli component counts")
    sub = g_comp.add_subparsers(dest="command", required=True)
    for name, func in (("count", _cmd_components_count), ("list", _cmd_components_list)):
        sp = sub.add_parser(name, parents=[common])
        sp.add_argument("--genus", type=int, required=True)
        sp.add_argument("--order", type=int, required=True)
        if name == "count":
            sp.add_argument("--split", action="store_true")
        sp.set_defaults(func=func)

    return parser


def _emit(report: dict, lines: list[str], args) -> None:
    if args.format == "structured":
        text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    else:
        text = "".join(line + "\n" for line in lines)
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        code, result, checks, lines = args.func(args)
    except ResourceLimit as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    inputs = {
        key: value
        for key, value in sorted(vars(args).items())
        if key not in ("func", "format", "out", "group", "command") and value is not None
    }
    report = {
        "command": f"{args.group} {args.command}",
        "inputs": inputs,
        "result": result,
        "checks": checks,
    }
    try:
        _emit(report, lines, args)
    except OSError as exc:
        print(f"error: cannot write the output: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    return code


if __name__ == "__main__":
    sys.exit(main())
