"""Command-line front end.

Subcommands mirror the library: ``pell`` (solve / verify / compose /
inflate), ``abel`` (ramspec / hurwitz), ``strata`` (nilpotency /
tangent-rank) and ``components`` (count / list).  ``--format structured``
emits a single JSON object with the command, its inputs, the result and the
checks the command runs itself; the output is byte-identical across runs.
The result of ``pell verify``, ``abel hurwitz``, ``abel ramspec`` and
``strata tangent-rank`` is the fields of the library's record
(``PellCheck``, ``HurwitzReport``, ``RamSpec``, ``TangentReport``) plus
named extra keys: ``chart`` for ``pell verify`` and ``strata
tangent-rank``, and ``unassigned_classes``, ``genus`` and
``deformation_dimension`` for ``abel ramspec``.  So a field added to or
removed from one of those records changes that output.  An invariant the
library enforces where it is computed is not reported again: a
``ValueError`` it raises exits 2, and a guard's ``AssertionError`` exits 4.

A polynomial argument that starts with "-" reads as an option: put "--"
after the options and before the polynomials, as in
``abel hurwitz -- -2*x^2+1 2*x x^2-1``, or write it in parentheses,
``"(-2*x^2+1)"``.

Exit codes: 0 result, 1 empty result, 2 bad input, 3 resource limit,
4 internal invariant failed.
"""
from __future__ import annotations

import argparse
import sys
from typing import TYPE_CHECKING

# Each handler imports the layers it runs, so a command loads no other layer.
from .limits import ResourceLimit

if TYPE_CHECKING:
    from . import pell
    from .unipoly import UniPoly

EXIT_OK = 0
EXIT_EMPTY = 1
EXIT_BAD_INPUT = 2
EXIT_RESOURCE = 3
EXIT_INTERNAL = 4


def parse_poly(text: str) -> UniPoly:
    """``parsing.parse_poly``, imported on the first call."""
    from .parsing import parse_poly

    return parse_poly(text)


def poly_json(p: UniPoly) -> dict:
    from .unipoly import format_poly, printable

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
    # One lazy expansion, read by least_unit alone: up to the unit on a hit;
    # on a miss, step 0 when the expansion modulo a prime of good reduction
    # finds no unit of degree <= n_max, else up to the degree d of the unit
    # there.  The check lists the degrees it read, up to n_max.  Only the
    # steps' norms and degrees are read; minimal_solution builds the unit's
    # convergent.
    unit = pell.least_unit(r, (steps.append(step) or step for step in expansion), args.n_max)
    triple = pell.minimal_solution(r, unit, args.n_max)
    searched = [step.degree for step in steps if step.degree <= args.n_max]
    checks = [check("orders_searched_up_to_n_max", True, orders=searched)]
    if triple is None:
        result = {"solution": None, "n_max": args.n_max}
        lines = [f"no solution of order <= {args.n_max} over the rationals"]
        return EXIT_EMPTY, result, checks, lines
    checks.append(check("solution_verifies", pell.pell_verify(triple.p, triple.q, triple.r).valid))
    # The minimality check reads the norm of every step below the solution's
    # order, which is twice the unit's when the unit's norm is not a square.
    while steps[-1].degree < triple.order:
        steps.append(next(expansion))
    smaller = [
        s
        for s in steps
        if s.constant_norm and s.degree < triple.order
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
    result = {**vars(rep), "chart": rep.chart}
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
    same = t1.q.leading / t1.p.leading == t2.q.leading / t2.p.leading
    checks = [check("order_follows_orientation",
                    out.order == (t1.order + t2.order if same else abs(t1.order - t2.order)))]
    result = {"composite": triple_json(out)}
    lines = [f"P = {out.p}", f"Q = {out.q}", f"order {out.order}"]
    return EXIT_OK, result, checks, lines


def _cmd_pell_inflate(args):
    from . import pell

    base = _triple_from_args(args)
    case = pell._inflation_case(base, args.m) if args.case is None else args.case
    out = pell.inflate(base, args.m, case)
    checks = [
        check("inflated_verifies", pell.pell_verify(out.p, out.q, out.r).valid),
        check("order_multiplied", out.order == args.m * base.order),
    ]
    result = {"base": triple_json(base), "inflated": triple_json(out), "m": args.m, "case": case}
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
    spec, branch = geometry._ramspec_and_classes(t)
    genus = geometry.genus_of_ramspec(spec)
    result = {
        **vars(spec),
        "unassigned_classes": [
            {"factor": poly_json(c.factor), "count": c.count, "partition": list(c.partition)}
            for c in branch
        ],
        "genus": genus,
        # The deformation dimension equals the genus (polt_dimension's proof).
        "deformation_dimension": genus,
    }
    checks = [check("genus_matches_triple", genus == t.genus)]
    lines = [
        f"S = {{{', '.join(str(list(m)) for m in spec.members)}}}",
        f"T = ({list(spec.assigned[0])}, {list(spec.assigned[1])})",
        f"genus {genus}, deformation dimension {genus}",
    ]
    return EXIT_OK, result, checks, lines


def _cmd_abel_hurwitz(args):
    from . import geometry

    t = _triple_from_args(args)
    rep = geometry.hurwitz_report(t)
    result = vars(rep)
    checks = [check("odd_count_is_2g_plus_2", rep.w == 2 * rep.genus + 2)]
    lines = [
        f"e = {rep.e}, e' = {rep.e_prime}, w = {rep.w}",
        f"generic stratum: {rep.generic_stratum}",
    ]
    return EXIT_OK, result, checks, lines


def _cmd_strata_nilpotency(args):
    from . import strata

    value = strata.odd_nilpotency_check(args.n, args.k)
    result = {"n": args.n, "k": args.k, "is_square": value}
    lines = [f"square in Q[a]/(a^{args.k}): {str(value).lower()}"]
    return EXIT_OK, result, [], lines


def _cmd_strata_tangent_rank(args):
    from . import strata

    t = _triple_from_args(args)
    rep = strata.tangent_rank(t)
    result = {"chart": t.chart, **vars(rep)}
    lines = [f"variables {rep.variables}, rank {rep.rank}, corank {rep.corank}"]
    return EXIT_OK, result, [], lines


def _cmd_components_count(args):
    from . import components as comp

    variant = comp.VARIANT_SPLIT if args.split else comp.VARIANT_NONSPLIT
    cert = comp.component_count(args.genus, args.order, variant)
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
    lines = [
        f"|M| = {cert.m_count}, components = {cert.component_count} ({cert.variant})",
        f"orbit sizes: {list(cert.orbit_sizes)}",
    ]
    code = EXIT_OK if cert.m_count else EXIT_EMPTY
    # No check of its own: component_count raises on an image outside M,
    # and its certificate on orbit sizes that do not sum to |M|.
    return code, result, [], lines


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

    subs = {
        group: groups.add_parser(group, help=text).add_subparsers(dest="command", required=True)
        for group, text in (
            ("pell", "solve and transform Pell triples"),
            ("abel", "ramification data of the induced line map"),
            ("strata", "stratum-local checks"),
            ("components", "moduli component counts"),
        )
    }

    def command(group: str, name: str, func, *positionals: str) -> argparse.ArgumentParser:
        sp = subs[group].add_parser(name, parents=[common])
        for arg in positionals:
            sp.add_argument(arg)
        sp.set_defaults(func=func)
        return sp

    pqr = ("p", "q", "r")
    sp = command("pell", "solve", _cmd_pell_solve, "r")
    sp.add_argument("--n-max", type=int, default=20, dest="n_max")
    command("pell", "verify", _cmd_pell_verify, *pqr)
    command("pell", "compose", _cmd_pell_compose, "p1", "q1", "p2", "q2", "r")
    sp = command("pell", "inflate", _cmd_pell_inflate, *pqr)
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--case", help="checked when given; derived from R(0) and --m otherwise")
    command("abel", "ramspec", _cmd_abel_ramspec, *pqr)
    command("abel", "hurwitz", _cmd_abel_hurwitz, *pqr)
    sp = command("strata", "nilpotency", _cmd_strata_nilpotency)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--k", type=int, required=True)
    command("strata", "tangent-rank", _cmd_strata_tangent_rank, *pqr)
    for name, func in (("count", _cmd_components_count), ("list", _cmd_components_list)):
        sp = command("components", name, func)
        sp.add_argument("--genus", type=int, required=True)
        sp.add_argument("--order", type=int, required=True)
        if name == "count":
            sp.add_argument("--split", action="store_true")

    return parser


def _emit(report: dict, lines: list[str], args) -> None:
    if args.format == "structured":
        import json
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
    except AssertionError as exc:
        print(f"error: internal invariant failed: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
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
