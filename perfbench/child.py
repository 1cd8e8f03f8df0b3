"""Child processes of the benchmark, started by ``run.py`` with ``src`` on
PYTHONPATH.

    python3 perfbench/child.py setup <workload>   print import + warm-up seconds
    python3 perfbench/child.py cli <args...>      run the abelpell CLI traced

The traced CLI writes its trace as one JSON line, prefixed by ``TRACE_MARK``,
as the last line of standard error.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import time

TRACE_MARK = "PERFBENCH_TRACE "


def _warm_cf_solve() -> None:
    from abelpell import pell
    from abelpell.unipoly import poly

    pell.pell_solve(poly(-2, 0, 1), 4)


def _warm_triple_analysis() -> None:
    from abelpell import geometry, strata
    from abelpell.pell import PellTriple
    from abelpell.unipoly import poly

    # T_2(L), U_1(L) for L = x^2 + x: one unassigned branch value, so the
    # factorization (and its lazy sympy import) runs.
    ell = poly(0, 1, 1)
    t = PellTriple.build(2 * ell * ell - 1, 2 * ell, ell * ell - 1)
    geometry.ramspec_of(t)
    geometry.hurwitz_report(t)
    strata.tangent_rank(PellTriple.build(poly(-1, 0, 1), poly(0, 1), poly(-2, 0, 1)))
    strata.nilpotence_identity_check(strata.weighted_sigma([2, 2]), 1)


def _warm_moduli_census() -> None:
    from abelpell import components
    from abelpell.perms import standard_cycle

    for variant in components.VARIANTS:
        components.component_count(1, 4, variant)
    components.enumerate_m_with_cycle(1, 4, standard_cycle(4))


def _warm_cli_cold() -> None:
    from abelpell import cli

    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(["pell", "solve", "x^2 - 2", "--format", "structured"])
        cli.main(["abel", "ramspec", "2*x^4 + 4*x^3 + 2*x^2 - 1", "2*x^2 + 2*x",
                  "x^4 + 2*x^3 + x^2 - 1", "--format", "structured"])


#: The entry points each workload calls, exercised once on tiny inputs.
WARM_UPS = {
    "cf_solve": _warm_cf_solve,
    "triple_analysis": _warm_triple_analysis,
    "moduli_census": _warm_moduli_census,
    "cli_cold": _warm_cli_cold,
}


def setup(workload: str) -> float:
    start = time.perf_counter()
    import abelpell  # noqa: F401  (the import is what is timed)

    WARM_UPS[workload]()
    return time.perf_counter() - start


def traced_cli(argv: list[str]) -> int:
    start = time.perf_counter()
    from abelpell import cli

    import_s = time.perf_counter() - start
    import tracer

    t = tracer.Tracer()
    t.tag = os.environ.get("PERFBENCH_TAG", "")
    t.install()
    try:
        code = cli.main(argv)
    finally:
        t.uninstall()
    payload = t.export()
    payload["import_s"] = import_s
    payload["spans"] = t.spans
    sys.stdout.flush()
    sys.stderr.write(TRACE_MARK + json.dumps(payload) + "\n")
    return code


if __name__ == "__main__":
    if sys.argv[1:2] == ["setup"]:
        print(repr(setup(sys.argv[2])))
    elif sys.argv[1:2] == ["cli"]:
        sys.exit(traced_cli(sys.argv[2:]))
    else:
        sys.exit(f"usage: {sys.argv[0]} setup <workload> | cli <args...>")
