"""The benchmark's workloads still run against the package.

``perfbench/workloads.py`` calls the public API and reads the records it
returns (``t.order``, ``t.chart``, ``p.coeffs``, ...).  A refactor that breaks
one of those reads, or changes an answer its checks recompute, would fail the
benchmark run rather than the tests; this runs one round of each in-process
workload, and each CLI case of one round in process, and requires every
operation's own check to pass.
"""
import contextlib
import io

import pytest

from abelpell import cli

SEED = 7


@pytest.mark.parametrize("workload", ["cf_solve", "triple_analysis", "moduli_census"])
def test_round_passes_its_checks(workloads, workload):
    ops = getattr(workloads, f"{workload}_round")(SEED, 0)
    assert ops
    failed = [op.kind for op in ops if not op.check(op.call())]
    assert not failed, failed


def test_cli_cases_pass_their_checks(workloads):
    cases = workloads.cli_cases(SEED, 0)
    assert cases
    failed = []
    for case in cases:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main([*case.argv, "--format", "structured"])
        if not workloads.check_cli(workloads.CliRun(code, out.getvalue()), case):
            failed.append(case.kind)
    assert not failed, failed
