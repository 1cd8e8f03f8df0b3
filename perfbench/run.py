"""The abelpell benchmark: one closed-loop client, one process, no parallelism.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from anywhere inside a checkout; the package is imported from the
checkout's ``src`` directory and nowhere else.  The workload's inputs come
from ``--seed``.  A run does a fixed number of whole rounds, about
``--seconds`` of work on the reference machine (see ``round_count``), and
every output is checked.

With ``--trace 0`` the end-to-end metrics are measured: ops_per_s (operations
divided by the time spent inside them), op_p50_ms, op_tail_ms (the highest
percentile with at least 10 samples beyond it), setup_s (median of several
fresh processes timing the ``abelpell`` import plus a warm-up of the
workload's entry points) and peak_rss_mb (this process, or the largest CLI
child for cli_cold).  The four times are scaled to the reference host speed
with the kernel samples of ``calibrate.Speed``; the raw figures are printed
in the text lines.  With ``--trace 1`` a fixed number of rounds runs untraced
and then traced, and the per-layer metrics come from the traced pass.

Human-readable lines come first; the last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from calibrate import REFERENCE_S, Speed
from child import TRACE_MARK, WARM_UPS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

WORKLOADS = ("cf_solve", "triple_analysis", "moduli_census", "cli_cold")
SETUP_REPEATS = 9
CLI_TIMEOUT_S = 60
#: Seconds one untraced round takes on the reference machine (2-core x86-64
#: VM, Python 3.11); see ``round_count``.
ROUND_SECONDS = {"cf_solve": 0.6, "triple_analysis": 7.4, "moduli_census": 23.3, "cli_cold": 5.5}
#: How strongly operation times follow the speed kernel's (see ``calibrate``),
#: fitted on the reference machine.  cf_solve's hits follow it with slope
#: 0.8 and its misses, which are mostly big-integer arithmetic, with 0.45;
#: 0.7 kept both its median and its tail steadiest.  cli_cold's child
#: processes fitted 0.6 per operation and 0.8-0.9 over whole runs.
#: ``setup`` (fresh processes importing the package) is taken as 0.6.
SENSITIVITY = {"cf_solve": 0.7, "triple_analysis": 0.9, "moduli_census": 0.85, "cli_cold": 0.7,
               "setup": 0.6}


def use_checkout_source() -> None:
    """Put the checkout's ``src`` first on the path; refuse to run without it."""
    if not (SRC / "abelpell" / "__init__.py").is_file():
        raise SystemExit(f"error: no abelpell sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import abelpell

    if SRC.resolve() not in Path(abelpell.__file__).resolve().parents:
        raise SystemExit(f"error: abelpell was imported from {abelpell.__file__}, not {SRC}")


def pin_to_one_cpu() -> None:
    """Keep this process and its children on one CPU, so that the speed
    samples (taken here) and a CLI child's work see the same core."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def child_env(tag: str = "") -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (":" + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PERFBENCH_TAG"] = tag
    return env


class CliLauncher:
    """Spawns ``python -m abelpell.cli`` (or the traced child) for one case."""

    def __init__(self, traced: bool):
        self.traced = traced
        self.exports: list[dict] = []

    def __call__(self, case):
        from workloads import CliRun

        if self.traced:
            cmd = [sys.executable, str(HERE / "child.py"), "cli"]
        else:
            cmd = [sys.executable, "-m", "abelpell.cli"]
        cmd += [*case.argv, "--format", "structured"]
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(case.kind), capture_output=True,
                              text=True, timeout=CLI_TIMEOUT_S)
        if self.traced:
            last = proc.stderr.rstrip("\n").rsplit("\n", 1)[-1]
            if not last.startswith(TRACE_MARK):
                raise RuntimeError(f"traced CLI child gave no trace: {proc.stderr[-500:]}")
            self.exports.append(json.loads(last[len(TRACE_MARK):]))
        return CliRun(proc.returncode, proc.stdout)


def make_rounds(workload: str, seed: int, launch=None):
    import workloads as w

    if workload == "cf_solve":
        return lambda i: w.cf_solve_round(seed, i)
    if workload == "triple_analysis":
        return lambda i: w.triple_analysis_round(seed, i)
    if workload == "moduli_census":
        return lambda i: w.moduli_census_round(seed, i)
    return lambda i: w.cli_cold_round(seed, i, launch)


class Loop:
    """The closed-loop client: runs operations one after another and keeps
    each one's latency and verdict.  With a ``Speed`` it samples the host
    speed before each operation and keeps each operation's start and end."""

    def __init__(self, tracer=None, speed: Speed | None = None):
        self.latencies: list[float] = []
        self.spans: list[tuple[float, float]] = []
        self.failed = 0
        self.tracer = tracer
        self.speed = speed

    def run(self, ops) -> None:
        for op in ops:
            if self.tracer is not None:
                self.tracer.tag = op.kind
            if self.speed is not None:
                self.speed.sample(self.latencies[-1] if self.latencies else 0.0)
            start = time.perf_counter()
            try:
                out = op.call()
            except Exception:  # a raised output is a failed operation
                self._record(start)
                self._fail(op, traceback.format_exc())
                continue
            self._record(start)
            try:
                ok = op.check(out)
            except Exception:
                self._fail(op, traceback.format_exc())
                continue
            if not ok:
                self._fail(op, "wrong output\n")

    def _record(self, start: float) -> None:
        end = time.perf_counter()
        self.latencies.append(end - start)
        self.spans.append((start, end))

    def _fail(self, op, detail: str) -> None:
        if self.failed < 3:
            print(f"failed operation ({op.kind}): {detail}", end="", file=sys.stderr)
        self.failed += 1

    @property
    def busy_s(self) -> float:
        return sum(self.latencies)

    def scaled(self) -> list[float]:
        """Latencies at the reference host speed; takes the closing sample."""
        self.speed.sample(self.latencies[-1] if self.latencies else 0.0)
        return [self.speed.scale(start, end) for start, end in self.spans]


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond): the highest percentile that has
    at least 10 samples beyond it; the maximum when there are too few."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, 0
    return ordered[n - 11], 100.0 * (n - 10) / n, 10


def round_count(workload: str, seconds: float) -> int:
    """Whole rounds that take about ``seconds`` on the reference machine.

    The work of a run depends only on the workload and ``--seconds``, never
    on the speed of the code, so two commits are compared on identical
    operations and every percentile falls at the same rank.
    """
    return max(1, round(seconds / ROUND_SECONDS[workload]))


def measure_setup(workload: str) -> tuple[float, float]:
    """Median set-up time of fresh processes: (scaled, raw)."""
    speed = Speed(SENSITIVITY["setup"])
    raw, spans = [], []
    for _ in range(SETUP_REPEATS):
        speed.sample(raw[-1] if raw else 0.0)
        proc = subprocess.run([sys.executable, str(HERE / "child.py"), "setup", workload],
                              cwd=ROOT, env=child_env(), capture_output=True, text=True,
                              timeout=CLI_TIMEOUT_S, check=True)
        raw.append(float(proc.stdout.strip().splitlines()[-1]))
        end = time.perf_counter()
        spans.append((end - raw[-1], end))
    speed.sample(raw[-1])
    scaled = [speed.scale(start, end) for start, end in spans]
    return statistics.median(scaled), statistics.median(raw)


def prechecks(workload: str) -> tuple[int, int]:
    import workloads as w

    return w.census_prechecks() if workload == "moduli_census" else (0, 0)


def timed_run(workload: str, seed: int, seconds: float) -> tuple[dict, list[str]]:
    if workload != "cli_cold":
        WARM_UPS[workload]()
    rounds = make_rounds(workload, seed, CliLauncher(traced=False))
    n_rounds = round_count(workload, seconds)
    loop = Loop(speed=Speed(SENSITIVITY[workload]))
    start = time.perf_counter()
    for index in range(n_rounds):
        loop.run(rounds(index))
    latencies = loop.scaled()
    wall = time.perf_counter() - start
    pre_attempted, pre_failed = prechecks(workload)
    who = resource.RUSAGE_CHILDREN if workload == "cli_cold" else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024
    setup_s, setup_raw_s = measure_setup(workload)

    n = len(latencies)
    tail_value, tail_pct, beyond = tail(latencies)
    raw_tail = tail(loop.latencies)[0]
    attempted = n + pre_attempted
    failed = loop.failed + pre_failed
    metrics = {
        "ops_per_s": (n / sum(latencies), "1/s"),
        "op_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "op_tail_ms": (tail_value * 1e3, "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    lines = [
        f"workload {workload}, seed {seed}: {n} operations in {n_rounds} rounds, {wall:.1f} s wall",
        f"failed {failed} of {attempted} attempted: fail_ratio {failed / attempted:.6g}",
        f"op_tail_ms is p{tail_pct:.2f}, with {beyond} of {n} samples beyond it",
        f"raw (unscaled): ops_per_s {n / loop.busy_s:.6g}, "
        f"op_p50_ms {statistics.median(loop.latencies) * 1e3:.6g}, "
        f"op_tail_ms {raw_tail * 1e3:.6g}, setup_s {setup_raw_s:.6g}",
        f"host speed: kernel run {loop.speed.mean_kernel_s() * 1e3:.4g} ms on average "
        f"over {len(loop.speed.times)} samples (reference {REFERENCE_S * 1e3:.4g} ms)",
    ]
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    return result, lines


def traced_run(workload: str, seed: int, seconds: float) -> tuple[dict, list[str]]:
    import tracer

    # Two passes over the same rounds, each about 1/2.5 of --seconds untraced.
    n_rounds = round_count(workload, seconds / 2.5)
    plain, traced = Loop(), Loop()
    if workload == "cli_cold":
        launcher = CliLauncher(traced=True)
        plain_rounds = make_rounds(workload, seed, CliLauncher(traced=False))
        traced_rounds = make_rounds(workload, seed, launcher)
        for i in range(n_rounds):
            plain.run(plain_rounds(i))
        for i in range(n_rounds):
            traced.run(traced_rounds(i))
        exports = launcher.exports
        span_groups = [ex.pop("spans") for ex in exports]
        missing = sorted({name for ex in exports for name in ex.pop("missing")})
    else:
        t = tracer.Tracer()
        # The first calls, lazy imports included, are traced but not counted.
        t.install()
        try:
            WARM_UPS[workload]()
        finally:
            t.uninstall()
        rounds = make_rounds(workload, seed)
        ops = [op for i in range(n_rounds) for op in rounds(i)]
        plain.run(ops)
        t.reset()
        traced.tracer = t
        t.install()
        try:
            traced.run(ops)
        finally:
            t.uninstall()
        exports = [t.export()]
        span_groups = [t.spans]
        missing = t.missing
    pre_attempted, pre_failed = prechecks(workload)
    data = tracer.merge(exports)
    metrics = tracer.layer_metrics(data, traced.busy_s)
    metrics.update(tracer.kernel_probes(seed))
    metrics["trace.overhead_ratio"] = (traced.busy_s / plain.busy_s, "ratio")
    OUT.mkdir(exist_ok=True)
    span_file = OUT / f"spans-{workload}-seed{seed}.tsv"
    tracer.write_spans(span_file, span_groups)

    attempted = len(plain.latencies) + len(traced.latencies) + pre_attempted
    failed = plain.failed + traced.failed + pre_failed
    lines = [
        f"workload {workload}, seed {seed}: {n_rounds} rounds untraced then traced, "
        f"{len(traced.latencies)} operations each",
        f"failed {failed} of {attempted} attempted: fail_ratio {failed / attempted:.6g}",
        f"spans written to {span_file.relative_to(ROOT)}",
    ]
    if missing:
        lines.append(f"names not found, so not traced: {', '.join(missing)}")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    return result, lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    use_checkout_source()
    pin_to_one_cpu()
    run = traced_run if args.trace else timed_run
    result, lines = run(args.workload, args.seed, args.seconds)
    for line in lines:
        print(line)
    for name, (value, unit) in result["metrics"].items():
        print(f"  {name:36s} {value:.6g} {unit}")
    result["metrics"] = {
        name: {"value": value, "unit": unit} for name, (value, unit) in result["metrics"].items()
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
