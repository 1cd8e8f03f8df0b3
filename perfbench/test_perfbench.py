"""Tests of the benchmark itself: python3 -m pytest perfbench"""
from __future__ import annotations

import dataclasses
import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import calibrate  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads as w  # noqa: E402
from abelpell import components, geometry, pell  # noqa: E402
from abelpell.unipoly import UniPoly  # noqa: E402


def _cf_inputs(seed, index=0):
    rng = random.Random(f"cf_solve:{seed}:{index}")
    return w.cf_hit_inputs(rng), w.cf_miss_inputs(rng)


def test_generation_is_deterministic_per_seed_and_differs_across_seeds():
    assert _cf_inputs(1) == _cf_inputs(1)
    assert _cf_inputs(1) != _cf_inputs(2)
    assert _cf_inputs(1, 0) != _cf_inputs(1, 1)
    assert w.triple_cases(3, 0) == w.triple_cases(3, 0)
    assert w.triple_cases(3, 0) != w.triple_cases(4, 0)
    assert w.cli_cases(5, 0) == w.cli_cases(5, 0)
    assert [c.argv for c in w.cli_cases(5, 0)] != [c.argv for c in w.cli_cases(6, 0)]
    cycles = [w.random_n_cycle(random.Random(seed), 8) for seed in (1, 1, 2)]
    assert cycles[0] == cycles[1] != cycles[2]


def test_round_mix_does_not_depend_on_the_seed():
    for make in (w.cf_solve_round, w.triple_analysis_round):
        kinds = [sorted(op.kind for op in make(seed, 0)) for seed in (1, 2)]
        assert kinds[0] == kinds[1]
    assert sorted(c.kind for c in w.cli_cases(1, 0)) == sorted(c.kind for c in w.cli_cases(2, 0))


def test_generated_r_are_monic_and_squarefree():
    for seed in range(4):
        hits, misses = _cf_inputs(seed)
        for r, _ in hits + misses:
            assert r[-1] == 1
            assert w.is_squarefree(r)
        assert {len(r) - 1 for r, _ in misses} == set(w.CF_MISS_DEGREES)
    assert not w.is_squarefree(w.fmul([-1, 1], [-1, 1]))


def test_generated_triples_verify():
    for seed in range(3):
        for case in w.triple_cases(seed, 0):
            assert w.pell_identity_holds(case.p, case.q, case.r)
            assert case.r[-1] == 1 and w.is_squarefree(case.r)
            assert len(case.p) - 1 == case.order
            assert len(case.r) - 1 == 2 * case.genus + 2
    for r, order in _cf_inputs(0)[0]:
        t = pell.pell_solve(UniPoly(r), w.CF_HIT_NMAX)
        assert t is not None and t.order == order


def _traced_counts(ops) -> dict:
    t = tracer.Tracer()
    loop = run.Loop(t)
    t.install()
    try:
        loop.run(ops)
    finally:
        t.uninstall()
    assert loop.failed == 0
    metrics = tracer.layer_metrics(tracer.merge([t.export()]), loop.busy_s)
    exact_ratios = ("pell.hit_ratio", "components.kept_ratio", "geometry.branch_poly_per_triple")
    return {name: value for name, (value, unit) in metrics.items()
            if unit in ("count", "bits") or name in exact_ratios}


def test_exact_counts_are_deterministic():
    cf_ops = w.cf_solve_round(7, 0)
    triple_ops = [op for op in w.triple_analysis_round(7, 0) if op.kind == "inflated"][:4]
    census_ops = [
        w.Op("split", lambda: components.component_count(2, 5, "split"), lambda out: True),
        w.Op("cycle", lambda: components.enumerate_m_with_cycle(2, 5, (2, 0, 4, 1, 3)),
             lambda out: len(out) == 35),
    ]
    ops = cf_ops + triple_ops + census_ops
    first, second = _traced_counts(ops), _traced_counts(ops)
    assert first == second
    for name in ("pell.cf_steps.hit", "pell.cf_steps.miss", "pell.cf_max_bits",
                 "geometry.branch_poly_calls", "components.keys", "components.moves_applied"):
        assert first[name] > 0, name
    assert first["geometry.branch_poly_per_triple"] == 2


def test_tracer_restores_every_name():
    before = {(o, a): o.__dict__[a] for o, a, _ in tracer.SPANS}
    t = tracer.Tracer()
    t.install()
    assert geometry.branch_polynomial is not before[(geometry, "branch_polynomial")]
    t.uninstall()
    assert {(o, a): o.__dict__[a] for o, a, _ in tracer.SPANS} == before


def test_wrong_outputs_count_as_failures():
    hit = next(op for op in w.cf_solve_round(1, 0) if op.kind == "hit")
    good = hit.call()
    wrong = dataclasses.replace(good, p=good.p + 1)
    census = next(op for op in w.moduli_census_round(1, 0) if op.kind == "split")
    cert = components.component_count(1, 4, "split")
    bad_cert = dataclasses.replace(cert, m_count=cert.m_count + 1,
                                   orbit_sizes=cert.orbit_sizes[:-1] + (cert.orbit_sizes[-1] + 1,))

    def boom():
        raise ValueError("raised output")

    loop = run.Loop()
    loop.run([
        hit,
        w.Op("hit", lambda: wrong, hit.check),
        w.Op("hit", lambda: None, hit.check),
        w.Op("miss", boom, lambda out: True),
        w.Op(census.kind, lambda: bad_cert, census.check),
    ])
    assert (len(loop.latencies), loop.failed) == (5, 4)


def test_wrong_cli_output_counts_as_failure():
    case = next(c for c in w.cli_cases(1, 0) if c.kind == "nilpotency")
    report = {"result": case.result, "checks": [{"name": "x", "ok": True}]}
    assert w.check_cli(w.CliRun(case.code, json.dumps(report)), case)
    assert not w.check_cli(w.CliRun(2, json.dumps(report)), case)
    report["checks"][0]["ok"] = False
    assert not w.check_cli(w.CliRun(case.code, json.dumps(report)), case)
    report = {"result": dict(case.result, is_square=not case.result["is_square"]), "checks": []}
    assert not w.check_cli(w.CliRun(case.code, json.dumps(report)), case)


def _speed(sensitivity, samples):
    """A Speed holding (end time, kernel seconds per run, runs) samples."""
    speed = calibrate.Speed(sensitivity)
    total_s, total_runs = 0.0, 0
    for at, per_run, runs in samples:
        total_s += per_run * runs
        total_runs += runs
        speed.times.append(at)
        speed.kernel_s.append(total_s)
        speed.runs.append(total_runs)
    return speed


def test_scaling_is_the_identity_at_the_reference_speed():
    ref = calibrate.REFERENCE_S
    speed = _speed(0.8, [(0.0, ref, 2), (1.0, ref, 2)])
    assert abs(speed.scale(0.5, 0.75) - 0.25) < 1e-12


def test_scaling_uses_the_samples_nearest_a_short_operation():
    ref = calibrate.REFERENCE_S
    # Slow (2x) samples right around the operation, fast ones farther away.
    speed = _speed(1.0, [(0.0, ref, 2), (9.0, 2 * ref, 2), (9.1, 2 * ref, 2), (11.0, ref, 2)])
    assert abs(speed.scale(9.02, 9.08) - 0.03) < 1e-12
    # A 1.8 s operation also reaches the fast sample 1.8 s after it: 6 runs
    # took 10 reference runs' time.
    assert abs(speed.scale(9.1, 10.9) - 1.8 * 0.6) < 1e-12
    half = _speed(0.5, [(0.0, 4 * ref, 2), (1.0, 4 * ref, 2)])
    assert abs(half.scale(0.2, 0.6) - 0.2) < 1e-12


def test_a_calibrated_loop_scales_every_operation():
    loop = run.Loop(speed=calibrate.Speed(0.8))
    loop.run(w.cf_solve_round(2, 0)[:5])
    scaled = loop.scaled()
    assert len(scaled) == len(loop.latencies) == 5 and loop.failed == 0
    assert all(value > 0 for value in scaled)


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    values = [float(i) for i in range(1, 101)]
    assert run.tail(values) == (90.0, 90.0, 10)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cf_solve", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
