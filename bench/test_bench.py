"""Self-tests of the benchmark harness, at smoke size.

Run from the repository root:

    python3 -m pytest bench -q
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

workloads = run.import_mumkit()

import mumkit  # noqa: E402
import tracer as tracing  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]


def snapshot() -> dict:
    """Every name the tracer may patch, by identity."""
    snap = {}
    for modname, mod in list(sys.modules.items()):
        if mod is not None and (modname == "mumkit" or modname.startswith("mumkit.")):
            snap.update({(modname, k): v for k, v in vars(mod).items()})
    snap.update({("Xoshiro256", k): v for k, v in vars(mumkit.rng.Xoshiro256).items()})
    snap[("numpy", "einsum")] = np.einsum
    snap[("numpy.linalg", "eigvalsh")] = np.linalg.eigvalsh
    return snap


def same(a: dict, b: dict) -> bool:
    return a.keys() == b.keys() and all(a[k] is b[k] for k in a)


def smoke(name, seed, tmp_path, rounds=1, tracer=None):
    wl = workloads.WORKLOADS[name](seed, str(tmp_path))
    wl.setup()
    return wl, run.run_loop(wl, rounds=rounds, tracer=tracer)


def test_spec_names_the_harness_workloads():
    assert NAMES == list(run.WORKLOAD_NAMES) == list(workloads.WORKLOADS)


@pytest.mark.parametrize("name", NAMES)
def test_smoke_checks_pass_and_second_seed_changes_inputs_only(name, tmp_path):
    wl1, res1 = smoke(name, workloads.DEFAULT_SEED, tmp_path)
    wl2, res2 = smoke(name, workloads.DEFAULT_SEED + 1, tmp_path)
    for res in (res1, res2):
        assert res.attempted > 0 and res.failed == 0, res.failures
        assert len(res.latencies) == res.attempted
    assert wl1.inputs_digest() != wl2.inputs_digest()
    assert res1.labels == res2.labels


def test_untraced_run_leaves_mumkit_unpatched(tmp_path):
    before = snapshot()
    for name in ("separable_scan", "shot_sim"):
        smoke(name, 3, tmp_path)
    assert same(before, snapshot())


def test_tracer_restores_every_name_even_when_an_op_raises():
    before = snapshot()
    with pytest.raises(ValueError):
        with tracing.Tracer() as tr:
            assert not same(before, snapshot())
            mumkit.optimal_mums(1)
    assert same(before, snapshot())
    assert tr.spans[0][0] == "mum.optimal_mums" and None not in tr.spans


def test_traced_run_patches_imported_names_and_nests_spans():
    with tracing.Tracer() as tr:
        assert mumkit.cli.j_value is mumkit.criteria.j_value is mumkit.j_value
        assert hasattr(mumkit.cli.j_value, "__wrapped__")
        st = mumkit.random_separable(3, 2, 5)
    names = [s[0] for s in tr.spans]
    assert names[0] == "states.random_separable"
    assert "rng.Xoshiro256.uniforms" in names
    parents = {s[0]: s[3] for s in tr.spans}
    assert parents["rng.Xoshiro256.__init__"] == 0
    assert st.d == 3


def test_trace_product_is_counted_without_a_span():
    with tracing.Tracer() as tr:
        mumkit.verify_mums(mumkit.optimal_mums(3))
    assert tr.counts["calls.linalg.trace_product"] > 0
    assert not any(s[0].startswith("linalg.") for s in tr.spans)


@pytest.mark.parametrize("name", NAMES)
def test_traced_counts_repeat_exactly_and_cover_every_layer_metric(name, tmp_path):
    reports = []
    for _ in range(2):
        tr = tracing.Tracer()
        with tr:
            _, res = smoke(name, 5, tmp_path, tracer=tr)
        assert res.failed == 0, res.failures
        reports.append((dict(tr.counts), tracing.layer_metrics(tr)))
    (counts_a, layers_a), (counts_b, layers_b) = reports
    assert counts_a == counts_b
    assert set(layers_a) == {m["name"] for m in SPEC["per_layer"]}
    for key, value in layers_a.items():
        if not key.endswith("self_s"):
            assert value == layers_b[key], key


def test_frozen_digests_catch_a_changed_stream(tmp_path):
    wl = workloads.ShotSim(workloads.DEFAULT_SEED, str(tmp_path))
    wl.setup()
    op = wl.next_round()[0]
    est = op.call()
    assert op.check(est) is None
    grid = est.counts[0].copy()
    i, j = np.unravel_index(int(np.argmax(grid)), grid.shape)
    grid[i, j] -= 1
    grid[(i + 1) % grid.shape[0], j] += 1
    moved = dataclasses.replace(est, counts=(grid,) + est.counts[1:])
    assert "digest" in (op.check(moved) or "")


def result_lines(proc) -> tuple[dict, dict]:
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["detail"], json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
def test_command_prints_the_contract_result(trace):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "separable_scan", "--seed", "7",
         "--seconds", "0.3", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    detail, result = result_lines(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    kind = "per_layer" if trace else "end_to_end"
    expected = {m["name"]: m["unit"] for m in SPEC[kind]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert detail["environment"]["threads"]["OPENBLAS_NUM_THREADS"] == "1"
    assert set(detail["calibration"]) == {"start", "end"}
    if trace:
        assert "tracing_overhead_s" in detail
    else:
        assert len(detail["setup_samples_s"]) == run.SETUP_PROBES + 1
        assert detail["latency"]["samples"] >= run.P90_MIN_SAMPLES
        assert 0 < detail["latency"]["p50_ms"] <= detail["latency"]["p90_ms"]


def test_command_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "shot_sim", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
