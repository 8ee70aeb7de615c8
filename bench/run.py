"""Benchmark harness for mumkit: end-to-end metrics, or per-layer metrics from a traced run.

Run from the repository root:

    python3 bench/run.py --workload separable_scan --seed 1 --seconds 10 --trace 0

Workloads: separable_scan, shot_sim, cli_artifacts (see bench/README.md).
Each run is one closed loop in this process: one caller, no threads, the
next operation starts when the previous one returns.  BLAS threads are
pinned to 1 before numpy is imported.

With ``--trace 0`` the loop runs whole rounds for ``--seconds`` (and
until it has 100 latency samples) with tracing off, and the result
carries the end-to-end metrics.  ``setup_s`` is the median over several
fresh processes of the time from before ``import mumkit`` until the
workload's fixed inputs are built.

With ``--trace 1`` the run does a fixed number of rounds, proportional
to ``--seconds``, twice on the same inputs: first untraced, then with every
mumkit module wrapped by ``tracer.Tracer``.  The result carries the
per-layer metrics of the traced pass; the difference between the two
passes is reported as the tracing overhead.

The last line of standard output is the result:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
The line before it is ``{"detail": {...}}`` with the environment,
calibration, sample counts, op latency p50 and p90, per-operation
medians and, when traced, the layer breakdown.  Both are also written under ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOAD_NAMES = ("separable_scan", "shot_sim", "cli_artifacts")

SETUP_PROBES = 10          # fresh processes timed for setup_s, spread over the run
P90_MIN_SAMPLES = 100      # a p90 needs at least ten samples beyond it
PROBE_TIMEOUT_S = 60
# Rounds per pass of the traced run, per second of --seconds.  On the
# reference host (2-core Xeon, BLAS threads 1) both passes together take
# about a third to two thirds of --seconds; separable_scan is kept short
# because each of its states opens about 56 spans, all held in memory.
TRACE_ROUNDS_PER_S = {"separable_scan": 25.0, "shot_sim": 8.0, "cli_artifacts": 0.2}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


# -- set-up -----------------------------------------------------------------

def import_mumkit():
    """Import mumkit from this checkout's src/ and the workloads module."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import mumkit

    if Path(mumkit.__file__).resolve().parent != (SRC / "mumkit").resolve():
        raise RuntimeError(f"imported mumkit from {mumkit.__file__}, not from {SRC}")
    import workloads

    return workloads


def workdir() -> str:
    return str(OUT / f"work-{os.getpid()}")


def timed_setup(name: str, seed: int):
    """(workload, import seconds, set-up seconds), timed from before ``import mumkit``."""
    t0 = perf_counter()
    workloads = import_mumkit()
    t1 = perf_counter()
    wl = workloads.WORKLOADS[name](seed, workdir())
    wl.setup()
    return wl, t1 - t0, perf_counter() - t0


def setup_probe(name: str, seed: int) -> int:
    _, import_s, setup_s = timed_setup(name, seed)
    shutil.rmtree(workdir(), ignore_errors=True)
    print(json.dumps({"import_s": import_s, "setup_s": setup_s}))
    return 0


def run_probe(name: str, seed: int) -> dict:
    """Time set-up in a fresh process: {"import_s": ..., "setup_s": ...}."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", name, "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


# -- environment ------------------------------------------------------------

def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment() -> dict:
    import numpy as np

    blas = {}
    try:
        cfg = np.show_config(mode="dicts")
        blas = {k: cfg["Build Dependencies"]["blas"].get(k) for k in ("name", "version")}
    except (TypeError, KeyError, ValueError):
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu_model(),
        "platform": platform.platform(),
    }


def calibrate() -> dict:
    """Host speed right now: a fixed pure-Python loop and a fixed 16x16 eigvalsh loop.

    Reported beside the metrics so a slow host phase is visible; never
    used to rescale them.
    """
    import numpy as np

    n = 300_000
    t0 = perf_counter()
    acc = 0
    for i in range(n):
        acc = (acc + i * i) & 0xFFFF
    py_rate = n / (perf_counter() - t0)
    g = np.random.default_rng(12345).standard_normal((16, 16, 2)).view(complex)[..., 0]
    h = g + g.conj().T
    m = 1000
    t0 = perf_counter()
    for _ in range(m):
        np.linalg.eigvalsh(h)
    return {"py_loop_iter_per_s": py_rate, "eigvalsh16_per_s": m / (perf_counter() - t0)}


# -- the closed loop ----------------------------------------------------------

class LoopResult:
    def __init__(self):
        self.latencies: list[float] = []
        self.labels: list[str] = []
        self.units = 0
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.rounds = 0
        self.wall_s = 0.0

    def fail(self, msg: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(msg)

    @property
    def busy_s(self) -> float:
        return sum(self.latencies)


def run_loop(wl, *, seconds=None, rounds=None, min_samples=0, tracer=None,
             probe=None, probes=0) -> LoopResult:
    """Run whole rounds of ``wl``: a fixed number, or until ``seconds`` have
    passed and ``min_samples`` ops completed (capped at a few times ``seconds``).

    Only ``op.call()`` is timed; checks run between operations, outside
    the timed region, and with the tracer paused.  With ``probe``, the
    loop calls it ``probes`` times between rounds, evenly over ``seconds``,
    and leaves its time out of the run's clock.
    """
    res = LoopResult()
    cap = None if seconds is None else max(3.0 * seconds, seconds + 30.0)
    start = perf_counter()
    paused = 0.0
    probed = 0
    while True:
        elapsed = perf_counter() - start - paused
        if probe is not None and probed < probes and elapsed >= probed * seconds / probes:
            t0 = perf_counter()
            probe()
            paused += perf_counter() - t0
            probed += 1
            continue
        if rounds is not None:
            if res.rounds >= rounds:
                break
        elif elapsed >= cap or (elapsed >= seconds and len(res.latencies) >= min_samples):
            break
        for op in wl.next_round():
            res.attempted += 1
            try:
                # the untraced path opens no context, so its timing pays nothing for tracing
                if tracer is None:
                    t0 = perf_counter()
                    out = op.call()
                    dt = perf_counter() - t0
                else:
                    with tracer.span("bench.op", op.label):
                        t0 = perf_counter()
                        out = op.call()
                        dt = perf_counter() - t0
            except Exception as exc:  # a failed op is counted, and the loop goes on
                res.fail(f"{op.label}: {type(exc).__name__}: {exc}")
                continue
            res.latencies.append(dt)
            res.labels.append(op.label)
            try:
                if tracer is None:
                    msg = op.check(out)
                else:
                    with tracer.pause():
                        msg = op.check(out)
            except Exception as exc:
                msg = f"{op.label}: check raised {type(exc).__name__}: {exc}"
            if msg:
                res.fail(msg)
            else:
                res.units += op.units
        res.rounds += 1
    res.wall_s = perf_counter() - start - paused
    for msg in wl.run_failures():
        res.fail(msg)
    return res


def quantiles_ms(samples: list[float]) -> tuple[float, float | None]:
    """(p50, p90) in ms; p90 is None below P90_MIN_SAMPLES samples."""
    cuts = statistics.quantiles(samples, n=10, method="inclusive") if len(samples) > 1 else None
    p50 = statistics.median(samples) * 1e3
    p90 = cuts[8] * 1e3 if cuts and len(samples) >= P90_MIN_SAMPLES else None
    return p50, p90


def by_label(res: LoopResult) -> dict[str, list[float]]:
    groups: dict[str, list[float]] = {}
    for label, dt in zip(res.labels, res.latencies):
        groups.setdefault(label, []).append(dt)
    return groups


def percentile90(samples: list[float]) -> float:
    """The 90th percentile; the one sample, if there is only one."""
    return statistics.quantiles(samples, n=10, method="inclusive")[8] if len(samples) > 1 \
        else samples[0]


def per_label(res: LoopResult) -> dict:
    return {k: {"n": len(v), "median_ms": statistics.median(v) * 1e3,
                "p90_ms": percentile90(v) * 1e3} for k, v in by_label(res).items()}


def loop_summary(res: LoopResult) -> dict:
    return {"rounds": res.rounds, "ops": len(res.latencies), "attempted": res.attempted,
            "failed": res.failed, "failures": res.failures, "busy_s": res.busy_s,
            "wall_s": res.wall_s, "units": res.units}


# -- runs -------------------------------------------------------------------

def end_to_end(res: LoopResult, setup_samples: list[float]) -> tuple[dict, dict]:
    """(result metrics, latency report).

    The speed metric is ``op_p90_ms``: each op label's p90 latency,
    averaged over the labels of a round.  The host's speed swings by up
    to 2x in phases that outlast a run (README.md, Noise).  The mean
    throughput and the pooled p50 follow the share of fast phase in a
    run; a label's p90 is set by the slow phase, which nearly every run
    holds for more than a tenth of its time, and taking it per label
    keeps the mix of labels from moving it.  The mean throughput and
    the pooled p50 and p90 are reported beside the metrics; the pooled
    p90 is left out below P90_MIN_SAMPLES samples.
    """
    p50, p90 = quantiles_ms(res.latencies)
    metrics = {
        "setup_s": {"value": statistics.median(setup_samples), "unit": "s"},
        "peak_rss_mib": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                         "unit": "MiB"},
        "op_p90_ms": {"value": statistics.mean(map(percentile90, by_label(res).values())) * 1e3,
                      "unit": "ms"},
    }
    latency = {"samples": len(res.latencies), "p50_ms": p50}
    if p90 is not None:
        latency["p90_ms"] = p90
    return metrics, latency


def traced(name: str, seed: int, seconds: float, wl_untraced):
    """Untraced then traced pass over the same fixed rounds; per-layer metrics."""
    import tracer as tracing
    import workloads

    rounds = max(1, round(seconds * TRACE_ROUNDS_PER_S[name]))
    plain = run_loop(wl_untraced, rounds=rounds)
    tr = tracing.Tracer()
    with tr:
        with tr.span("bench.setup"):
            wl = workloads.WORKLOADS[name](seed, workdir())
            wl.setup()
        res = run_loop(wl, rounds=rounds, tracer=tr)
    OUT.mkdir(exist_ok=True)
    tr.write(str(OUT / f"trace-{name}-seed{seed}.jsonl"))
    layers = tracing.layer_metrics(tr)
    detail = {
        "untraced": loop_summary(plain),
        "traced": loop_summary(res),
        "tracing_overhead_s": res.busy_s - plain.busy_s,
        "tracing_overhead_share": (res.busy_s - plain.busy_s) / plain.busy_s
        if plain.busy_s else None,
        "spans": len(tr.spans),
        "counts": dict(sorted(tr.counts.items())),
        "functions": tracing.by_function(tr),
        "breakdown": tracing.breakdown(tr),
        "per_op_untraced": per_label(plain),
        "inputs_digest": wl.inputs_digest(),
    }
    metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in layers.items()}
    return metrics, plain, res, detail


COUNT_UNITS = {"rng.draws_per_stream": "draws/stream", "serialize.bytes_written": "B",
               "serialize.bytes_read": "B"}


def layer_unit(name: str) -> str:
    return "s" if name.endswith("self_s") else COUNT_UNITS.get(name, "count")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "mumkit" / "__init__.py").is_file():
        print(f"error: no mumkit sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if args.setup_probe:
        return setup_probe(args.workload, args.seed)

    wl, import_s, setup_s = timed_setup(args.workload, args.seed)
    setup_samples, import_samples = [setup_s], [import_s]

    def probe():
        sample = run_probe(args.workload, args.seed)
        setup_samples.append(sample["setup_s"])
        import_samples.append(sample["import_s"])

    try:
        cal_start = calibrate()
        if args.trace:
            metrics, plain, res, extra = traced(args.workload, args.seed, args.seconds, wl)
            attempted, failed = plain.attempted + res.attempted, plain.failed + res.failed
        else:
            res = run_loop(wl, seconds=args.seconds, min_samples=P90_MIN_SAMPLES,
                           probe=probe, probes=SETUP_PROBES)
            metrics, latency = end_to_end(res, setup_samples)
            attempted, failed = res.attempted, res.failed
            extra = {"loop": loop_summary(res), "latency": latency,
                     "mean_throughput_per_s": res.units / res.busy_s if res.busy_s else None,
                     "per_op": per_label(res),
                     "inputs_digest": wl.inputs_digest()}
        cal_end = calibrate()
    finally:
        shutil.rmtree(workdir(), ignore_errors=True)

    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "unit": wl.unit, "environment": environment(),
        "calibration": {"start": cal_start, "end": cal_end},
        "setup_samples_s": setup_samples, "import_samples_s": import_samples, **extra,
    }
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json", "w",
              encoding="utf-8") as fh:
        json.dump({"detail": detail, "result": result}, fh, indent=1)
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
