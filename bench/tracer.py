"""Span tracer for the mumkit benchmark's traced run.

The tracer wraps mumkit's public functions from outside the package, so
nothing inside ``src/`` changes.  Each module is one layer.  A wrapped
call records a span ``(name, start, end, parent, tag)`` in memory; the
parent is the span that was open when the call began, so calls that one
mumkit module makes into another become child spans.  Because modules
import each other's functions by name (``mumkit.cli.j_value``,
``mumkit.states.Xoshiro256``), every module attribute that refers to a
wrapped function is patched, not only the defining one.

Some names are counted without a span because they are called too often
for a span to be cheap: the ``linalg`` helpers (``trace_product`` runs
about 37k times per ``verify_mums`` at d=16) and the numpy kernels
``numpy.linalg.eigvalsh`` and ``numpy.einsum``.

Self time is a span's duration minus the time its direct children cover.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import math
import os
import sys
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

# Modules whose public functions get spans; linalg is counted only.
SPAN_MODULES = ("rng", "operator_basis", "mum", "mub", "states", "criteria", "serialize", "cli")
COUNT_MODULES = ("linalg",)
RNG_METHODS = ("__init__", "random", "uniforms", "normals", "exponentials", "complex_normals")

STATE_FACTORIES = ("max_entangled", "isotropic", "bell_diagonal", "random_pure",
                   "random_separable", "random_density")


def _tag(args):
    """The dimension (or CLI command) a call works on, for breakdowns."""
    if not args:
        return None
    a = args[0]
    if isinstance(a, int) and not isinstance(a, bool):
        return a
    d = getattr(a, "d", None)
    if isinstance(d, int):
        return d
    if isinstance(a, list) and a and isinstance(a[0], str):
        return a[0]
    return None




class Tracer:
    """Patches mumkit for the lifetime of a ``with`` block and records spans."""

    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self.paused = False
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _open(self) -> tuple[int, int]:
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        return idx, parent

    def _close(self, idx, parent, name, start, tag):
        end = perf_counter()
        self._stack.pop()
        self.spans[idx] = (name, start, end, parent, tag)

    @contextlib.contextmanager
    def span(self, name: str, tag=None):
        """A span opened by the benchmark itself (set-up, one operation)."""
        idx, parent = self._open()
        start = perf_counter()
        try:
            yield
        finally:
            self._close(idx, parent, name, start, tag)

    @contextlib.contextmanager
    def pause(self):
        """Record nothing inside the block (the benchmark's output checks)."""
        was, self.paused = self.paused, True
        try:
            yield
        finally:
            self.paused = was

    def _span_wrapper(self, name, fn, hook=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.paused:
                return fn(*args, **kwargs)
            tracer.counts["calls." + name] += 1
            idx, parent = tracer._open()
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(idx, parent, name, start, _tag(args))
            if hook is not None:
                hook(tracer.counts, args, out)
            return out

        return wrapper

    def _count_wrapper(self, key, fn, hook=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.paused:
                tracer.counts[key] += 1
                if hook is not None:
                    hook(tracer.counts, args, None)
            return fn(*args, **kwargs)

        return wrapper

    # -- patching ----------------------------------------------------------

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _replace_everywhere(self, original, wrapper):
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "mumkit" or modname.startswith("mumkit.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, attr, wrapper)

    def install(self):
        import mumkit

        try:
            for layer in SPAN_MODULES + COUNT_MODULES:
                mod = sys.modules[f"mumkit.{layer}"]
                for name, fn in list(vars(mod).items()):
                    if name.startswith("_") or not inspect.isfunction(fn):
                        continue
                    if fn.__module__ != mod.__name__:
                        continue
                    key = f"{layer}.{name}"
                    hook = _HOOKS.get(key)
                    if layer in COUNT_MODULES:
                        wrapper = self._count_wrapper(f"calls.{key}", fn, hook)
                    else:
                        wrapper = self._span_wrapper(key, fn, hook)
                    self._replace_everywhere(fn, wrapper)
            cls = mumkit.rng.Xoshiro256
            for meth in RNG_METHODS:
                key = f"rng.Xoshiro256.{meth}"
                self._set(cls, meth, self._span_wrapper(key, vars(cls)[meth], _HOOKS.get(key)))
            self._set(np.linalg, "eigvalsh",
                      self._count_wrapper("kernel.eigvalsh_calls", np.linalg.eigvalsh,
                                          _eigvalsh_rows))
            self._set(np, "einsum", self._count_wrapper("kernel.einsum_calls", np.einsum))
        except BaseException:
            self.uninstall()
            raise
        return self

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- reporting ---------------------------------------------------------

    def self_times(self) -> list[float]:
        """Self time of every span, indexed like ``self.spans``."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [end - start - child[i] for i, (_, start, end, _, _) in enumerate(self.spans)]

    def write(self, path: str) -> None:
        """Write the spans as JSON lines: name, start, end, parent, tag."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, tag in self.spans:
                fh.write(json.dumps([name, start, end, parent, tag]) + "\n")


def _uniform_draws(counts, args, out):
    counts["rng.draws"] += int(args[1])


def _new_stream(counts, args, out):
    counts["rng.streams"] += 1


def _bytes_written(counts, args, out):
    # json.dumps escapes non-ASCII by default, so characters are bytes
    counts["serialize.bytes_written"] += len(out)


def _bytes_read(counts, args, out):
    counts["serialize.bytes_read"] += os.path.getsize(args[0])


def _eigvalsh_rows(counts, args, out):
    # rows over the whole batch: (..., n, n) -> prod(...) * n
    counts["kernel.eigvalsh_rows"] += math.prod(np.shape(args[0])[:-1])


_HOOKS = {
    "rng.Xoshiro256.__init__": _new_stream,
    "rng.Xoshiro256.uniforms": _uniform_draws,
    "serialize.dumps": _bytes_written,
    "serialize.load_path": _bytes_read,
}


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """The per-layer metrics of BENCHMARK.json from one traced run."""
    selfs = tracer.self_times()
    by_name: dict[str, float] = defaultdict(float)
    by_layer: dict[str, float] = defaultdict(float)
    for (name, *_), s in zip(tracer.spans, selfs):
        by_name[name] += s
        by_layer[name.split(".", 1)[0]] += s
    c = tracer.counts

    def total(layer, *names):
        return sum(by_name[f"{layer}.{n}"] for n in names)

    def calls(layer, *names):
        return sum(c[f"calls.{layer}.{n}"] for n in names)

    streams = c["rng.streams"]
    return {
        "rng.streams": streams,
        "rng.draws": c["rng.draws"],
        "rng.draws_per_stream": c["rng.draws"] / streams if streams else 0.0,
        "rng.self_s": by_layer["rng"],
        "operator_basis.self_s": by_layer["operator_basis"],
        "operator_basis.verify_self_s": total("operator_basis", "verify_orthonormal_basis"),
        "mum.build_calls": calls("mum", "build_mums"),
        "mum.build_self_s": total("mum", "build_mums"),
        "mum.verify_self_s": total("mum", "verify_mums"),
        "mum.max_valid_t_self_s": total("mum", "max_valid_t"),
        "mum.transform_self_s": total("mum", "conjugate_mums", "rotate_mums"),
        "mub.self_s": by_layer["mub"],
        "states.factory_calls": calls("states", *STATE_FACTORIES),
        "states.factory_self_s": total("states", *STATE_FACTORIES),
        "states.ppt_self_s": total("states", "ppt_check", "partial_transpose"),
        "states.verify_self_s": total("states", "verify_state"),
        "criteria.j_calls": calls("criteria", "j_value"),
        "criteria.j_self_s": total("criteria", "j_value", "mum_criterion"),
        "criteria.correlation_self_s": total("criteria", "correlation_matrix_trace",
                                             "j_correlation_identity"),
        "criteria.simulate_self_s": total("criteria", "simulate_counts", "setting_distributions"),
        "criteria.mub_self_s": total("criteria", "mub_criterion"),
        "criteria.bell_choice_self_s": total("criteria", "bell_choice"),
        "serialize.dump_self_s": sum((v for k, v in by_name.items()
                                      if k.startswith("serialize.")
                                      and (k.endswith("_to_obj") or k == "serialize.dumps")), 0.0),
        "serialize.load_self_s": sum((v for k, v in by_name.items()
                                      if k.startswith("serialize.")
                                      and (k.endswith("_from_obj") or k == "serialize.load_path")),
                                     0.0),
        "serialize.bytes_written": c["serialize.bytes_written"],
        "serialize.bytes_read": c["serialize.bytes_read"],
        "cli.self_s": by_layer["cli"],
        "linalg.trace_product_calls": c["calls.linalg.trace_product"],
        "kernel.eigvalsh_calls": c["kernel.eigvalsh_calls"],
        "kernel.eigvalsh_rows": c["kernel.eigvalsh_rows"],
        "kernel.einsum_calls": c["kernel.einsum_calls"],
    }


def by_function(tracer: Tracer) -> dict[str, dict[str, float]]:
    """Calls and self time of every traced name."""
    out: dict[str, dict[str, float]] = {}
    for (name, *_), s in zip(tracer.spans, tracer.self_times()):
        entry = out.setdefault(name, {"calls": 0, "self_s": 0.0})
        entry["calls"] += 1
        entry["self_s"] += s
    return out


def breakdown(tracer: Tracer) -> dict[str, dict[str, float]]:
    """Self time per layer, grouped by the benchmark span at the root of each call tree.

    Root spans are the benchmark's own: ``bench.setup`` and one
    ``bench.op`` per operation, tagged with the operation's label (the
    dimension, or the CLI command).  Each group also carries ``ops``,
    the number of root spans in it, and ``wall_s``, their total duration.
    """
    selfs = tracer.self_times()
    root = [0] * len(tracer.spans)
    out: dict[str, dict[str, float]] = {}
    for i, (name, start, end, parent, tag) in enumerate(tracer.spans):
        root[i] = i if parent < 0 else root[parent]
    for i, (name, start, end, parent, tag) in enumerate(tracer.spans):
        rname, rstart, rend, _, rtag = tracer.spans[root[i]]
        group = out.setdefault(f"{rname}:{rtag}", defaultdict(float))
        if parent < 0:
            group["ops"] += 1
            group["wall_s"] += end - start
        group[name.split(".", 1)[0]] += selfs[i]
    return {k: dict(v) for k, v in out.items()}
