"""The three benchmark workloads and their output checks.

A workload is built from the benchmark seed alone.  ``setup()`` builds
the fixed inputs (the part of ``setup_s`` after ``import mumkit``);
``next_round()`` returns the next round of operations.  A round is the
smallest balanced unit of the workload's mix (one state per dimension,
one call per state family, one pass of the command script), so a run of
whole rounds always has the same mix.  Each operation is an ``Op``:
``call()`` is the timed part and drives mumkit only through its public
functions or ``mumkit.cli.run_cli``; ``check(out)`` runs outside the
timed region and returns a failure message or ``None``.

The checks use oracles that do not share code with the path they check:
closed forms, the fidelity form of J, the correlation identity between
values already computed, and SHA-256 digests frozen from the commit that
added this benchmark.

mumkit is looked up as ``mumkit.<name>`` at call time, never bound at
import, so the traced run sees its patched names.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import random
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

import mumkit
import mumkit.cli

DEFAULT_SEED = 1
TOL = 1e-9


@dataclass
class Op:
    label: str
    call: Callable[[], Any]
    check: Callable[[Any], str | None]
    units: int = 1


def optimal_kappa(d: int) -> float:
    return 1.0 / d + 2.0 / d ** 2


def bell_fidelity(rho: np.ndarray, d: int) -> float:
    """<Phi+|rho|Phi+> with |Phi+> = sum_i |ii> / sqrt(d)."""
    idx = np.arange(d) * (d + 1)
    return float(rho[np.ix_(idx, idx)].sum().real) / d


def j_fidelity_form(rho: np.ndarray, d: int, kappa: float) -> float:
    """J under the conjugate pairing: (d+1)/d + ((d kappa - 1)/(d - 1)) (d F - 1/d)."""
    return (d + 1) / d + ((d * kappa - 1.0) / (d - 1)) * (d * bell_fidelity(rho, d) - 1.0 / d)


def j_isotropic(d: int, kappa: float, alpha: float) -> float:
    """J of the isotropic state under the conjugate pairing (same formula as
    ``mumkit.j_isotropic_closed``): (d+1)(alpha kappa + (1-alpha)/d)."""
    return (d + 1) * (alpha * kappa + (1.0 - alpha) / d)


def counts_digest(counts) -> str:
    payload = json.dumps([[int(c) for c in np.ravel(g)] for g in counts])
    return hashlib.sha256(payload.encode()).hexdigest()


def _fail(cond: bool, msg: str) -> str | None:
    return None if cond else msg


class Workload:
    """Inputs come only from ``seed``; every drawn input enters ``inputs_digest``."""

    name = ""
    unit = ""

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.dir = workdir
        self._rng = random.Random(seed)
        self._inputs = hashlib.sha256()

    def draw_seed(self) -> int:
        v = self._rng.getrandbits(63)
        self._inputs.update(repr(v).encode())
        return v

    def draw_unit(self) -> float:
        v = self._rng.random()
        self._inputs.update(repr(v).encode())
        return v

    def inputs_digest(self) -> str:
        return self._inputs.hexdigest()

    def setup(self) -> None:
        raise NotImplementedError

    def next_round(self) -> list[Op]:
        raise NotImplementedError

    def run_failures(self) -> list[str]:
        """Failures that only the whole run can show (statistical checks)."""
        return []


class SeparableScan(Workload):
    """Seeded random_separable(d, 8, seed) states, d cycling through DIMS.

    Each op builds the state and evaluates J under the self and the
    conjugate pairing and the correlation-matrix trace, against
    measurement sets built once in setup.
    """

    name = "separable_scan"
    unit = "states"
    DIMS = (2, 3, 4, 6)
    TERMS = 8

    def setup(self):
        self.sets: dict[int, tuple] = {}
        for d in self.DIMS:
            pset = mumkit.optimal_mums(d)
            self.sets[d] = (pset, mumkit.conjugate_mums(pset), pset.source_basis)

    def next_round(self) -> list[Op]:
        return [self._op(d, self.draw_seed()) for d in self.DIMS]

    def _op(self, d: int, seed: int) -> Op:
        pset, qset, basis = self.sets[d]

        def call():
            st = mumkit.random_separable(d, self.TERMS, seed)
            return (st, mumkit.j_value(st, pset, pset), mumkit.j_value(st, pset, qset),
                    mumkit.correlation_matrix_trace(st, basis))

        def check(out):
            st, j_self, j_conj, tr_t = out
            kappa = optimal_kappa(d)
            bound = 1.0 + kappa + TOL
            identity = (d + 1) / d + (2.0 * (d * kappa - 1.0) / (d - 1)) * tr_t
            return (
                _fail(abs(pset.kappa - kappa) <= TOL, f"d={d}: kappa {pset.kappa!r}")
                or _fail(j_self <= bound and j_conj <= bound,
                         f"d={d} seed={seed}: J {j_self!r}/{j_conj!r} above 1+kappa")
                or _fail(tr_t <= (d - 1) / (2.0 * d) + TOL,
                         f"d={d} seed={seed}: Tr(T) {tr_t!r} above (d-1)/(2d)")
                or _fail(abs(j_self - identity) <= TOL,
                         f"d={d} seed={seed}: correlation identity off by {j_self - identity:.3e}")
                or _fail(abs(j_conj - j_fidelity_form(st.rho, d, kappa)) <= TOL,
                         f"d={d} seed={seed}: fidelity form off")
            )

        return Op(f"d={d}", call, check)


class ShotSim(Workload):
    """simulate_counts on isotropic(3, 0.9) alternating with random_density(6, .).

    Every call draws SHOTS shots in total, split evenly over its d+1
    settings (3500 per setting at d=3, 2000 at d=6), so both calls pull
    the same length of RNG stream and their latencies form one cluster.
    Every call gets its own seed from the benchmark seed.  The
    random_density states come from a pool built in setup, so a call's
    time is the sampling alone.
    """

    name = "shot_sim"
    unit = "shots"
    SHOTS = 14000
    ALPHA = 0.9
    POOL = 8
    # counts digests of the first four calls at DEFAULT_SEED
    FROZEN = (
        "dbff3c58cf98bf2683042cd3fad11ccd497822e9ba9abc5f48c48aefc212af8d",
        "48490ca913ef7ec096b8fea61ef70d5aa6323f2dbd9d90898c5f3cb7c0e69e99",
        "cc793c4260e62346740f529483c0af5ff018ec4190488d69b2c7a00cf2f2b4ad",
        "dd6a5e966773760f483b0d28454485e41f5adf0829ede70e876f2f6284f1b901",
    )

    def __init__(self, seed: int, workdir: str):
        super().__init__(seed, workdir)
        self.calls = 0
        self.within = 0
        self.checked = 0

    def setup(self):
        self.p3 = mumkit.optimal_mums(3)
        self.q3 = mumkit.conjugate_mums(self.p3)
        self.p6 = mumkit.optimal_mums(6)
        self.q6 = mumkit.conjugate_mums(self.p6)
        self.iso = mumkit.isotropic(3, self.ALPHA)
        self.pool = [mumkit.random_density(6, self.draw_seed()) for _ in range(self.POOL)]
        self.pool_next = 0

    def next_round(self) -> list[Op]:
        st = self.pool[self.pool_next % self.POOL]
        self.pool_next += 1
        exact_rd = j_fidelity_form(st.rho, 6, optimal_kappa(6))
        return [
            self._op("isotropic d=3", self.iso, self.p3, self.q3,
                     j_isotropic(3, optimal_kappa(3), self.ALPHA)),
            self._op("random_density d=6", st, self.p6, self.q6, exact_rd),
        ]

    def _op(self, label, state, pset, qset, exact) -> Op:
        seed = self.draw_seed()
        index = self.calls
        self.calls += 1
        d = state.d
        shots = self.SHOTS // (d + 1)

        def call():
            return mumkit.simulate_counts(state, pset, qset, shots, seed)

        def check(est):
            if len(est.counts) != d + 1:
                return f"{label}: {len(est.counts)} settings, expected {d + 1}"
            for g in est.counts:
                if int(np.sum(g)) != shots:
                    return f"{label} seed={seed}: counts sum to {int(np.sum(g))}"
            self.checked += 1
            if abs(est.j_estimate - exact) <= 5.0 * est.std_error:
                self.within += 1
            if self.seed == DEFAULT_SEED and index < len(self.FROZEN):
                if counts_digest(est.counts) != self.FROZEN[index]:
                    return f"call {index}: counts digest differs from the frozen stream"
            return None

        return Op(label, call, check, units=shots * (d + 1))

    def run_failures(self) -> list[str]:
        if self.checked and self.within < 0.95 * self.checked:
            return [f"only {self.within}/{self.checked} estimates within 5 sigma of exact J"]
        return []


class CliArtifacts(Workload):
    """A fixed command script through in-process ``run_cli``, one pass per round.

    Generation and verification at large d, the max-t bisection, JSON
    writes beside reads, state files, detection, the PPT oracle and two
    figure-data sweeps.  Each pass draws its own seeded state parameters.
    """

    name = "cli_artifacts"
    unit = "commands"
    ISO_SWEEP = ("isotropic", "6", "0:1:0.01")
    BELL_SWEEP = ("bell-diagonal", "5", "0.04:1:0.003")
    FROZEN_CSV = {
        "sweep_iso.csv": "34f542abefae2ca1097197899474fc40a052cabcf29ee30616f685d2d630f60d",
        "sweep_bell.csv": "d8eb96b6326c84669bbed88755f03865df005160dffa3002e2367f5353d49dcc",
    }

    def setup(self):
        os.makedirs(self.dir, exist_ok=True)

    def path(self, name: str) -> str:
        return os.path.join(self.dir, name)

    def next_round(self) -> list[Op]:
        alpha6 = self.draw_unit()
        sep_seed = self.draw_seed()
        alpha7 = self.draw_unit()
        c = 0.3 + 0.6 * self.draw_unit()
        p_grid = np.full((5, 5), (1.0 - c) / 24)
        p_grid[0, 0] = c
        with open(self.path("bell_p.json"), "w", encoding="utf-8") as fh:
            json.dump(p_grid.tolist(), fh)

        ops = []
        for d in (6, 10, 16):
            ops.append(self._cmd(f"gen-basis d={d}", ["gen-basis", "--d", str(d)],
                                 f"basis{d}.json"))
            ops.append(self._verify(f"basis{d}.json", "operator-basis"))
        for d in (6, 10, 16):
            ops.append(self._cmd(f"gen-mums d={d}", ["gen-mums", "--d", str(d)], f"mums{d}.json"))
            ops.append(self._verify(f"mums{d}.json", "mum-set"))
        ops.append(self._cmd("gen-mums --max-t d=6", ["gen-mums", "--max-t", "--d", "6"],
                             "mums6_maxt.json", self._check_max_t))
        ops.append(self._cmd("gen-mub d=7", ["gen-mub", "--d", "7"], "mub7.json"))
        ops.append(self._verify("mub7.json", "mub-set"))
        ops.append(self._cmd("gen-state isotropic d=6",
                             ["gen-state", "--family", "isotropic", "--d", "6",
                              "--alpha", repr(alpha6)], "iso6.json"))
        ops.append(self._verify("iso6.json", "bipartite-state"))
        ops.append(self._cmd("gen-state random-separable d=4",
                             ["gen-state", "--family", "random-separable", "--d", "4",
                              "--seed", str(sep_seed)], "sep4.json"))
        j_iso = j_isotropic(6, optimal_kappa(6), alpha6)
        ops.append(self._cmd(
            "detect mum", ["detect", "--state", self.path("iso6.json"), "--criterion", "mum"],
            "detect_mum.json",
            lambda o: _fail(abs(o["value"] - j_iso) <= TOL,
                            f"isotropic J {o['value']!r}, closed form {j_iso!r}")))
        ops.append(self._cmd(
            "detect correlation",
            ["detect", "--state", self.path("sep4.json"), "--criterion", "correlation"],
            "detect_corr.json",
            lambda o: _fail(o["value"] <= 3.0 / 8.0 + TOL and o["verdict"] == "inconclusive",
                            f"separable state flagged by the correlation criterion: {o!r}")))
        # PT of the isotropic state has eigenvalues (1-a)/d^2 +- a/d
        ppt_min = (1.0 - alpha6) / 36.0 - alpha6 / 6.0
        ops.append(self._cmd(
            "oracle-ppt", ["oracle-ppt", "--state", self.path("iso6.json")], "ppt.json",
            lambda o: _fail(abs(o["min_eigenvalue"] - ppt_min) <= TOL
                            and o["is_ppt"] == (ppt_min >= -1e-10),
                            f"PPT oracle {o!r}, expected min eigenvalue {ppt_min!r}")))
        i_mub = 8.0 * (alpha7 + (1.0 - alpha7) / 7.0)
        ops.append(self._cmd(
            "detect mub d=7", ["detect", "--family", "isotropic", "--d", "7",
                               "--alpha", repr(alpha7), "--criterion", "mub"], "detect_mub.json",
            lambda o: _fail(abs(o["value"] - i_mub) <= TOL,
                            f"MUB criterion {o['value']!r}, closed form {i_mub!r}")))
        j_low = c * optimal_kappa(5) * 6.0
        ops.append(self._cmd(
            "detect bell-choice d=5",
            ["detect", "--family", "bell-diagonal", "--d", "5", "--p", self.path("bell_p.json"),
             "--pairing", "bell-choice"], "detect_bell.json",
            lambda o: _fail(o["value"] >= j_low - TOL,
                            f"Bell-choice J {o['value']!r} below c kappa (d+1) = {j_low!r}")))
        for (family, d, param), name in ((self.ISO_SWEEP, "sweep_iso.csv"),
                                         (self.BELL_SWEEP, "sweep_bell.csv")):
            ops.append(self._cmd(f"sweep {family} d={d}",
                                 ["sweep", "--family", family, "--d", d, "--param", param],
                                 name, self._check_csv(name), parse=False))
        return ops

    def _run(self, argv: list[str]):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = mumkit.cli.run_cli(argv)
        return rc, buf.getvalue()

    def _cmd(self, label, argv, out_name, check_output=None, parse=True) -> Op:
        """A command writing ``out_name``; ``check_output`` gets its parsed JSON
        (or its path, with ``parse=False``)."""
        path = self.path(out_name)
        argv = argv + ["-o", path]

        def check(out):
            rc, _ = out
            if rc != 0:
                return f"{label}: exit {rc}"
            if check_output is None:
                return None
            if parse:
                with open(path, encoding="utf-8") as fh:
                    return check_output(json.load(fh))
            return check_output(path)

        return Op(label, lambda: self._run(argv), check)

    def _verify(self, name, kind) -> Op:
        argv = ["verify", self.path(name)]

        def check(out):
            rc, text = out
            report = json.loads(text)
            return _fail(rc == 0 and report["passed"] is True and report["kind"] == kind,
                         f"verify {name}: exit {rc}, {text.strip()[:200]}")

        return Op(f"verify {name}", lambda: self._run(argv), check)

    def _check_max_t(self, obj):
        d = 6
        t_opt = math.sqrt((optimal_kappa(d) - 1.0 / d) / ((1.0 + math.sqrt(d)) ** 2 * (d - 1)))
        return _fail(obj["t"] >= t_opt - TOL, f"max-t {obj['t']!r} below the optimal t {t_opt!r}")

    def _check_csv(self, name):
        def check(path):
            with open(path, "rb") as fh:
                digest = hashlib.sha256(fh.read()).hexdigest()
            return _fail(digest == self.FROZEN_CSV[name], f"{name} digest {digest}")

        return check


WORKLOADS = {w.name: w for w in (SeparableScan, ShotSim, CliArtifacts)}
