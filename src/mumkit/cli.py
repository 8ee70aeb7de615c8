"""Command-line front end: generation, verification, detection, sweeps, shots.

Exit codes: 0 on success, 2 on validation errors (bad flags, malformed
files, dimension or range problems), 3 when a verification fails.
Errors are a single machine-parsable line on stderr.
"""

from __future__ import annotations

import argparse
import functools
import gc
import itertools
import os
import stat
import sys
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from . import serialize
from .criteria import (
    DetectionReport,
    VERDICT_TOL,
    _verdict,
    bell_choice,
    correlation_bound,
    correlation_matrix_trace,
    j_value,
    mub_criterion,
    mum_criterion,
    simulate_counts,
)
from .mub import mub_prime, verify_mub
from .mum import (
    MumSet,
    build_mums,
    conjugate_mums,
    max_valid_t,
    optimal_kappa,
    t_from_kappa,
    verify_mums,
)
from .operator_basis import gell_mann_basis, grouped_gell_mann_basis, verify_orthonormal_basis
from .states import (
    BipartiteState,
    bell_diagonal,
    bell_diagonal_states,
    isotropic,
    isotropic_states,
    max_entangled,
    ppt_check,
    ppt_minima,
    random_separable,
    verify_state,
)

MAX_GRID_POINTS = 10 ** 6
# A sweep builds its states in blocks of about this many complex
# entries (512 KiB), 52 points at d = 5.
_SWEEP_BLOCK_ENTRIES = 2 ** 15


class CliError(Exception):
    """Validation problem; maps to exit code 2."""


class VerificationFailure(Exception):
    """A verifier rejected its payload; maps to exit code 3."""


@dataclass(frozen=True)
class SweepSpec:
    """Grid description for figure-data sweeps."""

    family: str
    d: int
    start: float
    stop: float
    step: float
    kappa: float | str = "optimal"
    pairing: str | None = None
    tol: float = VERDICT_TOL

    def __post_init__(self):
        if self.family not in ("isotropic", "bell-diagonal"):
            raise CliError(f"unsupported sweep family {self.family!r}")
        if self.d < 2:
            raise CliError(f"dimension must be at least 2, got {self.d}")
        if not np.isfinite([self.start, self.stop, self.step]).all():
            raise CliError(f"--param start, stop and step must be finite, "
                           f"got {self.start!r}:{self.stop!r}:{self.step!r}")
        if self.step <= 0:
            raise CliError(f"sweep step must be positive, got {self.step!r}")
        if self.start > self.stop:
            raise CliError(f"sweep start {self.start!r} exceeds stop {self.stop!r}")
        if self._points() > MAX_GRID_POINTS:
            raise CliError("sweep grid exceeds the limit of 1e6 points")
        # a Bell-diagonal row is the bound c kappa (d+1) that only bell-choice guarantees
        pairings = ("conjugate", "self") if self.family == "isotropic" else ("bell-choice",)
        if self.pairing is None:
            object.__setattr__(self, "pairing", pairings[0])
        elif self.pairing not in pairings:
            raise CliError(f"{self.family} sweeps support pairing {' or '.join(pairings)}, "
                           f"got {self.pairing!r}")

    def _points(self) -> float:
        """The grid's point count, inf when the span over the step overflows."""
        return np.floor((self.stop - self.start) / self.step + 1e-9) + 1

    def grid(self) -> list[float]:
        if self.start == self.stop:
            return [self.start]
        return [self.start + i * self.step for i in range(int(self._points()))]

    def resolve_kappa(self) -> float:
        """The sweep's purity, refused (ValueError) outside [1/d, 1] as t_from_kappa refuses it."""
        if self.kappa == "optimal":
            return optimal_kappa(self.d)
        kappa = float(self.kappa)
        t_from_kappa(self.d, kappa)
        return kappa


def _mums_for(d: int, kappa=None, t=None, use_max_t=False, layout: str = "grouped") -> MumSet:
    basis = grouped_gell_mann_basis(d) if layout == "grouped" else gell_mann_basis(d)
    if use_max_t:
        return build_mums(basis, max_valid_t(basis))
    if t is not None:
        return build_mums(basis, float(t))
    k = optimal_kappa(d) if kappa is None else float(kappa)
    return build_mums(basis, t_from_kappa(d, k))


def _pair_for(pset: MumSet, pairing: str, p_grid=None):
    if pairing == "self":
        return pset
    if pairing == "conjugate":
        return conjugate_mums(pset)
    if pairing == "bell-choice":
        if p_grid is None:
            raise CliError("pairing bell-choice needs a bell-diagonal probability grid")
        qset, _ = bell_choice(pset, p_grid)
        return qset
    raise CliError(f"unknown pairing {pairing!r}")


def emit_figure_data(spec: SweepSpec) -> str:
    """CSV text for a parameter sweep, one row per grid point.

    Columns: family,d,kappa,param,value,bound,verdict,ppt_min_eig.  For
    isotropic sweeps the value is J under the sweep's pairing; for
    Bell-diagonal sweeps it is the lower bound c kappa (d+1) that the
    bell-choice pairing guarantees.
    """
    d = spec.d
    kappa = spec.resolve_kappa()
    bound = 1.0 + kappa
    rows = ["family,d,kappa,param,value,bound,verdict,ppt_min_eig"]
    grid = spec.grid()
    if spec.family == "isotropic":
        pset = _mums_for(d, kappa=kappa)
        qset = _pair_for(pset, spec.pairing)
        bad = [alpha for alpha in grid if not (0.0 <= alpha <= 1.0 + 1e-12)]
        if bad:
            raise CliError(f"isotropic parameter must lie in [0, 1], got {bad[0]!r}")
    elif spec.start < 1.0 / d ** 2 - 1e-12 or spec.stop > 1.0 + 1e-12:
        raise CliError(f"bell-diagonal parameter must lie in [1/d^2, 1] = [{1.0 / d ** 2!r}, 1]")
    block = max(1, _SWEEP_BLOCK_ENTRIES // d ** 4)
    for start in range(0, len(grid), block):
        params = grid[start:start + block]
        x = np.array(params)
        if spec.family == "isotropic":
            rhos = isotropic_states(d, np.minimum(x, 1.0))
            values = [j_value(BipartiteState(d, rho), pset, qset) for rho in rhos]
        else:
            # each grid is x at (0, 0) and an equal share of 1 - x elsewhere, normalized
            p = np.empty((len(x), d, d))
            p[:] = ((1.0 - x) / (d * d - 1))[:, None, None]
            p[:, 0, 0] = x
            p /= p.reshape(len(x), d * d).sum(axis=1)[:, None, None]
            rhos = bell_diagonal_states(d, p)
            values = [c * kappa * (d + 1) for c in params]
        for param, value, ppt in zip(params, values, ppt_minima(d, rhos).tolist()):
            rows.append(_row(spec.family, d, kappa, param, value, bound, spec.tol, ppt))
    return "\n".join(rows) + "\n"


def _row(family, d, kappa, param, value, bound, tol, ppt) -> str:
    verdict = _verdict(value, bound, tol)
    return ",".join(
        [family, str(d), repr(float(kappa)), repr(float(param)), repr(float(value)),
         repr(float(bound)), verdict, repr(float(ppt))]
    )


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CliError(message)


@functools.cache
def _build_parser() -> _Parser:
    """The argument parser, built on first use and then shared by every run_cli call.

    Not built at import, so importing the module stays cheap.  Parsing
    leaves the parser unchanged: each call gets a fresh namespace filled
    from the defaults, and errors raise CliError instead of exiting.
    """
    parser = _Parser(prog="mumkit", description=__doc__)
    parser.add_argument("--tol", type=float, default=VERDICT_TOL,
                        help="tolerance threaded to verifiers and verdicts (default 1e-9)")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_output(p):
        p.add_argument("-o", "--output", default=None, help="output file (default stdout)")

    p = sub.add_parser("gen-basis", help="emit a Gell-Mann operator basis as JSON")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--layout", choices=("plain", "grouped"), default="plain")
    add_output(p)

    p = sub.add_parser("gen-mub", help="emit the d+1 unbiased bases for prime d")
    p.add_argument("--d", type=int, required=True)
    add_output(p)

    p = sub.add_parser("gen-mums", help="emit a measurement set as JSON")
    p.add_argument("--d", type=int, required=True)
    g = p.add_mutually_exclusive_group()
    g.add_argument("--kappa", type=float, default=None)
    g.add_argument("--t", type=float, default=None)
    g.add_argument("--max-t", action="store_true")
    p.add_argument("--layout", choices=("plain", "grouped"), default="grouped")
    add_output(p)

    p = sub.add_parser("gen-state", help="emit a bipartite state as JSON")
    p.add_argument("--family", required=True,
                   choices=("isotropic", "bell-diagonal", "max-entangled", "random-separable"))
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--p", default=None, help="JSON file with a d x d probability grid")
    p.add_argument("--seed", dest="state_seed", type=int, default=None)
    p.add_argument("--k", type=int, default=8, help="product terms for random-separable")
    p.set_defaults(state=None)
    add_output(p)

    p = sub.add_parser("verify", help="verify a generated JSON artifact")
    p.add_argument("file")

    p = sub.add_parser("detect", help="evaluate a separability criterion")
    _add_state_args(p)
    p.add_argument("--criterion", choices=("mum", "mub", "correlation"), default="mum")
    p.add_argument("--pairing", choices=("self", "conjugate", "bell-choice"),
                   default="conjugate")
    g = p.add_mutually_exclusive_group()
    g.add_argument("--kappa", type=float, default=None)
    g.add_argument("--t", type=float, default=None)
    g.add_argument("--max-t", action="store_true")
    add_output(p)

    p = sub.add_parser("sweep", help="emit figure data over a parameter grid")
    p.add_argument("--family", required=True, choices=("isotropic", "bell-diagonal"))
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--param", required=True, help="grid as start:stop:step")
    p.add_argument("--kappa", default="optimal")
    p.add_argument("--pairing", choices=("self", "conjugate", "bell-choice"), default=None)
    add_output(p)

    p = sub.add_parser("simulate", help="finite-shot estimate of J")
    _add_state_args(p, state_seed_flag="--state-seed")
    p.add_argument("--pairing", choices=("self", "conjugate"), default="conjugate")
    g = p.add_mutually_exclusive_group()
    g.add_argument("--kappa", type=float, default=None)
    g.add_argument("--t", type=float, default=None)
    p.add_argument("--shots", type=int, required=True)
    p.add_argument("--seed", type=int, required=True, help="shot sampling seed")
    add_output(p)

    p = sub.add_parser("oracle-ppt", help="minimum eigenvalue of the partial transpose")
    _add_state_args(p)
    add_output(p)

    return parser


def _add_state_args(p, state_seed_flag: str = "--seed"):
    p.add_argument("--state", default=None, help="state JSON file")
    p.add_argument("--family", default=None,
                   choices=("isotropic", "bell-diagonal", "max-entangled", "random-separable"))
    p.add_argument("--d", type=int, default=None)
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--p", default=None, help="JSON file with a d x d probability grid")
    p.add_argument(state_seed_flag, dest="state_seed", type=int, default=None,
                   help="seed for random state families")
    p.add_argument("--k", type=int, default=8)


def _load_p_grid(path: str, d: int) -> np.ndarray:
    p = serialize.grid_from_obj(serialize.load_path(path))
    if p.shape != (d, d):
        raise CliError(f"probability grid in {path} must be {d} x {d}, got {p.shape}")
    return p


def _state_from_args(args) -> tuple[BipartiteState, np.ndarray | None]:
    if args.state is not None:
        state = serialize.state_from_obj(serialize.load_path(args.state))
        report = verify_state(state)
        if not report.passed:
            raise VerificationFailure(report.summary())
        return state, None
    if args.family is None or args.d is None:
        raise CliError("need either --state FILE or --family with --d")
    d = args.d
    if args.family == "isotropic":
        if args.alpha is None:
            raise CliError("isotropic states need --alpha")
        return isotropic(d, args.alpha), None
    if args.family == "bell-diagonal":
        if args.p is None:
            raise CliError("bell-diagonal states need --p FILE")
        p = _load_p_grid(args.p, d)
        return bell_diagonal(d, p), p
    if args.family == "max-entangled":
        return max_entangled(d), None
    if args.state_seed is None:
        raise CliError("random-separable states need an explicit seed")
    return random_separable(d, args.k, args.state_seed), None


def _write(pieces: Iterable[str], output: str | None) -> None:
    """Write text, given in pieces, to stdout, or overwrite the file ``output`` in place.

    The first piece is taken before anything is opened, so an encoder
    that checks its value first raises with no file created or changed.
    Each piece is encoded and written as it comes; no whole-document
    string or byte copy is built.

    The file is opened without O_TRUNC and cut to the written length
    afterwards.  On ext4 (default ``auto_da_alloc``) truncating a file
    that holds data on open makes the kernel flush it, which blocked
    each rewrite for tens of milliseconds; writing over the old bytes
    does not.  A symlink is followed, the inode and mode are kept, and
    a device such as /dev/null, which cannot be truncated, is only
    written.
    """
    pieces = iter(pieces)
    first = next(pieces, "")
    if output is None:
        sys.stdout.write(first)
        for piece in pieces:
            sys.stdout.write(piece)
        return
    fd = os.open(output, os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0), 0o666)
    try:
        written = 0
        for piece in itertools.chain((first,), pieces):
            data = memoryview(piece.encode("utf-8"))
            done = 0
            while done < len(data):
                done += os.write(fd, data[done:])
            written += done
        if stat.S_ISREG(os.fstat(fd).st_mode):
            os.ftruncate(fd, written)
    finally:
        os.close(fd)


def _cmd_gen_basis(args) -> int:
    basis = grouped_gell_mann_basis(args.d) if args.layout == "grouped" else gell_mann_basis(args.d)
    _write(serialize.iterencode(basis), args.output)
    return 0


def _cmd_gen_mub(args) -> int:
    _write(serialize.iterencode(mub_prime(args.d)), args.output)
    return 0


def _cmd_gen_mums(args) -> int:
    ms = _mums_for(args.d, kappa=args.kappa, t=args.t, use_max_t=args.max_t,
                   layout=args.layout)
    _write(serialize.iterencode(ms), args.output)
    return 0


def _cmd_gen_state(args) -> int:
    state, _ = _state_from_args(args)
    _write(serialize.iterencode(state), args.output)
    return 0


def _cmd_verify(args) -> int:
    payload = serialize.load_path(args.file)
    tol = args.tol
    if isinstance(payload, list):
        report = verify_orthonormal_basis(serialize.operator_basis_from_obj(payload), tol)
    elif isinstance(payload, dict) and "elements" in payload:
        report = verify_mums(serialize.mums_from_obj(payload), tol)
    elif isinstance(payload, dict) and "bases" in payload:
        report = verify_mub(serialize.basis_set_from_obj(payload), tol)
    elif isinstance(payload, dict) and "rho" in payload:
        report = verify_state(serialize.state_from_obj(payload), tol)
    else:
        raise CliError(f"unrecognized payload in {args.file}")
    sys.stdout.write(serialize.dumps(serialize.verification_report_to_obj(report)))
    return 0 if report.passed else 3


def _cmd_detect(args) -> int:
    state, p_grid = _state_from_args(args)
    d = state.d
    if args.criterion == "mub":
        report = mub_criterion(state, mub_prime(d), tol=args.tol)
    elif args.criterion == "correlation":
        value = correlation_matrix_trace(state, gell_mann_basis(d))
        bound = correlation_bound(d)
        report = DetectionReport(
            criterion="correlation", value=value, bound=bound,
            verdict=_verdict(value, bound, args.tol), tolerance=args.tol, d=d,
        )
    else:
        pset = _mums_for(d, kappa=args.kappa, t=args.t, use_max_t=args.max_t)
        qset = _pair_for(pset, args.pairing, p_grid)
        report = mum_criterion(state, pset, qset, tol=args.tol)
    _write(serialize.iterencode(serialize.report_to_obj(report)), args.output)
    return 0


def _cmd_sweep(args) -> int:
    kappa = args.kappa if args.kappa == "optimal" else float(args.kappa)
    parts = args.param.split(":")
    if len(parts) != 3:
        raise CliError(f"--param must be start:stop:step, got {args.param!r}")
    start, stop, step = (float(x) for x in parts)
    spec = SweepSpec(family=args.family, d=args.d, start=start, stop=stop, step=step,
                     kappa=kappa, pairing=args.pairing, tol=args.tol)
    _write((emit_figure_data(spec),), args.output)
    return 0


def _cmd_simulate(args) -> int:
    state, _ = _state_from_args(args)
    pset = _mums_for(state.d, kappa=args.kappa, t=args.t)
    qset = _pair_for(pset, args.pairing)
    est = simulate_counts(state, pset, qset, args.shots, args.seed)
    exact = j_value(state, pset, qset)
    obj = {
        "j_estimate": float(est.j_estimate),
        "std_error": float(est.std_error),
        "j_exact": float(exact),
        "bound": 1.0 + float(pset.kappa),
        "kappa": float(pset.kappa),
        "d": int(state.d),
        "shots_per_setting": int(est.shots_per_setting),
        "seed": int(est.seed),
        "counts": [[[int(c) for c in row] for row in grid] for grid in est.counts],
    }
    _write(serialize.iterencode(obj), args.output)
    return 0


def _cmd_oracle_ppt(args) -> int:
    state, _ = _state_from_args(args)
    result = ppt_check(state)
    obj = {"min_eigenvalue": float(result.min_eigenvalue), "is_ppt": bool(result.is_ppt)}
    _write(serialize.iterencode(obj), args.output)
    return 0


_COMMANDS = {
    "gen-basis": _cmd_gen_basis,
    "gen-mub": _cmd_gen_mub,
    "gen-mums": _cmd_gen_mums,
    "gen-state": _cmd_gen_state,
    "verify": _cmd_verify,
    "detect": _cmd_detect,
    "sweep": _cmd_sweep,
    "simulate": _cmd_simulate,
    "oracle-ppt": _cmd_oracle_ppt,
}


def run_cli(argv: list[str]) -> int:
    """Run one command and return its exit code, with the cyclic collector paused.

    The pause matters for parsing: ``json.load`` of a d = 16 payload
    builds an acyclic tree of about 70k small ``[re, im]`` lists and
    starts about 100 collections that free nothing.  Writing builds no
    such tree, since matrix payloads are encoded from their arrays.  The
    collector's previous state is restored on the way out.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        args = _build_parser().parse_args(argv)
        return _COMMANDS[args.command](args)
    except SystemExit as exc:  # argparse --help
        return int(exc.code or 0)
    except VerificationFailure as exc:
        sys.stderr.write(f"error: verification failed: {exc}\n")
        return 3
    except (CliError, ValueError, OSError, KeyError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    finally:
        if was_enabled:
            gc.enable()


def main() -> None:
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
