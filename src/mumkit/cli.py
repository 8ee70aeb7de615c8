"""Command-line front end: generation, verification, detection, sweeps, shots.

Exit codes: 0 on success, 2 on validation errors (bad flags, malformed
files, dimension or range problems) and failed allocations, 3 when a
verification fails.
Errors are a single machine-parsable line on stderr.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import os
import stat
import sys
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from . import serialize
from .criteria import (
    VERDICT_TOL,
    DetectionReport,
    _j_evaluator,
    _verdict,
    bell_choice,
    correlation_criterion,
    j_value,
    mub_criterion,
    mum_criterion,
    simulate_counts,
)
from .mub import BasisSet, mub_prime, mub_triple_d6, verify_mub
from .mum import (
    MumSet,
    build_mums,
    conjugate_mums,
    max_valid_t,
    optimal_kappa,
    t_from_kappa,
    verify_mums,
)
from .operator_basis import (
    OperatorBasis,
    gell_mann_basis,
    grouped_gell_mann_basis,
    verify_orthonormal_basis,
)
from .reporting import VerificationReport
from .states import (
    BipartiteState,
    _ppt_result,
    bell_diagonal,
    bell_diagonal_states,
    isotropic,
    isotropic_states,
    max_entangled,
    ppt_minima,
    random_separable,
    verify_state,
)

MAX_GRID_POINTS = 10 ** 6
# A sweep builds its states in blocks of about this many complex
# entries (512 KiB), 52 points at d = 5.
_SWEEP_BLOCK_ENTRIES = 2 ** 15


class CliError(ValueError):
    """Validation problem; maps to exit code 2."""


class VerificationFailure(Exception):
    """A verifier rejected its payload; maps to exit code 3."""


@dataclass(frozen=True)
class SweepSpec:
    """Grid description for figure-data sweeps; construction checks all but ``tol``.

    ``kappa`` ("optimal", a number or its text) is stored resolved, and
    refused (ValueError) outside [1/d, 1] as t_from_kappa refuses it.
    Two checks come later, in :func:`emit_figure_data`: an isotropic grid
    point outside [0, 1], and an isotropic sweep's purity that no
    measurement set at this d reaches (PositivityError from the build).
    """

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
        kappa = optimal_kappa(self.d) if self.kappa == "optimal" else _number(
            self.kappa, f"--kappa must be a number or 'optimal', got {self.kappa!r}")
        t_from_kappa(self.d, kappa)
        object.__setattr__(self, "kappa", kappa)
        lo = 1.0 / self.d ** 2
        if self.family == "bell-diagonal" and (self.start < lo - 1e-12 or self.stop > 1.0 + 1e-12):
            raise CliError(f"bell-diagonal parameter must lie in [1/d^2, 1] = [{lo!r}, 1]")

    def _points(self) -> float:
        """The grid's point count, inf when the span over the step overflows."""
        return np.floor((self.stop - self.start) / self.step + 1e-9) + 1

    def grid(self) -> list[float]:
        if self.start == self.stop:
            return [self.start]
        return [self.start + i * self.step for i in range(int(self._points()))]


def _number(text, refusal: str) -> float:
    """``text`` as a float, else CliError(refusal), which names the flag it came from."""
    try:
        return float(text)
    except ValueError:
        raise CliError(refusal) from None


def _basis_for(d: int, layout: str):
    return {"plain": gell_mann_basis, "grouped": grouped_gell_mann_basis}[layout](d)


def _mums_for(d: int, kappa=None, t=None, use_max_t=False, layout: str = "grouped") -> MumSet:
    basis = _basis_for(d, layout)
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


def emit_figure_data(spec: SweepSpec) -> str:
    """CSV text for a parameter sweep, one row per grid point.

    Columns: family,d,kappa,param,value,bound,verdict,ppt_min_eig.  For
    isotropic sweeps the value is J under the sweep's pairing; for
    Bell-diagonal sweeps it is the lower bound c kappa (d+1) that the
    bell-choice pairing guarantees.
    """
    d, kappa = spec.d, spec.kappa
    bound = 1.0 + kappa
    rows = ["family,d,kappa,param,value,bound,verdict,ppt_min_eig"]
    grid = spec.grid()
    if spec.family == "isotropic":
        pset = _mums_for(d, kappa=kappa)
        j_of = _j_evaluator(pset, _pair_for(pset, spec.pairing))
        bad = [alpha for alpha in grid if not (0.0 <= alpha <= 1.0 + 1e-12)]
        if bad:
            raise CliError(f"isotropic parameter must lie in [0, 1], got {bad[0]!r}")
    block = max(1, _SWEEP_BLOCK_ENTRIES // d ** 4)
    for start in range(0, len(grid), block):
        params = grid[start:start + block]
        x = np.minimum(params, 1.0)  # a point tolerated above 1 is built at 1
        if spec.family == "isotropic":
            rhos = isotropic_states(d, x)
            values = [j_of(BipartiteState(d, rho)) for rho in rhos]
        else:
            # each grid is x at (0, 0) and an equal share of 1 - x elsewhere, normalized
            p = np.empty((len(x), d, d))
            p[:] = ((1.0 - x) / (d * d - 1))[:, None, None]
            p[:, 0, 0] = x
            p /= p.reshape(len(x), d * d).sum(axis=1)[:, None, None]
            rhos = bell_diagonal_states(d, p)
            values = [c * kappa * (d + 1) for c in x.tolist()]
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
    _add_purity_args(p)
    p.add_argument("--layout", choices=("plain", "grouped"), default="grouped")
    add_output(p)

    p = sub.add_parser("gen-state", help="emit a bipartite state as JSON")
    _add_state_args(p, from_file=False)
    add_output(p)

    p = sub.add_parser("verify", help="verify a generated JSON artifact")
    p.add_argument("file")
    p.set_defaults(output=None)  # the report goes to stdout

    p = sub.add_parser("detect", help="evaluate a separability criterion")
    _add_state_args(p)
    p.add_argument("--criterion", choices=("mum", "mub", "correlation"), default="mum")
    p.add_argument("--pairing", choices=("self", "conjugate", "bell-choice"), default=None)
    _add_purity_args(p)
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
    _add_purity_args(p, max_t=False)
    p.add_argument("--shots", type=int, required=True)
    p.add_argument("--seed", type=int, required=True, help="shot sampling seed")
    add_output(p)

    p = sub.add_parser("oracle-ppt", help="minimum eigenvalue of the partial transpose")
    _add_state_args(p)
    add_output(p)

    return parser


def _add_purity_args(p, max_t: bool = True):
    g = p.add_mutually_exclusive_group()
    g.add_argument("--kappa", type=float, default=None)
    g.add_argument("--t", type=float, default=None)
    if max_t:
        g.add_argument("--max-t", action="store_true")


def _add_state_args(p, state_seed_flag: str = "--seed", from_file: bool = True):
    """The flags that name a state; without ``from_file``, no --state and --family, --d required."""
    if from_file:
        p.add_argument("--state", default=None, help="state JSON file")
    p.add_argument("--family", default=None, required=not from_file,
                   choices=("isotropic", "bell-diagonal", "max-entangled", "random-separable"))
    p.add_argument("--d", type=int, default=None, required=not from_file)
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--p", default=None, help="JSON file with a d x d probability grid")
    p.add_argument(state_seed_flag, dest="state_seed", type=int, default=None,
                   help="seed for random state families")
    p.add_argument("--k", type=int, default=None,
                   help="product terms for random-separable (default 8)")
    p.set_defaults(state=None, state_seed_flag=state_seed_flag)


def _load_p_grid(path: str, d: int) -> np.ndarray:
    p = serialize.grid_from_obj(serialize.load_path(path))
    if p.shape != (d, d):
        raise CliError(f"probability grid in {path} must be {d} x {d}, got {p.shape}")
    return p


def _refuse_ignored(source: str, given: dict, takes: tuple[str, ...] = ()) -> None:
    """Refuse the first flag of ``given`` that is set (not None) and not among ``takes``."""
    for flag, value in given.items():
        if value is not None and flag not in takes:
            raise CliError(f"{source} does not take {flag}")


def _state_from_args(args) -> tuple[BipartiteState, np.ndarray | None]:
    """The state the flags name; a flag the chosen state ignores is refused."""
    if args.state is None and (args.family is None or args.d is None):
        raise CliError("need either --state FILE or --family with --d")
    seed_flag = args.state_seed_flag
    given = {"--family": args.family, "--d": args.d, "--alpha": args.alpha, "--p": args.p,
             seed_flag: args.state_seed, "--k": args.k}
    if args.state is not None:
        source, takes = "--state", ()
    else:
        source = f"--family {args.family}"
        takes = ("--family", "--d") + {"isotropic": ("--alpha",), "bell-diagonal": ("--p",),
                                       "random-separable": (seed_flag, "--k")}.get(args.family, ())
    _refuse_ignored(source, given, takes)
    if args.state is not None:
        state = serialize.value_from_obj(serialize.load_path(args.state))
        if not isinstance(state, BipartiteState):
            raise CliError(f"--state {args.state} is not a state payload")
        report = verify_state(state, args.tol)
        if not report.passed:
            raise VerificationFailure(report.summary())
        # every command reads the matrix verify_state judged: the file's Hermitian part
        return BipartiteState(state.d, 0.5 * (state.rho + state.rho.conj().T)), None
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
    return random_separable(d, 8 if args.k is None else args.k, args.state_seed), None


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
    pieces = itertools.chain((next(pieces, ""),), pieces)
    if output is None:
        sys.stdout.writelines(pieces)
        return
    fd = os.open(output, os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0), 0o666)
    with open(fd, "wb") as fh:
        for piece in pieces:
            fh.write(piece.encode("utf-8"))
        if stat.S_ISREG(os.fstat(fd).st_mode):
            fh.truncate()


def _cmd_gen_basis(args) -> OperatorBasis:
    return _basis_for(args.d, args.layout)


def _cmd_gen_mub(args) -> BasisSet:
    return mub_prime(args.d)


def _cmd_gen_mums(args) -> MumSet:
    return _mums_for(args.d, kappa=args.kappa, t=args.t, use_max_t=args.max_t,
                     layout=args.layout)


def _cmd_gen_state(args) -> BipartiteState:
    return _state_from_args(args)[0]


def _cmd_verify(args) -> VerificationReport:
    value = serialize.value_from_obj(serialize.load_path(args.file))
    # looked up per call, so that a verifier rebound on this module is the one called
    verifiers = {OperatorBasis: verify_orthonormal_basis, BasisSet: verify_mub,
                 MumSet: verify_mums, BipartiteState: verify_state}
    return verifiers[type(value)](value, args.tol)


def _cmd_detect(args) -> DetectionReport:
    if args.criterion != "mum":
        # only the mum criterion builds its measurement pair from these flags
        _refuse_ignored(f"--criterion {args.criterion}",
                        {"--pairing": args.pairing, "--kappa": args.kappa, "--t": args.t,
                         "--max-t": args.max_t or None})
    state, p_grid = _state_from_args(args)
    d = state.d
    if args.criterion == "mub":
        # no complete set is known at d = 6; the paper compares with the 2 x 3 product triple
        return mub_criterion(state, mub_triple_d6() if d == 6 else mub_prime(d), tol=args.tol)
    if args.criterion == "correlation":
        return correlation_criterion(state, tol=args.tol)
    pset = _mums_for(d, kappa=args.kappa, t=args.t, use_max_t=args.max_t)
    qset = _pair_for(pset, args.pairing or "conjugate", p_grid)
    return mum_criterion(state, pset, qset, tol=args.tol)


def _cmd_sweep(args) -> str:
    parts = args.param.split(":")
    if len(parts) != 3:
        raise CliError(f"--param must be start:stop:step, got {args.param!r}")
    start, stop, step = (_number(x, f"--param start, stop and step must be numbers, "
                                    f"got {args.param!r}") for x in parts)
    return emit_figure_data(SweepSpec(family=args.family, d=args.d, start=start, stop=stop,
                                      step=step, kappa=args.kappa, pairing=args.pairing,
                                      tol=args.tol))


def _cmd_simulate(args) -> dict:
    state, _ = _state_from_args(args)
    pset = _mums_for(state.d, kappa=args.kappa, t=args.t)
    qset = _pair_for(pset, args.pairing)
    est = simulate_counts(state, pset, qset, args.shots, args.seed, tol=args.tol)
    return {
        "j_estimate": float(est.j_estimate),
        "std_error": float(est.std_error),
        "j_exact": float(j_value(state, pset, qset)),
        "bound": float(mum_criterion(state, pset, qset, tol=args.tol).bound),
        "kappa": float(pset.kappa),
        "d": int(state.d),
        "shots_per_setting": int(est.shots_per_setting),
        "seed": int(est.seed),
        "counts": [[[int(c) for c in row] for row in grid] for grid in est.counts],
    }


def _cmd_oracle_ppt(args) -> dict:
    state, _ = _state_from_args(args)
    result = _ppt_result(state.d, state.rho, args.tol)
    return {"min_eigenvalue": float(result.min_eigenvalue), "is_ppt": bool(result.is_ppt)}


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
    """Run one command, write its result and pick the exit code."""
    try:
        args = _build_parser().parse_args(argv)
        if not 0.0 <= args.tol < np.inf:
            raise CliError(f"--tol must be finite and non-negative, got {args.tol!r}")
        value = _COMMANDS[args.command](args)
        _write((value,) if isinstance(value, str) else serialize.iterencode(value), args.output)
        return 3 if isinstance(value, VerificationReport) and not value.passed else 0
    except SystemExit as exc:  # argparse --help
        return int(exc.code or 0)
    except VerificationFailure as exc:
        sys.stderr.write(f"error: verification failed: {exc}\n")
        return 3
    except (ValueError, OSError, KeyError, MemoryError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


def main() -> None:
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
