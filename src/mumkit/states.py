"""Bipartite state factories, partial transpose, PPT check.

States live on C^d (x) C^d with the first factor major: the composite
index of |i> (x) |j> is i*d + j.  All factories validate Hermiticity
(1e-12), unit trace (1e-10) and positivity (1e-10), and refuse a
non-finite entry as not Hermitian.  Positivity is decided by
:func:`mumkit.reporting.psd_minima`, and every eigenvalue reported (the
partial transposes of ``ppt_check`` and ``ppt_minima``, the ``psd``
defect of ``verify_state``) comes from
:func:`mumkit.reporting.min_eigenvalues`.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .linalg import HERMITIAN_TOL, as_stack, require_hermitian
from .operator_basis import weyl_operator
from .reporting import VerificationReport, min_eigenvalues, psd_minima, worst
from .rng import Xoshiro256

TRACE_TOL = 1e-10
PSD_TOL = 1e-10


@dataclass(frozen=True)
class BipartiteState:
    """Density matrix on a d (x) d system, one complex (d^2, d^2) array."""

    d: int
    rho: np.ndarray

    def __post_init__(self):
        d = self.d
        object.__setattr__(self, "rho", as_stack(
            self.rho, (d * d, d * d) if d >= 1 else None,
            f"a state for d={d} is a (d^2, d^2) density matrix with d >= 1"))


def _partial_transposes(d: int, rhos: np.ndarray) -> np.ndarray:
    """Transpose on the second factor of each matrix of a (K, d^2, d^2) stack."""
    return rhos.reshape(-1, d, d, d, d).transpose(0, 1, 4, 3, 2).reshape(-1, d * d, d * d)


@np.errstate(invalid="ignore")  # a non-finite entry is refused, not warned about
def _check_density_matrices(rhos: np.ndarray) -> None:
    """Hermiticity, unit trace and positivity of each matrix of a (K, n, n) stack, in order.

    Positivity comes from one :func:`mumkit.reporting.psd_minima` call
    over the whole stack, which reads -inf for a non-finite matrix and
    does not need Hermiticity known.  The first matrix that fails a check
    raises the message a single matrix gives.  A non-finite entry makes
    the Hermiticity defect NaN or inf, and the comparisons refuse NaN, so
    such a matrix fails as not Hermitian.
    """
    defects = np.abs(rhos - rhos.conj().swapaxes(-1, -2)).max(axis=(-2, -1)).tolist()
    traces = rhos.trace(axis1=-2, axis2=-1).tolist()
    min_eigs = psd_minima(rhos, PSD_TOL).tolist()
    for i, (defect, tr, min_ev) in enumerate(zip(defects, traces, min_eigs)):
        if not defect <= HERMITIAN_TOL:
            require_hermitian(rhos[i], what="density matrix")
        if not abs(tr - 1.0) <= TRACE_TOL:
            raise ValueError(f"density matrix trace {tr} is not 1")
        if min_ev < -PSD_TOL:
            raise ValueError(f"density matrix is not PSD (min eigenvalue {min_ev:.3e})")


def _make_state(d: int, rho: np.ndarray) -> BipartiteState:
    state = BipartiteState(d=d, rho=rho)
    _check_density_matrices(state.rho[None])
    return state


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@functools.lru_cache(maxsize=1)
def _phi_plus(d: int) -> np.ndarray:
    """|Phi+><Phi+| for |Phi+> = (1/sqrt(d)) sum_i |ii>, built once per d, read-only."""
    if d < 2:
        raise ValueError(f"dimension must be at least 2, got {d}")
    v = np.zeros(d * d, dtype=complex)
    v[::d + 1] = 1.0 / np.sqrt(d)
    return _read_only(np.outer(v, v.conj()))


@functools.lru_cache(maxsize=1)
def _bell_terms(d: int) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]:
    """|Phi_st><Phi_st| for (s, t) in row-major order, grouped by support, built once per d.

    Each term is the dense product (W_st (x) I) |Phi+><Phi+| (W_st (x) I)^H,
    formed once here, with d^2 non-zero entries in the d^2 x d^2 matrix.
    The d terms of one shift t share those entries, and the supports of
    two shifts are disjoint.  Each group is (flat indices, the (g, d^2)
    values of its terms in row-major order, their positions in p.ravel()),
    all read-only.
    """
    phi = _phi_plus(d)
    eye = np.eye(d, dtype=complex)
    groups: dict[bytes, tuple[np.ndarray, list, list]] = {}
    for j in range(d * d):
        u = np.kron(weyl_operator(d, *divmod(j, d)), eye)
        term = (u @ phi @ u.conj().T).ravel()
        idx = np.flatnonzero(term)
        group = groups.setdefault(idx.tobytes(), (idx, [], []))
        group[1].append(term[idx])
        group[2].append(j)
    return tuple((_read_only(idx), _read_only(np.array(vals)), _read_only(np.array(pos)))
                 for idx, vals, pos in groups.values())


def max_entangled(d: int) -> BipartiteState:
    """Projector onto (1/sqrt(d)) sum_i |ii>."""
    return _make_state(d, _phi_plus(d).copy())


def isotropic_states(d: int, alphas) -> np.ndarray:
    """alpha |Phi+><Phi+| + (1 - alpha) I / d^2 for each alpha, as a (K, d^2, d^2) stack.

    The first alpha outside [0, 1] raises the message :func:`isotropic` gives.
    """
    a = np.asarray(alphas, dtype=float).reshape(-1, 1, 1)
    for alpha in a.ravel().tolist():
        if not (0.0 <= alpha <= 1.0):
            raise ValueError(f"alpha must lie in [0, 1], got {alpha!r}")
    return a * _phi_plus(d) + (1.0 - a) * np.eye(d * d, dtype=complex) / d ** 2


def isotropic(d: int, alpha: float) -> BipartiteState:
    """alpha |Phi+><Phi+| + (1 - alpha) I / d^2."""
    return _make_state(d, isotropic_states(d, [alpha])[0])


def _probability_grids(p: np.ndarray) -> np.ndarray:
    """A (K, d, d) float stack of grids, each of finite, non-negative weights summing to 1.

    The grids are checked in order; the first that fails raises the
    message a single grid gives.
    """
    with np.errstate(invalid="ignore", over="ignore"):
        finite = np.isfinite(p).all(axis=(1, 2)).tolist()
        mins = p.min(axis=(1, 2)).tolist()
        sums = p.reshape(len(p), -1).sum(axis=1).tolist()
    for ok, low, total in zip(finite, mins, sums):
        # NaN passes both comparisons below, so it is refused first
        if not ok:
            raise ValueError("probability grid must be finite")
        if low < 0.0:
            raise ValueError(f"probabilities must be non-negative, min is {low!r}")
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"probabilities must sum to 1, got {total!r}")
    return p


def bell_diagonal_states(d: int, p) -> np.ndarray:
    """sum_{s,t} p[k,s,t] |Phi_st><Phi_st| for each grid of a (K, d, d) stack, as (K, d^2, d^2).

    The grids are checked in order as :func:`bell_diagonal` checks one,
    and the first that fails raises the message it would.  Each entry is
    the sum, from zero and in row-major order, of its terms' weighted
    values, so every matrix gets exactly the sums that adding the terms
    one by one gives.  A zero weight adds a signed zero to an entry that
    is never -0.0, which leaves it unchanged.
    """
    p = np.asarray(p, dtype=float)
    if p.ndim != 3 or p.shape[1:] != (d, d):
        raise ValueError(f"probability grids must be a K x {d} x {d} stack, got {p.shape}")
    k = len(p)
    weights = _probability_grids(p).reshape(k, d * d)
    rho = np.zeros((k, d ** 4), dtype=complex)
    for idx, vals, pos in _bell_terms(d):
        rho[:, idx] = np.add.reduce(weights[:, pos, None] * vals, axis=1, initial=0j)
    return rho.reshape(k, d * d, d * d)


def _probability_grid(p, d: int) -> np.ndarray:
    """p as a d x d float array of finite, non-negative weights summing to 1."""
    p = np.asarray(p, dtype=float)
    if p.shape != (d, d):
        raise ValueError(f"probability grid must be {d} x {d}, got {p.shape}")
    return _probability_grids(p[None])[0]


def bell_diagonal(d: int, p) -> BipartiteState:
    """Mixture sum_{s,t} p[s,t] |Phi_st><Phi_st| of Weyl-displaced Bell states."""
    return _make_state(d, bell_diagonal_states(d, _probability_grid(p, d)[None])[0])


def ppt_minima(d: int, rhos: np.ndarray) -> np.ndarray:
    """Each state's minimum partial-transpose eigenvalue, as :func:`ppt_check` gives it.

    ``rhos`` is a (K, d^2, d^2) stack.  Each is checked in order as a factory checks
    its state, the first that fails raising the message it would, so a non-finite state
    is refused as not Hermitian.  One :func:`mumkit.reporting.min_eigenvalues` call then
    covers the K partial transposes, whose eigenvalues are the result.
    """
    _check_density_matrices(rhos)
    return min_eigenvalues(_partial_transposes(d, rhos))


def random_pure(d: int, seed: int) -> np.ndarray:
    """Single-qudit pure density matrix from a seeded Gaussian vector."""
    gen = Xoshiro256(seed)
    psi = gen.complex_normals(d)
    psi /= np.linalg.norm(psi)
    return np.outer(psi, psi.conj())


def random_separable(d: int, k: int, seed: int) -> BipartiteState:
    """Mixture of k random pure product states with random weights.

    Weights are normalized unit-rate exponentials (uniform on the
    simplex); each term is an independent pure state pair drawn from the
    same stream, first factor then second.
    """
    if k < 1:
        raise ValueError(f"need at least one product term, got k={k}")
    gen = Xoshiro256(seed)
    w = gen.exponentials(k)
    w /= w.sum()
    rho = np.zeros((d * d, d * d), dtype=complex)
    for i in range(k):
        a = gen.complex_normals(d)
        a /= np.linalg.norm(a)
        b = gen.complex_normals(d)
        b /= np.linalg.norm(b)
        v = (a[:, None] * b).ravel()  # a (x) b
        rho += w[i] * np.outer(v, v.conj())
    return _make_state(d, rho)


def random_density(d: int, seed: int) -> BipartiteState:
    """Generic full-rank density matrix on d (x) d (normalized G G^H)."""
    gen = Xoshiro256(seed)
    n = d * d
    g = gen.complex_normals(n * n).reshape(n, n)
    rho = g @ g.conj().T
    rho /= np.trace(rho).real
    return _make_state(d, rho)


def partial_transpose(state: BipartiteState) -> np.ndarray:
    """Transpose on the second factor: ((i,j),(k,l)) -> ((i,l),(k,j))."""
    return _partial_transposes(state.d, state.rho[None])[0]


@np.errstate(invalid="ignore", over="ignore")
def verify_state(state: BipartiteState, tol: float = 1e-9) -> VerificationReport:
    """Check Hermiticity, unit trace and positivity of a loaded state."""
    rho = state.rho
    sym = 0.5 * (rho + rho.conj().T)
    return VerificationReport(
        kind="bipartite-state",
        tol=tol,
        defects={
            "hermiticity": worst(rho - rho.conj().T),
            "trace": worst(np.trace(rho) - 1.0),
            "psd": worst(np.minimum(min_eigenvalues(sym[None]), 0.0)),
        },
    )


@dataclass(frozen=True)
class PptResult:
    min_eigenvalue: float
    is_ppt: bool


def ppt_check(state: BipartiteState) -> PptResult:
    """Minimum eigenvalue of the partial transpose; PPT iff it is >= -PSD_TOL (1e-10).

    A negative result certifies entanglement for any d.  PPT implies
    separability only where the criterion is exact (the isotropic family
    and 2 (x) 2 systems); elsewhere treat a PPT verdict as a necessary
    condition.  A state with a non-finite entry raises ValueError.
    """
    if not np.isfinite(state.rho).all():
        raise ValueError("state has a non-finite entry")
    min_ev = float(min_eigenvalues(_partial_transposes(state.d, state.rho[None]))[0])
    return PptResult(min_eigenvalue=min_ev, is_ppt=bool(min_ev >= -PSD_TOL))
