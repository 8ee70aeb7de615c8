"""Bipartite state factories, partial transpose, PPT check.

States live on C^d (x) C^d with the first factor major: the composite
index of |i> (x) |j> is i*d + j.  All factories validate Hermiticity
(1e-12), unit trace (1e-10) and positivity (1e-10).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .linalg import as_stack, require_hermitian
from .operator_basis import weyl_operators
from .reporting import VerificationReport, min_eigenvalues, worst
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


def _make_state(d: int, rho: np.ndarray) -> BipartiteState:
    state = BipartiteState(d=d, rho=rho)
    rho = require_hermitian(state.rho, what="density matrix")
    tr = complex(np.trace(rho))
    if abs(tr - 1.0) > TRACE_TOL:
        raise ValueError(f"density matrix trace {tr} is not 1")
    min_ev = float(np.linalg.eigvalsh(rho).min())
    if min_ev < -PSD_TOL:
        raise ValueError(f"density matrix is not PSD (min eigenvalue {min_ev:.3e})")
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
    for i in range(d):
        v[i * d + i] = 1.0 / np.sqrt(d)
    return _read_only(np.outer(v, v.conj()))


@functools.lru_cache(maxsize=1)
def _bell_terms(d: int) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """|Phi_st><Phi_st| for (s, t) in row-major order, built once per d, read-only.

    Each term is (flat indices, values) of its d^2 non-zero entries in the
    d^2 x d^2 matrix, computed as (W_st (x) I) |Phi+><Phi+| (W_st (x) I)^H.
    The dense products are formed once here so that a mixture adds exactly
    the same values a dense sum of these products would.
    """
    phi = _phi_plus(d)
    eye = np.eye(d, dtype=complex)
    terms = []
    for row in weyl_operators(d):
        for w in row:
            u = np.kron(w, eye)
            term = (u @ phi @ u.conj().T).ravel()
            idx = np.flatnonzero(term)
            terms.append((_read_only(idx), _read_only(term[idx])))
    return tuple(terms)


def max_entangled(d: int) -> BipartiteState:
    """Projector onto (1/sqrt(d)) sum_i |ii>."""
    return _make_state(d, _phi_plus(d).copy())


def isotropic(d: int, alpha: float) -> BipartiteState:
    """alpha |Phi+><Phi+| + (1 - alpha) I / d^2."""
    if not (0.0 <= alpha <= 1.0):
        raise ValueError(f"alpha must lie in [0, 1], got {alpha!r}")
    rho = alpha * _phi_plus(d) + (1.0 - alpha) * np.eye(d * d, dtype=complex) / d ** 2
    return _make_state(d, rho)


def _probability_grid(p, d: int) -> np.ndarray:
    """p as a d x d float array of finite, non-negative weights summing to 1."""
    p = np.asarray(p, dtype=float)
    if p.shape != (d, d):
        raise ValueError(f"probability grid must be {d} x {d}, got {p.shape}")
    # NaN passes both comparisons below, so it is refused first
    if not np.isfinite(p).all():
        raise ValueError("probability grid must be finite")
    if p.min() < 0.0:
        raise ValueError(f"probabilities must be non-negative, min is {float(p.min())!r}")
    if abs(p.sum() - 1.0) > 1e-12:
        raise ValueError(f"probabilities must sum to 1, got {float(p.sum())!r}")
    return p


def bell_diagonal(d: int, p) -> BipartiteState:
    """Mixture sum_{s,t} p[s,t] |Phi_st><Phi_st| of Weyl-displaced Bell states."""
    p = _probability_grid(p, d)
    rho = np.zeros(d ** 4, dtype=complex)
    for weight, (idx, vals) in zip(p.ravel(), _bell_terms(d)):
        if weight != 0.0:
            rho[idx] += weight * vals
    return _make_state(d, rho.reshape(d * d, d * d))


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
        rho += w[i] * np.outer(np.kron(a, b), np.kron(a, b).conj())
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
    d = state.d
    r4 = state.rho.reshape(d, d, d, d)
    return r4.transpose(0, 3, 2, 1).reshape(d * d, d * d)


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


def ppt_check(state: BipartiteState, tol: float = 1e-10) -> PptResult:
    """Minimum eigenvalue of the partial transpose; PPT iff it is >= -tol.

    A negative result certifies entanglement for any d.  PPT implies
    separability only where the criterion is exact (the isotropic family
    and 2 (x) 2 systems); elsewhere treat a PPT verdict as a necessary
    condition.
    """
    pt = partial_transpose(state)
    min_ev = float(np.linalg.eigvalsh(pt).min())
    return PptResult(min_eigenvalue=min_ev, is_ppt=bool(min_ev >= -tol))
