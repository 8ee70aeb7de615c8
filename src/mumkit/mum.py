"""Mutually unbiased measurements: construction, purity algebra, checks.

Given an operator basis {F_{n,b}} (see :mod:`mumkit.operator_basis`),
the d+1 measurements are

    F^(b)   = sum_{n=1}^{d-1} F_{n,b}
    F_n^(b) = F^(b) - (d + sqrt(d)) F_{n,b}     for n < d
    F_d^(b) = (1 + sqrt(d)) F^(b)
    P_n^(b) = I/d + t F_n^(b)

with t small enough that every P_n^(b) is positive semidefinite.  The
purity parameter is kappa = 1/d + t^2 (1 + sqrt(d))^2 (d - 1); the
defining trace relations are

    Tr(P_n^(b))            = 1
    Tr(P_n^(b) P_n'^(b'))  = 1/d                      for b != b'
    Tr(P_n^(b) P_n'^(b))   = kappa          (n = n')
                           = (1-kappa)/(d-1) (n != n')
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import as_stack
from .operator_basis import OperatorBasis, grouped_gell_mann_basis, verify_orthonormal_basis
from .reporting import VerificationReport, min_eigenvalues, operator_defects, worst


class PositivityError(ValueError):
    """Raised when a requested t makes some measurement operator indefinite."""

    def __init__(self, d: int, t: float, n: int, b: int, min_eigenvalue: float):
        self.n = n
        self.b = b
        self.min_eigenvalue = min_eigenvalue
        super().__init__(
            f"measurement operator (n={n}, b={b}) is not PSD at t={t!r} for d={d}: "
            f"min eigenvalue {min_eigenvalue:.6e}"
        )


@dataclass(frozen=True)
class MumSet:
    """d+1 measurements of d POVM elements each, one (d+1, d, d, d) array.

    ``elements[b-1][n-1]`` is P_n^(b).  Any nested sequence of that shape
    is accepted and stored as a complex array.
    """

    d: int
    elements: np.ndarray
    kappa: float
    t: float | None = None
    source_basis: OperatorBasis | None = None

    def __post_init__(self):
        d = self.d
        object.__setattr__(self, "elements", as_stack(
            self.elements, (d + 1, d, d, d) if d >= 2 else None,
            f"a measurement set for d={d} is a (d+1, d, d, d) array of operators with d >= 2"))


def optimal_kappa(d: int) -> float:
    """The purity reachable with a Gell-Mann operator basis: 1/d + 2/d^2."""
    if d < 2:
        raise ValueError(f"dimension must be at least 2, got {d}")
    return 1.0 / d + 2.0 / d ** 2


def kappa_from_t(d: int, t: float) -> float:
    """kappa = 1/d + t^2 (1 + sqrt(d))^2 (d - 1)."""
    return 1.0 / d + t * t * (1.0 + np.sqrt(d)) ** 2 * (d - 1)


def t_from_kappa(d: int, kappa: float) -> float:
    """Construction parameter t >= 0 giving the requested purity (the positive root)."""
    if not (1.0 / d <= kappa <= 1.0):
        raise ValueError(f"kappa must lie in [1/{d}, 1], got {kappa!r}")
    return float(np.sqrt((kappa - 1.0 / d) / ((1.0 + np.sqrt(d)) ** 2 * (d - 1))))


_BUILD_PSD_TOL = 1e-12


def _measurement_directions(basis: OperatorBasis) -> np.ndarray:
    """F_n^(b) as a (d+1, d, d, d) array indexed [b-1][n-1]."""
    d = basis.d
    fam = basis.families
    fb = fam.sum(axis=1)
    f = np.empty((d + 1, d, d, d), dtype=complex)
    f[:, :-1] = fb[:, None] - (d + np.sqrt(d)) * fam
    f[:, -1] = (1.0 + np.sqrt(d)) * fb
    return f


def _verified(basis: OperatorBasis) -> OperatorBasis:
    report = verify_orthonormal_basis(basis)
    if not report.passed:
        raise ValueError(f"operator basis failed verification: {report.summary()}")
    return basis


def build_mums(basis: OperatorBasis, t: float) -> MumSet:
    """Build the d+1 measurements from a verified operator basis at parameter t.

    Raises :class:`PositivityError` (reporting the worst offender) if any
    element dips below -1e-12 in its spectrum.
    """
    if not np.isfinite(t):
        raise ValueError(f"t must be finite, got {t!r}")
    d = _verified(basis).d
    # in place: at d = 16 each temporary of this shape is 1 MiB
    rows = _measurement_directions(basis)
    rows *= t
    rows += np.eye(d, dtype=complex) / d
    lam = min_eigenvalues(rows.reshape(-1, d, d)).reshape(d + 1, d)
    b, n = np.unravel_index(np.argmin(lam), lam.shape)
    if lam[b, n] < -_BUILD_PSD_TOL:
        raise PositivityError(d, t, int(n) + 1, int(b) + 1, float(lam[b, n]))
    return MumSet(
        d=d,
        elements=rows,
        kappa=float(kappa_from_t(d, t)),
        t=float(t),
        source_basis=basis,
    )


def optimal_mums(d: int) -> MumSet:
    """Measurements at the optimal purity 1/d + 2/d^2 (grouped Gell-Mann basis)."""
    return build_mums(grouped_gell_mann_basis(d), t_from_kappa(d, optimal_kappa(d)))


def max_valid_t(basis: OperatorBasis) -> float:
    """Largest t > 0 keeping all measurement operators PSD, in closed form.

    P_n^(b) = I/d + t F_n^(b) has smallest eigenvalue 1/d + t lambda, with
    lambda the smallest eigenvalue of F_n^(b), so every P stays PSD up to
    t = 1 / (d |lambda_min|), lambda_min taken over all n and b.
    """
    d = _verified(basis).d
    lam = float(min_eigenvalues(np.reshape(_measurement_directions(basis), (-1, d, d))).min())
    if not lam < 0.0:
        raise ValueError(f"no measurement direction has a negative eigenvalue (min {lam!r}); "
                         "t is unbounded")
    return 1.0 / (d * -lam)


def verify_mums(ms: MumSet, tol: float = 1e-9) -> VerificationReport:
    """Check the defining trace relations, POVM completeness, PSD, Hermiticity.

    The purity is inferred as the mean of same-(n, b) purities; the
    report carries it (with its spread) and checks it against the stored
    kappa.  A stored t fixes kappa through :func:`kappa_from_t`, so
    ``stored_kappa`` also holds their mismatch.
    """
    d = ms.d
    eye = np.eye(d)
    k = operator_defects(ms.elements, cross_target=1.0 / d)
    purities = np.diagonal(k.same, axis1=1, axis2=2).real.ravel()
    kappa_inferred = float(np.mean(purities))
    stored = [kappa_inferred - ms.kappa]
    if ms.t is not None:
        stored.append(kappa_from_t(d, ms.t) - ms.kappa)
    off_target = (1.0 - kappa_inferred) / (d - 1)
    upper = np.triu_indices(d, 1)
    return VerificationReport(
        kind="mum-set",
        tol=tol,
        defects={
            "hermiticity": k.hermiticity,
            "psd": max(worst(np.minimum(min_eigenvalues(f), 0.0)) for f in ms.elements),
            "trace_one": worst(k.traces - 1.0),
            "completeness": worst(ms.elements.sum(axis=1) - eye),
            "cross_basis": k.cross,
            "purity_spread": worst(purities - kappa_inferred),
            "off_diagonal": worst(k.same[:, upper[0], upper[1]] - off_target),
            "stored_kappa": worst(stored),
        },
        details={"kappa_inferred": kappa_inferred},
    )


def _map_mums(ms: MumSet, f) -> MumSet:
    """``ms`` with f applied to its element array and to its source basis's elements."""
    basis = ms.source_basis
    if basis is not None:
        basis = OperatorBasis(d=basis.d, elements=f(basis.elements))
    return MumSet(d=ms.d, elements=f(ms.elements), kappa=ms.kappa, t=ms.t, source_basis=basis)


def conjugate_mums(ms: MumSet) -> MumSet:
    """Entrywise complex conjugate of every element; kappa is unchanged."""
    return _map_mums(ms, np.conj)


def rotate_mums(ms: MumSet, u: np.ndarray) -> MumSet:
    """Conjugate every element by a unitary u (to 1e-10): P -> u P u^H; kappa is unchanged."""
    u = np.asarray(u, dtype=complex)
    if u.shape != (ms.d, ms.d):
        raise ValueError(f"unitary must be {ms.d} x {ms.d}, got {u.shape}")
    if float(np.abs(u.conj().T @ u - np.eye(ms.d)).max()) > 1e-10:
        raise ValueError("rotation matrix is not unitary")
    uh = u.conj().T
    return _map_mums(ms, lambda a: u @ a @ uh)
