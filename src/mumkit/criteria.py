"""Measurement-based separability criteria and their closed-form relatives.

The central quantity is the paired coincidence sum

    J(rho) = sum_{b=1}^{d+1} sum_{n=1}^{d} Tr((P_n^(b) (x) Q_n^(b)) rho)

over two measurement sets with equal purity kappa.  Separable states
obey J <= 1 + kappa, so any larger value certifies entanglement.

J is evaluated as Tr(W rho) with the witness W = sum_{b,n} P_n^(b) (x) Q_n^(b).
With rho realigned into R, Tr((A (x) B) rho) = vec(A) @ R @ vec(B), so J
is one inner product of R with the realigned witness P^T Q, where the
rows of P and Q are the flattened elements.  The correlation-matrix
trace is the same form with the operator basis on both sides, the
unbiased-bases sum the same form on the bases' rank-one projectors
(kappa = 1) paired with their conjugates, and each setting's joint
distribution is P_b @ R @ Q_b^T.  Under the conjugate pairing J also has
the fidelity form

    J = (d+1)/d + ((d kappa - 1)/(d - 1)) (d F - 1/d),  F = <Phi+|rho|Phi+>.

The module also provides the correlation-matrix identity that ties J
to Tr(T), the Bell-diagonal pairing that realizes the c kappa (d+1)
lower bound, and a finite-shot estimator of J.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .linalg import require_hermitian, trace_product
from .mub import BasisSet, projectors, verify_mub
from .mum import MumSet, conjugate_mums, rotate_mums
from .operator_basis import OperatorBasis, gell_mann_basis, weyl_operator
from .reporting import worst
from .rng import Xoshiro256
from .states import BipartiteState, _probability_grid

VERDICT_TOL = 1e-9
_KAPPA_MATCH_TOL = 1e-9
_IMAG_TOL = 1e-10


@dataclass(frozen=True)
class DetectionReport:
    """Outcome of one criterion evaluation.

    The verdict is entangled iff value > bound + tolerance; boundary
    states therefore report inconclusive, matching the non-strict
    separable inequality.
    """

    criterion: str
    value: float
    bound: float
    verdict: str
    tolerance: float
    d: int
    kappa: float | None = None
    params: dict = field(default_factory=dict)


def _verdict(value: float, bound: float, tol: float) -> str:
    return "entangled" if value > bound + tol else "inconclusive"


def _report(criterion: str, value: float, bound: float, tol: float, d: int,
            **extra) -> DetectionReport:
    """One criterion's report; ``extra`` sets ``kappa`` or ``params``."""
    return DetectionReport(criterion=criterion, value=value, bound=bound,
                           verdict=_verdict(value, bound, tol), tolerance=tol, d=d, **extra)


def _realigned(state: BipartiteState) -> np.ndarray:
    """R with Tr((A (x) B) rho) = vec(A) @ R @ vec(B) for d x d operators A, B.

    R[(a, b), (c, e)] = rho[(b, e), (a, c)].
    """
    d = state.d
    return state.rho.reshape(d, d, d, d).transpose(2, 0, 3, 1).reshape(d * d, d * d)


def _check_pairing(state: BipartiteState, pset: MumSet, qset: MumSet) -> None:
    if not (state.d == pset.d == qset.d):
        raise ValueError(
            f"dimension mismatch: state d={state.d}, measurement sets d={pset.d}, d={qset.d}"
        )
    if abs(pset.kappa - qset.kappa) > _KAPPA_MATCH_TOL:
        raise ValueError(
            f"measurement sets must share the purity parameter: {pset.kappa!r} vs {qset.kappa!r}"
        )


def _contraction(a: np.ndarray, b: np.ndarray) -> Callable[[BipartiteState], float]:
    """sum_u Tr((A_u (x) B_u) rho) as a function of the state, its witness formed once.

    ``a`` and ``b`` are (k, d^2) stacks of the operators' row-major vec.
    W = sum_u A_u (x) B_u realigns to a.T @ b, so Tr(W rho) is one
    np.vdot of its conjugate with the realigned state.  A sweep pairs many
    states with one pair, and the d^2 x d^2 product is most of the cost
    of one value.  A non-real value means a non-Hermitian input and
    raises ValueError.
    """
    w = (a.T @ b).conj()

    def value(state: BipartiteState) -> float:
        total = complex(np.vdot(w, _realigned(state)))
        if abs(total.imag) > _IMAG_TOL:
            raise ValueError(
                f"witness contraction accumulated a non-real value (imag {total.imag:.3e}); "
                "inputs violate Hermiticity"
            )
        return float(total.real)

    return value


def _j_evaluator(pset: MumSet, qset: MumSet) -> Callable[[BipartiteState], float]:
    """J(state) for one measurement pair; the caller checks each state (:func:`_check_pairing`)."""
    d2 = pset.d * pset.d
    return _contraction(pset.elements.reshape(-1, d2), qset.elements.reshape(-1, d2))


def j_value(state: BipartiteState, pset: MumSet, qset: MumSet) -> float:
    """The coincidence sum J(rho) for a pair of measurement sets."""
    _check_pairing(state, pset, qset)
    return _j_evaluator(pset, qset)(state)


def mum_criterion(
    state: BipartiteState, pset: MumSet, qset: MumSet, tol: float = VERDICT_TOL
) -> DetectionReport:
    """Separability test J(rho) <= 1 + kappa."""
    return _report("mum", j_value(state, pset, qset), 1.0 + pset.kappa, tol, state.d,
                   kappa=pset.kappa)


def j_isotropic_closed(d: int, kappa: float, alpha: float) -> float:
    """J of the isotropic state under conjugate pairing: (d+1)(alpha kappa + (1-alpha)/d)."""
    return (d + 1) * (alpha * kappa + (1.0 - alpha) / d)


def mub_criterion(
    state: BipartiteState, bases: BasisSet, tol: float = VERDICT_TOL
) -> DetectionReport:
    """Unbiased-bases test I_m(rho) <= 1 + (m-1)/d.

    The second subsystem is measured in the conjugated basis, the
    pairing under which the maximally entangled state shows perfect
    correlations in every basis (and the isotropic value takes the form
    m(alpha + (1-alpha)/d)).  I_m is the witness contraction of
    :func:`j_value` on the bases' rank-one projectors paired with their
    conjugates; it needs no complete set.
    """
    if bases.m < 2:
        raise ValueError(f"need at least two bases, got {bases.m}")
    if bases.d != state.d:
        raise ValueError(f"dimension mismatch: state d={state.d}, bases d={bases.d}")
    report = verify_mub(bases, tol=1e-10)
    if not report.passed:
        raise ValueError(f"bases failed MUB verification: {report.summary()}")
    p = projectors(bases).reshape(-1, state.d * state.d)
    return _report("mub", _contraction(p, p.conj())(state), 1.0 + (bases.m - 1) / bases.d,
                   tol, state.d, params={"m": bases.m})


def correlation_bound(d: int) -> float:
    """Separable bound on the correlation-matrix trace: (d-1)/(2d)."""
    return (d - 1) / (2.0 * d)


def correlation_matrix_trace(state: BipartiteState, basis: OperatorBasis) -> float:
    """Diagonal sum of the correlation matrix of rho over the operator basis.

    Normalization: Tr(T) = (1/2) sum_u Tr(rho F_u (x) F_u), the
    convention under which separable states obey
    Tr(T) <= (d-1)/(2d) and J(rho, P, P) = (d+1)/d + (2(d kappa - 1)/(d-1)) Tr(T).
    The raw orthonormal-basis diagonal sum is twice the returned value.
    """
    if basis.d != state.d:
        raise ValueError(f"dimension mismatch: state d={state.d}, basis d={basis.d}")
    fs = basis.elements.reshape(-1, state.d * state.d)
    return 0.5 * _contraction(fs, fs)(state)


def correlation_criterion(state: BipartiteState, tol: float = VERDICT_TOL) -> DetectionReport:
    """Correlation-matrix test Tr(T) <= (d-1)/(2d) over the plain Gell-Mann basis."""
    d = state.d
    return _report("correlation", correlation_matrix_trace(state, gell_mann_basis(d)),
                   correlation_bound(d), tol, d)


def j_correlation_identity(
    state: BipartiteState, pset: MumSet, basis: OperatorBasis
) -> tuple[float, float]:
    """Both sides of J(rho, P, P) = (d+1)/d + (2(d kappa - 1)/(d-1)) Tr(T).

    The measurement set must have been built from the supplied basis
    (same elements in the same order, known t); otherwise the expansion
    does not apply and a ValueError is raised.
    """
    if pset.t is None or pset.source_basis is None:
        raise ValueError("measurement set does not carry construction provenance")
    src = pset.source_basis
    # worst() reads a non-finite entry as inf, so a NaN basis is refused too
    if src.d != basis.d or worst(src.elements - basis.elements) > 1e-12:
        raise ValueError("measurement set was not built from the supplied operator basis")
    d = state.d
    lhs = j_value(state, pset, pset)
    rhs = (d + 1) / d + (2.0 * (d * pset.kappa - 1.0) / (d - 1)) * correlation_matrix_trace(
        state, basis
    )
    return lhs, rhs


def bell_detection_threshold(d: int, kappa: float) -> float:
    """Bell weight c where the lower bound c kappa (d+1) crosses 1 + kappa: (1 + 1/kappa)/(d+1)."""
    return (1.0 + 1.0 / kappa) / (d + 1)


def bell_choice(pset: MumSet, p) -> tuple[MumSet, float]:
    """Partner measurements tuned to a Bell-diagonal mixture.

    Picks (s*, t*) = argmax p (ties to the lexicographically smallest
    index) and returns (conjugate of the U_{s*,t*}^H-rotated set, c with
    c = p[s*, t*]).  With this pairing the coincidence sum of the
    Bell-diagonal state is at least c kappa (d+1): the dominant Bell
    component contributes exactly c kappa (d+1) and every other
    component is a trace of a product of PSD operators.
    """
    p = _probability_grid(p, pset.d)
    s, t = np.unravel_index(int(np.argmax(p)), p.shape)
    u = weyl_operator(pset.d, s, t)
    qset = conjugate_mums(rotate_mums(pset, u.conj().T))
    return qset, float(p[s, t])


def pure_identity_check(pure: np.ndarray, pset: MumSet) -> tuple[float, float]:
    """Both sides of sum_{b,n} Tr(P_n^(b) rho)^2 = 1 + kappa for pure rho."""
    rho = require_hermitian(pure, what="pure state")
    if rho.shape != (pset.d, pset.d):
        raise ValueError(f"pure state must be {pset.d} x {pset.d}, got {rho.shape}")
    purity = float(trace_product(rho, rho).real)
    if abs(purity - 1.0) > 1e-9:
        raise ValueError(f"input is mixed: Tr(rho^2) = {purity!r}")
    probs = np.einsum("kij,ji->k", pset.elements.reshape(-1, pset.d, pset.d), rho).real
    lhs = 0.0
    for p in probs.tolist():  # in order: sum() compensates on Python 3.12+
        lhs += p ** 2
    return lhs, 1.0 + pset.kappa


def setting_distributions(
    state: BipartiteState, pset: MumSet, qset: MumSet
) -> list[np.ndarray]:
    """Joint outcome distributions q_b[n, n'] = Tr((P_n^(b) (x) Q_n'^(b)) rho)."""
    _check_pairing(state, pset, qset)
    r = _realigned(state)
    out = []
    for b in range(state.d + 1):
        q = pset.elements[b].reshape(state.d, -1) @ r @ qset.elements[b].reshape(state.d, -1).T
        if float(np.abs(q.imag).max()) > _IMAG_TOL:
            raise ValueError(f"setting {b + 1} produced complex outcome probabilities")
        q = q.real
        if q.min() < -1e-12:
            raise ValueError(
                f"setting {b + 1} produced negative outcome probability {q.min():.3e}; "
                "an upstream invariant is broken"
            )
        out.append(q)
    return out


@dataclass(frozen=True)
class ShotEstimate:
    """Finite-statistics estimate of J with per-setting coincidence counts."""

    j_estimate: float
    std_error: float
    shots_per_setting: int
    seed: int
    counts: tuple[np.ndarray, ...]


def simulate_counts(
    state: BipartiteState,
    pset: MumSet,
    qset: MumSet,
    shots_per_setting: int,
    seed: int,
    tol: float = 1e-10,
) -> ShotEstimate:
    """Sample joint outcomes per setting and estimate J from coincidences.

    One seeded stream of ``shots_per_setting * (d+1)`` uniforms is drawn
    and cut back to back, one slice per setting.  Each shot is an
    inverse-CDF draw from the setting's d^2 joint outcome distribution:
    a uniform u falls on outcome j when cdf[j-1] <= u < cdf[j].  Each
    slice is sorted once, so that the count of outcome j is the number
    of draws below cdf[j] less the number below cdf[j-1], read off by one
    ``searchsorted`` of the d^2 CDF values into the sorted draws.  These
    are the counts that binning every draw on its own gives, including
    zero for an outcome of probability 0.  J is estimated as the summed
    coincidence fraction, with a standard error from per-setting
    binomial variances added in quadrature.  A fixed seed reproduces the
    counts exactly.

    Each setting's probabilities must sum to 1 within ``tol``; a state
    checked at a looser tolerance (the CLI's ``--tol``) passes that one.
    """
    if shots_per_setting < 1:
        raise ValueError(f"need at least one shot per setting, got {shots_per_setting}")
    dists = setting_distributions(state, pset, qset)
    d = state.d
    probs = np.clip(np.reshape(dists, (d + 1, d * d)), 0.0, None)
    totals = probs.sum(axis=1)
    off = np.abs(totals - 1.0) > tol
    if off.any():
        total = float(totals[off.argmax()])
        raise ValueError(f"outcome probabilities sum to {total!r}, expected 1")
    cdf = np.cumsum(probs / totals[:, None], axis=1)
    cdf[:, -1] = 1.0
    # one stream for all settings, consumed back to back: setting k takes
    # draws [k * shots_per_setting, (k + 1) * shots_per_setting)
    draws = Xoshiro256(seed).uniforms(shots_per_setting * (d + 1))
    sorted_draws = np.sort(draws.reshape(d + 1, shots_per_setting), axis=1)
    below = np.array([np.searchsorted(row, c, side="left") for row, c in zip(sorted_draws, cdf)])
    counts = np.diff(below, axis=1, prepend=0).reshape(d + 1, d, d)
    j_estimate = 0.0
    var = 0.0
    for hits in np.trace(counts, axis1=1, axis2=2).tolist():
        p_hat = hits / shots_per_setting
        j_estimate += p_hat
        var += p_hat * (1.0 - p_hat) / shots_per_setting
    return ShotEstimate(
        j_estimate=j_estimate,
        std_error=float(np.sqrt(var)),
        shots_per_setting=shots_per_setting,
        seed=seed,
        counts=tuple(counts),
    )
