"""Mutually unbiased bases: prime-dimension construction and checks.

A complete set of d+1 MUBs is built here only for prime d (computational
basis plus d quadratic Gauss-sum bases for odd primes, the three Pauli
eigenbases for d = 2).  Composite dimensions raise
:class:`CompositeDimensionError`; the measurement construction in
:mod:`mumkit.mum` covers those.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import as_stack
from .mum import MumSet
from .reporting import VerificationReport, worst


class CompositeDimensionError(ValueError):
    """Raised when a complete MUB set is requested for composite d."""


@dataclass(frozen=True)
class BasisSet:
    """m orthonormal bases of C^d, one complex (m, d, d) array; each holds its vectors as columns."""

    d: int
    bases: np.ndarray

    def __post_init__(self):
        d = self.d
        object.__setattr__(self, "bases", as_stack(
            self.bases, lambda m: (m, d, d) if d >= 2 else None,
            f"a basis set for d={d} is an (m, d, d) array of matrices with d >= 2"))

    @property
    def m(self) -> int:
        return len(self.bases)


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def mub_prime(d: int) -> BasisSet:
    """Complete set of d+1 mutually unbiased bases for prime d.

    For odd prime d the extra bases have components
    <l | j_k> = zeta^(k l^2 + j l) / sqrt(d) with zeta = exp(2 pi i / d);
    for d = 2 the three Pauli eigenbases are returned.
    """
    if d < 2:
        raise ValueError(f"dimension must be at least 2, got {d}")
    if not _is_prime(d):
        raise CompositeDimensionError(
            f"no complete MUB construction for composite d={d}; "
            "use the mutually unbiased measurement construction (mumkit.mum.build_mums), "
            "which exists for every dimension"
        )
    bases = [np.eye(d, dtype=complex)]
    if d == 2:
        s = 1 / np.sqrt(2)
        bases.append(np.array([[s, s], [s, -s]], dtype=complex))
        bases.append(np.array([[s, s], [1j * s, -1j * s]], dtype=complex))
        return BasisSet(d=2, bases=bases)
    zeta = np.exp(2j * np.pi / d)
    # basis k holds <l | j_k> at row l, column j
    k, l, j = np.ogrid[:d, :d, :d]
    return BasisSet(d=d, bases=bases + list(zeta ** ((k * l * l + j * l) % d) / np.sqrt(d)))


@np.errstate(invalid="ignore", over="ignore")
def verify_mub(bs: BasisSet, tol: float = 1e-10) -> VerificationReport:
    """Check per-basis unitarity and pairwise unbiasedness |<b_i|c_j>|^2 = 1/d.

    A set with no bases fails: both defects are inf.
    """
    if not bs.m:
        return VerificationReport(
            kind="mub-set", tol=tol, defects={"unitarity": math.inf, "unbiasedness": math.inf}
        )
    d = bs.d
    eye = np.eye(d)
    # columns of every basis side by side; one product per basis gives its
    # overlaps with itself and with every later basis
    vectors = np.concatenate(bs.bases, axis=1)
    unitarity = unbias = 0.0
    for i, b in enumerate(bs.bases):
        g = b.conj().T @ vectors[:, i * d:]
        unitarity = max(unitarity, worst(g[:, :d] - eye))
        unbias = max(unbias, worst(np.abs(g[:, d:]) ** 2 - 1.0 / d))
    return VerificationReport(
        kind="mub-set",
        tol=tol,
        defects={"unitarity": unitarity, "unbiasedness": unbias},
    )


def tensor_product_bases(a: BasisSet, b: BasisSet) -> BasisSet:
    """Pair the first min(m_a, m_b) bases of two sets into product bases.

    If both inputs are MUB sets, the products are mutually unbiased on
    the composite space: cross overlaps multiply to 1/(d_a d_b).  This is
    how unbiased triples are obtained for composite dimensions such as
    d = 6, where no complete set is known.
    """
    m = min(a.m, b.m)
    return BasisSet(d=a.d * b.d, bases=[np.kron(a.bases[k], b.bases[k]) for k in range(m)])


def mub_triple_d6() -> BasisSet:
    """Three mutually unbiased bases of C^6 (2 x 3 product construction)."""
    return tensor_product_bases(mub_prime(2), mub_prime(3))


def mums_from_mubs(bs: BasisSet) -> MumSet:
    """Lift m >= 1 unbiased bases into m settings of their rank-one projectors (kappa = 1)."""
    report = verify_mub(bs)
    if not report.passed:
        raise ValueError(f"basis set failed MUB verification: {report.summary()}")
    v = bs.bases.transpose(0, 2, 1)
    return MumSet(d=bs.d, elements=v[..., :, None] * v[..., None, :].conj(), kappa=1.0, t=None)
