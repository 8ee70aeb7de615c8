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

from .reporting import VerificationReport, worst


class CompositeDimensionError(ValueError):
    """Raised when a complete MUB set is requested for composite d."""


@dataclass(frozen=True)
class BasisSet:
    """m orthonormal bases of C^d; each matrix holds the basis vectors as columns."""

    d: int
    bases: tuple[np.ndarray, ...]

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
        return BasisSet(d=2, bases=tuple(bases))
    zeta = np.exp(2j * np.pi / d)
    for k in range(d):
        b = np.empty((d, d), dtype=complex)
        for j in range(d):
            for l in range(d):
                b[l, j] = zeta ** ((k * l * l + j * l) % d)
        bases.append(b / np.sqrt(d))
    return BasisSet(d=d, bases=tuple(bases))


@np.errstate(invalid="ignore", over="ignore")
def verify_mub(bs: BasisSet, tol: float = 1e-10) -> VerificationReport:
    """Check per-basis unitarity and pairwise unbiasedness |<b_i|c_j>|^2 = 1/d.

    A set with no bases fails: both defects are inf.
    """
    if not bs.bases:
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
    bases = tuple(np.kron(a.bases[k], b.bases[k]) for k in range(m))
    return BasisSet(d=a.d * b.d, bases=bases)


def mub_triple_d6() -> BasisSet:
    """Three mutually unbiased bases of C^6 (2 x 3 product construction)."""
    return tensor_product_bases(mub_prime(2), mub_prime(3))


def mums_from_mubs(bs: BasisSet, tol: float = 1e-10):
    """Lift a complete MUB set into rank-one projective measurements (kappa = 1)."""
    from .mum import MumSet  # local import to avoid a cycle

    d = bs.d
    if bs.m != d + 1:
        raise ValueError(f"need d+1 = {d + 1} bases to form a complete measurement set, got {bs.m}")
    report = verify_mub(bs, tol)
    if not report.passed:
        raise ValueError(f"basis set failed MUB verification: {report.summary()}")
    elements = tuple(
        tuple(np.outer(b[:, n], b[:, n].conj()) for n in range(d)) for b in bs.bases
    )
    return MumSet(d=d, elements=elements, kappa=1.0, t=None)
