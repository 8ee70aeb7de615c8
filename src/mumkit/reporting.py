"""Shared verification report container and the defect kernel behind it.

Every verifier reduces its checks to worst-case defects through the
helpers here, and they fail closed: a non-finite entry anywhere becomes
an ``inf`` defect, never a dropped NaN and never a LAPACK error.  The
defect kernel takes a value's families as they are stored, one
(F, k, n, n) array (an operator basis as d+1 families of d-1 elements,
a measurement set as d+1 families of d), and checks it one family at a
time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


def worst(values) -> float:
    """Largest absolute entry of an array (0.0 if empty), as inf if any is non-finite.

    Plain ``max(acc, nan)`` returns ``acc``, so a NaN entry in a payload
    would vanish from the report and let it pass.
    """
    a = np.abs(values)
    m = float(a.max()) if a.size else 0.0
    return m if math.isfinite(m) else math.inf


def min_eigenvalues(stack: np.ndarray) -> np.ndarray:
    """Smallest eigenvalue of each Hermitian matrix in a (k, n, n) stack.

    One batched ``eigvalsh`` call.  A matrix with a non-finite entry gets
    -inf without reaching LAPACK, which would fail on it ("Eigenvalues
    did not converge").
    """
    finite = np.isfinite(stack).all(axis=(1, 2))
    lam = np.full(len(stack), -math.inf)
    if finite.any():
        lam[finite] = np.linalg.eigvalsh(stack[finite]).min(axis=1)
    return lam


@dataclass(frozen=True)
class OperatorDefects:
    """What :func:`operator_defects` measured on an (F, k, n, n) array of operator families."""

    hermiticity: float
    traces: np.ndarray
    same: np.ndarray
    cross: float


# a non-finite entry already yields an inf defect; numpy's warnings about it
# would only add noise on stderr
@np.errstate(invalid="ignore", over="ignore")
def operator_defects(families: np.ndarray, cross_target: float = 0.0) -> OperatorDefects:
    """Batched checks of F families of k operators on C^n, one (F, k, n, n) array.

    * ``hermiticity``: worst |A - A^H| entry over all elements;
    * ``traces``: the (F, k) array of Tr A;
    * ``same``: the (F, k, k) Gram blocks Tr(A_u A_v) of each family with itself;
    * ``cross``: worst |Tr(A_u B_v) - cross_target| over pairs from
      distinct families.

    Each Gram block is one matrix product of two flattened family stacks,
    Tr(A_u B_v) = vec(A_u) . vec(B_v^T), taken for every pair of families
    i <= j: one stacked ``matmul`` per family i makes one BLAS call per
    pair, so each block has the bits of its own product (one product over
    a whole row or stack would not).  Only the flattened transposes are
    held for the whole array; everything else is one family at a time,
    which keeps the temporaries, BLAS packing buffers included, the size
    of one family.
    """
    f, k = families.shape[:2]
    right = families.transpose(0, 1, 3, 2).reshape(f, k, -1)
    same = np.empty((f, k, k), dtype=families.dtype)
    herm = cross = 0.0
    for i, fam in enumerate(families):
        herm = max(herm, worst(fam - fam.conj().transpose(0, 2, 1)))
        grams = fam.reshape(k, -1) @ right[i:].transpose(0, 2, 1)
        same[i] = grams[0]
        cross = max(cross, worst(grams[1:] - cross_target))
    return OperatorDefects(hermiticity=herm, traces=np.trace(families, axis1=2, axis2=3),
                           same=same, cross=cross)


@dataclass(frozen=True)
class VerificationReport:
    """Named worst-case defects of a verified object against a tolerance.

    ``defects`` maps a condition name to the largest absolute violation
    observed for it; the report passes iff every defect is finite and
    within tol.
    ``details`` carries informational values (inferred parameters) that
    do not enter the pass decision.
    """

    kind: str
    tol: float
    defects: dict[str, float]
    details: dict[str, float] = field(default_factory=dict)

    @property
    def max_defect(self) -> float:
        return max(self.defects.values()) if self.defects else 0.0

    @property
    def passed(self) -> bool:
        return all(math.isfinite(v) and v <= self.tol for v in self.defects.values())

    def summary(self) -> str:
        status = "pass" if self.passed else "FAIL"
        worst = ", ".join(f"{k}={v:.3e}" for k, v in self.defects.items())
        return f"{self.kind}: {status} (tol={self.tol:.1e}; {worst})"
