"""Shared verification report container and the defect kernel behind it.

Every verifier reduces its checks to worst-case defects through the
helpers here.  They work on stacks of matrices, one measurement family
(or one bounded chunk of a basis) at a time, and they fail closed: a
non-finite entry anywhere becomes an ``inf`` defect, never a dropped
NaN and never a LAPACK error.
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
    """What :func:`operator_defects` measured on a sequence of operator families."""

    hermiticity: float
    traces: np.ndarray
    same: tuple[np.ndarray, ...]
    cross: float
    min_eigenvalues: np.ndarray | None


def operator_defects(families, cross_target: float = 0.0,
                     eigenvalues: bool = False) -> OperatorDefects:
    """Batched checks of operator families, each a sequence of n x n matrices.

    * ``hermiticity``: worst |A - A^H| entry over all elements;
    * ``traces``: Tr A of every element, families in order;
    * ``same[i]``: the Gram block Tr(A_u A_v) of family i with itself;
    * ``cross``: worst |Tr(A_u B_v) - cross_target| over pairs from
      distinct families;
    * ``min_eigenvalues`` (if requested): per element, families in order,
      -inf for an element with a non-finite entry.

    Each Gram block is one matrix product of two flattened family stacks,
    Tr(A_u B_v) = vec(A_u) . vec(B_v^T), taken for every pair of families
    i <= j.  Only the flattened transposes are held for the whole set,
    one array per family; everything else is one family at a time.
    Per-pair products keep the temporaries, BLAS packing buffers
    included, the size of one family, which keeps a CLI run's peak
    memory where the per-element loops had it.
    """
    right = [np.asarray(fam).transpose(0, 2, 1).reshape(len(fam), -1) for fam in families]
    herm = cross = 0.0
    traces, same, lams = [], [], []
    for i, fam in enumerate(families):
        f = np.asarray(fam)
        k = len(f)
        herm = max(herm, worst(f - f.conj().transpose(0, 2, 1)))
        traces.append(np.trace(f, axis1=1, axis2=2))
        if eigenvalues:
            lams.append(min_eigenvalues(f))
        left = f.reshape(k, -1)
        same.append(left @ right[i].T)
        for r in right[i + 1:]:
            cross = max(cross, worst(left @ r.T - cross_target))
    return OperatorDefects(
        hermiticity=herm,
        traces=np.concatenate(traces),
        same=tuple(same),
        cross=cross,
        min_eigenvalues=np.concatenate(lams) if eigenvalues else None,
    )


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
