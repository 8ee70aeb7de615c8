"""Dense complex linear algebra shared by every other module.

Matrices are plain square ``numpy`` arrays of complex128.  All
comparisons in this package are absolute; entries are of order one by
construction, so no relative scaling is needed.
"""

from __future__ import annotations

import numpy as np

HERMITIAN_TOL = 1e-12


def as_matrix(a) -> np.ndarray:
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    return a


def require_hermitian(a: np.ndarray, tol: float = HERMITIAN_TOL, what: str = "matrix") -> np.ndarray:
    a = as_matrix(a)
    defect = float(np.abs(a - a.conj().T).max())
    if defect > tol:
        raise ValueError(f"{what} is not Hermitian (max |A - A^H| = {defect:.3e} > {tol:.3e})")
    return a


def trace_product(a: np.ndarray, b: np.ndarray) -> complex:
    """Tr(a @ b) without materializing the product."""
    a = as_matrix(a)
    b = as_matrix(b)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch in trace_product: {a.shape} vs {b.shape}")
    return complex(np.einsum("ij,ji->", a, b))
