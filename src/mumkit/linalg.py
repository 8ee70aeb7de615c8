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


def as_stack(a, shape: tuple[int, ...] | None, what: str) -> np.ndarray:
    """``a`` as a complex array of exactly ``shape`` (None: none fits), else ValueError(what).

    An input with no entries takes an empty ``shape``, such as (0, d, d).
    """
    try:
        arr = np.asarray(a, dtype=complex)
    except ValueError:  # a ragged grid
        arr = None
    if arr is not None and arr.size == 0 and shape is not None and 0 in shape:
        arr = arr.reshape(shape)
    if arr is None or arr.shape != shape:
        got = "a ragged grid" if arr is None else f"shape {arr.shape}"
        raise ValueError(f"{what}, got {got}")
    return arr


def require_hermitian(a: np.ndarray, what: str = "matrix") -> np.ndarray:
    a = as_matrix(a)
    defect = float(np.abs(a - a.conj().T).max())
    if defect > HERMITIAN_TOL:
        raise ValueError(f"{what} is not Hermitian "
                         f"(max |A - A^H| = {defect:.3e} > {HERMITIAN_TOL:.3e})")
    return a


def trace_product(a: np.ndarray, b: np.ndarray) -> complex:
    """Tr(a @ b) without materializing the product."""
    a = as_matrix(a)
    b = as_matrix(b)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch in trace_product: {a.shape} vs {b.shape}")
    return complex(np.einsum("ij,ji->", a, b))
