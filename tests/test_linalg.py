import numpy as np
import pytest

from mumkit.linalg import require_hermitian


def test_require_hermitian_rejects_non_hermitian():
    with pytest.raises(ValueError, match="not Hermitian"):
        require_hermitian(np.array([[0, 1], [0, 0]], dtype=complex))
    # a non-finite entry makes the defect NaN (or inf), which must refuse too
    for i, j, bad in [(0, 1, np.nan), (1, 1, np.nan), (0, 0, np.inf), (1, 0, -np.inf)]:
        a = np.eye(2, dtype=complex) / 2
        a[i, j] = bad
        with pytest.raises(ValueError, match="not Hermitian"):
            require_hermitian(a)
