import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mumkit import Xoshiro256, gell_mann_basis, trace_product
from mumkit.linalg import require_hermitian


def seeded_complex(seed, n):
    gen = Xoshiro256(seed)
    return gen.complex_normals(n * n).reshape(n, n)


@pytest.mark.parametrize("d", [2, 3, 5])
def test_trace_product_identity(d):
    assert trace_product(np.eye(d), np.eye(d)) == pytest.approx(d)


def test_trace_product_gell_mann_normalization():
    for el in gell_mann_basis(3).elements:
        assert trace_product(el, el) == pytest.approx(1.0, abs=1e-12)


def test_trace_product_matches_full_product():
    for seed in range(5):
        a = seeded_complex(100 + seed, 4)
        b = seeded_complex(200 + seed, 4)
        assert trace_product(a, b) == pytest.approx(complex(np.trace(a @ b)), abs=1e-12)


def test_trace_product_dimension_mismatch():
    with pytest.raises(ValueError, match="dimension mismatch"):
        trace_product(np.eye(2), np.eye(3))


def test_require_hermitian_rejects_non_hermitian():
    with pytest.raises(ValueError, match="not Hermitian"):
        require_hermitian(np.array([[0, 1], [0, 0]], dtype=complex))


@settings(max_examples=25, derandomize=True)
@given(st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_gram_trace_is_entry_power(seed):
    a = seeded_complex(seed, 4)
    val = trace_product(a.conj().T, a)
    assert abs(val.imag) < 1e-10
    assert val.real >= 0.0
    assert val.real == pytest.approx(float((np.abs(a) ** 2).sum()), abs=1e-10)
