"""Reference computations shared by the test modules."""

import numpy as np


def trace_product(a, b):
    """Tr(a @ b) without forming the product, as one einsum."""
    return complex(np.einsum("ij,ji->", np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)))
