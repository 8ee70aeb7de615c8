"""Reference computations shared by the test modules."""

import tracemalloc

import numpy as np

from mumkit import BipartiteState, optimal_mums
from mumkit.criteria import _contraction


def trace_product(a, b):
    """Tr(a @ b) without forming the product, as one einsum."""
    return complex(np.einsum("ij,ji->", np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)))


def mub_by_projector_contraction(state, bases):
    """The MUB criterion's (value, bound) by the projector contraction it ran before it became J.

    The rank-one projectors of every basis vector, flattened to (m d, d^2)
    rows, are contracted with their conjugates; the bound is 1 + (m-1)/d.
    """
    v = bases.bases.transpose(0, 2, 1)
    p = (v[..., :, None] * v[..., None, :].conj()).reshape(-1, bases.d * bases.d)
    return _contraction(p, p.conj())(state), 1.0 + (bases.m - 1) / bases.d


def near_psd_state(e=5e-7):
    """The d = 3 state (1 + e)|a><a| - e|b><b|: trace 1, one eigenvalue -e.

    a = u (x) v, with u and v the zero-eigenvalue eigenvectors of the first
    operator of ``optimal_mums(3)`` and of its conjugate, and b the same from
    their top eigenvectors (eigenvalue 2/3).  Under the conjugate pairing,
    setting 1's outcome (0, 0) then has probability -4e/9.
    """
    p = optimal_mums(3).elements[0, 0]
    u = np.linalg.eigh(p)[1]
    v = np.linalg.eigh(p.conj())[1]
    a = np.kron(u[:, 0], v[:, 0])
    b = np.kron(u[:, -1], v[:, -1])
    return BipartiteState(3, (1 + e) * np.outer(a, a.conj()) - e * np.outer(b, b.conj()))


def traced_peak_mib(fn, *args):
    """The peak of Python and numpy allocations while ``fn(*args)`` runs, in MiB.

    tracemalloc counts every allocation, so the figure repeats exactly
    from run to run, unlike the process's resident size.
    """
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()
