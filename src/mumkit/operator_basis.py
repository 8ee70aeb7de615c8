"""Generalized Gell-Mann operator bases and Weyl operators.

A basis here is the standard set of d^2 - 1 Hermitian, traceless,
trace-orthonormal operators on C^d: symmetric pair operators
(|j><k| + |k><j|)/sqrt(2), antisymmetric pair operators
-i(|j><k| - |k><j|)/sqrt(2), and diagonal operators
(sum_{j<l} |j><j| - l |l><l|)/sqrt(l(l+1)).

A basis is one (d^2 - 1, d, d) array whose rows fall into d+1
measurement families of d-1 operators each by the block rule: family b
is rows (b-1)(d-1) to b(d-1) - 1, and row i carries the label
(n, b) = (i mod (d-1) + 1, i div (d-1) + 1).  Two orderings are provided:

* :func:`gell_mann_basis` lists all symmetric pairs, then all
  antisymmetric pairs, then the diagonals.
* :func:`grouped_gell_mann_basis` lists the same elements family by
  family, with families chosen by a Hamiltonian path decomposition of
  the pair-index graph.  This layout keeps every measurement operator
  positive semidefinite at the largest purity the construction of
  :mod:`mumkit.mum` supports; the plain layout does not once d >= 4.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import as_stack
from .reporting import VerificationReport, operator_defects, worst

# A basis is checked in chunks of at most this many matrix entries, the
# size of one measurement family at d = 16, so the kernel's temporaries
# stay that small at any d.
_CHUNK_ENTRIES = 4096


@dataclass(frozen=True)
class OperatorBasis:
    """d^2 - 1 Hermitian traceless orthonormal operators, one (d^2 - 1, d, d) array.

    Row i is the element labelled (n, b) by the block rule, so family b
    is ``elements[(b-1)(d-1):b(d-1)]``, which is ``families[b-1]``.
    """

    d: int
    elements: np.ndarray

    def __post_init__(self):
        d = self.d
        object.__setattr__(self, "elements", as_stack(
            self.elements, (d * d - 1, d, d) if d >= 2 else None,
            f"an operator basis for d={d} is a (d^2-1, d, d) array of operators with d >= 2"))

    @property
    def families(self) -> np.ndarray:
        """The d+1 measurement families as a (d+1, d-1, d, d) view, indexed [b-1][n-1]."""
        d = self.d
        return self.elements.reshape(d + 1, d - 1, d, d)

    @property
    def labels(self) -> tuple[tuple[int, int], ...]:
        """The (n, b) label of each row, by the block rule."""
        d = self.d
        return tuple((i % (d - 1) + 1, i // (d - 1) + 1) for i in range(d * d - 1))


def _elements(d: int, tags: list[tuple]) -> np.ndarray:
    """The basis elements of tags ("S", (j, k)), ("A", (j, k)) or ("D", l), as one stack.

    Pair tags may arrive in path order; an element is defined on sorted indices.
    """
    m = np.zeros((len(tags), d, d), dtype=complex)
    norms = np.empty(len(tags))
    for i, (kind, payload) in enumerate(tags):
        if kind == "D":
            l = payload
            m[i, range(l), range(l)] = 1.0
            m[i, l, l] = -l
            norms[i] = np.sqrt(l * (l + 1))
        else:
            j, k = sorted(payload)
            m[i, j, k], m[i, k, j] = (1.0, 1.0) if kind == "S" else (-1.0j, 1.0j)
            norms[i] = np.sqrt(2.0)
    m /= norms[:, None, None]
    return m


def gell_mann_basis(d: int) -> OperatorBasis:
    """The generalized Gell-Mann basis in enumeration order.

    Flat order: symmetric pairs in lexicographic (j, k), antisymmetric
    pairs in lexicographic (j, k), diagonals by l.
    """
    if d < 2:
        raise ValueError(f"dimension must be at least 2, got {d}")
    pairs = [(j, k) for j in range(d) for k in range(j + 1, d)]
    tags = [("S", p) for p in pairs] + [("A", p) for p in pairs] + [("D", l) for l in range(1, d)]
    return OperatorBasis(d=d, elements=_elements(d, tags))


def _zigzag(start: int, n: int) -> list[int]:
    # start, start+1, start-1, start+2, start-2, ... covering Z_n
    seq = [start]
    for i in range(1, n):
        off = (i + 1) // 2 if i % 2 == 1 else -(i // 2)
        seq.append((start + off) % n)
    return seq


def measurement_layout(d: int) -> list[list[tuple]]:
    """Partition of the basis element tags into d+1 families of d-1.

    Pair elements are grouped along edge-disjoint Hamiltonian paths of
    the complete graph on the d computational indices (Walecki
    decomposition), one family per path and per decoration (symmetric /
    antisymmetric); the diagonals form their own family.  For odd d the
    cover uses Hamiltonian cycles with one hub edge removed per cycle,
    and the removed edges form one extra family.

    Along a path, the extremal eigenvector of each element is touched
    only at second order by the rest of its family, which is what keeps
    the mum construction positive at the optimal purity for every d.
    """
    if d < 2:
        raise ValueError(f"dimension must be at least 2, got {d}")
    if d % 2 == 0:
        paths = []
        for r in range(d // 2):
            seq = _zigzag(r, d)
            paths.append([(seq[i], seq[i + 1]) for i in range(d - 1)])
        families = [[("S", e) for e in p] for p in paths]
        families += [[("A", e) for e in p] for p in paths]
    else:
        hub = d - 1
        cycles = []
        for r in range((d - 1) // 2):
            seq = _zigzag(r, d - 1)
            cycles.append([(hub, seq[0])] + [(seq[i], seq[i + 1]) for i in range(d - 2)]
                          + [(seq[-1], hub)])
        families = [[("S", e) for e in c[1:]] for c in cycles]
        families += [[("A", e) for e in c[1:]] for c in cycles]
        families.append([("S", c[0]) for c in cycles] + [("A", c[0]) for c in cycles])
    families.append([("D", l) for l in range(1, d)])
    return families


def grouped_gell_mann_basis(d: int) -> OperatorBasis:
    """Gell-Mann basis reordered family-major per :func:`measurement_layout`."""
    tags = [tag for family in measurement_layout(d) for tag in family]
    return OperatorBasis(d=d, elements=_elements(d, tags))


def weyl_operator(d: int, s: int, t: int) -> np.ndarray:
    """The Weyl operator U_{s,t} = sum_j zeta^(s j) |j><(j+t) mod d|, zeta = exp(2 pi i/d)."""
    if d < 2:
        raise ValueError(f"dimension must be at least 2, got {d}")
    zeta = np.exp(2j * np.pi / d)
    j = np.arange(d)
    u = np.zeros((d, d), dtype=complex)
    u[j, (j + t) % d] = zeta ** ((s * j) % d)
    return u


def verify_orthonormal_basis(basis: OperatorBasis, tol: float = 1e-10) -> VerificationReport:
    """Check Hermiticity, tracelessness and trace orthonormality of a basis."""
    els = basis.elements
    size = max(1, _CHUNK_ENTRIES // els[0].size)
    k = operator_defects([els[i:i + size] for i in range(0, len(els), size)])
    gram = max([k.cross] + [worst(g - np.eye(len(g))) for g in k.same])
    return VerificationReport(
        kind="operator-basis",
        tol=tol,
        defects={"hermiticity": k.hermiticity, "trace": worst(k.traces), "orthonormality": gram},
    )
