import re

import numpy as np
import pytest

from mumkit import (
    OperatorBasis,
    gell_mann_basis,
    grouped_gell_mann_basis,
    verify_orthonormal_basis,
    weyl_operator,
)
from mumkit.operator_basis import measurement_layout

from oracles import trace_product


SQ2 = np.sqrt(2.0)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.diag([1.0, -1.0]).astype(complex)


def test_d2_is_scaled_paulis():
    basis = gell_mann_basis(2)
    assert len(basis.elements) == 3
    assert np.abs(basis.elements[0] - PAULI_X / SQ2).max() < 1e-15
    assert np.abs(basis.elements[1] - PAULI_Y / SQ2).max() < 1e-15
    assert np.abs(basis.elements[2] - PAULI_Z / SQ2).max() < 1e-15


def test_d6_element_count():
    assert len(gell_mann_basis(6).elements) == 35


def test_d4_orthonormality():
    basis = gell_mann_basis(4)
    # oracle: full pairwise Gram matrix through materialized products
    els = basis.elements
    gram = np.array([[np.trace(a @ b) for b in els] for a in els])
    assert np.abs(gram - np.eye(15)).max() < 1e-10
    assert verify_orthonormal_basis(basis, tol=1e-10).passed


def test_rejects_d_below_2():
    with pytest.raises(ValueError):
        gell_mann_basis(1)


def test_grid_labels_d2():
    assert set(gell_mann_basis(2).labels) == {(1, 1), (1, 2), (1, 3)}


def test_grid_labels_d3_ranges():
    labels = gell_mann_basis(3).labels
    assert {b for _, b in labels} == {1, 2, 3, 4}
    assert {n for n, _ in labels} == {1, 2}


def test_grid_round_trip_d5():
    basis = gell_mann_basis(5)
    families = basis.families
    for n in range(1, 5):
        for b in range(1, 7):
            flat = basis.labels.index((n, b))
            assert flat == (b - 1) * 4 + n - 1
            assert np.array_equal(families[b - 1][n - 1], basis.elements[flat])


def test_wrong_element_count_rejected():
    basis = gell_mann_basis(3)
    with pytest.raises(ValueError, match=r"d=3 is a \(d\^2-1, d, d\) array.*got shape \(7, 3, 3\)"):
        OperatorBasis(d=3, elements=basis.elements[:-1])


@pytest.mark.parametrize("d, elements, got", [
    (3, np.zeros((8, 2, 2)), "shape (8, 2, 2)"),
    (1, np.zeros((0, 1, 1)), "shape (0, 1, 1)"),
    (0, np.zeros((0, 0, 0)), "shape (0, 0, 0)"),
    (2, [np.eye(2), np.eye(2), np.eye(3)], "a ragged grid"),
])
def test_mis_shaped_basis_rejected(d, elements, got):
    with pytest.raises(ValueError, match="with d >= 2, got " + re.escape(got)):
        OperatorBasis(d=d, elements=elements)


@pytest.mark.parametrize("make", [gell_mann_basis, grouped_gell_mann_basis])
def test_elements_are_one_array(make):
    basis = make(4)
    assert isinstance(basis.elements, np.ndarray)
    assert basis.elements.shape == (15, 4, 4) and basis.elements.dtype == complex
    nested = OperatorBasis(d=4, elements=[list(map(list, el)) for el in basis.elements])
    assert np.array_equal(nested.elements, basis.elements)
    with pytest.raises(AttributeError):
        basis.labels = ()


def _family_by_labels(basis, b):
    # OperatorBasis.family, which the block slice replaced, kept as its oracle
    members = sorted(
        (n, el) for (n, bb), el in zip(basis.labels, basis.elements) if bb == b
    )
    return [el for _, el in members]


@pytest.mark.parametrize("make", [gell_mann_basis, grouped_gell_mann_basis])
@pytest.mark.parametrize("d", list(range(2, 9)) + [16])
def test_block_slice_matches_family_by_labels(make, d):
    basis = make(d)
    assert basis.families.shape == (d + 1, d - 1, d, d)
    for b in range(1, d + 2):
        block = basis.elements[(b - 1) * (d - 1):b * (d - 1)]
        assert np.array(_family_by_labels(basis, b)).tobytes() == block.tobytes(), b
        assert basis.families[b - 1].tobytes() == block.tobytes(), b


# The per-kind builders and loops the basis builders used before one
# element builder served both layouts, kept as their oracles.
def _sym_loop(d, j, k):
    m = np.zeros((d, d), dtype=complex)
    m[j, k] = 1.0
    m[k, j] = 1.0
    return m / np.sqrt(2.0)


def _asym_loop(d, j, k):
    m = np.zeros((d, d), dtype=complex)
    m[j, k] = -1.0j
    m[k, j] = 1.0j
    return m / np.sqrt(2.0)


def _diag_loop(d, l):
    m = np.zeros((d, d), dtype=complex)
    for j in range(l):
        m[j, j] = 1.0
    m[l, l] = -l
    return m / np.sqrt(l * (l + 1))


def _gell_mann_loops(d):
    elements = []
    for j in range(d):
        for k in range(j + 1, d):
            elements.append(_sym_loop(d, j, k))
    for j in range(d):
        for k in range(j + 1, d):
            elements.append(_asym_loop(d, j, k))
    for l in range(1, d):
        elements.append(_diag_loop(d, l))
    return np.array(elements)


def _grouped_by_realize(d):
    elements = []
    for family in measurement_layout(d):
        for kind, payload in family:
            if kind == "S":
                elements.append(_sym_loop(d, *sorted(payload)))
            elif kind == "A":
                elements.append(_asym_loop(d, *sorted(payload)))
            else:
                elements.append(_diag_loop(d, payload))
    return np.array(elements)


@pytest.mark.parametrize("d", range(2, 18))
def test_gell_mann_basis_matches_loop_bytes(d):
    assert gell_mann_basis(d).elements.tobytes() == _gell_mann_loops(d).tobytes()


@pytest.mark.parametrize("d", range(2, 18))
def test_grouped_basis_matches_per_tag_bytes(d):
    assert grouped_gell_mann_basis(d).elements.tobytes() == _grouped_by_realize(d).tobytes()


def test_assign_grid_matches_block_rule():
    for i, (n, b) in enumerate(gell_mann_basis(4).labels):
        assert b == i // 3 + 1
        assert n == i % 3 + 1


def test_weyl_identity():
    assert np.array_equal(weyl_operator(3, 0, 0), np.eye(3))


def test_weyl_d2_pauli():
    assert np.abs(weyl_operator(2, 1, 0) - PAULI_Z).max() < 1e-15
    assert np.abs(weyl_operator(2, 0, 1) - PAULI_X).max() < 1e-15


def test_weyl_unitarity_d5():
    for s in range(5):
        for t in range(5):
            u = weyl_operator(5, s, t)
            assert np.abs(u @ u.conj().T - np.eye(5)).max() < 1e-12


def _weyl_operators_loop(d):
    # the construction weyl_operator replaced, kept as its oracle
    zeta = np.exp(2j * np.pi / d)
    out = []
    for s in range(d):
        row = []
        for t in range(d):
            u = np.zeros((d, d), dtype=complex)
            for j in range(d):
                u[j, (j + t) % d] = zeta ** ((s * j) % d)
            row.append(u)
        out.append(row)
    return out


@pytest.mark.parametrize("d", range(2, 20))
def test_weyl_operator_matches_loop_bytes(d):
    want = _weyl_operators_loop(d)
    for s in range(d):
        for t in range(d):
            u = weyl_operator(d, s, t)
            assert u.dtype == complex and u.shape == (d, d)
            assert u.tobytes() == want[s][t].tobytes(), (s, t)


@pytest.mark.parametrize("d", [1, 0, -1])
def test_weyl_operators_reject_small_d(d):
    with pytest.raises(ValueError, match="at least 2"):
        weyl_operator(d, 0, 0)


def test_weyl_orthogonality():
    d = 4
    w = [weyl_operator(d, s, t) for s in range(d) for t in range(d)]
    for i, a in enumerate(w):
        for j, b in enumerate(w):
            want = d if i == j else 0.0
            assert abs(trace_product(a.conj().T, b) - want) < 1e-10


@pytest.mark.parametrize("make", [gell_mann_basis, grouped_gell_mann_basis])
@pytest.mark.parametrize("d", [3, 4])
def test_completeness_sum_of_squares(make, d):
    total = sum(el @ el for el in make(d).elements)
    assert np.abs(total - (d * d - 1) / d * np.eye(d)).max() < 1e-9


def test_verify_fails_on_doubled_element():
    basis = gell_mann_basis(3)
    elements = basis.elements.copy()
    elements[0] = 2.0 * basis.elements[0]
    bad = OperatorBasis(d=3, elements=elements)
    report = verify_orthonormal_basis(bad, tol=1e-10)
    assert not report.passed
    assert report.defects["orthonormality"] > 1.0


def test_verify_fails_on_identity_element():
    basis = gell_mann_basis(3)
    elements = basis.elements.copy()
    elements[0] = np.eye(3, dtype=complex) / np.sqrt(3)
    bad = OperatorBasis(d=3, elements=elements)
    report = verify_orthonormal_basis(bad, tol=1e-10)
    assert not report.passed
    assert report.defects["trace"] > 0.5


@pytest.mark.parametrize("d", list(range(2, 9)))
def test_measurement_layout_covers_every_element(d):
    families = measurement_layout(d)
    assert len(families) == d + 1
    assert all(len(f) == d - 1 for f in families)
    tags = [tag for fam in families for tag in fam]
    pairs = [frozenset(p) for kind, p in tags if kind == "S"]
    assert sorted(tuple(sorted(p)) for p in pairs) == [
        (j, k) for j in range(d) for k in range(j + 1, d)
    ]
    apairs = [tuple(sorted(p)) for kind, p in tags if kind == "A"]
    assert sorted(apairs) == [(j, k) for j in range(d) for k in range(j + 1, d)]
    assert sorted(p for kind, p in tags if kind == "D") == list(range(1, d))
    if d == 2:
        assert families == [[("S", (0, 1))], [("A", (0, 1))], [("D", 1)]]


@pytest.mark.parametrize("d", [3, 5, 6])
def test_grouped_basis_same_elements_different_order(d):
    plain = gell_mann_basis(d)
    grouped = grouped_gell_mann_basis(d)
    assert verify_orthonormal_basis(grouped, tol=1e-10).passed
    # every grouped element appears exactly once in the plain enumeration
    used = set()
    for el in grouped.elements:
        matches = [
            i for i, ref in enumerate(plain.elements)
            if i not in used and np.abs(el - ref).max() < 1e-15
        ]
        assert matches, "grouped element missing from the plain enumeration"
        used.add(matches[0])
    assert len(used) == len(plain.elements)
