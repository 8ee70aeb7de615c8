"""The batched defect kernel against copies of the per-element loops it replaced."""

import math

import numpy as np
import pytest

from mumkit import (
    MumSet,
    OperatorBasis,
    PositivityError,
    build_mums,
    conjugate_mums,
    gell_mann_basis,
    grouped_gell_mann_basis,
    kappa_from_t,
    max_valid_t,
    mub_prime,
    mums_from_mubs,
    optimal_kappa,
    t_from_kappa,
    trace_product,
    verify_mub,
    verify_mums,
    verify_orthonormal_basis,
)
from mumkit.mum import _measurement_directions
from mumkit.reporting import min_eigenvalues, operator_defects, worst


def _loop_verify_mums(ms):
    d = ms.d
    eye = np.eye(d)
    herm = psd = trace_one = completeness = 0.0
    for row in ms.elements:
        completeness = max(completeness, float(np.abs(sum(row) - eye).max()))
        for p in row:
            herm = max(herm, float(np.abs(p - p.conj().T).max()))
            psd = max(psd, max(0.0, -float(np.linalg.eigvalsh(p).min())))
            trace_one = max(trace_one, abs(complex(np.trace(p)) - 1.0))
    purities = [float(trace_product(p, p).real) for row in ms.elements for p in row]
    kappa_inferred = float(np.mean(purities))
    kappa_spread = float(max(abs(p - kappa_inferred) for p in purities))
    cross = offdiag = 0.0
    off_target = (1.0 - kappa_inferred) / (d - 1)
    for b1 in range(d + 1):
        for b2 in range(b1, d + 1):
            for n1 in range(d):
                for n2 in range(d):
                    if b1 == b2 and n2 < n1:
                        continue
                    tp = trace_product(ms.elements[b1][n1], ms.elements[b2][n2])
                    if b1 != b2:
                        cross = max(cross, abs(tp - 1.0 / d))
                    elif n1 != n2:
                        offdiag = max(offdiag, abs(tp - off_target))
    return {
        "hermiticity": herm,
        "psd": psd,
        "trace_one": trace_one,
        "completeness": completeness,
        "cross_basis": cross,
        "purity_spread": kappa_spread,
        "off_diagonal": offdiag,
        "stored_kappa": abs(kappa_inferred - ms.kappa),
    }, kappa_inferred


def _loop_verify_basis(basis):
    herm = trace = gram = 0.0
    for el in basis.elements:
        herm = max(herm, float(np.abs(el - el.conj().T).max()))
        trace = max(trace, abs(complex(np.trace(el))))
    n = len(basis.elements)
    for i in range(n):
        for j in range(i, n):
            tp = trace_product(basis.elements[i], basis.elements[j])
            gram = max(gram, abs(tp - (1.0 if i == j else 0.0)))
    return {"hermiticity": herm, "trace": trace, "orthonormality": gram}


def _loop_verify_mub(bs):
    d = bs.d
    unitarity = unbias = 0.0
    for b in bs.bases:
        unitarity = max(unitarity, float(np.abs(b.conj().T @ b - np.eye(d)).max()))
    for i in range(bs.m):
        for j in range(i + 1, bs.m):
            overlaps = np.abs(bs.bases[i].conj().T @ bs.bases[j]) ** 2
            unbias = max(unbias, float(np.abs(overlaps - 1.0 / d).max()))
    return {"unitarity": unitarity, "unbiasedness": unbias}


def _perturbed(ms, b, n, i, j):
    rows = [list(row) for row in ms.elements]
    p = rows[b][n].copy()
    p[i, j] += 0.05
    rows[b][n] = p
    return MumSet(d=ms.d, elements=tuple(tuple(r) for r in rows), kappa=ms.kappa, t=ms.t)


def _mum_sets():
    for d in range(2, 9):
        for make in (gell_mann_basis, grouped_gell_mann_basis):
            basis = make(d)
            ms = build_mums(basis, max_valid_t(basis))
            yield f"{make.__name__}-{d}", ms
            # a diagonal and an off-diagonal entry of elements inside the grid
            yield f"{make.__name__}-{d}-diag", _perturbed(ms, d // 2, d - 1, 0, 0)
            yield f"{make.__name__}-{d}-offdiag", _perturbed(ms, d, 1, 0, d - 1)
    for d in (2, 3, 5, 7):
        ms = mums_from_mubs(mub_prime(d))
        yield f"mub-{d}", ms
        yield f"mub-{d}-offdiag", _perturbed(ms, 1, 0, d - 1, 0)


MUM_SETS = dict(_mum_sets())


@pytest.mark.parametrize("name", sorted(MUM_SETS))
def test_verify_mums_matches_loops(name):
    ms = MUM_SETS[name]
    report = verify_mums(ms)
    expected, kappa_inferred = _loop_verify_mums(ms)
    assert list(report.defects) == list(expected)
    for key, value in expected.items():
        assert report.defects[key] == pytest.approx(value, abs=1e-14), key
    assert report.details["kappa_inferred"] == pytest.approx(kappa_inferred, abs=1e-14)
    assert report.passed == all(v <= report.tol for v in expected.values())
    assert report.passed == (not name.endswith("diag"))


@pytest.mark.parametrize("make", [gell_mann_basis, grouped_gell_mann_basis])
@pytest.mark.parametrize("d", [2, 3, 6, 17])
def test_verify_basis_matches_loops(make, d):
    basis = make(d)
    # the last element replaced by a copy of the first
    els = basis.elements.copy()
    els[-1] = els[0]
    for basis_case in (basis, type(basis)(d=d, elements=els)):
        report = verify_orthonormal_basis(basis_case)
        expected = _loop_verify_basis(basis_case)
        for key, value in expected.items():
            assert report.defects[key] == pytest.approx(value, abs=1e-14), key
        assert report.passed == all(v <= report.tol for v in expected.values())


@pytest.mark.parametrize("d", [2, 3, 5, 7])
def test_verify_mub_matches_loops(d):
    bs = mub_prime(d)
    # the second basis with one entry bent
    bent = bs.bases.copy()
    bent[1, 0, 0] += 0.05
    for case in (bs, type(bs)(d=d, bases=bent)):
        report = verify_mub(case)
        assert report.passed == (case is bs)
        for key, value in _loop_verify_mub(case).items():
            assert report.defects[key] == pytest.approx(value, abs=1e-14), key


def _loop_worst_offender(ms_rows):
    worst_ev = (0.0, 0, 0)
    for b, row in enumerate(ms_rows):
        for n, p in enumerate(row):
            ev = float(np.linalg.eigvalsh(p).min())
            if ev < worst_ev[0]:
                worst_ev = (ev, n + 1, b + 1)
    return worst_ev


@pytest.mark.parametrize("make", [gell_mann_basis, grouped_gell_mann_basis])
@pytest.mark.parametrize("d", list(range(2, 9)))
def test_positivity_error_names_worst_offender(make, d):
    basis = make(d)
    t = 1.5 * max_valid_t(basis)
    with pytest.raises(PositivityError) as err:
        build_mums(basis, t)
    eye = np.eye(d, dtype=complex)
    rows = []
    for b in range(1, d + 2):
        fam = basis.elements[(b - 1) * (d - 1):b * (d - 1)]
        fb = sum(fam)
        rows.append([eye / d + t * (fb - (d + np.sqrt(d)) * fam[n] if n < d - 1
                                    else (1.0 + np.sqrt(d)) * fb) for n in range(d)])
    ev, n, b = _loop_worst_offender(rows)
    assert (err.value.n, err.value.b) == (n, b)
    assert err.value.min_eigenvalue == ev


def test_operator_defects_reads_one_array_of_families():
    basis = grouped_gell_mann_basis(4)
    k = operator_defects(basis.families)
    assert k.same.shape == (5, 3, 3) and k.traces.shape == (5, 3)
    gram = np.einsum("fuij,fvji->fuv", basis.families, basis.families)
    assert np.abs(k.same - gram).max() < 1e-15 and np.abs(gram - np.eye(3)).max() < 1e-15
    assert k.hermiticity == 0.0 and worst(k.traces) < 1e-15 and k.cross < 1e-15


def test_worst_is_fail_closed():
    assert worst(np.array([0.5, -2.0])) == 2.0
    assert worst(np.array([])) == 0.0
    assert worst(np.array([0.1, np.nan])) == math.inf
    assert worst(np.array([np.inf - np.inf])) == math.inf
    assert worst(0.25 + 0j) == 0.25


def test_min_eigenvalues_guards_non_finite_matrices():
    stack = np.array([np.diag([2.0, -1.0]), np.diag([np.nan, 1.0]), np.eye(2)], dtype=complex)
    assert list(min_eigenvalues(stack)) == [-1.0, -math.inf, 1.0]
    assert list(min_eigenvalues(stack[1:2])) == [-math.inf]


# The list-of-chunks kernel and the two verifier bodies as they stood before
# the kernel took one (F, k, n, n) array; the verifiers must match them bit for
# bit, NaN, inf and negative zero included.
_OLD_CHUNK_ENTRIES = 4096


@np.errstate(invalid="ignore", over="ignore")
def _old_operator_defects(families, cross_target=0.0, eigenvalues=False):
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
    return herm, np.concatenate(traces), same, cross, np.concatenate(lams) if eigenvalues else None


def _old_verify_basis(basis):
    els = basis.elements
    size = max(1, _OLD_CHUNK_ENTRIES // els[0].size)
    herm, traces, same, cross, _ = _old_operator_defects(
        [els[i:i + size] for i in range(0, len(els), size)])
    gram = max([cross] + [worst(g - np.eye(len(g))) for g in same])
    return {"hermiticity": herm, "trace": worst(traces), "orthonormality": gram}, {}


def _old_verify_mums(ms):
    d = ms.d
    eye = np.eye(d)
    herm, traces, same, cross, lams = _old_operator_defects(
        ms.elements, cross_target=1.0 / d, eigenvalues=True)
    purities = np.concatenate([np.diagonal(g).real for g in same])
    kappa_inferred = float(np.mean(purities))
    stored = [kappa_inferred - ms.kappa]
    if ms.t is not None:
        stored.append(kappa_from_t(d, ms.t) - ms.kappa)
    off_target = (1.0 - kappa_inferred) / (d - 1)
    upper = np.triu_indices(d, 1)
    return {
        "hermiticity": herm,
        "psd": worst(np.minimum(lams, 0.0)),
        "trace_one": worst(traces - 1.0),
        "completeness": worst(ms.elements.sum(axis=1) - eye),
        "cross_basis": cross,
        "purity_spread": worst(purities - kappa_inferred),
        "off_diagonal": max(worst(g[upper] - off_target) for g in same),
        "stored_kappa": worst(stored),
    }, {"kappa_inferred": kappa_inferred}


def _damaged(els, index):
    """Copies of a stack with one NaN entry, one non-Hermitian element and one scaled element."""
    out = []
    for damage in ("nan", "non-hermitian", "scaled"):
        a = els.copy()
        el = a[index]
        if damage == "nan":
            el[0, -1] = np.nan
        elif damage == "non-hermitian":
            el[-1, 0] += 1e-3
        else:
            el *= 1.5
        out.append((damage, a))
    return out


def _bits(mapping):
    return list(mapping), np.array(list(mapping.values()), dtype=float).tobytes()


def _assert_same_report(report, expected):
    defects, details = expected
    assert _bits(report.defects) == _bits(defects)
    assert _bits(report.details) == _bits(details)


@pytest.mark.parametrize("make", [gell_mann_basis, grouped_gell_mann_basis])
@pytest.mark.parametrize("d", list(range(2, 17)))
def test_verifiers_match_the_chunked_kernel_bit_for_bit(make, d):
    basis = make(d)
    bases = [("basis", basis.elements), ("conjugate", basis.elements.conj())]
    bases += _damaged(basis.elements, len(basis.elements) // 2)
    for name, els in bases:
        case = OperatorBasis(d=d, elements=els)
        _assert_same_report(verify_orthonormal_basis(case), _old_verify_basis(case))
    for t in (t_from_kappa(d, optimal_kappa(d)), max_valid_t(basis)):
        # built without the PSD check: plain layouts are indefinite at the optimal t
        ms = MumSet(d=d, elements=np.eye(d) / d + t * _measurement_directions(basis),
                    kappa=kappa_from_t(d, t), t=t, source_basis=basis)
        for case in (ms, conjugate_mums(ms)):
            sets = [("set", case.elements)] + _damaged(case.elements, (d // 2, d - 1))
            for name, els in sets:
                damaged = MumSet(d=d, elements=els, kappa=case.kappa, t=case.t)
                _assert_same_report(verify_mums(damaged), _old_verify_mums(damaged))
