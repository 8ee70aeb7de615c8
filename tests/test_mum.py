import dataclasses
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mumkit import (
    MumSet,
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
    optimal_mums,
    random_pure,
    rotate_mums,
    t_from_kappa,
    verify_mums,
    weyl_operator,
)

from oracles import trace_product, traced_peak_mib

T_STAR_D3 = 1.0 / (3.0 * (1.0 + np.sqrt(3.0)))  # gives kappa = 5/9


@pytest.mark.parametrize("d", [2, 3, 5, 8])
def test_kappa_at_t_zero(d):
    assert kappa_from_t(d, 0.0) == pytest.approx(1.0 / d)


def test_kappa_d3_reference_t():
    assert kappa_from_t(3, T_STAR_D3) == pytest.approx(5.0 / 9.0, abs=1e-14)


def test_t_from_kappa_boundary():
    assert t_from_kappa(4, 0.25) == 0.0


def test_t_from_kappa_d3():
    assert t_from_kappa(3, 5.0 / 9.0) == pytest.approx(T_STAR_D3, abs=1e-14)


def test_t_from_kappa_out_of_range():
    with pytest.raises(ValueError, match="kappa"):
        t_from_kappa(3, 0.2)
    with pytest.raises(ValueError, match="kappa"):
        t_from_kappa(3, 1.2)


@settings(max_examples=40, derandomize=True)
@given(
    st.integers(min_value=2, max_value=8),
    st.floats(min_value=1e-6, max_value=1.0, allow_nan=False),
)
def test_kappa_t_round_trip(d, frac):
    kappa = 1.0 / d + frac * (1.0 - 1.0 / d)
    t = t_from_kappa(d, kappa)
    assert kappa_from_t(d, t) == pytest.approx(kappa, abs=1e-12)


def test_optimal_kappa_values():
    assert optimal_kappa(2) == pytest.approx(1.0)
    assert optimal_kappa(3) == pytest.approx(5.0 / 9.0)
    assert optimal_kappa(6) == pytest.approx(2.0 / 9.0)


def test_build_d3_reference_point():
    ms = build_mums(grouped_gell_mann_basis(3), T_STAR_D3)
    assert ms.kappa == pytest.approx(5.0 / 9.0, abs=1e-14)
    report = verify_mums(ms, tol=1e-9)
    assert report.passed, report.summary()


def test_build_d2_optimal_gives_projectors():
    ms = optimal_mums(2)
    assert ms.kappa == pytest.approx(1.0)
    for row in ms.elements:
        for p in row:
            ev = np.sort(np.linalg.eigvalsh(p))
            assert np.abs(ev - np.array([0.0, 1.0])).max() < 1e-12


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_unit_traces(d):
    ms = optimal_mums(d)
    for row in ms.elements:
        for p in row:
            assert complex(np.trace(p)).real == pytest.approx(1.0, abs=1e-12)
            assert abs(complex(np.trace(p)).imag) < 1e-12


@pytest.mark.parametrize("d", [3, 4])
def test_povm_completeness(d):
    ms = optimal_mums(d)
    for row in ms.elements:
        assert np.abs(sum(row) - np.eye(d)).max() < 1e-10


def test_positivity_error_reports_offender():
    with pytest.raises(PositivityError) as err:
        build_mums(grouped_gell_mann_basis(3), 0.3)
    assert err.value.min_eigenvalue < 0
    assert 1 <= err.value.n <= 3
    assert 1 <= err.value.b <= 4


def test_max_valid_t_d2_reaches_projective_purity():
    basis = grouped_gell_mann_basis(2)
    t = max_valid_t(basis)
    assert kappa_from_t(2, t) == pytest.approx(1.0, abs=1e-9)
    assert t == pytest.approx(t_from_kappa(2, 1.0), abs=1e-9)


@pytest.mark.parametrize("d", list(range(2, 9)))
def test_max_valid_t_bracket(d):
    basis = grouped_gell_mann_basis(d)
    t = max_valid_t(basis)
    assert t > 0
    build_mums(basis, t)  # feasible at the returned value
    with pytest.raises(PositivityError):
        build_mums(basis, 1.01 * t)


def test_plain_layout_saturates_below_optimal_at_d4():
    # with the enumeration-order grid the optimal purity is out of reach
    basis = gell_mann_basis(4)
    t = max_valid_t(basis)
    assert kappa_from_t(4, t) < optimal_kappa(4) - 1e-4
    with pytest.raises(PositivityError):
        build_mums(basis, t_from_kappa(4, optimal_kappa(4)))


def test_verify_rejects_flattened_element():
    ms = optimal_mums(3)
    rows = [list(row) for row in ms.elements]
    rows[0][0] = np.eye(3, dtype=complex) / 3.0
    bad = MumSet(d=3, elements=tuple(tuple(r) for r in rows), kappa=ms.kappa, t=ms.t)
    report = verify_mums(bad, tol=1e-9)
    assert not report.passed
    assert report.defects["completeness"] > 1e-3
    assert report.defects["purity_spread"] > 1e-3


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_inferred_kappa_matches_stored(d):
    report = verify_mums(optimal_mums(d))
    assert report.defects["stored_kappa"] < 1e-9
    assert report.details["kappa_inferred"] == pytest.approx(optimal_kappa(d), abs=1e-9)


def test_elements_are_one_array():
    ms = optimal_mums(3)
    assert ms.elements.shape == (4, 3, 3, 3)
    assert ms.elements.dtype == complex
    nested = MumSet(d=3, elements=tuple(tuple(row) for row in ms.elements), kappa=ms.kappa)
    assert np.array_equal(nested.elements, ms.elements)


@pytest.mark.parametrize("d", [3, 4, 6])
def test_every_prefix_of_a_complete_set_verifies(d):
    # the relations verify_mums checks hold setting by setting, so any first M settings pass
    ms = optimal_mums(d)
    for m in range(1, d + 2):
        prefix = dataclasses.replace(ms, elements=ms.elements[:m])
        assert prefix.elements.shape == (m, d, d, d)
        report = verify_mums(prefix)
        assert report.passed, (m, report.summary())


@pytest.mark.parametrize("elements, got", [
    ([], "shape (0,)"),
    (np.zeros((0, 3, 3, 3)), "shape (0, 3, 3, 3)"),
    (np.concatenate([optimal_mums(3).elements] * 2)[:5], "shape (5, 3, 3, 3)"),
    (5, "shape ()"),
], ids=["empty-list", "no-settings", "d+2-settings", "bare-number"])
def test_mum_set_refuses_a_setting_count_outside_1_to_d_plus_1(elements, got):
    message = ("a measurement set for d=3 is an (m, d, d, d) array with d >= 2, 1 <= m <= d+1, "
               f"got {got}")
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        MumSet(d=3, elements=elements, kappa=5 / 9)


@pytest.mark.parametrize("d", list(range(2, 9)) + [16])
def test_stacked_transforms_match_per_element_forms(d):
    # the per-element forms conjugate_mums, rotate_mums and the completeness
    # check of verify_mums used while elements were a nested tuple
    u = weyl_operator(d, 1, d - 1)
    for make in (gell_mann_basis, grouped_gell_mann_basis):
        basis = make(d)
        ms = build_mums(basis, max_valid_t(basis))
        conj, rot = conjugate_mums(ms), rotate_mums(ms, u)
        completeness = max(float(np.abs(sum(row) - np.eye(d)).max()) for row in ms.elements)
        assert verify_mums(ms).defects["completeness"] == completeness
        for b in range(d + 1):
            for n in range(d):
                p = ms.elements[b][n]
                assert conj.elements[b][n].tobytes() == p.conj().tobytes()
                assert rot.elements[b][n].tobytes() == (u @ p @ u.conj().T).tobytes()
        # the per-element source bases the two transforms rebuilt
        uh = u.conj().T
        assert conj.source_basis.elements.tobytes() == np.array(
            [el.conj() for el in basis.elements]).tobytes()
        assert rot.source_basis.elements.tobytes() == np.array(
            [u @ el @ uh for el in basis.elements]).tobytes()


def _measurement_directions_by_family(basis):
    # the per-family generator that one reshape of the basis replaced, with
    # the family lookup by labels it used, kept as its oracle
    d = basis.d
    for b in range(1, d + 2):
        members = sorted((n, el) for (n, bb), el in zip(basis.labels, basis.elements) if bb == b)
        fam = [el for _, el in members]
        assert len(fam) == d - 1
        fb = sum(fam)
        f = np.empty((d, d, d), dtype=complex)
        f[:-1] = fb - (d + np.sqrt(d)) * np.asarray(fam)
        f[-1] = (1.0 + np.sqrt(d)) * fb
        yield f


@pytest.mark.parametrize("make", [gell_mann_basis, grouped_gell_mann_basis])
@pytest.mark.parametrize("d", range(2, 20))
def test_measurement_directions_match_per_family_generator(make, d):
    from mumkit.mum import _measurement_directions

    basis = make(d)
    got = _measurement_directions(basis)
    assert got.shape == (d + 1, d, d, d)
    assert got.tobytes() == np.array(list(_measurement_directions_by_family(basis))).tobytes()


def test_conjugate_on_real_elements_is_identity():
    eye = np.eye(2, dtype=complex) / 2
    fake = MumSet(d=2, elements=((eye, eye), (eye, eye), (eye, eye)), kappa=0.6)
    conj = conjugate_mums(fake)
    for row_a, row_b in zip(fake.elements, conj.elements):
        for a, b in zip(row_a, row_b):
            assert np.array_equal(a, b)


def test_conjugate_is_involution():
    ms = optimal_mums(3)
    back = conjugate_mums(conjugate_mums(ms))
    for row_a, row_b in zip(ms.elements, back.elements):
        for a, b in zip(row_a, row_b):
            assert np.array_equal(a, b)


def test_conjugate_preserves_kappa():
    ms = conjugate_mums(build_mums(grouped_gell_mann_basis(3), T_STAR_D3))
    report = verify_mums(ms, tol=1e-9)
    assert report.passed
    assert ms.kappa == pytest.approx(5.0 / 9.0)


def test_rotate_identity():
    ms = optimal_mums(3)
    rot = rotate_mums(ms, np.eye(3))
    for row_a, row_b in zip(ms.elements, rot.elements):
        for a, b in zip(row_a, row_b):
            assert np.array_equal(a, b)


def test_rotate_by_weyl_preserves_structure():
    ms = optimal_mums(3)
    rot = rotate_mums(ms, weyl_operator(3, 1, 1))
    report = verify_mums(rot, tol=1e-9)
    assert report.passed
    assert rot.kappa == ms.kappa


def test_rotate_round_trip():
    ms = optimal_mums(3)
    u = weyl_operator(3, 2, 1)
    back = rotate_mums(rotate_mums(ms, u), u.conj().T)
    for row_a, row_b in zip(ms.elements, back.elements):
        for a, b in zip(row_a, row_b):
            assert np.abs(a - b).max() < 1e-12


def test_rotate_rejects_non_unitary():
    with pytest.raises(ValueError, match="unitary"):
        rotate_mums(optimal_mums(2), np.array([[1, 1], [0, 1]], dtype=complex))


def test_rotate_rejects_a_nan_matrix():
    with pytest.raises(ValueError, match="not unitary"):
        rotate_mums(optimal_mums(3), np.full((3, 3), np.nan))


@pytest.mark.parametrize("make", [lambda: optimal_mums(3), lambda: mums_from_mubs(mub_prime(3))])
def test_pure_state_probability_square_sum(make):
    ms = make()
    for seed in range(10):
        rho = random_pure(3, seed)
        total = sum(
            float(trace_product(p, rho).real) ** 2 for row in ms.elements for p in row
        )
        assert total == pytest.approx(1.0 + ms.kappa, abs=1e-9)


def _bisection_max_valid_t(basis, resolution=1e-12):
    # the bisection max_valid_t replaced, kept here as its oracle
    d = basis.d
    eye = np.eye(d, dtype=complex)

    def feasible(t):
        for b in range(1, d + 2):
            fam = basis.elements[(b - 1) * (d - 1):b * (d - 1)]
            fb = sum(fam)
            for n in range(1, d + 1):
                fn = fb - (d + np.sqrt(d)) * fam[n - 1] if n < d else (1.0 + np.sqrt(d)) * fb
                if float(np.linalg.eigvalsh(eye / d + t * fn).min()) < -1e-12:
                    return False
        return True

    lo, hi = 0.0, 1.0
    assert not feasible(hi)
    while hi - lo > resolution:
        mid = 0.5 * (lo + hi)
        if feasible(mid):
            lo = mid
        else:
            hi = mid
    return lo


@pytest.mark.parametrize("make", [gell_mann_basis, grouped_gell_mann_basis])
@pytest.mark.parametrize("d", list(range(2, 9)))
def test_max_valid_t_closed_form_matches_bisection(make, d):
    basis = make(d)
    assert max_valid_t(basis) == pytest.approx(_bisection_max_valid_t(basis), abs=1e-12)


def test_max_valid_t_needs_a_negative_direction(monkeypatch):
    import mumkit.mum as mum

    d = 3
    monkeypatch.setattr(mum, "_measurement_directions",
                        lambda basis: [np.zeros((d, d, d), dtype=complex)] * (d + 1))
    with pytest.raises(ValueError, match="negative eigenvalue"):
        max_valid_t(grouped_gell_mann_basis(d))


def test_build_d16_temporaries_stay_bounded():
    # the whole-stack certificate and the plain F^(b) - c F_{n,b} took 3.24 MiB
    basis = grouped_gell_mann_basis(16)
    assert traced_peak_mib(build_mums, basis, t_from_kappa(16, optimal_kappa(16))) < 2.75
