import re

import numpy as np
import pytest

from mumkit import (
    BasisSet,
    CompositeDimensionError,
    mub_prime,
    mub_triple_d6,
    mums_from_mubs,
    tensor_product_bases,
    verify_mub,
    verify_mums,
)


def test_qubit_mubs():
    bs = mub_prime(2)
    assert bs.m == 3
    for i in range(3):
        for j in range(i + 1, 3):
            overlaps = np.abs(bs.bases[i].conj().T @ bs.bases[j]) ** 2
            assert np.abs(overlaps - 0.5).max() < 1e-12


@pytest.mark.parametrize("d", [3, 5, 7])
def test_prime_construction_verifies(d):
    bs = mub_prime(d)
    assert bs.m == d + 1
    report = verify_mub(bs, tol=1e-10)
    assert report.passed, report.summary()


def _mub_prime_loop(d):
    # the per-entry double loop mub_prime ran for odd primes, kept as its oracle
    bases = [np.eye(d, dtype=complex)]
    zeta = np.exp(2j * np.pi / d)
    for k in range(d):
        b = np.empty((d, d), dtype=complex)
        for j in range(d):
            for l in range(d):
                b[l, j] = zeta ** ((k * l * l + j * l) % d)
        bases.append(b / np.sqrt(d))
    return np.array(bases)


@pytest.mark.parametrize("d", [3, 5, 7, 11, 13, 17, 19, 23, 29, 31])
def test_mub_prime_matches_loop_bytes(d):
    assert mub_prime(d).bases.tobytes() == _mub_prime_loop(d).tobytes()


@pytest.mark.parametrize("d", [4, 6, 9])
def test_composite_dimension_rejected(d):
    with pytest.raises(CompositeDimensionError, match="build_mums"):
        mub_prime(d)


def test_duplicate_bases_fail():
    eye = np.eye(3, dtype=complex)
    report = verify_mub(BasisSet(d=3, bases=(eye, eye)), tol=1e-10)
    assert not report.passed
    assert report.defects["unbiasedness"] > 0.5


def test_phase_rotation_is_invisible():
    bs = mub_prime(3)
    rotated = list(bs.bases)
    rotated[1] = rotated[1].copy()
    rotated[1][:, 0] *= np.exp(0.7j)
    report = verify_mub(BasisSet(d=3, bases=tuple(rotated)), tol=1e-10)
    assert report.passed


@pytest.mark.parametrize("d", [2, 3, 5])
def test_per_basis_completeness(d):
    for b in mub_prime(d).bases:
        total = sum(np.outer(b[:, i], b[:, i].conj()) for i in range(d))
        assert np.abs(total - np.eye(d)).max() < 1e-10


@pytest.mark.parametrize("make", [lambda: mub_prime(2), lambda: mub_prime(3),
                                  lambda: mub_prime(7), mub_triple_d6],
                         ids=["d2", "d3", "d7", "d6-triple"])
def test_projectors_match_outer_products(make):
    # the per-column outer products mums_from_mubs built before the broadcast
    bs = make()
    got = mums_from_mubs(bs).elements
    assert got.shape == (bs.m, bs.d, bs.d, bs.d)
    for k, b in enumerate(bs.bases):
        for n in range(bs.d):
            assert got[k, n].tobytes() == np.outer(b[:, n], b[:, n].conj()).tobytes()


def test_lift_d2_gives_projective_measurements():
    ms = mums_from_mubs(mub_prime(2))
    assert ms.kappa == 1.0
    assert ms.t is None
    for row in ms.elements:
        for p in row:
            ev = np.sort(np.linalg.eigvalsh(p))
            assert np.abs(ev - np.array([0.0, 1.0])).max() < 1e-12


def test_lift_d3_passes_mum_verification():
    ms = mums_from_mubs(mub_prime(3))
    report = verify_mums(ms, tol=1e-10)
    assert report.passed, report.summary()
    assert report.details["kappa_inferred"] == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_lift_of_every_prefix(m):
    # any m >= 1 unbiased bases lift to m settings: the first m of the complete lift
    full = mums_from_mubs(mub_prime(3))
    ms = mums_from_mubs(BasisSet(d=3, bases=mub_prime(3).bases[:m]))
    assert ms.elements.shape == (m, 3, 3, 3) and ms.kappa == 1.0 and ms.t is None
    assert ms.elements.tobytes() == full.elements[:m].tobytes()
    report = verify_mums(ms, tol=1e-10)
    assert report.passed, report.summary()


def test_lift_of_no_bases_fails_verification():
    with pytest.raises(ValueError, match="MUB verification"):
        mums_from_mubs(BasisSet(d=3, bases=[]))


def test_lift_rejects_biased_bases():
    eye = np.eye(3, dtype=complex)
    with pytest.raises(ValueError, match="MUB verification"):
        mums_from_mubs(BasisSet(d=3, bases=(eye, eye, eye, eye)))


def test_product_triple_d6():
    bs = mub_triple_d6()
    assert bs.d == 6
    assert bs.m == 3
    assert np.abs(bs.bases[0] - np.eye(6)).max() < 1e-15
    assert verify_mub(bs, tol=1e-10).passed


def test_tensor_product_overlap_scaling():
    bs = tensor_product_bases(mub_prime(2), mub_prime(5))
    assert bs.d == 10
    assert bs.m == 3
    assert verify_mub(bs, tol=1e-10).passed


def test_bases_are_one_array():
    bs = mub_prime(3)
    assert isinstance(bs.bases, np.ndarray)
    assert bs.bases.shape == (4, 3, 3) and bs.bases.dtype == complex
    nested = BasisSet(d=3, bases=[list(map(list, b)) for b in bs.bases])
    assert np.array_equal(nested.bases, bs.bases)
    empty = BasisSet(d=3, bases=[])
    assert empty.m == 0 and empty.bases.shape == (0, 3, 3)
    assert not verify_mub(empty).passed


@pytest.mark.parametrize("d, bases, got", [
    (2, [np.eye(3), np.eye(3)], "shape (2, 3, 3)"),
    (1, [np.eye(1), np.eye(1)], "shape (2, 1, 1)"),
    (0, [], "shape (0,)"),
    (3, [np.eye(3), np.eye(2)], "a ragged grid"),
    (2, 5, "shape ()"),
])
def test_mis_shaped_basis_set_rejected(d, bases, got):
    with pytest.raises(ValueError, match=r"with d >= 2, got " + re.escape(got)):
        BasisSet(d=d, bases=bases)
