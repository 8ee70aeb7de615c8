import re

import numpy as np
import pytest

from mumkit import (
    BipartiteState,
    Xoshiro256,
    bell_diagonal,
    isotropic,
    max_entangled,
    partial_transpose,
    ppt_check,
    random_density,
    random_pure,
    random_separable,
    verify_state,
    weyl_operator,
)
from mumkit.linalg import require_hermitian
from mumkit.reporting import min_eigenvalues
from mumkit.states import (
    _check_density_matrices,
    _make_state,
    _phi_plus,
    bell_diagonal_states,
    isotropic_states,
    ppt_minima,
)


def test_max_entangled_d2_entries():
    rho = max_entangled(2).rho
    want = np.zeros((4, 4), dtype=complex)
    for i in (0, 3):
        for j in (0, 3):
            want[i, j] = 0.5
    assert np.abs(rho - want).max() < 1e-15


@pytest.mark.parametrize("d", [2, 3, 5])
def test_max_entangled_is_pure(d):
    rho = max_entangled(d).rho
    assert complex(np.trace(rho)).real == pytest.approx(1.0, abs=1e-12)
    assert complex(np.trace(rho @ rho)).real == pytest.approx(1.0, abs=1e-12)


def test_isotropic_endpoints():
    d = 3
    assert np.abs(isotropic(d, 0.0).rho - np.eye(9) / 9).max() < 1e-15
    assert np.abs(isotropic(d, 1.0).rho - max_entangled(d).rho).max() < 1e-15


def test_isotropic_spectrum():
    state = isotropic(3, 0.5)
    # oracle: isotropic spectrum is alpha + (1-alpha)/d^2 once, (1-alpha)/d^2 repeated
    want = np.array([0.5 + 0.5 / 9] + [0.5 / 9] * 8)
    got = np.sort(np.linalg.eigvalsh(state.rho))[::-1]
    assert np.abs(got - want).max() < 1e-12


def test_isotropic_alpha_range():
    with pytest.raises(ValueError, match="alpha"):
        isotropic(3, 1.2)
    with pytest.raises(ValueError, match="alpha"):
        isotropic(3, -0.1)
    # a stack raises for its first bad alpha, with the one-point message
    for alphas, first in (([0.5, 1.5, -0.5], 1.5), ([0.0, -0.5, 1.5], -0.5),
                          ([1.0, np.nan], np.nan)):
        assert _message(isotropic_states, 3, alphas) == _message(isotropic, 3, first)


def test_isotropic_ppt_below_threshold():
    assert ppt_check(isotropic(3, 0.25)).is_ppt  # 0.25 <= 1/(d+1)


@pytest.mark.parametrize("d,alpha,expected", [(4, 0.19, True), (4, 0.21, False)])
def test_isotropic_ppt_around_threshold(d, alpha, expected):
    result = ppt_check(isotropic(d, alpha))
    # oracle: partial transpose eigenvalues are (1-a)/d^2 +- a/d
    lowest = (1 - alpha) / d ** 2 - alpha / d
    assert result.min_eigenvalue == pytest.approx(lowest, abs=1e-12)
    assert result.is_ppt is expected


def test_ppt_flip_matches_threshold():
    d = 3
    lo, hi = 0.0, 1.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if ppt_check(isotropic(d, mid)).is_ppt:
            lo = mid
        else:
            hi = mid
    assert abs(0.5 * (lo + hi) - 1.0 / (d + 1)) < 1e-9


def test_maximally_mixed_ppt():
    d = 3
    result = ppt_check(isotropic(d, 0.0))
    assert result.min_eigenvalue == pytest.approx(1.0 / d ** 2, abs=1e-12)
    assert result.is_ppt


def test_bell_diagonal_peak_is_max_entangled():
    d = 3
    p = np.zeros((d, d))
    p[0, 0] = 1.0
    assert np.abs(bell_diagonal(d, p).rho - max_entangled(d).rho).max() < 1e-12


def test_bell_diagonal_uniform_is_maximally_mixed():
    d = 3
    p = np.full((d, d), 1.0 / d ** 2)
    assert np.abs(bell_diagonal(d, p).rho - np.eye(d * d) / d ** 2).max() < 1e-12


def test_bell_diagonal_eigenvalues_are_weights():
    d = 2
    p = np.array([[0.7, 0.1], [0.1, 0.1]])
    rho = bell_diagonal(d, p).rho
    got = np.sort(np.linalg.eigvalsh(rho))
    assert np.abs(got - np.sort(p.ravel())).max() < 1e-10


def _phi_plus_loop(d):
    # the per-entry loop _phi_plus ran, kept as its oracle
    v = np.zeros(d * d, dtype=complex)
    for i in range(d):
        v[i * d + i] = 1.0 / np.sqrt(d)
    return np.outer(v, v.conj())


@pytest.mark.parametrize("d", range(2, 20))
def test_phi_plus_matches_loop_bytes(d):
    assert _phi_plus(d).tobytes() == _phi_plus_loop(d).tobytes()


def bell_diagonal_by_kron(d, p):
    # the per-call Kronecker loop that bell_diagonal ran before its terms were cached
    v = np.zeros(d * d, dtype=complex)
    v[np.arange(d) * (d + 1)] = 1.0 / np.sqrt(d)
    phi = np.outer(v, v.conj())
    eye = np.eye(d, dtype=complex)
    rho = np.zeros((d * d, d * d), dtype=complex)
    for s in range(d):
        for t in range(d):
            if p[s, t] == 0.0:
                continue
            u = np.kron(weyl_operator(d, s, t), eye)
            rho += p[s, t] * (u @ phi @ u.conj().T)
    return rho


def _bell_grids(d, seed):
    # sweep-style grids (one peak, flat rest) and random grids with zero weights
    grids = []
    for c in (1.0 / d ** 2, 0.3, 0.731, 1.0):
        p = np.full((d, d), (1.0 - c) / (d * d - 1))
        p[0, 0] = c
        grids.append(p / p.sum())
    rng = np.random.default_rng(seed)
    for _ in range(4):
        p = rng.random((d, d))
        p[rng.random((d, d)) < 0.4] = 0.0
        p[d - 1, 0] += 0.1  # never all zero
        grids.append(p / p.sum())
    return grids


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6, 7, 8, 11])
def test_bell_diagonal_bytes_match_kron_loop(d):
    for p in _bell_grids(d, 400 + d):
        assert bell_diagonal(d, p).rho.tobytes() == bell_diagonal_by_kron(d, p).tobytes()


def test_returned_states_do_not_alias_cached_terms():
    d = 3
    p = np.full((d, d), 1.0 / d ** 2)
    peak = np.zeros((d, d))
    peak[0, 0] = 1.0
    for st in (max_entangled(d), isotropic(d, 0.4), bell_diagonal(d, p)):
        st.rho[...] = 7.0
    assert bell_diagonal(d, p).rho.tobytes() == bell_diagonal_by_kron(d, p).tobytes()
    assert isotropic(d, 1.0).rho.tobytes() == bell_diagonal_by_kron(d, peak).tobytes()


def test_bell_diagonal_validates_grid():
    with pytest.raises(ValueError, match="non-negative"):
        bell_diagonal(2, np.array([[1.1, -0.1], [0.0, 0.0]]))
    with pytest.raises(ValueError, match="sum to 1"):
        bell_diagonal(2, np.array([[0.5, 0.1], [0.1, 0.1]]))
    with pytest.raises(ValueError, match="grid"):
        bell_diagonal(3, np.full((2, 2), 0.25))
    # NaN passes both the sign and the sum comparisons
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="grid must be finite"):
            bell_diagonal(2, np.array([[1.0, 0.0], [0.0, bad]]))
    # plain floats in the message, not numpy scalar reprs
    with pytest.raises(ValueError, match=r"min is -0\.1$"):
        bell_diagonal(2, np.array([[1.1, -0.1], [0.0, 0.0]]))
    with pytest.raises(ValueError, match=r"got 0\.75$"):
        bell_diagonal(2, np.array([[0.5, 0.25], [0.0, 0.0]]))


def test_random_pure_properties():
    rho = random_pure(3, 99)
    assert complex(np.trace(rho)).real == pytest.approx(1.0, abs=1e-12)
    assert complex(np.trace(rho @ rho)).real == pytest.approx(1.0, abs=1e-12)
    assert np.array_equal(rho, random_pure(3, 99))
    assert not np.array_equal(rho, random_pure(3, 100))


def test_random_pure_ground_population_statistics():
    # unitary invariance oracle: E[<0|rho|0>] = 1/d
    d = 3
    vals = np.array([random_pure(d, seed)[0, 0].real for seed in range(10000)])
    se = vals.std(ddof=1) / np.sqrt(len(vals))
    assert abs(vals.mean() - 1.0 / d) <= 5 * se


def test_random_separable_single_term_is_pure_product():
    st = random_separable(3, 1, 4)
    purity = complex(np.trace(st.rho @ st.rho)).real
    assert purity == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("seed", range(5))
def test_random_separable_invariants(seed):
    st = random_separable(3, 8, seed)
    report = verify_state(st, tol=1e-10)
    assert report.passed, report.summary()


def _kron_random_separable(d, k, seed):
    """The mixture of random_separable built term by term from np.kron, as first written."""
    gen = Xoshiro256(seed)
    w = gen.exponentials(k)
    w /= w.sum()
    rho = np.zeros((d * d, d * d), dtype=complex)
    for i in range(k):
        a = gen.complex_normals(d)
        a /= np.linalg.norm(a)
        b = gen.complex_normals(d)
        b /= np.linalg.norm(b)
        rho += w[i] * np.outer(np.kron(a, b), np.kron(a, b).conj())
    return rho


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6, 10])
def test_random_separable_matches_kron_mixture_bitwise(d):
    for k in (1, 2, 8, 13):
        for seed in range(150):
            rho = random_separable(d, k, seed).rho
            assert rho.tobytes() == _kron_random_separable(d, k, seed).tobytes(), (k, seed)


def test_random_separable_needs_terms():
    with pytest.raises(ValueError, match="k=0"):
        random_separable(3, 0, 2)


def test_random_density_invariants():
    st = random_density(4, 17)
    report = verify_state(st, tol=1e-10)
    assert report.passed
    assert np.array_equal(st.rho, random_density(4, 17).rho)


def test_partial_transpose_involution():
    st = random_density(3, 5)
    from mumkit import BipartiteState

    once = partial_transpose(st)
    twice = partial_transpose(BipartiteState(d=3, rho=once))
    assert np.array_equal(twice, st.rho)


def test_partial_transpose_of_product_state_is_psd():
    gen = Xoshiro256(8)
    a = gen.complex_normals(3)
    a /= np.linalg.norm(a)
    b = gen.complex_normals(3)
    b /= np.linalg.norm(b)
    rho_a = np.outer(a, a.conj())
    rho_b = np.outer(b, b.conj())
    from mumkit import BipartiteState

    st = BipartiteState(d=3, rho=np.kron(rho_a, rho_b))
    pt = partial_transpose(st)
    assert np.abs(pt - np.kron(rho_a, rho_b.T)).max() < 1e-12
    assert np.linalg.eigvalsh(pt).min() > -1e-12


@pytest.mark.parametrize("d", [2, 3])
def test_partial_transpose_of_max_entangled_is_flip(d):
    pt = partial_transpose(max_entangled(d))
    got = np.sort(np.linalg.eigvalsh(pt))
    want = np.sort([1.0 / d] * ((d * d + d) // 2) + [-1.0 / d] * ((d * d - d) // 2))
    assert np.abs(got - want).max() < 1e-12


def test_verify_state_flags_bad_trace():
    from mumkit import BipartiteState

    report = verify_state(BipartiteState(d=2, rho=np.eye(4, dtype=complex)), tol=1e-9)
    assert not report.passed
    assert report.defects["trace"] == pytest.approx(3.0)


def test_rho_is_one_validated_array():
    from mumkit import BipartiteState

    st = BipartiteState(d=2, rho=np.eye(4).tolist())
    assert isinstance(st.rho, np.ndarray)
    assert st.rho.shape == (4, 4) and st.rho.dtype == complex
    for d, rho, got in ((2, np.eye(9), "shape (9, 9)"), (3, np.eye(9)[:4], "shape (4, 9)"),
                        (-2, np.eye(4), "shape (4, 4)"), (2, [[1.0], [0.0, 1.0]], "a ragged grid")):
        with pytest.raises(ValueError, match=r"d >= 1, got " + re.escape(got)):
            BipartiteState(d=d, rho=rho)


@pytest.mark.parametrize("d", [2, 3, 4, 5, 9])
def test_stacked_bell_states_match_per_point(d):
    grids = np.array(_bell_grids(d, 500 + d))
    rhos = bell_diagonal_states(d, grids)
    for p, rho in zip(grids, rhos):
        assert rho.tobytes() == bell_diagonal(d, p).rho.tobytes()
        assert rho.tobytes() == bell_diagonal_by_kron(d, p).tobytes()
    want = [ppt_check(bell_diagonal(d, p)).min_eigenvalue for p in grids]
    assert ppt_minima(d, rhos).tobytes() == np.array(want).tobytes()


@pytest.mark.parametrize("d", [2, 3, 4, 5, 9])
def test_stacked_isotropic_states_match_per_point(d):
    alphas = [0.0, 1e-300, 1.0 / (d + 1), 0.3, 0.731, 1.0]
    rhos = isotropic_states(d, alphas)
    for alpha, rho in zip(alphas, rhos):
        # the one-point formula, written out
        want = alpha * _phi_plus(d) + (1.0 - alpha) * np.eye(d * d, dtype=complex) / d ** 2
        assert rho.tobytes() == want.tobytes() == isotropic(d, alpha).rho.tobytes()
    want = [ppt_check(isotropic(d, alpha)).min_eigenvalue for alpha in alphas]
    assert ppt_minima(d, rhos).tobytes() == np.array(want).tobytes()


def test_stacked_eigenvalues_match_per_matrix():
    rhos = np.array([random_density(3, seed).rho for seed in range(12)])
    want = [float(np.linalg.eigvalsh(rho).min()) for rho in rhos]
    assert min_eigenvalues(rhos).tobytes() == np.array(want).tobytes()


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6, 7])
def test_ppt_minima_match_per_matrix_eigvalsh(d):
    states = [random_density(d, seed) for seed in range(4)]
    states += [isotropic(d, 0.9), max_entangled(d), random_separable(d, 3, 70 + d)]
    want = [np.linalg.eigvalsh(partial_transpose(st)).min() for st in states]
    rhos = np.array([st.rho for st in states])
    assert ppt_minima(d, rhos).tobytes() == np.array(want).tobytes()
    got = [ppt_check(st).min_eigenvalue for st in states]
    assert np.array(got).tobytes() == np.array(want).tobytes()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("i, j", [(0, 0), (0, 1), (1, 0)], ids=["diagonal", "upper", "lower"])
def test_ppt_oracle_refuses_a_non_finite_state(monkeypatch, i, j, bad):
    rho = np.eye(4, dtype=complex) / 4
    rho[i, j] = bad

    eigvalsh = np.linalg.eigvalsh

    def finite_eigvalsh(a):
        assert np.isfinite(a).all(), "an eigenvalue was taken of a non-finite matrix"
        return eigvalsh(a)

    monkeypatch.setattr(np.linalg, "eigvalsh", finite_eigvalsh)
    with pytest.raises(ValueError, match="non-finite entry"):
        ppt_check(BipartiteState(2, rho))
    with pytest.raises(ValueError, match="not Hermitian"):
        ppt_minima(2, rho[None])
    with pytest.raises(ValueError, match="not Hermitian"):
        ppt_minima(2, np.array([np.eye(4) / 4, rho]))


def _message(call, *args):
    with pytest.raises(ValueError) as err:
        call(*args)
    return str(err.value)


def test_bell_diagonal_states_raises_for_the_first_bad_grid():
    good = np.full((2, 2), 0.25)
    sums_wrong = np.array([[0.5, 0.25], [0.0, 0.0]])
    negative = np.array([[1.1, -0.1], [0.0, 0.0]])
    infinite = np.array([[1.0, 0.0], [np.inf, -np.inf]])
    for stack, first in (([good, sums_wrong, negative], sums_wrong),
                         ([good, good, negative, sums_wrong], negative),
                         ([infinite, negative], infinite)):
        want = _message(bell_diagonal, 2, first)
        assert _message(bell_diagonal_states, 2, np.array(stack)) == want
    with pytest.raises(ValueError, match="K x 2 x 2 stack"):
        bell_diagonal_states(2, good)


def test_density_checks_raise_for_the_first_bad_matrix():
    good = isotropic(2, 0.5).rho
    not_hermitian = good.copy()
    not_hermitian[0, 1] += 1e-6
    bad_trace = 1.1 * good
    not_psd = np.diag([1.2, -0.2, 0.0, 0.0]).astype(complex)
    for stack, first in (([good, not_psd, not_hermitian], not_psd),
                         ([good, not_hermitian, not_psd], not_hermitian),
                         ([bad_trace, not_psd], bad_trace)):
        want = _message(_make_state, 2, first)
        rhos = np.array(stack)
        assert _message(_check_density_matrices, rhos) == want
        assert _message(ppt_minima, 2, rhos) == want
    _check_density_matrices(good[None])


def _old_check_density_matrices(rhos, min_eigs):
    """_check_density_matrices as it stood before the Cholesky certificate."""
    defects = np.abs(rhos - rhos.conj().swapaxes(-1, -2)).max(axis=(-2, -1)).tolist()
    traces = rhos.trace(axis1=-2, axis2=-1).tolist()
    for i, (defect, tr, min_ev) in enumerate(zip(defects, traces, min_eigs.tolist())):
        if defect > 1e-12:
            require_hermitian(rhos[i], what="density matrix")
        if abs(tr - 1.0) > 1e-10:
            raise ValueError(f"density matrix trace {tr} is not 1")
        if min_ev < -1e-10:
            raise ValueError(f"density matrix is not PSD (min eigenvalue {min_ev:.3e})")


def _planted_state(rng, n, lam_min):
    """A unit-trace U diag(lam) U^H with the given smallest eigenvalue, from a seeded U."""
    lam = rng.uniform(0.0, 1.0, n)
    lam *= (1.0 - lam_min) / lam[1:].sum()
    lam[0] = lam_min
    q, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    rho = (q * lam) @ q.conj().T
    return 0.5 * (rho + rho.conj().T)


def _refusal(call, *args):
    try:
        call(*args)
    except ValueError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("d", [2, 3, 5])
def test_density_checks_refuse_as_the_eigenvalue_check_did(d):
    rng = np.random.default_rng(40 + d)
    lams = [0.0, 1e-3, -5e-11, -1e-10 * (1 - 1e-6), -1e-10 * (1 + 1e-6), -2e-10, -0.1]
    for lam in lams:
        # a PSD state, the planted one, then every spectrum again
        rhos = np.array([_planted_state(rng, d * d, x) for x in [0.0, lam] + lams])
        for stack in (rhos, rhos[:4]):
            want = _refusal(_old_check_density_matrices, stack, min_eigenvalues(stack))
            assert _refusal(_check_density_matrices, stack) == want
            assert _refusal(ppt_minima, d, stack) == want
        for rho in rhos:
            want = _refusal(_old_check_density_matrices, rho[None], min_eigenvalues(rho[None]))
            assert _refusal(_make_state, d, rho) == want
