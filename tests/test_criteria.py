import dataclasses
import hashlib
import re

import numpy as np
import pytest

from mumkit import (
    BasisSet,
    BipartiteState,
    OperatorBasis,
    Xoshiro256,
    bell_choice,
    bell_detection_threshold,
    bell_diagonal,
    conjugate_mums,
    correlation_bound,
    correlation_criterion,
    correlation_matrix_trace,
    gell_mann_basis,
    grouped_gell_mann_basis,
    isotropic,
    j_correlation_identity,
    j_isotropic_closed,
    j_value,
    max_entangled,
    mub_criterion,
    mub_prime,
    mub_triple_d6,
    mum_criterion,
    mums_from_mubs,
    optimal_mums,
    pure_identity_check,
    random_density,
    random_pure,
    random_separable,
    rotate_mums,
    setting_distributions,
    simulate_counts,
    weyl_operator,
)

from oracles import mub_by_projector_contraction, near_psd_state, trace_product


def j_by_explicit_kron(state, pset, qset):
    # independent route: materialized Kronecker products, one trace per term
    total = 0.0
    for row_p, row_q in zip(pset.elements, qset.elements):
        for p, q in zip(row_p, row_q):
            total += float(trace_product(np.kron(p, q), state.rho).real)
    return total


# The einsum contractions that j_value, correlation_matrix_trace and
# setting_distributions evaluated before the witness-operator form.
def j_by_einsum(state, pset, qset):
    d = state.d
    rho4 = state.rho.reshape(d, d, d, d)
    ps = np.array([p for row in pset.elements for p in row])
    qs = np.array([q for row in qset.elements for q in row])
    return complex(np.einsum("uab,uce,beac->", ps, qs, rho4, optimize=True)).real


def correlation_trace_by_einsum(state, basis):
    d = state.d
    rho4 = state.rho.reshape(d, d, d, d)
    fs = np.array(basis.elements)
    return 0.5 * complex(np.einsum("uab,uce,beac->", fs, fs, rho4, optimize=True)).real


def distributions_by_einsum(state, pset, qset):
    d = state.d
    rho4 = state.rho.reshape(d, d, d, d)
    return [
        np.einsum("nab,mce,beac->nm", np.array(pb), np.array(qb), rho4, optimize=True).real
        for pb, qb in zip(pset.elements, qset.elements)
    ]


def _is_prime(d):
    return d > 1 and all(d % f for f in range(2, d))


def _pairings(d):
    # (pairing name, pset, qset): the CLI pairings plus the MUB-lifted set for prime d
    pset = optimal_mums(d)
    grid = np.full((d, d), 0.4 / (d * d - 1))
    grid[d - 1, 1] = 0.6
    out = [("self", pset, pset), ("conjugate", pset, conjugate_mums(pset)),
           ("bell-choice", pset, bell_choice(pset, grid)[0])]
    if _is_prime(d):
        mp = mums_from_mubs(mub_prime(d))
        out += [("mub-lifted self", mp, mp), ("mub-lifted conjugate", mp, conjugate_mums(mp))]
    return out


def bell_fidelity(state):
    # <Phi+|rho|Phi+> with |Phi+> = sum_i |ii> / sqrt(d)
    d = state.d
    idx = np.arange(d) * (d + 1)
    return float(state.rho[np.ix_(idx, idx)].sum().real) / d


@pytest.mark.parametrize("d", range(2, 9))
def test_j_and_distributions_match_einsum_oracle(d):
    states = [random_density(d, 300 + d), random_separable(d, 4, 310 + d), isotropic(d, 0.7)]
    for name, pset, qset in _pairings(d):
        for st in states:
            assert abs(j_value(st, pset, qset) - j_by_einsum(st, pset, qset)) <= 1e-14, name
            got = setting_distributions(st, pset, qset)
            want = distributions_by_einsum(st, pset, qset)
            assert len(got) == len(want) == d + 1
            for g, w in zip(got, want):
                assert g.shape == (d, d)
                assert np.abs(g - w).max() <= 1e-14, name


@pytest.mark.parametrize("d", range(2, 9))
def test_correlation_trace_matches_einsum_oracle(d):
    for basis in (gell_mann_basis(d), grouped_gell_mann_basis(d)):
        for st in (random_density(d, 320 + d), random_separable(d, 4, 330 + d)):
            got = correlation_matrix_trace(st, basis)
            assert abs(got - correlation_trace_by_einsum(st, basis)) <= 1e-14


@pytest.mark.parametrize("d", range(2, 9))
def test_j_conjugate_pairing_matches_fidelity_form(d):
    # J = (d+1)/d + ((d kappa - 1)/(d - 1)) (d F - 1/d) with F = <Phi+|rho|Phi+>
    sets = [optimal_mums(d)] + ([mums_from_mubs(mub_prime(d))] if _is_prime(d) else [])
    for pset in sets:
        qset = conjugate_mums(pset)
        k = pset.kappa
        for seed in range(3):
            st = random_density(d, 340 + 10 * d + seed)
            want = (d + 1) / d + ((d * k - 1.0) / (d - 1)) * (d * bell_fidelity(st) - 1.0 / d)
            assert abs(j_value(st, pset, qset) - want) <= 1e-14


@pytest.mark.parametrize("d", [2, 3, 4])
def test_j_of_maximally_mixed(d):
    ms = optimal_mums(d)
    st = isotropic(d, 0.0)
    assert j_value(st, ms, ms) == pytest.approx((d + 1) / d, abs=1e-10)
    assert j_value(st, ms, conjugate_mums(ms)) == pytest.approx((d + 1) / d, abs=1e-10)


def test_j_of_max_entangled_conjugate_pairing():
    ms = optimal_mums(3)
    st = isotropic(3, 1.0)
    assert j_value(st, ms, conjugate_mums(ms)) == pytest.approx(20.0 / 9.0, abs=1e-10)


def test_j_matches_explicit_kron_route():
    ms = optimal_mums(3)
    qs = conjugate_mums(ms)
    st = random_density(3, 21)
    assert j_value(st, ms, qs) == pytest.approx(j_by_explicit_kron(st, ms, qs), abs=1e-10)


def test_j_rejects_kappa_mismatch():
    pset = optimal_mums(3)  # kappa = 5/9
    qset = mums_from_mubs(mub_prime(3))  # kappa = 1
    with pytest.raises(ValueError, match="purity"):
        j_value(isotropic(3, 0.5), pset, qset)


def test_j_rejects_dimension_mismatch():
    with pytest.raises(ValueError, match="dimension"):
        j_value(isotropic(3, 0.5), optimal_mums(2), optimal_mums(2))


def test_j_flags_non_hermitian_drift():
    from mumkit import BipartiteState

    ms = optimal_mums(2)
    rho = isotropic(2, 0.5).rho.copy()
    rho[1, 2] += 0.3j  # break Hermiticity behind the dataclass
    with pytest.raises(ValueError, match="non-real"):
        j_value(BipartiteState(d=2, rho=rho), ms, ms)


def test_mub_and_correlation_trace_flag_non_hermitian_drift():
    from mumkit import BipartiteState

    # break Hermiticity behind the dataclass, at an entry each witness weighs:
    # (|00>, |11>) for the bases paired with their conjugates, and
    # (|01>, |10>) for the basis paired with itself (sum_u F_u (x) F_u is SWAP - I/d)
    for (i, j), check in [((0, 4), lambda st: mub_criterion(st, mub_prime(3))),
                          ((1, 3), lambda st: correlation_matrix_trace(st, gell_mann_basis(3)))]:
        rho = isotropic(3, 0.4).rho.copy()
        rho[i, j] += 0.05j
        with pytest.raises(ValueError, match="non-real"):
            check(BipartiteState(d=3, rho=rho))


@pytest.mark.parametrize("seed", range(10))
def test_separable_states_obey_bound_smoke(seed):
    d = 3
    ms = optimal_mums(d)
    st = random_separable(d, 8, seed)
    assert j_value(st, ms, ms) <= 1.0 + ms.kappa + 1e-9
    assert j_value(st, ms, conjugate_mums(ms)) <= 1.0 + ms.kappa + 1e-9


def test_mum_criterion_detects_isotropic_d6():
    ms = optimal_mums(6)
    report = mum_criterion(isotropic(6, 0.2), ms, conjugate_mums(ms))
    assert report.verdict == "entangled"
    assert report.bound == pytest.approx(1.0 + 2.0 / 9.0)


def test_mum_criterion_inconclusive_below_threshold():
    ms = optimal_mums(6)
    report = mum_criterion(isotropic(6, 0.1), ms, conjugate_mums(ms))
    assert report.verdict == "inconclusive"


def test_mum_criterion_inconclusive_on_maximally_mixed():
    ms = optimal_mums(4)
    report = mum_criterion(isotropic(4, 0.0), ms, conjugate_mums(ms))
    assert report.verdict == "inconclusive"


def test_mum_criterion_boundary_state_is_inconclusive():
    d = 3
    ms = optimal_mums(d)
    report = mum_criterion(isotropic(d, 1.0 / (d + 1)), ms, conjugate_mums(ms))
    assert report.value == pytest.approx(report.bound, abs=1e-12)
    assert report.verdict == "inconclusive"


def test_isotropic_closed_form_endpoints():
    assert j_isotropic_closed(3, 5.0 / 9.0, 0.0) == pytest.approx(4.0 / 3.0)
    assert j_isotropic_closed(3, 5.0 / 9.0, 1.0) == pytest.approx(20.0 / 9.0)


@pytest.mark.parametrize("d", list(range(2, 11)))
def test_isotropic_closed_form_crossing(d):
    from mumkit import optimal_kappa

    kappa = optimal_kappa(d)
    lo, hi = 0.0, 1.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if j_isotropic_closed(d, kappa, mid) <= 1.0 + kappa:
            lo = mid
        else:
            hi = mid
    assert abs(0.5 * (lo + hi) - 1.0 / (d + 1)) < 1e-12


@pytest.mark.parametrize("alpha", [0.1, 0.25, 0.6])
def test_mub_criterion_isotropic_closed_form(alpha):
    d, bases = 3, mub_prime(3)
    report = mub_criterion(isotropic(d, alpha), bases)
    m = bases.m
    assert report.value == pytest.approx(m * (alpha + (1 - alpha) / d), abs=1e-10)
    assert report.bound == pytest.approx(1.0 + (m - 1) / d)


def test_mub_criterion_maximally_mixed():
    d, bases = 3, mub_prime(3)
    report = mub_criterion(isotropic(d, 0.0), bases)
    assert report.value == pytest.approx(bases.m / d, abs=1e-10)
    assert report.verdict == "inconclusive"


def test_mub_criterion_detects_above_threshold():
    report = mub_criterion(isotropic(3, 0.3), mub_prime(3))  # 0.3 > 1/(d+1)
    assert report.verdict == "entangled"


def mub_value_by_kron_loop(state, bases):
    # the per-vector loop mub_criterion ran before the witness contraction
    value = 0.0
    for b in bases.bases:
        for i in range(bases.d):
            w = np.kron(b[:, i], b[:, i].conj())
            value += float((w.conj() @ state.rho @ w).real)
    return value


@pytest.mark.parametrize("make", [lambda: mub_prime(2), lambda: mub_prime(3),
                                  lambda: mub_prime(5), lambda: mub_prime(7), mub_triple_d6],
                         ids=["d2", "d3", "d5", "d7", "d6-triple"])
def test_mub_criterion_matches_kron_loop(make):
    bases = make()
    d = bases.d
    states = [isotropic(d, 0.3), max_entangled(d), random_separable(d, 4, 11)]
    states += [random_density(d, 60 + seed) for seed in range(3)]
    for st in states:
        assert mub_criterion(st, bases).value == pytest.approx(
            mub_value_by_kron_loop(st, bases), abs=1e-14)


def test_mub_criterion_rejects_biased_bases():
    eye = np.eye(3, dtype=complex)
    with pytest.raises(ValueError, match="MUB verification"):
        mub_criterion(isotropic(3, 0.5), BasisSet(d=3, bases=(eye, eye)))


def test_correlation_trace_maximally_mixed():
    st = isotropic(3, 0.0)
    assert correlation_matrix_trace(st, gell_mann_basis(3)) == pytest.approx(0.0, abs=1e-12)


def test_correlation_trace_max_entangled():
    # oracle: direct summation of Tr(rho F (x) F) over the basis
    d = 3
    st = max_entangled(d)
    basis = gell_mann_basis(d)
    raw = sum(float(trace_product(np.kron(f, f), st.rho).real) for f in basis.elements)
    assert raw == pytest.approx((d - 1) / d, abs=1e-10)  # = 2/3
    assert correlation_matrix_trace(st, basis) == pytest.approx(raw / 2, abs=1e-10)
    assert correlation_matrix_trace(st, basis) == pytest.approx(correlation_bound(d), abs=1e-10)


def test_correlation_trace_grouping_invariant():
    st = random_density(3, 31)
    a = correlation_matrix_trace(st, gell_mann_basis(3))
    b = correlation_matrix_trace(st, grouped_gell_mann_basis(3))
    assert a == pytest.approx(b, abs=1e-12)


def test_correlation_identity_maximally_mixed():
    d = 3
    ms = optimal_mums(d)
    lhs, rhs = j_correlation_identity(isotropic(d, 0.0), ms)
    assert lhs == pytest.approx((d + 1) / d, abs=1e-10)
    assert rhs == pytest.approx((d + 1) / d, abs=1e-10)


def test_correlation_identity_max_entangled():
    ms = optimal_mums(3)
    lhs, rhs = j_correlation_identity(max_entangled(3), ms)
    assert lhs == pytest.approx(rhs, abs=1e-9)
    assert lhs == pytest.approx(14.0 / 9.0, abs=1e-9)  # (d+1)/d + (kappa - 1/d)


@pytest.mark.parametrize("seed", range(5))
def test_correlation_identity_random_density_d4(seed):
    ms = optimal_mums(4)
    lhs, rhs = j_correlation_identity(random_density(4, seed), ms)
    assert lhs == pytest.approx(rhs, abs=1e-9)


@pytest.mark.parametrize("d", [2, 3, 4, 6])
def test_correlation_identity_on_mapped_sets(d):
    # conjugate_mums and rotate_mums map the source basis with the elements,
    # so the identity holds on the sets they return
    ms = optimal_mums(d)
    for s, t in [(1, 0), (0, 1), (1, 1)]:
        for mapped in (conjugate_mums(ms), rotate_mums(ms, weyl_operator(d, s, t))):
            for seed in range(3):
                lhs, rhs = j_correlation_identity(random_density(d, 100 * d + seed), mapped)
                assert abs(lhs - rhs) <= 1e-12


def test_correlation_identity_refuses_a_nan_basis():
    # the contraction over a NaN source basis is not real, so it is refused, not J = nan
    ms = optimal_mums(3)
    elements = ms.source_basis.elements.copy()
    elements[2, 1, 0] = np.nan
    ms = dataclasses.replace(ms, source_basis=OperatorBasis(d=3, elements=elements))
    with pytest.raises(ValueError, match="non-real"):
        j_correlation_identity(isotropic(3, 0.5), ms)


def test_correlation_identity_needs_provenance():
    ms = mums_from_mubs(mub_prime(3))
    with pytest.raises(ValueError, match="provenance"):
        j_correlation_identity(isotropic(3, 0.5), ms)


def test_bell_choice_peak_weight():
    d = 3
    ms = optimal_mums(d)
    p = np.zeros((d, d))
    p[0, 0] = 1.0
    qset, c = bell_choice(ms, p)
    assert c == 1.0
    st = bell_diagonal(d, p)
    assert j_value(st, ms, qset) == pytest.approx(ms.kappa * (d + 1), abs=1e-9)  # 20/9


def test_bell_choice_uniform_weights():
    d = 3
    ms = optimal_mums(d)
    p = np.full((d, d), 1.0 / d ** 2)
    qset, c = bell_choice(ms, p)
    assert c == pytest.approx(1.0 / d ** 2)
    st = bell_diagonal(d, p)
    report = mum_criterion(st, ms, qset)
    assert report.value == pytest.approx((d + 1) / d, abs=1e-9)
    assert report.verdict == "inconclusive"
    assert c * ms.kappa * (d + 1) <= 1.0 + ms.kappa


def test_bell_choice_qubit_spike_is_detected():
    d = 2
    ms = optimal_mums(d)  # kappa = 1
    p = np.array([[0.8, 0.2 / 3], [0.2 / 3, 0.2 / 3]])
    qset, c = bell_choice(ms, p)
    assert c == pytest.approx(0.8)
    assert c > bell_detection_threshold(d, ms.kappa)  # 0.8 > 2/3
    report = mum_criterion(bell_diagonal(d, p), ms, qset)
    assert report.verdict == "entangled"


def test_bell_choice_validates_grid():
    ms = optimal_mums(2)
    with pytest.raises(ValueError, match="grid"):
        bell_choice(ms, np.full((3, 3), 1.0 / 9.0))
    with pytest.raises(ValueError, match="sum to 1"):
        bell_choice(ms, np.full((2, 2), 0.3))
    with pytest.raises(ValueError, match="grid must be finite"):
        bell_choice(ms, np.array([[1.0, 0.0], [0.0, np.nan]]))


@pytest.mark.parametrize("seed", range(30))
def test_bell_choice_lower_bound_random_grids(seed):
    d = 3
    ms = optimal_mums(d)
    gen = Xoshiro256(700 + seed)
    p = gen.exponentials(d * d).reshape(d, d)
    p /= p.sum()
    qset, c = bell_choice(ms, p)
    st = bell_diagonal(d, p)
    assert j_value(st, ms, qset) >= c * ms.kappa * (d + 1) - 1e-9


def test_bell_threshold_decreases_with_kappa():
    d = 3
    kappas = np.linspace(1.0 / d + 0.01, 1.0, 25)
    thresholds = [bell_detection_threshold(d, k) for k in kappas]
    assert all(a > b for a, b in zip(thresholds, thresholds[1:]))


def test_pure_identity_qubit_ground_state():
    ms = mums_from_mubs(mub_prime(2))
    rho = np.diag([1.0, 0.0]).astype(complex)
    lhs, rhs = pure_identity_check(rho, ms)
    # probabilities are (1,0), (1/2,1/2), (1/2,1/2): squares sum to 2
    assert lhs == pytest.approx(2.0, abs=1e-12)
    assert rhs == pytest.approx(2.0)


def test_pure_identity_random_qutrit():
    ms = optimal_mums(3)
    lhs, rhs = pure_identity_check(random_pure(3, 12), ms)
    assert rhs == pytest.approx(14.0 / 9.0)
    assert lhs == pytest.approx(rhs, abs=1e-9)


def pure_identity_by_trace_loop(pure, pset):
    # the per-element loop pure_identity_check ran before its stacked einsum
    lhs = 0.0
    for row in pset.elements:
        for p in row:
            lhs += float(trace_product(p, pure).real) ** 2
    return lhs


@pytest.mark.parametrize("d", [2, 3, 4, 6])
def test_pure_identity_matches_trace_loop_bitwise(d):
    ms = optimal_mums(d)
    for seed in range(20):
        pure = random_pure(d, 500 + seed)
        lhs, rhs = pure_identity_check(pure, ms)
        assert lhs == pure_identity_by_trace_loop(pure, ms)
        assert rhs == 1.0 + ms.kappa


def test_pure_identity_rejects_mixed_input():
    ms = optimal_mums(3)
    with pytest.raises(ValueError, match="mixed"):
        pure_identity_check(np.eye(3, dtype=complex) / 3.0, ms)


def _nan_state():
    rho = isotropic(2, 0.5).rho.copy()
    rho[1, 2] = np.nan
    return BipartiteState(2, rho)


# unrefused, this state gives J = nan, "inconclusive" verdicts, and a shot
# estimate of 3.0, every shot counting as a coincidence
NAN_STATE_CALLS = {
    "j_value": j_value,
    "mum_criterion": mum_criterion,
    "mub_criterion": lambda st, p, q: mub_criterion(st, mub_prime(2)),
    "correlation_criterion": lambda st, p, q: correlation_criterion(st),
    "setting_distributions": setting_distributions,
    "simulate_counts": lambda st, p, q: simulate_counts(st, p, q, 100, 1),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("call", NAN_STATE_CALLS.values(), ids=NAN_STATE_CALLS.keys())
def test_criteria_refuse_a_nan_state(call):
    ms = optimal_mums(2)
    with pytest.raises(ValueError, match="non-real value|complex outcome probabilities"):
        call(_nan_state(), ms, conjugate_mums(ms))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("call, hermiticity_message", [
    (j_value, r"non-real value \(imag 1\.667e-02\); inputs violate Hermiticity$"),
    (lambda st, p, q: simulate_counts(st, p, q, 100, 1),
     r"^setting 1 produced complex outcome probabilities$"),
], ids=["j_value", "simulate_counts"])
def test_a_non_real_value_names_its_cause(call, hermiticity_message):
    ms = optimal_mums(3)
    qs = conjugate_mums(ms)
    # (|00>, |11>) is weighed by the conjugate pairing's witness and by setting 1
    rho = isotropic(3, 0.5).rho.copy()
    rho[0, 4] = np.nan
    with pytest.raises(ValueError, match="; an input has a non-finite entry$"):
        call(BipartiteState(3, rho), ms, qs)
    rho[0, 4] = 0.5 / 3 + 0.05j  # finite, and not Hermitian
    with pytest.raises(ValueError, match=hermiticity_message):
        call(BipartiteState(3, rho), ms, qs)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("i, j", [(0, 0), (0, 1), (1, 0)])
def test_pure_identity_refuses_a_nan_state(i, j):
    pure = np.diag([1.0, 0.0]).astype(complex)
    pure[i, j] = np.nan
    with pytest.raises(ValueError, match="pure state is not Hermitian"):
        pure_identity_check(pure, optimal_mums(2))


def test_setting_distributions_normalized():
    ms = optimal_mums(3)
    dists = setting_distributions(isotropic(3, 0.9), ms, conjugate_mums(ms))
    assert len(dists) == 4
    for q in dists:
        assert q.min() > -1e-12
        assert q.sum() == pytest.approx(1.0, abs=1e-10)


def test_simulate_counts_deterministic():
    ms = optimal_mums(3)
    st = isotropic(3, 0.9)
    a = simulate_counts(st, ms, conjugate_mums(ms), 2000, seed=5)
    b = simulate_counts(st, ms, conjugate_mums(ms), 2000, seed=5)
    assert a.j_estimate == b.j_estimate
    assert a.std_error == b.std_error
    for ca, cb in zip(a.counts, b.counts):
        assert np.array_equal(ca, cb)
    assert all(int(c.sum()) == 2000 for c in a.counts)


# Count grids of acceptance criterion 9 (isotropic(3, 0.9), 100000 shots
# per setting) at its first two seeds, frozen from the scalar-loop
# generator: SHA-256 over the stacked grids as little-endian int64.
GOLDEN_SHOT_COUNTS = {
    50000: "00eb80368021300e3ae5e010b2621df4da1fee3d091274ca7efef5f8db1feecb",
    50001: "e73f0aaa7957f0e06bb7b503ffc1d6597d3f8702131f03f69013746b036993d7",
}


@pytest.mark.parametrize("seed", sorted(GOLDEN_SHOT_COUNTS))
def test_simulate_counts_golden_grids(seed):
    ms = optimal_mums(3)
    est = simulate_counts(isotropic(3, 0.9), ms, conjugate_mums(ms), 100000, seed=seed)
    grids = np.stack(est.counts).astype("<i8")
    assert hashlib.sha256(grids.tobytes()).hexdigest() == GOLDEN_SHOT_COUNTS[seed]


@pytest.mark.parametrize("seed", range(5))
def test_simulate_counts_tracks_exact_value(seed):
    ms = optimal_mums(3)
    qs = conjugate_mums(ms)
    st = isotropic(3, 0.9)
    exact = j_value(st, ms, qs)
    est = simulate_counts(st, ms, qs, 2000, seed=seed)
    assert abs(est.j_estimate - exact) <= 5 * est.std_error


def _bincount_shots(state, pset, qset, shots, seed):
    """Counts, estimate and standard error of simulate_counts, binned one draw at a time."""
    dists = setting_distributions(state, pset, qset)
    d = state.d
    draws = Xoshiro256(seed).uniforms(shots * len(dists))
    counts, j_estimate, var = [], 0.0, 0.0
    for k, q in enumerate(dists):
        probs = np.clip(q.ravel(), 0.0, None)
        cdf = np.cumsum(probs / probs.sum())
        cdf[-1] = 1.0
        idx = np.searchsorted(cdf, draws[k * shots:(k + 1) * shots], side="right")
        grid = np.bincount(idx, minlength=d * d).reshape(d, d)
        counts.append(grid)
        p_hat = float(np.trace(grid)) / shots
        j_estimate += p_hat
        var += p_hat * (1.0 - p_hat) / shots
    return counts, j_estimate, float(np.sqrt(var))


def _shot_cases():
    for d in (2, 3, 6):
        ms = optimal_mums(d)
        yield f"isotropic-{d}", isotropic(d, 0.9), ms, conjugate_mums(ms)
        yield f"random-density-{d}", random_density(d, 40 + d), ms, ms
    for d in (2, 3):
        # perfect correlations: every off-diagonal outcome has probability 0
        ms = mums_from_mubs(mub_prime(d))
        yield f"mub-max-entangled-{d}", max_entangled(d), ms, conjugate_mums(ms)


@pytest.mark.parametrize("shots", [1, 7, 2000, 3500, 100000])
def test_simulate_counts_matches_bincount_bitwise(shots):
    for name, state, pset, qset in _shot_cases():
        for seed in (1, 8):
            est = simulate_counts(state, pset, qset, shots, seed)
            counts, j_estimate, std_error = _bincount_shots(state, pset, qset, shots, seed)
            assert len(est.counts) == len(counts)
            for got, want in zip(est.counts, counts):
                assert got.dtype == want.dtype and got.shape == want.shape
                assert got.tobytes() == want.tobytes(), (name, seed)
            assert (est.j_estimate, est.std_error) == (j_estimate, std_error), (name, seed)


def test_simulate_counts_needs_shots():
    ms = optimal_mums(2)
    with pytest.raises(ValueError, match="shot"):
        simulate_counts(isotropic(2, 0.5), ms, ms, 0, seed=1)


def test_simulate_counts_checks_sums_at_tol():
    ms = optimal_mums(2)
    rho = isotropic(2, 0.5).rho.copy()
    rho[0, 0] += 3e-8  # every setting's probabilities sum to 1 + 3e-8
    off = BipartiteState(2, rho)
    with pytest.raises(ValueError) as info:
        simulate_counts(off, ms, conjugate_mums(ms), 10, seed=1)
    # the sum prints as a Python float, not as a numpy scalar repr
    assert re.fullmatch(r"outcome probabilities sum to 1\.0000000[23]\d*, expected 1",
                        str(info.value))
    est = simulate_counts(off, ms, conjugate_mums(ms), 10, seed=1, tol=1e-6)
    assert [int(g.sum()) for g in est.counts] == [10, 10, 10]


def test_simulate_counts_refuses_a_nan_tol():
    ms = optimal_mums(3)
    with pytest.raises(ValueError, match="outcome probabilities sum to"):
        simulate_counts(isotropic(3, 0.5), ms, conjugate_mums(ms), 10, 1, tol=np.nan)


def test_simulate_counts_refuses_a_negative_mass_beyond_tol_by_its_sum():
    # setting 1's negative probabilities total -4.4e-7; clipped to 0, they push its sum past 1
    ms = optimal_mums(3)
    message = r"^outcome probabilities sum to 1\.00000044\d*, expected 1$"
    with pytest.raises(ValueError, match=message):
        simulate_counts(near_psd_state(), ms, conjugate_mums(ms), 10, 1, tol=1e-10)


def test_mum_criterion_refuses_a_nan_kappa():
    ms = optimal_mums(3)
    qset = dataclasses.replace(conjugate_mums(ms), kappa=np.nan)
    with pytest.raises(ValueError, match="must share the purity parameter"):
        mum_criterion(max_entangled(3), ms, qset)


def test_mub_lift_reduction_to_i_m():
    # J with conjugate pairing on lifted projectors equals the bases sum I_{d+1}
    d = 3
    bases = mub_prime(d)
    ms = mums_from_mubs(bases)
    for seed in range(5):
        st = random_density(d, 50 + seed)
        j = j_value(st, ms, conjugate_mums(ms))
        i_m = mub_criterion(st, bases).value
        assert j == pytest.approx(i_m, abs=1e-9)


def _prefix(ms, m):
    # the first m settings of a measurement set, its purity and provenance kept
    return dataclasses.replace(ms, elements=ms.elements[:m])


@pytest.mark.parametrize("make", [lambda: mub_prime(2), lambda: mub_prime(3),
                                  lambda: mub_prime(5), lambda: mub_prime(7),
                                  lambda: mub_prime(11), mub_triple_d6],
                         ids=["d2", "d3", "d5", "d7", "d11", "d6-triple"])
def test_mub_criterion_matches_projector_contraction_bitwise(make):
    # the MUB criterion is J on the lifted bases: every prefix of m >= 2 bases
    # gives the value and bound of the projector contraction bit for bit
    bases = make()
    d = bases.d
    states = [isotropic(d, 0.0), isotropic(d, 0.3), max_entangled(d), random_separable(d, 4, 11)]
    states += [random_density(d, 60 + seed) for seed in range(4)]
    for m in range(2, bases.m + 1):
        prefix = BasisSet(d=d, bases=bases.bases[:m])
        for st in states:
            report = mub_criterion(st, prefix)
            assert (report.value, report.bound) == mub_by_projector_contraction(st, prefix), m
            assert (report.criterion, report.kappa, report.params) == ("mub", None, {"m": m})


@pytest.mark.parametrize("d", [2, 3, 5, 7])
def test_mub_criterion_of_one_basis_has_bound_one(d):
    # one basis reads inconclusive: no state exceeds the bound 1, the maximally
    # entangled one included
    report = mub_criterion(max_entangled(d), BasisSet(d=d, bases=mub_prime(d).bases[:1]))
    assert report.bound == 1.0 and report.params == {"m": 1}
    assert abs(report.value - 1.0) <= 1e-15
    assert report.verdict == "inconclusive"


def test_mub_criterion_refuses_a_dimension_mismatch():
    with pytest.raises(ValueError, match="dimension mismatch: state d=2, measurement sets d=3"):
        mub_criterion(isotropic(2, 0.5), mub_prime(3))


@pytest.mark.parametrize("d", [3, 4, 6])
@pytest.mark.parametrize("alpha", [0.0, 0.35, 1.0])
def test_j_of_isotropic_on_a_prefix(d, alpha):
    # J over M settings of the conjugate pairing is M (alpha kappa + (1 - alpha)/d)
    ms = optimal_mums(d)
    for m in range(1, d + 2):
        pset = _prefix(ms, m)
        j = j_value(isotropic(d, alpha), pset, conjugate_mums(pset))
        assert abs(j - m * (alpha * ms.kappa + (1 - alpha) / d)) <= 1e-12, m


@pytest.mark.parametrize("d", range(2, 17))
def test_mum_criterion_bound_of_a_complete_set_is_one_plus_kappa(d):
    ms = optimal_mums(d)
    assert mum_criterion(isotropic(d, 0.5), ms, conjugate_mums(ms)).bound == 1.0 + ms.kappa


@pytest.mark.parametrize("d", [3, 4])
def test_mum_criterion_bound_of_a_prefix(d):
    ms = optimal_mums(d)
    for m in range(1, d + 2):
        pset = _prefix(ms, m)
        report = mum_criterion(isotropic(d, 0.5), pset, conjugate_mums(pset))
        assert report.bound == ms.kappa + (m - 1) / d
        assert report.kappa == ms.kappa


@pytest.mark.parametrize("d", [2, 3, 4])
def test_simulate_counts_on_a_prefix_takes_the_first_grids(d):
    # the stream is cut back to back, so M settings draw the first M slices of d+1
    ms = optimal_mums(d)
    state = isotropic(d, 0.7)
    full = simulate_counts(state, ms, conjugate_mums(ms), 50, seed=4)
    for m in range(1, d + 2):
        pset = _prefix(ms, m)
        est = simulate_counts(state, pset, conjugate_mums(pset), 50, seed=4)
        assert len(est.counts) == m
        for got, want in zip(est.counts, full.counts):
            assert got.tobytes() == want.tobytes()


def test_pairing_refuses_unequal_setting_counts():
    ms = optimal_mums(3)
    message = "setting count mismatch: 4 vs 2"
    for call in (j_value, mum_criterion, setting_distributions,
                 lambda st, p, q: simulate_counts(st, p, q, 10, 1)):
        with pytest.raises(ValueError, match=f"^{message}$"):
            call(isotropic(3, 0.5), ms, _prefix(conjugate_mums(ms), 2))


@pytest.mark.parametrize("call", [
    lambda ms: pure_identity_check(np.diag([1.0, 0.0, 0.0]).astype(complex), ms),
    lambda ms: j_correlation_identity(isotropic(3, 0.5), ms),
], ids=["pure_identity_check", "j_correlation_identity"])
def test_complete_set_identities_refuse_a_partial_set(call):
    # both are identities of all d+1 settings; on 2 of them the pure one read (0.667, 1.556)
    ms = optimal_mums(3)
    call(ms)
    for m in (1, 2, 3):
        with pytest.raises(ValueError, match=f"^identity needs d\\+1 = 4 settings, got {m}$"):
            call(_prefix(ms, m))
