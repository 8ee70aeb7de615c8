"""Acceptance suite: one test per release criterion, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
print.  Every randomized check draws from the seed schedules published
below; nothing uses wall-clock seeding.
"""

import json
import time

import numpy as np
import pytest

from mumkit import (
    bell_choice,
    bell_diagonal,
    bell_detection_threshold,
    conjugate_mums,
    correlation_bound,
    correlation_matrix_trace,
    isotropic,
    j_correlation_identity,
    j_isotropic_closed,
    j_value,
    mub_criterion,
    mub_prime,
    mub_triple_d6,
    mum_criterion,
    mums_from_mubs,
    optimal_kappa,
    optimal_mums,
    ppt_check,
    pure_identity_check,
    random_density,
    random_pure,
    random_separable,
    simulate_counts,
    verify_mums,
    Xoshiro256,
)
from mumkit.cli import SweepSpec, emit_figure_data
from mumkit.serialize import dumps

_T0 = time.perf_counter()

# Published seed schedules (criterion 10 requires every random draw pinned).
PURE_STATE_SEED = lambda d, i: 1000 * d + i          # criterion 2: i in 0..49
SEPARABLE_SEED = lambda d, i: 10000 * d + i          # criteria 3, 7: i in 0..999
BELL_GRID_SEED = lambda d, i: 20000 * d + i          # criterion 6: i in 0..199
REDUCTION_SEED = lambda d, i: 30000 * d + i          # criterion 8: i in 0..49
DENSITY_SEED = lambda d, i: 40000 * d + i            # criterion 7: i in 0..99
SHOT_SEED = lambda i: 50000 + i                      # criterion 9: i in 0..19
SEPARABLE_TERMS = 8


def _report(number: int, description: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number}: {status} - {description}{suffix}")


def test_criterion_1_mum_construction_validity():
    start = time.perf_counter()
    worst_defect = 0.0
    worst_kappa = 0.0
    for d in range(2, 9):
        ms = optimal_mums(d)
        rep = verify_mums(ms, tol=1e-9)
        worst_defect = max(worst_defect, max(rep.defects.values()))
        worst_kappa = max(worst_kappa, abs(rep.details["kappa_inferred"] - optimal_kappa(d)))
    elapsed = time.perf_counter() - start
    ok = worst_defect <= 1e-9 and worst_kappa <= 1e-9 and elapsed < 10.0
    _report(1, "optimal-purity construction verifies for d in 2..8", ok,
            f"max defect {worst_defect:.2e}, kappa error {worst_kappa:.2e}, {elapsed:.2f}s")
    assert ok


def test_criterion_2_pure_state_identity():
    worst = 0.0
    for d in range(2, 7):
        ms = optimal_mums(d)
        for i in range(50):
            lhs, rhs = pure_identity_check(random_pure(d, PURE_STATE_SEED(d, i)), ms)
            worst = max(worst, abs(lhs - rhs))
    ok = worst <= 1e-9
    _report(2, "probability-square sum equals 1+kappa on 50 pure states per d in 2..6",
            ok, f"max deviation {worst:.2e}")
    assert ok


def test_criterion_3_separable_bound_monte_carlo():
    start = time.perf_counter()
    violations = 0
    worst_excess = -np.inf
    for d in (2, 3, 4):
        pset = optimal_mums(d)
        qset = conjugate_mums(pset)
        bound = 1.0 + pset.kappa + 1e-9
        for i in range(1000):
            st = random_separable(d, SEPARABLE_TERMS, SEPARABLE_SEED(d, i))
            for js in (j_value(st, pset, pset), j_value(st, pset, qset)):
                worst_excess = max(worst_excess, js - (1.0 + pset.kappa))
                if js > bound:
                    violations += 1
    elapsed = time.perf_counter() - start
    ok = violations == 0 and elapsed < 60.0
    _report(3, "J <= 1+kappa on 1000 separable draws per d in {2,3,4}, both pairings",
            ok, f"{violations} violations, worst J-(1+kappa) {worst_excess:.2e}, {elapsed:.1f}s")
    assert ok


def _bisect(predicate, lo: float, hi: float, iters: int = 60) -> float:
    # predicate(lo) is False, predicate(hi) is True; returns the flip point
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if predicate(mid):
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def test_criterion_4_isotropic_exactness():
    worst_flip = 0.0
    worst_gap = 0.0
    worst_csv = 0.0
    for d in range(2, 9):
        pset = optimal_mums(d)
        qset = conjugate_mums(pset)
        threshold = 1.0 / (d + 1)

        def entangled(alpha):
            # zero-tolerance verdict probes the bare threshold location
            return mum_criterion(isotropic(d, alpha), pset, qset, tol=0.0).verdict == "entangled"

        flip = _bisect(entangled, 0.0, 1.0)
        ppt_flip = _bisect(lambda a: not ppt_check(isotropic(d, a)).is_ppt, 0.0, 1.0)
        worst_flip = max(worst_flip, abs(flip - threshold))
        worst_gap = max(worst_gap, abs(flip - ppt_flip))

        spec = SweepSpec(family="isotropic", d=d, start=0.0, stop=1.0, step=0.01)
        rows = emit_figure_data(spec).strip().split("\n")[1:]
        assert len(rows) == 101
        kappa = optimal_kappa(d)
        for row in rows:
            fields = row.split(",")
            alpha, value = float(fields[3]), float(fields[4])
            worst_csv = max(worst_csv, abs(value - j_isotropic_closed(d, kappa, alpha)))
    ok = worst_flip <= 1e-9 and worst_gap <= 1e-9 and worst_csv <= 1e-9
    _report(4, "verdict flips at 1/(d+1), matches PPT, sweep matches closed form (d in 2..8)",
            ok, f"flip err {worst_flip:.2e}, ppt gap {worst_gap:.2e}, csv err {worst_csv:.2e}")
    assert ok


def test_criterion_5_d6_dominance_over_mub():
    d = 6
    pset = optimal_mums(d)
    qset = conjugate_mums(pset)
    assert pset.kappa == pytest.approx(2.0 / 9.0)
    bases = mub_triple_d6()
    lo, hi = 1.0 / 7.0, 1.0 / 3.0
    alphas = [lo + i * (hi - lo) / 64 for i in range(1, 65)]
    mum_flags = [mum_criterion(isotropic(d, a), pset, qset).verdict for a in alphas]
    mub_flags = [mub_criterion(isotropic(d, a), bases).verdict for a in alphas]
    ok = all(v == "entangled" for v in mum_flags) and all(
        v == "inconclusive" for v in mub_flags
    )
    _report(5, "64 grid points in (1/7, 1/3]: all flagged by measurements, none by 3 MUBs",
            ok, f"mum {mum_flags.count('entangled')}/64 entangled, "
                f"mub {mub_flags.count('inconclusive')}/64 inconclusive")
    assert ok


def _seeded_bell_grid(d: int, seed: int) -> np.ndarray:
    # Dirichlet-uniform base mixed toward a random corner so the peak
    # weight c sweeps the full range up to ~1.
    gen = Xoshiro256(seed)
    p = gen.exponentials(d * d)
    p /= p.sum()
    w = gen.random()
    corner = int(gen.random() * d * d)
    p *= 1.0 - w
    p[corner] += w
    return p.reshape(d, d)


def test_criterion_6_bell_diagonal_bound():
    worst_short = np.inf
    missed = 0
    triggered = 0
    for d in (2, 3, 5):
        pset = optimal_mums(d)
        kappa = pset.kappa
        for i in range(200):
            p = _seeded_bell_grid(d, BELL_GRID_SEED(d, i))
            qset, c = bell_choice(pset, p)
            st = bell_diagonal(d, p)
            j = j_value(st, pset, qset)
            worst_short = min(worst_short, j - c * kappa * (d + 1))
            if c > bell_detection_threshold(d, kappa):
                triggered += 1
                if mum_criterion(st, pset, qset).verdict != "entangled":
                    missed += 1
    ok = worst_short >= -1e-9 and missed == 0 and triggered > 0
    _report(6, "J >= c kappa (d+1) on 200 grids per d in {2,3,5}; super-threshold c all flagged",
            ok, f"min J - bound {worst_short:.2e}, {triggered} above threshold, {missed} missed")
    assert ok


def test_criterion_7_correlation_identity_and_bound():
    worst_identity = 0.0
    for d in (2, 3, 4):
        pset = optimal_mums(d)
        for i in range(100):
            lhs, rhs = j_correlation_identity(random_density(d, DENSITY_SEED(d, i)), pset)
            worst_identity = max(worst_identity, abs(lhs - rhs))
    worst_trace = -np.inf
    for d in (2, 3, 4):
        basis = optimal_mums(d).source_basis
        bound = correlation_bound(d)
        for i in range(1000):
            st = random_separable(d, SEPARABLE_TERMS, SEPARABLE_SEED(d, i))
            worst_trace = max(worst_trace, correlation_matrix_trace(st, basis) - bound)
    ok = worst_identity <= 1e-9 and worst_trace <= 1e-9
    _report(7, "correlation identity on 100 states per d; separable Tr(T) within (d-1)/(2d)",
            ok, f"identity err {worst_identity:.2e}, worst Tr(T) excess {worst_trace:.2e}")
    assert ok


def test_criterion_8_mub_reduction():
    worst_kappa = 0.0
    worst_match = 0.0
    for d in (2, 3, 5, 7):
        bases = mub_prime(d)
        ms = mums_from_mubs(bases)
        rep = verify_mums(ms, tol=1e-9)
        worst_kappa = max(worst_kappa, abs(rep.details["kappa_inferred"] - 1.0))
        qset = conjugate_mums(ms)
        for i in range(50):
            st = random_density(d, REDUCTION_SEED(d, i))
            j = j_value(st, ms, qset)
            i_m = mub_criterion(st, bases).value
            worst_match = max(worst_match, abs(j - i_m))
    ok = worst_kappa <= 1e-12 and worst_match <= 1e-9
    _report(8, "MUB-lifted measurements have kappa = 1 and J reduces to I_(d+1)",
            ok, f"kappa err {worst_kappa:.2e}, |J - I| max {worst_match:.2e}")
    assert ok


def test_criterion_9_shot_simulation():
    d = 3
    pset = optimal_mums(d)
    qset = conjugate_mums(pset)
    st = isotropic(d, 0.9)
    exact = j_value(st, pset, qset)
    hits = 0
    for i in range(20):
        est = simulate_counts(st, pset, qset, 100000, seed=SHOT_SEED(i))
        if abs(est.j_estimate - exact) <= 5 * est.std_error:
            hits += 1
    rerun_a = simulate_counts(st, pset, qset, 100000, seed=SHOT_SEED(0))
    rerun_b = simulate_counts(st, pset, qset, 100000, seed=SHOT_SEED(0))
    identical = all(np.array_equal(a, b) for a, b in zip(rerun_a.counts, rerun_b.counts))
    bytes_a = dumps([[int(c) for c in grid.ravel()] for grid in rerun_a.counts])
    bytes_b = dumps([[int(c) for c in grid.ravel()] for grid in rerun_b.counts])
    ok = hits >= 19 and identical and bytes_a == bytes_b
    _report(9, "shot estimates track exact J within 5 sigma; counts reproduce byte-identically",
            ok, f"{hits}/20 within 5 sigma")
    assert ok


def test_criterion_10_runtime_and_seed_pinning():
    elapsed = time.perf_counter() - _T0
    schedules = (PURE_STATE_SEED, SEPARABLE_SEED, BELL_GRID_SEED, REDUCTION_SEED, DENSITY_SEED)
    pinned = all(isinstance(s(2, 0), int) for s in schedules) and isinstance(SHOT_SEED(0), int)
    ok = elapsed <= 300.0 and pinned
    _report(10, "acceptance suite inside the 5 minute budget with pinned seeds",
            ok, f"{elapsed:.1f}s elapsed")
    assert ok
