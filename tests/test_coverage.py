import numpy as np
import pytest

from qcs import coverage
from qcs import (
    InsufficientData,
    InvalidArgument,
    coverage_chain,
    coverage_mc,
    coverage_times,
    fit_scaling,
    min_measurements,
    success_k2,
    success_k3,
    wilson_interval,
)


class TestSuccessK2:
    def test_perfect_detection(self):
        assert success_k2(1.0, 2) == 1.0

    def test_half_probability_two_clicks(self):
        assert success_k2(0.5, 2) == pytest.approx(2 / 3, rel=1e-12)

    def test_half_probability_five_clicks(self):
        assert success_k2(0.5, 5) == pytest.approx(80 / 81, rel=1e-12)

    def test_m_below_two_rejected(self):
        with pytest.raises(InvalidArgument):
            success_k2(0.5, 1)

    def test_p_out_of_range_rejected(self):
        with pytest.raises(InvalidArgument):
            success_k2(0.0, 4)
        with pytest.raises(InvalidArgument):
            success_k2(1.2, 4)

    def test_monotone_in_m_and_p(self):
        vals_m = [success_k2(0.4, m) for m in range(2, 40)]
        assert all(b >= a for a, b in zip(vals_m, vals_m[1:]))
        vals_p = [success_k2(p, 6) for p in np.linspace(0.05, 1.0, 30)]
        assert all(b >= a for a, b in zip(vals_p, vals_p[1:]))
        assert success_k2(0.3, 400) == pytest.approx(1.0, abs=1e-12)


class TestSuccessK3:
    def test_two_clicks_cannot_cover(self):
        assert success_k3(1.0, 2) == 0.0

    def test_perfect_three_clicks(self):
        assert success_k3(1.0, 3) == pytest.approx(1.0, rel=1e-12)

    def test_jump_probabilities_at_half(self):
        chain = coverage_chain(3, 0.5)
        assert chain.jumps == pytest.approx((4 / 7, 2 / 7, 1 / 7))
        assert sum(chain.jumps) == pytest.approx(1.0)
        assert chain.period_prob == pytest.approx(7 / 8)

    def test_half_probability_three_clicks(self):
        assert success_k3(0.5, 3) == pytest.approx(20 / 49, rel=1e-12)

    def test_chain_matrix_structure(self):
        chain = coverage_chain(3, 0.3)
        u, v, w = chain.jumps
        expected = np.array([[w, 0, 0], [u, w, u], [v, v, w]])
        assert np.allclose(chain.transition, expected)
        assert np.allclose(chain.init, [1, 0, 0])
        assert chain.transition.min() >= 0 and chain.transition.max() <= 1

    def test_monotone_in_m_and_p(self):
        vals_m = [success_k3(0.4, m) for m in range(3, 60)]
        assert all(b >= a - 1e-15 for a, b in zip(vals_m, vals_m[1:]))
        vals_p = [success_k3(p, 8) for p in np.linspace(0.05, 1.0, 30)]
        assert all(b >= a - 1e-15 for a, b in zip(vals_p, vals_p[1:]))
        assert success_k3(0.3, 600) == pytest.approx(1.0, abs=1e-12)

    def test_chain_only_for_small_k(self):
        with pytest.raises(InvalidArgument):
            coverage_chain(4, 0.5)


class TestCoverageMc:
    def test_perfect_detection_exact_coverage(self):
        est = coverage_mc(10, 1.0, 10, trials=2000, seed=1, min_hits=1)
        assert est.success_rate == 1.0

    def test_below_k_impossible(self):
        est = coverage_mc(10, 1.0, 9, trials=500, seed=2, min_hits=1)
        assert est.success_rate == 0.0

    def test_matches_k2_formula(self):
        est = coverage_mc(2, 0.5, 5, trials=100_000, seed=3)
        assert abs(est.success_rate - 80 / 81) < 0.005
        assert est.ci_lo < 80 / 81 < est.ci_hi

    def test_matches_k3_formula(self):
        est = coverage_mc(3, 0.5, 3, trials=100_000, seed=4)
        assert abs(est.success_rate - 20 / 49) < 0.005

    def test_mc_oracle_grid_against_chains(self):
        # the raw-replay simulation validates both closed forms over a
        # (p, M) grid within Monte Carlo error
        trials = 20_000
        tol = 4 * np.sqrt(0.25 / trials) + 1e-9
        for k, exact in ((2, success_k2), (3, success_k3)):
            for p in (0.3, 0.5, 0.9, 1.0):
                times = coverage_times(k, p, 10 * k, trials, seed=1000 * k + int(p * 100))
                for m in range(k, 10 * k + 1, k):
                    if k == 2 and m < 2:
                        continue
                    mc = float(np.mean(times <= m))
                    assert abs(mc - exact(p, m)) <= tol, (k, p, m)

    def test_min_hits_two_needs_two_periods(self):
        est = coverage_mc(5, 1.0, 10, trials=500, seed=5, min_hits=2)
        assert est.success_rate == 1.0
        est = coverage_mc(5, 1.0, 9, trials=500, seed=6, min_hits=2)
        assert est.success_rate == 0.0

    def test_dark_counts_consume_budget(self):
        clean = coverage_mc(5, 1.0, 5, trials=3000, seed=7, min_hits=1)
        dark = coverage_mc(
            5, 1.0, 5, trials=3000, seed=7, min_hits=1, n_bins=64, dark_per_period=2.0
        )
        assert clean.success_rate == 1.0
        assert dark.success_rate < clean.success_rate

    def test_dark_path_matches_clean_at_zero_limit(self):
        a = coverage_mc(3, 0.6, 6, trials=30_000, seed=8)
        b = coverage_mc(
            3, 0.6, 6, trials=30_000, seed=9, n_bins=128, dark_per_period=1e-9
        )
        assert abs(a.success_rate - b.success_rate) < 0.015

    @pytest.mark.parametrize("p", [1.5, 0.0, float("nan")])
    def test_dark_path_rejects_bad_probability(self, p):
        with pytest.raises(InvalidArgument):
            coverage_mc(3, p, 6, trials=10, seed=1, n_bins=128, dark_per_period=0.5)

    def test_exclusive_mode_requires_clean_background(self):
        # heavy dark rate on few bins: background bins reach two hits and
        # spoil exact support recovery
        est = coverage_mc(
            2, 1.0, 40, trials=400, seed=10, min_hits=2, n_bins=8,
            dark_per_period=3.0, exclusive=True,
        )
        coverage_only = coverage_mc(
            2, 1.0, 40, trials=400, seed=10, min_hits=2, n_bins=8, dark_per_period=3.0
        )
        assert est.success_rate < coverage_only.success_rate

    def test_threading_is_deterministic(self):
        a = coverage_times(4, 0.7, 20, 50_000, seed=11, threads=1)
        b = coverage_times(4, 0.7, 20, 50_000, seed=11, threads=4)
        assert np.array_equal(a, b)

    def test_double_count_support_recovery_near_unit_p(self):
        # K=10 pulse train at p ~ 1 with hardware-level dark counts: exact
        # support recovery within M = 2K + 5 clicks is nearly certain
        est = coverage_mc(
            10, 0.9995, 25, trials=1000, seed=12, min_hits=2,
            n_bins=2**15, dark_per_period=0.01, exclusive=True,
        )
        assert est.success_rate >= 0.99


def _coverage_times_reference(k, p, m_max, min_hits, rng, trials):
    """Per-bin loop over the same draws as ``_coverage_times_batch``."""
    periods = coverage._periods_needed(k, p, m_max)
    det = rng.random((trials, periods * k)) < p
    cumtotal = np.cumsum(det, axis=1)
    needed = np.zeros(trials, dtype=np.int64)
    covered = np.ones(trials, dtype=bool)
    for b in range(k):
        per_bin = np.cumsum(det[:, b::k], axis=1)
        covered &= per_bin[:, -1] >= min_hits
        first_period = np.argmax(per_bin >= min_hits, axis=1)
        needed = np.maximum(needed, cumtotal[np.arange(trials), first_period * k + b])
    return np.where(covered, np.minimum(needed, m_max + 1), m_max + 1)


def _replay_reference(k, p, m, min_hits, n_bins, dark_per_period, rng, trials, exclusive):
    """Per-trial, per-support-bin replay over the same draws as ``_replay_with_dark``."""
    successes = 0
    periods = coverage._periods_needed(k, p, m) + int(np.ceil(4 * dark_per_period))
    for _ in range(trials):
        support = np.sort(rng.choice(n_bins, size=k, replace=False))
        sig_per, sig_pulse = np.nonzero(rng.random((periods, k)) < p)
        n_dark = rng.poisson(dark_per_period * periods)
        dark_time = rng.uniform(0.0, periods, n_dark)
        dark_bin = rng.integers(0, n_bins, n_dark)
        dark_pos = np.floor(dark_time).astype(np.int64) * n_bins + dark_bin
        pos = np.concatenate([sig_per * n_bins + support[sig_pulse], dark_pos])
        bins = np.concatenate([support[sig_pulse], dark_bin])
        if pos.size < m:
            continue
        bins = bins[np.argsort(pos, kind="stable")][:m]
        if min(int(np.sum(bins == b)) for b in support) < min_hits:
            continue
        others = bins[~np.isin(bins, support)]
        if exclusive and any(int(np.sum(others == b)) >= min_hits for b in others):
            continue
        successes += 1
    return successes


class TestVectorisedPathsMatchReferences:
    @pytest.mark.parametrize("k", [1, 2, 7, 40])
    @pytest.mark.parametrize("p", [0.1, 0.7, 1.0])
    # at (5, 50) no bin reaches min_hits within the simulated periods
    @pytest.mark.parametrize("m_max, min_hits", [(3, 1), (40, 1), (40, 2), (200, 3), (5, 50)])
    def test_coverage_times_batch(self, k, p, m_max, min_hits):
        args = (k, p, m_max, min_hits)
        seed = 1000 * k + m_max + min_hits
        fast = coverage._coverage_times_batch(*args, np.random.default_rng(seed), 300)
        slow = _coverage_times_reference(*args, np.random.default_rng(seed), 300)
        assert fast.dtype == slow.dtype
        assert np.array_equal(fast, slow)

    @pytest.mark.parametrize("exclusive", [False, True])
    @pytest.mark.parametrize("min_hits", [1, 2])
    @pytest.mark.parametrize(
        "k, p, m, n_bins, dark", [(1, 1.0, 3, 4, 1.0), (3, 0.7, 10, 12, 1.0), (5, 0.9, 16, 32, 1.0)]
    )
    def test_replay_with_dark(self, k, p, m, n_bins, dark, min_hits, exclusive):
        args = (k, p, m, min_hits, n_bins, dark)
        fast = coverage._replay_with_dark(*args, np.random.default_rng(m), 200, exclusive)
        slow = _replay_reference(*args, np.random.default_rng(m), 200, exclusive)
        assert 0 < slow < 200
        assert fast == slow


class TestMinMeasurements:
    def test_perfect_detection_returns_k(self):
        assert min_measurements(2, 1.0, 0.999) == 2

    def test_k2_closed_form_inversion(self):
        # smallest M with 1 - (1/3)^(M-1) >= 0.99 is 6
        assert min_measurements(2, 0.5, 0.99) == 6
        assert success_k2(0.5, 6) >= 0.99
        assert success_k2(0.5, 5) < 0.99

    def test_k3_analytic_path(self):
        m = min_measurements(3, 0.5, 0.9)
        assert success_k3(0.5, m) >= 0.9
        assert success_k3(0.5, m - 1) < 0.9

    @pytest.mark.parametrize("k, success", [(2, success_k2), (3, success_k3)])
    @pytest.mark.parametrize("p", [1e-3, 0.1, 0.5, 0.98, 1.0])
    @pytest.mark.parametrize("target", [0.01, 0.5, 0.95, 0.999, 1 - 1e-12])
    def test_exact_path_returns_the_smallest_m(self, k, success, p, target):
        m = min_measurements(k, p, target)
        assert success(p, m) >= target
        assert m == k or success(p, m - 1) < target

    def test_monotone_in_target(self):
        ms = [min_measurements(8, 0.9, t, seed=12) for t in (0.5, 0.9, 0.99)]
        assert ms[0] <= ms[1] <= ms[2]

    def test_nonincreasing_in_p(self):
        m_low = min_measurements(8, 0.5, 0.9, seed=13, trials=40_000)
        m_high = min_measurements(8, 0.95, 0.9, seed=13, trials=40_000)
        assert m_high <= m_low

    def test_min_hits_two_perfect_detection(self):
        assert min_measurements(7, 1.0, 0.9, min_hits=2) == 14

    def test_mc_agrees_with_analytic_k3(self):
        m_mc = None
        times = coverage_times(3, 0.5, 64, 100_000, seed=14)
        times.sort()
        m_mc = int(times[int(np.ceil(0.95 * times.size)) - 1])
        m_exact = min_measurements(3, 0.5, 0.95)
        assert abs(m_mc - m_exact) <= 1

    def test_target_validation(self):
        with pytest.raises(InvalidArgument):
            min_measurements(4, 0.5, 1.0)


class TestFitScaling:
    def test_exact_line(self):
        fit = fit_scaling([(k, 2 * k + 1) for k in (10, 20, 30, 40)])
        assert fit.alpha == pytest.approx(2.0)
        assert fit.c == pytest.approx(1.0)
        assert fit.r2 == pytest.approx(1.0)

    def test_too_few_samples(self):
        with pytest.raises(InsufficientData):
            fit_scaling([(10, 20), (20, 40)])

    def test_repeated_k_rejected(self):
        with pytest.raises(InsufficientData):
            fit_scaling([(10, 20), (10, 21), (10, 19)])


def test_wilson_interval_basic():
    lo, hi = wilson_interval(50, 100)
    assert lo < 0.5 < hi
    assert wilson_interval(0, 10)[0] == 0.0
    assert wilson_interval(10, 10)[1] == 1.0
