import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from qcs import experiments, reconstruction
from qcs import (
    InvalidArgument,
    PhotonStream,
    TimeLensConfig,
    dft_coefficients,
    make_tone_signal,
    reconstruct,
    render_intensity,
    tls_sample,
)
from qcs.reconstruction import top_k_select
from qcs.timelens import tone_bin


def stream_of(ts, span_ps):
    return PhotonStream(timestamps=np.array(sorted(ts), dtype=np.int64), span_ps=span_ps)


class TestDftMagnitudes:
    def test_single_timestamp_unit_everywhere(self):
        stream = stream_of([12345], 10**6)
        mags = np.abs(dft_coefficients(stream, [1e9, 3.7e9, 11e9]))
        assert np.allclose(mags, 1.0)

    def test_aligned_timestamps_coherent(self):
        # events every 50 ps, f = 20 GHz: every phasor is exp(-2i pi k)
        ts = np.arange(0, 100) * 50
        stream = stream_of(ts, 10**4)
        mags = np.abs(dft_coefficients(stream, [20e9]))
        assert mags[0] == pytest.approx(100.0, rel=1e-9)

    def test_uniform_random_noise_floor(self):
        rng = np.random.default_rng(5)
        m = 4000
        ts = np.sort(rng.integers(0, 10**9, m))
        stream = stream_of(ts, 10**9)
        freqs = np.arange(1, 51) * 1e7
        mags = np.abs(dft_coefficients(stream, freqs))
        # E|s(f)|^2 = M for incoherent phasors
        assert np.mean(mags**2) == pytest.approx(m, rel=0.3)
        assert abs(dft_coefficients(stream, [0.0])[0]) == pytest.approx(m)

    def test_empty_stream_rejected(self):
        with pytest.raises(InvalidArgument, match="zero detections"):
            dft_coefficients(stream_of([], 100), [1e9])

    @pytest.mark.parametrize("freqs", [[], np.array([])])
    def test_empty_grid_gives_an_empty_spectrum(self, freqs):
        out = dft_coefficients(stream_of([1, 2, 3], 100), freqs)
        assert out.shape == (0,) and out.dtype == complex

    # a 2-D harmonic grid once gave a 2-D spectrum, a column grid a bare numpy ValueError
    @pytest.mark.parametrize(
        "freqs", [[[1e9, 2e9], [3e9, 4e9]], [[1e9], [2.5e9]], np.zeros((0, 3))]
    )
    def test_a_grid_of_more_than_one_dimension_is_refused_naming_freqs(self, freqs):
        with pytest.raises(InvalidArgument, match="freqs must be a scalar or a 1-D grid"):
            dft_coefficients(stream_of([1, 2, 3], 100), freqs)

    def test_negative_frequency_rejected(self):
        with pytest.raises(InvalidArgument):
            dft_coefficients(stream_of([1], 100), [-1e9])

    def test_phases_available(self):
        stream = stream_of([25], 1000)  # quarter period of 10 GHz
        coef = dft_coefficients(stream, [1e10])[0]
        assert np.angle(coef) == pytest.approx(-np.pi / 2, rel=1e-6)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_frequency_rejected(self, bad):
        with pytest.raises(InvalidArgument):
            dft_coefficients(stream_of([1, 2, 3], 100), [1e9, bad, 3e9])


def only_path(monkeypatch, path):
    """Make every DFT path but ``path`` fail, so a call shows which one ran."""
    for name in ("_dft_harmonic", "_dft_recurrence", "_dft_direct"):
        if name != path:
            monkeypatch.setattr(reconstruction, name, _forbidden(name))


def _forbidden(name):
    def fail(*args, **kwargs):
        raise AssertionError(f"{name} should not run on this grid")

    return fail


def phase_bound(stream, freqs):
    """Worst-case gap between two float evaluations of the sum: every one of
    the M phasors may carry a phase error of a few eps * f * t cycles."""
    ft = max(1.0, float(np.max(freqs)) * stream.span)
    return 16 * np.pi * np.finfo(float).eps * ft * stream.count


class TestDftGridPaths:
    """The two fast paths against the direct sum they replace."""

    def random_stream(self, m, span_ps, seed):
        rng = np.random.default_rng(seed)
        return stream_of(rng.integers(0, span_ps, m), span_ps)

    @pytest.mark.parametrize(
        "freqs",
        [
            np.arange(1, 129) / 1e-7,  # harmonics of a 100 000 ps period
            np.arange(1, 41) * (1e12 / reconstruction._FFT_MAX_PERIOD_PS),
        ],
        ids=["period_1e5_ps", "longest_period"],
    )
    def test_harmonic_grid_matches_direct(self, monkeypatch, freqs):
        stream = self.random_stream(20_000, 10**9, 41)
        oracle = reconstruction._dft_direct(stream, freqs)
        only_path(monkeypatch, "_dft_harmonic")
        fast = dft_coefficients(stream, freqs)
        assert np.abs(fast - oracle).max() <= phase_bound(stream, freqs)

    def test_off_harmonic_arange_matches_direct(self, monkeypatch):
        # a 1 GHz tone, searched on a 0.7 Hz grid as _estimate_peak_frequency does
        rng = np.random.default_rng(42)
        ts = 1000 * rng.integers(0, 2 * 10**9, 5_000) + rng.integers(-100, 100, 5_000)
        stream = stream_of(np.clip(ts, 0, 2 * 10**12), 2 * 10**12)
        freqs = np.arange(1e9 - 150.0, 1e9 + 150.0, 0.7)
        assert freqs.size > 2 * reconstruction._REANCHOR_STEPS
        oracle = reconstruction._dft_direct(stream, freqs)
        only_path(monkeypatch, "_dft_recurrence")
        fast = dft_coefficients(stream, freqs)
        assert np.argmax(np.abs(fast)) == np.argmax(np.abs(oracle))
        assert np.abs(fast - oracle).max() <= phase_bound(stream, freqs)

    def test_zero_frequency_is_the_exact_count(self, monkeypatch):
        stream = self.random_stream(12_345, 10**9, 43)
        only_path(monkeypatch, "_dft_harmonic")
        coefs = dft_coefficients(stream, np.arange(0, 16) / 1e-9)
        assert coefs[0] == stream.count

    def test_period_multiples_add_up_exactly(self, monkeypatch):
        # at t ~ 1e11 ps, f * t reaches 3e9 cycles: float phases would drift
        period_ps, m = 1000, 1000
        stream = stream_of(10**11 + period_ps * np.arange(m), 2 * 10**11)
        only_path(monkeypatch, "_dft_harmonic")
        mags = np.abs(dft_coefficients(stream, np.arange(1, 33) / (period_ps * 1e-12)))
        assert np.all(mags == m)

    def test_near_harmonic_grid_is_not_snapped(self, monkeypatch):
        # 1e-6 of a bin off the 1000 ps harmonics: snapping would turn into
        # radians of phase error by t ~ 1e11 ps
        stream = self.random_stream(2_000, 10**11, 46)
        freqs = (np.arange(1, 33) + 1e-6) / 1e-9
        oracle = reconstruction._dft_direct(stream, freqs)
        only_path(monkeypatch, "_dft_recurrence")
        fast = dft_coefficients(stream, freqs)
        assert np.abs(fast - oracle).max() <= phase_bound(stream, freqs)

    def test_period_above_cap_falls_back_without_period_array(self, monkeypatch):
        period_ps = 2 * reconstruction._FFT_MAX_PERIOD_PS
        freqs = np.arange(1, 41) * (1e12 / period_ps)  # exact multiples of 1/P
        stream = self.random_stream(1_000, 10**8, 44)
        oracle = reconstruction._dft_direct(stream, freqs)
        monkeypatch.setattr(reconstruction, "_dft_harmonic", _forbidden("_dft_harmonic"))
        tracemalloc.start()
        try:
            fast = dft_coefficients(stream, freqs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * period_ps
        assert np.abs(fast - oracle).max() <= phase_bound(stream, freqs)

    def test_recurrence_matches_the_integer_phase_fft(self):
        # 1..16 GHz is both uniform and harmonic (P = 1000 ps); at t up to
        # 0.1 s the cycles f*t reach 1.6e9, where the FFT's phase stays exact
        stream = self.random_stream(20_000, 10**11, 47)
        freqs = np.arange(1, 17) / 1e-9
        exact = reconstruction._dft_harmonic(stream.timestamps, 1000, np.arange(1, 17))
        step = reconstruction._uniform_step(freqs)
        fast = reconstruction._dft_recurrence(stream.seconds(), freqs[0], step, freqs.size)
        assert np.abs(fast - exact).max() <= phase_bound(stream, freqs)

    @pytest.mark.parametrize("period_ps", [999, 1000])
    def test_harmonic_bins_above_half_the_period_match_a_full_fft(self, period_ps):
        stream = self.random_stream(20_000, 10**9, 48)
        half = period_ps // 2
        bins = np.array([0, 1, half - 1, half, half + 1, period_ps - 1, period_ps,
                         period_ps + 1, period_ps + half + 1, 3 * period_ps - 1])
        counts = np.bincount(stream.timestamps % period_ps, minlength=period_ps)
        full = np.fft.fft(counts)[bins % period_ps]
        got = reconstruction._dft_harmonic(stream.timestamps, period_ps, bins)
        # a length-P FFT of M counts rounds each output by about eps*log2(P)*M
        bound = 8 * np.finfo(float).eps * np.log2(period_ps) * stream.count
        assert np.abs(got - full).max() <= bound
        assert got[0] == stream.count

    @pytest.mark.parametrize(
        "freqs",
        [
            np.arange(1, 41) * (1e12 / (reconstruction._FFT_MAX_PERIOD_PS + 1)),
            # P = 1000.00001 ps: 1e-5 ps off the lattice
            np.arange(1, 17) * (1e12 / (1000 + 1e-5)),
            np.arange(16, 0, -1) / 1e-9,  # harmonics of 1000 ps, descending
            np.array([0.0, 2.5e12]),  # a step of 0.4 ps
            np.full(3, 1e9),  # a step of 0
        ],
        ids=["period_over_cap", "period_off_a_whole_ps", "descending", "sub_ps_step", "constant"],
    )
    def test_a_uniform_grid_off_the_lattice_runs_the_recurrence(self, monkeypatch, freqs):
        stream = self.random_stream(1_000, 10**8, 50)
        oracle = reconstruction._dft_direct(stream, freqs)
        only_path(monkeypatch, "_dft_recurrence")
        fast = dft_coefficients(stream, freqs)
        assert np.abs(fast - oracle).max() <= phase_bound(stream, freqs)

    # the grids the sweeps build: one that slipped to the direct sum would
    # still pass every value test, at photons x frequencies complex exps
    @pytest.mark.parametrize("period", [1e-9, 1e-7])
    @pytest.mark.parametrize("n", [16, 256, 2**16])
    def test_the_pipeline_grid_folds(self, monkeypatch, period, n):
        stream = self.random_stream(100, 10**6, 52)
        only_path(monkeypatch, "_dft_harmonic")
        coefs = dft_coefficients(stream, np.arange(1, n // 2 + 1) / period)
        assert coefs.shape == (n // 2,)

    @pytest.mark.parametrize("integration_s", [0.1, 1.0, 10.0, 50.0])
    def test_the_peak_search_grids_run_the_recurrence(self, monkeypatch, integration_s):
        from qcs.experiments import ResolutionVsIntegration, run_resolution_vs_integration

        spec = ResolutionVsIntegration(photons=100, integration_s=(integration_s,))
        only_path(monkeypatch, "_dft_recurrence")
        rows = run_resolution_vs_integration(spec, np.random.SeedSequence(53))
        assert len(rows["resolution_vs_integration.csv"][1]) == len(spec.clocks)

    def test_harmonic_grid_leaves_numpy_ma_unimported(self):
        # np.unique imports numpy.ma on its first call, ~20 ms of a spectral run
        code = (
            "import sys, numpy as np\n"
            "from qcs import PhotonStream, dft_coefficients\n"
            "stream = PhotonStream(timestamps=np.arange(0, 10**6, 7), span_ps=10**6)\n"
            "dft_coefficients(stream, np.arange(1, 17) / 1e-9)\n"
            "assert 'numpy.ma' not in sys.modules\n"
        )
        src = str(Path(__file__).resolve().parent.parent / "src")
        path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
        done = subprocess.run(
            [sys.executable, "-c", code],
            env={**os.environ, "PYTHONPATH": path},
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert done.returncode == 0, done.stderr

    # harmonic sets that are not one ascending uniform grid are not folded
    @pytest.mark.parametrize(
        "freqs",
        [[1e9, 3.7e9, 11e9], [1e9, 3e9, 7e9], [3e9, 1e9, 0.0, 3e9, 2e9, 1e9]],
        ids=["off_harmonic", "harmonic_gaps", "harmonic_unsorted_repeated"],
    )
    def test_non_uniform_grid_uses_direct_sum(self, monkeypatch, freqs):
        stream = self.random_stream(1_000, 10**6, 45)
        freqs = np.array(freqs)
        oracle = reconstruction._dft_direct(stream, freqs)
        only_path(monkeypatch, "_dft_direct")
        assert np.array_equal(dft_coefficients(stream, freqs), oracle)
        assert np.array_equal(dft_coefficients(stream, freqs[1:2]), oracle[1:2])


class TestResidueFold:
    """The blockwise residue fold and the real cos/sin phasors against the
    numpy expressions they replace, bit for bit."""

    BLOCK = reconstruction._FOLD_BLOCK

    @pytest.mark.parametrize("period_ps", [1, 1000, 100_000, 2**17])
    @pytest.mark.parametrize("m", [BLOCK - 1, BLOCK, BLOCK + 1, 100_000])
    def test_counts_equal_the_bincount_of_the_remainder(self, period_ps, m):
        span_ps = 10**9 + 7
        rng = np.random.default_rng(period_ps + m)
        ts = np.sort(np.concatenate([[0, span_ps], rng.integers(0, span_ps + 1, m - 2)]))
        want = np.bincount(ts % period_ps, minlength=period_ps)
        counts = reconstruction._residue_counts(ts, period_ps)
        assert counts.dtype == np.float64
        assert np.array_equal(counts, want)
        # the float counts give the int64 counts' transform, bit for bit
        spectrum = reconstruction._dft_harmonic(ts, period_ps, np.arange(period_ps // 2 + 1))
        assert np.array_equal(spectrum.view(np.uint64), np.fft.rfft(want).view(np.uint64))

    def test_comb_sized_call_holds_counts_spectrum_and_one_block(self):
        # DftDemo's perfbench comb: ~1e5 photons over 1000 periods of 100 000 ps;
        # int64 % and bincount once added two photon-length arrays (2.4 MB in all)
        period_ps = 100_000
        rng = np.random.default_rng(54)
        stream = stream_of(rng.integers(0, 1000 * period_ps + 1, 100_308), 1000 * period_ps)
        freqs = np.arange(1, 129) / (period_ps * 1e-12)
        dft_coefficients(stream, freqs)
        tracemalloc.start()
        try:
            dft_coefficients(stream, freqs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * period_ps + 16 * (period_ps // 2 + 1) + 8 * self.BLOCK

    def test_phasors_equal_the_complex_exp(self):
        # freq = 1 on cycles within half a turn leaves them as they are
        rng = np.random.default_rng(55)
        cycles = np.concatenate([rng.uniform(-0.5, 0.5, 2_000_000), [-0.5, -0.0, 0.0, 0.5]])
        got = reconstruction._phasors(1.0, cycles)
        want = np.exp(-2j * np.pi * cycles)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    @pytest.mark.parametrize("freq", [0.0, 1e9, 1e9 + 0.3, 7.77e10])
    def test_phasors_equal_the_complex_exp_of_the_reduced_cycles(self, freq):
        # whole turns (t = k ns at 1 GHz, t = 0) and half turns included
        rng = np.random.default_rng(56)
        t = np.concatenate([rng.uniform(0.0, 0.1, 20_000), np.arange(8) * 0.5e-9])
        cycles = freq * t
        cycles -= np.rint(cycles)
        want = np.exp(-2j * np.pi * cycles)
        got = reconstruction._phasors(freq, t)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_a_step_too_small_for_a_period_runs_the_recurrence_without_warning(self, monkeypatch):
        # 1e12 / 1e-300 once overflowed in numpy and printed a RuntimeWarning
        stream = stream_of([0, 1, 5, 999], 1000)
        freqs = np.array([0.0, 1e-300])
        assert reconstruction._harmonic_bins(freqs, reconstruction._uniform_step(freqs)) is None
        oracle = reconstruction._dft_direct(stream, freqs)
        only_path(monkeypatch, "_dft_recurrence")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fast = dft_coefficients(stream, freqs)
        assert np.abs(fast - oracle).max() <= phase_bound(stream, freqs)


class TestTopKSelect:
    def test_basic(self):
        assert top_k_select(np.array([0.1, 0.9, 0.0, 0.0]), 1) == [1]

    def test_tie_breaks_to_lowest_index(self):
        assert top_k_select(np.array([0.5, 0.5]), 1) == [0]

    def test_k_larger_than_n_rejected(self):
        with pytest.raises(InvalidArgument):
            top_k_select(np.array([1.0, 2.0]), 3)

    def test_rescaling_invariance(self):
        rng = np.random.default_rng(9)
        coefs = rng.uniform(0, 1, 32)
        assert top_k_select(coefs, 5) == top_k_select(coefs * 17.3, 5)

    def test_simulated_tone_selects_true_bin(self):
        from qcs.experiments import dft_tone_pipeline, tone_signal

        sig = tone_signal(20e9, 1e-9, 64)
        res = dft_tone_pipeline(sig, 10_000, seed=31)
        assert res.support == (20,)


class TestReconstruct:
    def test_exact_one_hot_tone(self):
        sig = make_tone_signal(((2e9, 1.0),), 1e-9, 16)
        coefs = np.zeros(16)
        coefs[2] = 1.0
        res = reconstruct(coefs, truth=sig)
        assert res.nmse == pytest.approx(0.0, abs=1e-20)
        assert res.success

    def test_measured_phase_carries_into_the_waveform(self):
        # |c| * cos(2 pi 2 j / 16 + arg c) for a one-hot coefficient at bin 2
        sig = make_tone_signal(((2e9, 1.0),), 1e-9, 16)
        coefs = np.zeros(16, dtype=complex)
        coefs[2] = 3.0 * np.exp(1j * np.pi / 3)
        res = reconstruct(coefs, truth=sig)
        want = 3.0 * np.cos(2 * np.pi * 2 * np.arange(16) / 16 + np.pi / 3)
        assert np.allclose(res.waveform, want, atol=1e-12)
        assert res.support == (2,) and res.success
        # the support still matches, but the shifted waveform no longer does
        assert res.nmse > 0.5

    def test_dimension_mismatch(self):
        sig = make_tone_signal(((2e9, 1.0),), 1e-9, 8)
        with pytest.raises(InvalidArgument):
            reconstruct(np.zeros(4, dtype=complex), truth=sig)

    def test_end_to_end_tone_nmse(self):
        from qcs.experiments import dft_tone_pipeline, tone_signal

        sig = tone_signal(20e9, 1e-9, 64)
        res = dft_tone_pipeline(sig, 10_000, seed=77)
        assert res.nmse <= 0.05
        assert res.success

    def test_wrong_support_fails(self):
        sig = make_tone_signal(((1e9, 1.0),), 1e-9, 8)
        coefs = np.array([0.0, 0.8, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0])
        res = reconstruct(coefs, truth=sig)
        assert res.support == (2,)
        assert not res.success


class TestEstimatorConsistency:
    def test_sup_norm_error_shrinks_with_m(self):
        # the lens-bin shares estimate the tone powers; their max-norm error
        # scales ~ 1/sqrt(M): quadrupling M halves it
        lens = TimeLensConfig(dispersion=1074e-24, window=1e-9)
        tones = ((4e9, 1.0), (11e9, 0.8), (23e9, 0.5))
        powers = np.array([a * a for _, a in tones])
        powers /= powers.sum()
        bins = [tone_bin(f, lens, 250) for f, _ in tones]
        truth = np.zeros(250)
        truth[bins] = powers

        def sup_err(m, seeds):
            errs = []
            for ss in np.random.SeedSequence(seeds).spawn(8):
                ts = tls_sample(
                    tones, lens, m=m, background=0.0, seed=np.random.default_rng(ss), n_bins=250
                )
                shares = np.bincount(ts * 250 // 1000, minlength=250) / m
                errs.append(np.abs(shares - truth).max())
            return np.mean(errs)

        e1 = sup_err(4_000, 100)
        e2 = sup_err(16_000, 200)
        assert 1.4 < e1 / e2 < 2.9


def residue_means(waveform, period_ps, n_periods):
    """mu_r = n_periods * (integral of the intensity over [r - 1/2, r + 1/2)
    ps), r = 0 .. P - 1: the mean photon count of residue r of timestamps
    rounded to whole picoseconds over whole periods of P ps.  [0, 1/2) and
    [span - 1/2, span) both round into residue 0, which together make one
    whole interval."""
    grid = waveform.values.size
    edges = np.arange(grid + 1) * (period_ps / grid)
    # the cumulative intensity at the cell edges, in photons; linear between them
    cumulative = np.concatenate(([0.0], np.cumsum(waveform.values * np.diff(edges))))
    cumulative /= reconstruction.PS_PER_S

    def integral_to(x):  # from 0 to x ps, the waveform repeating
        turns, x = np.divmod(x, period_ps)
        return turns * cumulative[-1] + np.interp(x, edges, cumulative)

    r = np.arange(period_ps)
    return n_periods * (integral_to(r + 0.5) - integral_to(r - 0.5))


def spectrum_moments(mu, b):
    """Exact mean of s(b/P) = sum_r N_r exp(-2i pi b r / P) for independent
    N_r ~ Poisson(mu_r), and the variances of its real and imaginary parts
    and their covariance (Campbell's theorem)."""
    theta = 2 * np.pi * b * np.arange(mu.size) / mu.size
    cos, sin = np.cos(theta), np.sin(theta)
    mean = np.sum(mu * np.exp(-1j * theta))
    return mean, np.sum(mu * cos**2), np.sum(mu * sin**2), -np.sum(mu * cos * sin)


class TestExactSpectrumMoments:
    """``dft_tone_pipeline``'s spectrum held to its exact moments, which
    depend only on the intensity and the rounding to whole picoseconds, not
    on how the photons are drawn."""

    # NmseVsM's tone: bin 5 of 16 over P = 1,000 ps, 64 cells, 1,000 periods
    SIGNAL = experiments.tone_signal(5e9, 1e-9, 16)
    PHOTONS, SEEDS, ROOT = 10_000, 400, 2027
    # the tone bin and a noise bin
    BINS = (5, 3)
    # bounds fixed before the first run: every mean and covariance within 4
    # standard errors, every variance within 4 standard errors of its ratio
    Z = 4.0

    def tone_means(self):
        # the waveform dft_tone_pipeline renders, at its default depth and periods
        span = self.SIGNAL.period * 1000
        waveform = render_intensity(self.SIGNAL, 1.0, self.PHOTONS / span, 64)
        return residue_means(waveform, 1000, 1000)

    def test_residue_means_sum_to_the_photon_count(self):
        mu = self.tone_means()
        assert mu.sum() == pytest.approx(self.PHOTONS, rel=1e-12)
        assert mu.min() >= 0

    def test_spectrum_matches_the_exact_moments(self):
        spectra = np.array(
            [
                experiments.dft_tone_pipeline(self.SIGNAL, self.PHOTONS, ss).coefficients
                for ss in np.random.SeedSequence(self.ROOT).spawn(self.SEEDS)
            ]
        )
        mu = self.tone_means()
        n = self.SEEDS
        for b in self.BINS:
            mean, var_re, var_im, cov = spectrum_moments(mu, b)
            re, im = spectra[:, b].real, spectra[:, b].imag
            assert abs(re.mean() - mean.real) <= self.Z * np.sqrt(var_re / n), b
            assert abs(im.mean() - mean.imag) <= self.Z * np.sqrt(var_im / n), b
            for sample, exact in ((re, var_re), (im, var_im)):
                assert abs(sample.var(ddof=1) / exact - 1) <= self.Z * np.sqrt(2 / (n - 1)), b
            sample_cov = np.cov(re, im)[0, 1]
            assert abs(sample_cov - cov) <= self.Z * np.sqrt((var_re * var_im + cov**2) / n), b
