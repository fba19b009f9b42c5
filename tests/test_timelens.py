import numpy as np
import pytest
from scipy import stats

from qcs import (
    InvalidArgument,
    JitterModel,
    TimeLensConfig,
    bandwidth_3db,
    frequency_to_time,
    jitter_response,
    time_to_frequency,
    tls_sample,
)
from qcs.timelens import tone_bin, window_ps

DISPERSION = 1074e-24  # s^2
LENS = TimeLensConfig(dispersion=DISPERSION, window=1e-9)


def lens_counts(ts, cfg, n_bins):
    """Detections per lens bin, binned as ConfusionTLS bins them."""
    return np.bincount(ts * n_bins // round(cfg.window * 1e12), minlength=n_bins)


class TestFrequencyTimeMap:
    def test_zero_maps_to_zero(self):
        assert frequency_to_time(0.0, LENS) == 0.0

    def test_one_gigahertz(self):
        t = frequency_to_time(1e9, LENS)
        assert t == pytest.approx(-6.75e-12, abs=0.01e-12)

    def test_fig1_tone(self):
        t = frequency_to_time(16.2e9, LENS)
        assert t == pytest.approx(-109.3e-12, abs=0.1e-12)

    def test_round_trip_identity(self):
        rng = np.random.default_rng(2)
        f_max = LENS.window / 2 / (2 * np.pi * DISPERSION)
        freqs = rng.uniform(0, f_max, 200)
        back = time_to_frequency(frequency_to_time(freqs, LENS), LENS)
        assert np.allclose(back, freqs, rtol=1e-12, atol=0)

    def test_out_of_window(self):
        f_max = LENS.window / 2 / (2 * np.pi * DISPERSION)
        with pytest.raises(InvalidArgument, match="frequency maps outside"):
            frequency_to_time(f_max * 1.01, LENS)
        with pytest.raises(InvalidArgument, match="time lies outside"):
            time_to_frequency(LENS.window, LENS)

    @pytest.mark.parametrize(
        "dispersion, window", [(0.0, 1e-9), (DISPERSION, 0.0), (DISPERSION, -1e-9)]
    )
    def test_degenerate_lens_rejected(self, dispersion, window):
        with pytest.raises(InvalidArgument):
            TimeLensConfig(dispersion=dispersion, window=window)


class TestTlsSample:
    def test_single_tone_all_in_one_bin(self):
        tones = ((16.2e9, 1.0),)
        ts = tls_sample(tones, LENS, m=5000, background=0.0, seed=3, n_bins=512)
        assert ts.dtype == np.int64 and ts.size == 5000
        expected = tone_bin(16.2e9, LENS, 512)
        assert lens_counts(ts, LENS, 512)[expected] == 5000

    def test_uniform_four_tones_multinomial(self):
        freqs = (5.4e9, 16.2e9, 27.0e9, 37.8e9)
        cfg = TimeLensConfig(dispersion=DISPERSION, window=5.12e-10)
        tones = tuple((f, 1.0) for f in freqs)
        m = 100_000
        ts = tls_sample(tones, cfg, m=m, background=0.0, seed=4, n_bins=512)
        counts = lens_counts(ts, cfg, 512)
        sigma = np.sqrt(0.25 * 0.75 / m)
        for f in freqs:
            share = counts[tone_bin(f, cfg, 512)] / m
            assert abs(share - 0.25) < 3 * sigma

    def test_power_weighting(self):
        tones = ((5e9, np.sqrt(0.7)), (20e9, np.sqrt(0.3)))
        m = 100_000
        ts = tls_sample(tones, LENS, m=m, background=0.0, seed=5, n_bins=256)
        counts = lens_counts(ts, LENS, 256)
        assert counts[tone_bin(5e9, LENS, 256)] / m == pytest.approx(0.7, abs=0.01)
        assert counts[tone_bin(20e9, LENS, 256)] / m == pytest.approx(0.3, abs=0.01)

    @pytest.mark.parametrize("background", [0.999999999, 1.0])
    def test_pure_background_uniform(self, background):
        # 1.0 is the top of ConfusionTLS's background range: chance accuracy
        tones = ((16.2e9, 1.0),)
        ts = tls_sample(tones, LENS, m=50_000, background=background, seed=6, n_bins=500)
        assert ts.min() >= 0 and ts.max() < 1000
        assert stats.kstest(ts / 1000, "uniform").pvalue > 0.01

    @pytest.mark.parametrize("background", [0.0, 0.25, 0.5, 0.75])
    def test_background_share_spreads_over_the_window(self, background):
        # a share `background` of the clicks lands uniformly, so the tone's
        # bin keeps 1 - background of them plus its even part of the rest
        tones = ((16.2e9, 1.0),)
        m, n_bins = 40_000, 500
        ts = tls_sample(tones, LENS, m=m, background=background, seed=8, n_bins=n_bins)
        assert ts.min() >= 0 and ts.max() < 1000
        share = lens_counts(ts, LENS, n_bins)[tone_bin(16.2e9, LENS, n_bins)] / m
        expected = 1 - background + background / n_bins
        assert abs(share - expected) <= 4 * np.sqrt(expected * (1 - expected) / m) + 1e-12

    def test_same_seed_same_draws(self):
        tones = ((5e9, 1.0), (20e9, 0.5))
        first = tls_sample(tones, LENS, m=2000, background=0.2, seed=11, n_bins=1000)
        again = tls_sample(tones, LENS, m=2000, background=0.2, seed=11, n_bins=1000)
        other = tls_sample(tones, LENS, m=2000, background=0.2, seed=12, n_bins=1000)
        assert np.array_equal(first, again)
        assert not np.array_equal(first, other)

    @pytest.mark.parametrize("background", [1.5, -0.1])
    def test_background_out_of_range(self, background):
        tones = ((16.2e9, 1.0),)
        with pytest.raises(InvalidArgument):
            tls_sample(tones, LENS, m=10, background=background, seed=0)

    def test_draws_come_unsorted_from_the_callers_generator(self):
        # the timestamps stay in draw order, and a Generator passed as the
        # seed is drawn from directly, as ConfusionTLS passes the one it holds
        tones = ((5e9, 1.0), (20e9, 1.0))
        ts = tls_sample(tones, LENS, m=1000, background=0.3, seed=7, n_bins=1000)
        assert np.any(np.diff(ts) < 0)
        rng = np.random.default_rng(7)
        assert np.array_equal(tls_sample(tones, LENS, 1000, 0.3, rng, 1000), ts)

    @pytest.mark.parametrize("tones", [(), ((5e9, 1.0), (20e9, 0.0)), ((5e9, -1.0),)])
    def test_no_tones_or_a_nonpositive_amplitude_rejected(self, tones):
        with pytest.raises(InvalidArgument, match="at least one tone, each with a positive"):
            tls_sample(tones, LENS, m=10, seed=0)

    def test_tone_outside_window_rejected(self):
        cfg = TimeLensConfig(dispersion=DISPERSION, window=1e-10)
        tones = ((16.2e9, 1.0),)
        with pytest.raises(InvalidArgument, match="frequency maps outside"):
            tls_sample(tones, cfg, m=10, seed=0)

    def test_fewer_than_one_picosecond_per_bin_rejected(self):
        # the 1,000 ps window split into 1,001 bins
        with pytest.raises(InvalidArgument, match="shorter than one picosecond per bin"):
            tls_sample(((16.2e9, 1.0),), LENS, m=10, seed=1, n_bins=1001)

    def test_the_window_keeps_the_bin_map_within_int64(self):
        # t * n_bins // window bins a detection at t ps, and window * n_bins bounds t * n_bins
        assert window_ps(LENS, 1000) == 1000
        wide = TimeLensConfig(dispersion=DISPERSION, window=3.1e-3)
        assert window_ps(wide, 2**31) == 3_100_000_000
        with pytest.raises(InvalidArgument, match=r"times 3100000000 bins passes 2\^63"):
            window_ps(wide, 3_100_000_000)
        with pytest.raises(InvalidArgument, match=r"passes 2\^63"):
            window_ps(TimeLensConfig(dispersion=DISPERSION, window=1e300), 1)

    def test_tone_power_chi_square_over_runs(self):
        # pooled counts across 1000 runs agree with the multinomial law
        tones = ((5e9, np.sqrt(0.6)), (20e9, np.sqrt(0.4)))
        bins = [tone_bin(5e9, LENS, 256), tone_bin(20e9, LENS, 256)]
        root = np.random.SeedSequence(8)
        pooled = np.zeros(2)
        m = 200
        for ss in root.spawn(1000):
            ts = tls_sample(tones, LENS, m=m, background=0.0, seed=np.random.default_rng(ss), n_bins=256)
            pooled += lens_counts(ts, LENS, 256)[bins]
        total = pooled.sum()
        chi2 = stats.chisquare(pooled, [0.6 * total, 0.4 * total])
        assert chi2.pvalue > 0.01


class TestJitterResponse:
    def test_degenerate_model_flat(self):
        jit = JitterModel()
        freqs = np.logspace(8, 12, 50)
        assert np.allclose(jitter_response(jit, freqs), 1.0)

    def test_dc_unity_and_monotone(self):
        jit = JitterModel(sigma=20e-12, tau=15e-12)
        freqs = np.linspace(0, 1e11, 2000)
        mags = jitter_response(jit, freqs)
        assert mags[0] == 1.0
        assert np.all(np.diff(mags) < 0)
        assert mags[-1] < 1e-6

    def test_gaussian_bandwidth_closed_form(self):
        # FWHM 45.3 ps -> sigma 19.24 ps -> f3db = sqrt(ln 2)/(2 pi sigma)
        jit = JitterModel.from_fwhm(45.3e-12)
        assert jit.sigma == pytest.approx(19.24e-12, abs=0.01e-12)
        f3 = bandwidth_3db(jit)
        assert f3 == pytest.approx(6.89e9, abs=0.05e9)
        assert f3 == pytest.approx(np.sqrt(np.log(2)) / (2 * np.pi * jit.sigma), rel=1e-6)

    def test_doubling_sigma_halves_bandwidth(self):
        f1 = bandwidth_3db(JitterModel(sigma=10e-12))
        f2 = bandwidth_3db(JitterModel(sigma=20e-12))
        assert f1 / f2 == pytest.approx(2.0, rel=1e-6)

    def test_exponential_only_closed_form(self):
        tau = 25e-12
        f3 = bandwidth_3db(JitterModel(tau=tau))
        assert f3 == pytest.approx(1.0 / (2 * np.pi * tau), rel=1e-6)

    def test_bandwidth_fwhm_product_gaussian(self):
        for fwhm in (45.3e-12, 20.2e-12, 3.0e-12):
            jit = JitterModel.from_fwhm(fwhm)
            product = bandwidth_3db(jit) * fwhm
            assert product == pytest.approx(0.312, abs=0.005)

    @pytest.mark.parametrize("sigma, f3db", [(1e-300, 1.3250518e299), (1e200, 1.3250518e-201)])
    def test_bandwidth_outside_the_sweep_range_is_scaled(self, sigma, f3db):
        # sigma^2 underflowed at 1e-300 s (f3db came out 1.34e154) and
        # overflowed at 1e200 s; the search now runs in units of 1/sigma
        assert bandwidth_3db(JitterModel(sigma=sigma)) == pytest.approx(f3db, rel=1e-7)

    def test_bandwidth_past_the_float_range_is_refused(self):
        # 0.1325 / 1e-320 s is no finite float; it used to come out inf
        with pytest.raises(InvalidArgument, match="3 dB bandwidth .* overflows"):
            bandwidth_3db(JitterModel(sigma=1e-320))

    def test_degenerate_bandwidth_unbounded(self):
        with pytest.raises(InvalidArgument, match="flat response"):
            bandwidth_3db(JitterModel())

    @pytest.mark.parametrize("widths", [{"sigma": -1e-12}, {"tau": -1e-12}])
    def test_negative_width_rejected(self, widths):
        with pytest.raises(InvalidArgument):
            JitterModel(**widths)

    @staticmethod
    def _assert_fourier_magnitude(jit, t, pdf):
        # the closed form must match a numerical Fourier transform of a
        # density built independently of the toolkit; the density's delay
        # mu turns only the phase, so the model has none
        assert np.trapezoid(pdf, t) == pytest.approx(1.0, abs=1e-9)
        for f in (1e9, 5e9, 10e9, 15e9):
            ft = np.trapezoid(pdf * np.exp(-2j * np.pi * f * t), t)
            assert abs(ft) == pytest.approx(jitter_response(jit, f), rel=1e-6)

    def test_response_is_fourier_magnitude_of_density(self):
        mu, sigma, tau = 100e-12, 20e-12, 30e-12
        t = np.linspace(-200e-12, 1500e-12, 200_001)
        pdf = stats.exponnorm.pdf(t, tau / sigma, loc=mu, scale=sigma)
        self._assert_fourier_magnitude(JitterModel(sigma=sigma, tau=tau), t, pdf)

    def test_gaussian_response_is_fourier_magnitude_of_density(self):
        mu, sigma = 100e-12, 20e-12
        t = np.linspace(-200e-12, 400e-12, 200_001)
        pdf = stats.norm.pdf(t, loc=mu, scale=sigma)
        self._assert_fourier_magnitude(JitterModel(sigma=sigma), t, pdf)

    def test_exponential_response_is_fourier_magnitude_of_density(self):
        # the grid starts at the density's jump, which the trapezoid rule would smear
        mu, tau = 100e-12, 30e-12
        t = mu + np.linspace(0.0, 30 * tau, 400_001)
        pdf = stats.expon.pdf(t, loc=mu, scale=tau)
        self._assert_fourier_magnitude(JitterModel(tau=tau), t, pdf)
