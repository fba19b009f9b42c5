import numpy as np
import pytest

from qcs import (
    InvalidArgument,
    SparseSignal,
    make_tone_signal,
    render_intensity,
    signal_waveform,
)


class TestSparseSignal:
    def test_large_dimension_random_support(self):
        rng = np.random.default_rng(3)
        support = rng.choice(2**15, size=10, replace=False)
        sig = SparseSignal(2**15, support, [1.0] * 10, 1e-3)
        assert sig.sparsity == 10
        assert sig.dimension == 2**15

    def test_duplicate_index_rejected(self):
        with pytest.raises(InvalidArgument, match="must be distinct"):
            SparseSignal(4, [1, 1], [1.0, 1.0], 1e-6)

    def test_out_of_range_index_rejected(self):
        with pytest.raises(InvalidArgument, match="must lie in"):
            SparseSignal(4, [4], [1.0], 1e-6)
        with pytest.raises(InvalidArgument, match="must lie in"):
            SparseSignal(4, [-1], [1.0], 1e-6)

    def test_empty_support_rejected(self):
        with pytest.raises(InvalidArgument, match="must not be empty"):
            SparseSignal(4, [], [], 1e-6)

    def test_nonpositive_amplitude_rejected(self):
        with pytest.raises(InvalidArgument):
            SparseSignal(4, [1], [0.0], 1e-6)


class TestToneSignal:
    def test_single_tone_on_grid(self):
        sig = make_tone_signal(((20e9, 1.0),), 1e-9, 64)
        assert sig.sparsity == 1
        assert sig.support == (20,)

    def test_empty_tone_set_rejected(self):
        with pytest.raises(InvalidArgument, match="tone set is empty"):
            make_tone_signal((), 1e-9, 64)

    def test_above_nyquist_rejected(self):
        with pytest.raises(InvalidArgument, match="at or above the grid Nyquist"):
            make_tone_signal(((40e9, 1.0),), 1e-9, 64)

    @pytest.mark.parametrize("window", [0.0, -1e-9])
    def test_nonpositive_window_rejected(self, window):
        with pytest.raises(InvalidArgument, match="window must be positive"):
            make_tone_signal(((2e9, 1.0),), window, 64)

    def test_negative_frequency_rejected(self):
        with pytest.raises(InvalidArgument, match="tone frequencies must be nonnegative"):
            make_tone_signal(((2e9, 1.0), (-3e9, 1.0)), 1e-9, 64)

    def test_off_grid_tone_snaps_to_nearest_bin(self):
        sig = make_tone_signal(((20.4e9, 1.0), (30.6e9, 2.0)), 1e-9, 64)
        assert sig.support == (20, 31)
        assert sig.amplitudes == (1.0, 2.0)

    def test_comb_830_lines(self):
        # 10 MHz..8.30 GHz at 10 MHz spacing on a 100 ns window
        tones = [(1e7 * (i + 1), 1.0) for i in range(830)]
        sig = make_tone_signal(tones, 1e-7, 2048)
        assert sig.sparsity == 830
        assert sig.support == tuple(range(1, 831))


class TestRenderIntensity:
    def test_unit_tone_full_depth_touches_extremes(self):
        sig = make_tone_signal(((2e9, 1.0),), 1e-9, 16)
        wf = render_intensity(sig, 1.0, 500.0, grid=16)
        assert wf.values.min() == pytest.approx(0.0, abs=1e-9)
        assert wf.values.max() == pytest.approx(1000.0)
        assert wf.values.mean() == pytest.approx(500.0)

    @pytest.mark.parametrize("depth", [0.0, -0.5, 1.5])
    def test_depth_outside_0_1_rejected(self, depth):
        sig = make_tone_signal(((2e9, 1.0),), 1e-9, 16)
        with pytest.raises(InvalidArgument, match=r"modulation depth must be in \(0, 1\]"):
            render_intensity(sig, depth, 500.0, grid=16)

    @pytest.mark.parametrize("mean_rate", [0.0, -500.0])
    def test_nonpositive_mean_rate_rejected(self, mean_rate):
        sig = make_tone_signal(((2e9, 1.0),), 1e-9, 16)
        with pytest.raises(InvalidArgument, match="mean_rate must be positive"):
            render_intensity(sig, 1.0, mean_rate, grid=16)

    def test_grid_must_cover_dimension(self):
        sig = make_tone_signal(((3e9, 1.0),), 1e-9, 8)
        with pytest.raises(InvalidArgument):
            render_intensity(sig, 0.5, 100.0, grid=4)

    def test_nonnegative_for_randomized_signals(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            n = int(rng.integers(8, 64))
            k = int(rng.integers(1, min(6, n // 2)))
            k = min(k, n // 2 - 1)
            bins = rng.choice(np.arange(1, n // 2), size=k, replace=False)
            tones = [(b / 1e-9, a) for b, a in zip(bins, rng.uniform(0.1, 5.0, k))]
            sig = make_tone_signal(tones, 1e-9, n)
            depth = float(rng.uniform(0.05, 1.0))
            wf = render_intensity(sig, depth, 1e3, grid=4 * n)
            assert wf.values.min() >= 0

    def test_tone_spectrum_support_exact(self):
        # DFT of the rendered waveform (minus DC) lives exactly on the tone
        # bins with magnitudes proportional to the declared amplitudes
        rng = np.random.default_rng(7)
        for _ in range(10):
            n = 64
            k = int(rng.integers(1, 5))
            bins = np.sort(rng.choice(np.arange(1, n // 2), size=k, replace=False))
            amps = rng.uniform(0.5, 2.0, k)
            sig = make_tone_signal([(b / 1e-9, a) for b, a in zip(bins, amps)], 1e-9, n)
            wf = render_intensity(sig, 0.8, 1e3, grid=n)
            spectrum = np.fft.rfft(wf.values - wf.values.mean())
            mags = np.abs(spectrum)
            on = mags[bins]
            off = np.delete(mags, bins)
            assert np.all(off < 1e-9 * on.max())
            ratios = on / amps
            assert np.allclose(ratios, ratios[0], rtol=1e-9)


def test_waveform_normalization_peak_one():
    # cosines of amplitude 4 and 2 both peak at sample 0; at sample 4 of 8
    # the bin-1 cosine is -1 and the bin-2 one +1, so the sum is -4 + 2
    sig = make_tone_signal(((1e9, 4.0), (2e9, 2.0)), 1e-9, 8)
    x = signal_waveform(sig, 8)
    assert x.max() == pytest.approx(1.0)
    assert x[0] == pytest.approx(1.0)
    assert x[4] == pytest.approx(-2 / 6)
