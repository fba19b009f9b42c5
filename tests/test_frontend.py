import itertools
import json
import tracemalloc

import numpy as np
import pytest
from scipy import stats

from qcs import (
    InvalidArgument,
    PhotonStream,
    apply_detector,
    load_stream,
    sample_arrivals,
    save_stream,
)
from qcs import experiments, frontend
from qcs.signals import IntensityWaveform, render_intensity


def constant_intensity(rate, period, grid=1):
    """A flat waveform at ``rate`` counts/second."""
    return IntensityWaveform(values=np.full(grid, float(rate)), period=period)


def _thinning_reference(waveform, span, seed):
    """The thinning sampler before the fast cell lookup, kept as its oracle:
    the same draws, each cell found with the float remainder."""
    values = waveform.values
    rng = np.random.default_rng(seed)
    span_ps = int(round(span * frontend.PS_PER_S))
    lam_max = float(values.max())
    n_candidates = rng.poisson(lam_max * span)
    times = rng.uniform(0.0, span, n_candidates)
    grid = values.size
    idx = ((times % waveform.period) / waveform.period * grid).astype(np.int64)
    np.clip(idx, 0, grid - 1, out=idx)
    accept = rng.random(n_candidates) < values[idx] / lam_max
    kept = np.round(times[accept] * frontend.PS_PER_S).astype(np.int64)
    kept = kept[(kept >= 0) & (kept <= span_ps)]
    kept.sort()
    return kept, span_ps


def _rendered(signal, span, photons=2000, grid=64):
    return render_intensity(signal, 1.0, photons / span, grid=max(signal.dimension, grid)), span


# the spectral sweeps' waveforms: DftDemo's tone and comb and NmseVsM's tone
# over 1000 periods at 2000 photons, and ResolutionVsIntegration's tone at its
# 20 000 photons over 50 s, where the fast lookup is off by up to ~2.4e-4 of
# a cell and picks the wrong cell for ~1 time in 7000 without its guard
WORKLOAD_WAVEFORMS = {
    "dft_tone": _rendered(experiments.tone_signal(20e9, 1e-9, 64), 1e-6),
    "dft_comb": _rendered(experiments.comb_signal(83, 1e7, 256), 1e-4),
    "nmse": _rendered(experiments.tone_signal(5e9, 1e-9, 16), 1e-6),
    "resolution_50s": _rendered(experiments.tone_signal(1e9, 1e-9, 4), 50.0, photons=20_000),
    # on a power-of-two grid the fast position of a misplaced time lands on
    # the cell edge itself; on 100 cells it falls just short of it
    "resolution_50s_grid_100": _rendered(
        experiments.tone_signal(1e9, 1e-9, 4), 50.0, photons=20_000, grid=100
    ),
    # span/period = 1e15 puts every time within rounding of a cell edge,
    # so the whole array takes the exact remainder
    "exact_everywhere": _rendered(experiments.tone_signal(1e9, 1e-9, 4), 1e6),
    "one_cell": (constant_intensity(40.0, 1e-9, grid=1), 50.0),
}


def _seeds_drawing(waveform, span, n_candidates, count=4):
    """The first ``count`` seeds that draw exactly ``n_candidates`` candidates."""
    expected = float(waveform.values.max()) * span
    seeds = itertools.count()
    hits = (s for s in seeds if np.random.default_rng(s).poisson(expected) == n_candidates)
    return list(itertools.islice(hits, count))


# sample_arrivals thins in blocks of frontend._BLOCK candidates: a draw of
# exactly one block, of one block and one candidate, of many blocks
# (NmseVsM's tone at 100 000 photons), and of ~25 blocks whose edge-guarded
# times also fall after the first block (ResolutionVsIntegration's tone at
# 200 000 photons over 50 s).  The one-block tone is shallow, so that most
# candidates survive and one lost or repeated at a block edge shows.
_ONE_BLOCK = (
    render_intensity(experiments.tone_signal(5e9, 1e-9, 16), 0.1, frontend._BLOCK / 1.1e-6, 64),
    1e-6,
)
BLOCK_WAVEFORMS = {
    "one_block": (*_ONE_BLOCK, _seeds_drawing(*_ONE_BLOCK, frontend._BLOCK)),
    "one_block_and_one": (*_ONE_BLOCK, _seeds_drawing(*_ONE_BLOCK, frontend._BLOCK + 1)),
    "nmse_100k": (
        *_rendered(experiments.tone_signal(5e9, 1e-9, 16), 1e-6, photons=100_000),
        range(12),
    ),
    "resolution_50s_200k": (
        *_rendered(experiments.tone_signal(1e9, 1e-9, 4), 50.0, photons=200_000),
        range(6),
    ),
}


class TestSampleArrivals:
    def test_zero_waveform_empty_stream(self):
        wf = constant_intensity(0.0, 1e-6)
        stream = sample_arrivals(wf, 1e-3, seed=0)
        assert stream.count == 0

    def test_negative_waveform_rejected(self):
        wf = IntensityWaveform(values=np.array([1.0, -0.5]), period=1e-6)
        with pytest.raises(InvalidArgument, match="must be nonnegative and nonempty"):
            sample_arrivals(wf, 1e-3, seed=0)

    def test_poisson_count_moments(self):
        # constant rate: counts over repeated seeded runs are Poisson(lam*T)
        lam, span, runs = 40.0, 1.0, 10_000
        wf = constant_intensity(lam, 1e-3)
        root = np.random.SeedSequence(42)
        counts = np.array(
            [sample_arrivals(wf, span, np.random.default_rng(ss)).count for ss in root.spawn(runs)]
        )
        mean = counts.mean()
        assert abs(mean - lam * span) < 3 * np.sqrt(lam * span / runs)
        assert 0.95 < counts.var() / mean < 1.05

    def test_interarrival_exponential_ks(self):
        # homogeneous limit: gaps pass a KS test against Exp(lam) at 1%
        lam = 1e6
        wf = constant_intensity(lam, 1e-3)
        stream = sample_arrivals(wf, 0.105, seed=7)
        gaps = np.diff(stream.seconds())
        assert gaps.size > 100_000
        result = stats.kstest(gaps[:100_000], "expon", args=(0, 1 / lam))
        assert result.pvalue > 0.01

    def test_thinning_composition_chi2(self):
        # sampling at rate lam then keeping each arrival with probability p
        # matches sampling at p*lam
        lam, p, span, runs = 80.0, 0.35, 1.0, 10_000
        root = np.random.SeedSequence(99)
        seeds = root.spawn(2 * runs)
        thinned, direct = [], []
        wf_full = constant_intensity(lam, 1e-3)
        wf_scaled = constant_intensity(p * lam, 1e-3)
        for i in range(runs):
            s = sample_arrivals(wf_full, span, np.random.default_rng(seeds[2 * i]))
            rng = np.random.default_rng(seeds[2 * i].spawn(1)[0])
            thinned.append(np.count_nonzero(rng.random(s.count) < p))
            direct.append(sample_arrivals(wf_scaled, span, np.random.default_rng(seeds[2 * i + 1])).count)
        lo, hi = 10, 46  # ~ mean 28 +/- 3.4 sigma; pool the tails
        edges = np.arange(lo, hi + 1)
        h1 = np.histogram(np.clip(thinned, lo, hi), bins=edges)[0]
        h2 = np.histogram(np.clip(direct, lo, hi), bins=edges)[0]
        keep = (h1 + h2) >= 10
        table = np.vstack([h1[keep], h2[keep]])
        _, pvalue, _, _ = stats.chi2_contingency(table)
        assert pvalue > 0.01

    @pytest.mark.parametrize("shape", sorted(WORKLOAD_WAVEFORMS))
    def test_matches_the_remainder_sampler_bit_for_bit(self, shape):
        waveform, span = WORKLOAD_WAVEFORMS[shape]
        for seed in range(200):
            stream = sample_arrivals(waveform, span, seed)
            want, span_ps = _thinning_reference(waveform, span, seed)
            assert stream.span_ps == span_ps
            assert stream.timestamps.dtype == np.int64
            assert np.array_equal(stream.timestamps, want), (shape, seed)

    @pytest.mark.parametrize("shape", sorted(BLOCK_WAVEFORMS))
    def test_matches_the_remainder_sampler_across_block_edges(self, shape):
        waveform, span, seeds = BLOCK_WAVEFORMS[shape]
        assert len(seeds) > 0
        for seed in seeds:
            stream = sample_arrivals(waveform, span, seed)
            want, span_ps = _thinning_reference(waveform, span, seed)
            assert stream.span_ps == span_ps
            assert np.array_equal(stream.timestamps, want), (shape, seed)

    def test_the_guard_is_needed_after_the_first_block(self):
        # without the edge guard, the fast cell of some time past the first
        # block differs from the remainder's
        waveform, span, seeds = BLOCK_WAVEFORMS["resolution_50s_200k"]
        rng = np.random.default_rng(seeds[0])
        times = rng.uniform(0.0, span, rng.poisson(float(waveform.values.max()) * span))
        grid, period = waveform.values.size, waveform.period
        cells = times / period
        cells -= np.floor(cells)
        fast = np.minimum((cells * grid).astype(np.int64), grid - 1)
        exact = np.minimum(((times % period) / period * grid).astype(np.int64), grid - 1)
        assert np.flatnonzero(fast != exact).max() >= frontend._BLOCK

    @pytest.mark.parametrize("bit_generator", [np.random.PCG64, np.random.MT19937])
    def test_a_callers_generator_ends_where_the_reference_leaves_it(self, bit_generator):
        waveform, span, _ = BLOCK_WAVEFORMS["nmse_100k"]
        for seed in range(4):
            ours, theirs = (np.random.Generator(bit_generator(seed)) for _ in range(2))
            for rng in (ours, theirs):
                rng.integers(0, 7, dtype=np.uint32)  # PCG64 keeps half a draw buffered
            stream = sample_arrivals(waveform, span, ours)
            want, _ = _thinning_reference(waveform, span, theirs)
            assert np.array_equal(stream.timestamps, want), seed
            ours_state, theirs_state = (
                json.dumps(rng.bit_generator.state, default=lambda array: array.tolist())
                for rng in (ours, theirs)
            )
            assert ours_state == theirs_state, seed

    def test_peak_memory_of_the_largest_committed_draw(self):
        # DftDemo's default comb: 2 M photons from about 4 M candidates; the
        # block sampler holds the times (8 bytes per candidate) and the int64
        # photons (about 4)
        spec = experiments.DftDemo()
        comb = experiments.comb_signal(spec.comb_k, spec.comb_spacing_hz, spec.comb_n)
        waveform, span = _rendered(comb, comb.period * spec.n_periods, photons=spec.comb_photons)
        n_candidates = np.random.default_rng(0).poisson(float(waveform.values.max()) * span)
        tracemalloc.start()
        try:
            sample_arrivals(waveform, span, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * n_candidates + 2**20

    @pytest.mark.parametrize("span", [0.0, -1.0, 4e-13, float("nan"), 1e7, float("inf")])
    def test_span_outside_the_timestamp_range_rejected(self, span):
        # timestamps are int64 picoseconds: from 1 ps up to 2^63 ps (~107 days)
        with pytest.raises(InvalidArgument, match="span"):
            sample_arrivals(constant_intensity(1.0, 1e-6), span, seed=0)

    @pytest.mark.parametrize(
        "peak", [float("inf"), float("nan"), 1e30, frontend.MAX_CANDIDATES * (1 + 1e-9)]
    )
    def test_non_finite_or_oversized_candidate_count_rejected(self, peak):
        # refused before any draw: the last peak is just over the cap at a 1 s span
        wf = IntensityWaveform(values=np.array([1.0, peak]), period=1e-6)
        with pytest.raises(InvalidArgument, match="candidate arrivals"):
            sample_arrivals(wf, 1.0, seed=0)

    def test_determinism(self):
        wf = constant_intensity(1e4, 1e-6)
        a = sample_arrivals(wf, 1e-2, seed=123)
        b = sample_arrivals(wf, 1e-2, seed=123)
        assert np.array_equal(a.timestamps, b.timestamps)
        c = sample_arrivals(wf, 1e-2, seed=124)
        assert not np.array_equal(a.timestamps, c.timestamps)


class TestApplyDetector:
    def test_identity_configuration(self):
        wf = constant_intensity(1e5, 1e-6)
        stream = sample_arrivals(wf, 1e-3, seed=1)
        out = apply_detector(stream, 0.0)
        assert np.array_equal(out.timestamps, stream.timestamps)

    @pytest.mark.parametrize(
        "skew, want",
        [
            # a fast clock pushes the event at the span's end out
            (0.5, [0, 15 * 10**5, 45 * 10**5]),
            # no skew keeps both ends of the span
            (0.0, [0, 10**6, 3 * 10**6, 10**7]),
            # a slow clock keeps every event, rounded to the nearest picosecond
            (-1 / 3, [0, 666_667, 2 * 10**6, 6_666_667]),
            # a clock running backwards leaves only the event at zero
            (-2.0, [0]),
        ],
        ids=["fast", "zero", "slow", "reversed"],
    )
    def test_clock_skew_scales_times(self, skew, want):
        ts = np.array([0, 10**6, 3 * 10**6, 10**7], dtype=np.int64)
        out = apply_detector(PhotonStream(timestamps=ts, span_ps=10**7), skew)
        assert np.array_equal(out.timestamps, want)
        assert out.span_ps == 10**7

    def test_out_of_span_events_dropped(self):
        ts = np.array([9 * 10**6], dtype=np.int64)
        stream = PhotonStream(timestamps=ts, span_ps=10**7)
        out = apply_detector(stream, 0.5)
        assert out.count == 0


class TestPhotonStreamFormat:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(31)
        ts = np.sort(rng.integers(0, 10**9, size=500))
        stream = PhotonStream(timestamps=ts, span_ps=10**9)
        path = tmp_path / "stream.txt"
        save_stream(stream, path)
        loaded = load_stream(path)
        assert loaded.span_ps == stream.span_ps
        assert np.array_equal(loaded.timestamps, stream.timestamps)
        save_stream(loaded, tmp_path / "again.txt")
        assert (tmp_path / "again.txt").read_bytes() == path.read_bytes()

    def test_header_format(self, tmp_path):
        stream = PhotonStream(timestamps=np.array([5, 10], dtype=np.int64), span_ps=100)
        path = tmp_path / "s.txt"
        save_stream(stream, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "# span_ps=100"
        assert lines[1:] == ["5", "10"]

    def test_unsorted_rejected(self):
        with pytest.raises(InvalidArgument):
            PhotonStream(timestamps=np.array([10, 5], dtype=np.int64), span_ps=100)

    def test_out_of_span_rejected(self):
        with pytest.raises(InvalidArgument):
            PhotonStream(timestamps=np.array([101], dtype=np.int64), span_ps=100)

    @pytest.mark.parametrize(
        "lines, match",
        [
            (["10", "5"], "nondecreasing"),
            (["5", "101"], "within"),
            (["-1", "5"], "within"),
            # a malformed value is named with its file and line
            (["5", "abc"], r"bad\.txt:3: 'abc' is not an integer"),
            (["5.5"], r"bad\.txt:2: '5\.5' is not an integer"),
            (["5", "# span_ps=ten"], r"bad\.txt:3: '# span_ps=ten' is not an integer"),
        ],
        ids=["unsorted", "past_span", "negative", "letters", "decimal", "span_header"],
    )
    def test_load_rejects_unsorted_or_out_of_span(self, tmp_path, lines, match):
        path = tmp_path / "bad.txt"
        path.write_text("# span_ps=100\n" + "\n".join(lines) + "\n")
        with pytest.raises(InvalidArgument, match=match):
            load_stream(path)

    def test_sampled_streams_pass_the_full_check(self):
        # the sampler sorts its output and the detector keeps its order, so
        # both skip the order and range scan; a fast clock pushes the last events past
        # the span, a slow one pulls them all in
        wf = render_intensity(experiments.tone_signal(1e9, 1e-9, 4), 1.0, 2e4, grid=64)
        arrivals = sample_arrivals(wf, 1.0, seed=3)
        fast, slow = apply_detector(arrivals, 1e-3), apply_detector(arrivals, -1e-3)
        assert fast.count < arrivals.count == slow.count
        for stream in (arrivals, fast, slow):
            assert stream.count > 0
            assert stream.timestamps.dtype == np.int64 and type(stream.span_ps) is int
            checked = PhotonStream(timestamps=stream.timestamps, span_ps=stream.span_ps)
            assert np.array_equal(checked.timestamps, stream.timestamps)
