import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from qcs import coverage, experiments
from qcs import (
    InvalidArgument,
    coverage_mc,
    coverage_times,
    fit_scaling,
    load_config,
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
        with pytest.raises(InvalidArgument, match="M >= 2"):
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

    @pytest.mark.parametrize("m", [2, 3, 6, 20])
    @pytest.mark.parametrize("p", [1e-12, 1e-15])
    def test_small_p_tends_to_uniform_coverage(self, p, m):
        # as p -> 0 the clicks fall evenly on the two tones, so M of them
        # cover both with odds 1 - 2 (1/2)^M
        assert abs(success_k2(p, m) - (1 - 2 * 0.5**m)) <= 1e-9


class TestSuccessK3:
    def test_two_clicks_cannot_cover(self):
        assert success_k3(1.0, 2) == 0.0

    def test_perfect_three_clicks(self):
        assert success_k3(1.0, 3) == pytest.approx(1.0, rel=1e-12)

    def test_half_probability_four_clicks(self):
        # at p = 0.5 the jumps are 4/7, 2/7 and 1/7, so the chain leaves
        # 1, 68 and 46 parts in 343 transient after three jumps
        assert success_k3(0.5, 4) == pytest.approx(228 / 343, rel=1e-12)

    def test_half_probability_three_clicks(self):
        assert success_k3(0.5, 3) == pytest.approx(20 / 49, rel=1e-12)

    def test_monotone_in_m_and_p(self):
        vals_m = [success_k3(0.4, m) for m in range(3, 60)]
        assert all(b >= a - 1e-15 for a, b in zip(vals_m, vals_m[1:]))
        vals_p = [success_k3(p, 8) for p in np.linspace(0.05, 1.0, 30)]
        assert all(b >= a - 1e-15 for a, b in zip(vals_p, vals_p[1:]))
        assert success_k3(0.3, 600) == pytest.approx(1.0, abs=1e-12)

    def test_p_out_of_range_rejected(self):
        with pytest.raises(InvalidArgument):
            success_k3(0.0, 4)
        with pytest.raises(InvalidArgument):
            success_k3(1.2, 4)

    @pytest.mark.parametrize("p", [1e-12, 1e-15])
    def test_small_p_k3_tends_to_uniform_limit(self, p):
        # at p -> 0 each jump is 1/3, so three clicks cover with odds 2/9
        assert abs(success_k3(p, 3) - 2 / 9) <= 1e-9

    @pytest.mark.parametrize("m", [3, 4, 50, 1000])
    def test_smallest_positive_p_stays_finite(self, m):
        # the period probability 1 - (1-p)^3 stays positive, so the jumps are
        # finite, and three clicks still cover with odds 2/9
        value = success_k3(5e-324, m)
        assert 0.0 <= value <= 1.0
        if m == 3:
            assert abs(value - 2 / 9) <= 1e-9


    @pytest.mark.parametrize("m", [4, 5, 10, 30])
    @pytest.mark.parametrize("p", [1e-12, 1e-15])
    def test_small_p_tends_to_uniform_coverage(self, p, m):
        # as p -> 0 each jump is 1/3, so M clicks fall evenly on the three
        # tones and cover them with odds 1 - 3 (2/3)^M + 3 (1/3)^M
        limit = 1 - 3 * (2 / 3) ** m + 3 * (1 / 3) ** m
        assert abs(success_k3(p, m) - limit) <= 1e-9

    # doubles of the separate three-state chain object success_k3 once
    # called; the inline chain, with its expm1 period probability at small
    # p, must give them bit for bit
    @pytest.mark.parametrize(
        "p, m, expected",
        [
            (5e-324, 3, "0x1.c71c71c71c720p-3"),
            (1e-15, 4, "0x1.c71c71c71c728p-2"),
            (1e-06, 10, "0x1.e563b5185a414p-1"),
            (0.1, 20, "0x1.ffb90b3d1464cp-1"),
            (0.25, 100, "0x1.0000000000000p+0"),
            (0.3, 7, "0x1.cd0e53fbf68dep-1"),
            (0.5, 5, "0x1.a1f58d0fac688p-1"),
            (0.98, 3, "0x1.ebedea962f091p-1"),
            (0.999999, 4, "0x1.ffffde7215247p-1"),
            (1.0, 10, "0x1.0000000000000p+0"),
        ],
    )
    def test_same_doubles_as_the_chain_it_replaced(self, p, m, expected):
        assert success_k3(p, m) == float.fromhex(expected)


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

    def test_dark_success_requires_clean_background(self):
        # heavy dark rate on few bins: both signal bins are covered in every
        # trial, but background bins reach two hits and spoil exact support
        # recovery
        est = coverage_mc(
            2, 1.0, 40, trials=400, seed=10, min_hits=2, n_bins=8, dark_per_period=3.0
        )
        assert est.success_rate == 0.0

    def test_double_count_support_recovery_near_unit_p(self):
        # K=10 pulse train at p ~ 1 with hardware-level dark counts: exact
        # support recovery within M = 2K + 5 clicks is nearly certain
        est = coverage_mc(
            10, 0.9995, 25, trials=1000, seed=12, min_hits=2,
            n_bins=2**15, dark_per_period=0.01,
        )
        assert est.success_rate >= 0.99


def _coverage_times_reference(k, p, m_max, min_hits, rng, trials):
    """Per-bin loop over the same draws as ``coverage_times``."""
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


def _replay_reference(k, p, m, min_hits, n_bins, dark_per_period, rng, trials):
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
        if any(int(np.sum(others == b)) >= min_hits for b in others):
            continue
        successes += 1
    return successes


# one row or trial per chunk, a prime, ragged multi-row chunks, the default,
# and the earlier default of 2^18
CHUNKS = [1, 7, 997, coverage._CHUNK, 1 << 18]

# (k, p, m_max, min_hits); at (5, 50) no bin reaches min_hits within the
# simulated periods
BATCH_CASES = [
    (k, p, m_max, min_hits)
    for m_max, min_hits in [(3, 1), (40, 1), (40, 2), (200, 3), (5, 50)]
    for p in [0.1, 0.7, 1.0]
    for k in [1, 2, 7, 40]
] + [
    # the largest MminVsK sparsity, K = 100 at p = 0.98, with one and two hits a bin
    (100, 0.98, 464, 1),
    (100, 0.98, 864, 2),
    # covered rows beside rows that reach m_max clicks before they are covered
    (50, 0.98, 60, 1),
    # one pulse a period and thousands of periods a row
    (1, 0.06, 72, 2),
    # 2 x min_hits above m_max: no row is covered within m_max clicks, so each is
    # censored at m_max + 1
    (2, 0.1, 80, 60),
]


class TestVectorisedPathsMatchReferences:
    @pytest.mark.parametrize("chunk", CHUNKS)
    @pytest.mark.parametrize(
        "k, p, m_max, min_hits", BATCH_CASES, ids=[f"{m}-{c}-{p}-{k}" for k, p, m, c in BATCH_CASES]
    )
    def test_coverage_times_batch(self, monkeypatch, chunk, k, p, m_max, min_hits):
        monkeypatch.setattr(coverage, "_CHUNK", chunk)
        args = (k, p, m_max, min_hits)
        seed = 1000 * k + m_max + min_hits
        fast_rng, slow_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        fast = coverage_times(k, p, m_max, 300, seed=fast_rng, min_hits=min_hits)
        slow = _coverage_times_reference(*args, slow_rng, 300)
        assert fast.dtype == slow.dtype
        assert np.array_equal(fast, slow)
        assert fast_rng.bit_generator.state == slow_rng.bit_generator.state

    def test_coverage_times_past_the_cap_unit_is_one_draw(self):
        # 25,000 trials were two batches, each from its own spawned seed
        fast_rng, slow_rng = np.random.default_rng(25), np.random.default_rng(25)
        fast = coverage_times(3, 0.7, 12, 25_000, seed=fast_rng, min_hits=2)
        slow = _coverage_times_reference(3, 0.7, 12, 2, slow_rng, 25_000)
        assert np.array_equal(fast, slow)
        assert fast_rng.bit_generator.state == slow_rng.bit_generator.state

    @pytest.mark.parametrize("chunk", CHUNKS)
    # 173 is prime, so at every block size from 2 to 172 the last block is short
    @pytest.mark.parametrize("trials", [200, 173])
    @pytest.mark.parametrize("min_hits", [1, 2])
    @pytest.mark.parametrize(
        "k, p, m, n_bins, dark",
        [
            (1, 1.0, 3, 4, 1.0),
            (3, 0.7, 10, 12, 1.0),
            (5, 0.9, 16, 32, 1.0),
            # p = 1 fills every (period, support bin), so each dark event on
            # a support bin ties with a signal event
            (3, 1.0, 8, 4, 3.0),
            (4, 0.8, 12, 6, 1.0),
            # n_bins over 10,000 and K under n_bins / 50: rng.choice takes
            # Floyd's algorithm, as SuccessVsM does, not a tail shuffle
            (20, 0.98, 50, 2**15, 0.01),
            (5, 0.9, 16, 20000, 1.0),
        ],
    )
    def test_replay_with_dark(self, monkeypatch, chunk, k, p, m, n_bins, dark, min_hits, trials):
        monkeypatch.setattr(coverage, "_CHUNK", chunk)
        args = (k, p, m, min_hits, n_bins, dark)
        fast_rng, slow_rng = np.random.default_rng(m), np.random.default_rng(m)
        fast = coverage._replay_with_dark(*args, fast_rng, trials)
        slow = _replay_reference(*args, slow_rng, trials)
        assert 0 < slow < trials
        assert fast == slow
        assert fast_rng.bit_generator.state == slow_rng.bit_generator.state

    @pytest.mark.parametrize("chunk", CHUNKS)
    # at m = 40 no trial of 12 pulses and ~2 dark events has enough events
    @pytest.mark.parametrize("m, some", [(10, True), (40, False)])
    def test_replay_with_too_few_events(self, monkeypatch, chunk, m, some):
        monkeypatch.setattr(coverage, "_CHUNK", chunk)
        monkeypatch.setattr(coverage, "_periods_needed", lambda k, p, m_max, draws=1: 2)
        args = (3, 0.7, m, 1, 12, 0.5)
        fast_rng, slow_rng = np.random.default_rng(m), np.random.default_rng(m)
        fast = coverage._replay_with_dark(*args, fast_rng, 200)
        slow = _replay_reference(*args, slow_rng, 200)
        assert (0 < slow < 200) if some else slow == 0
        assert fast == slow
        assert fast_rng.bit_generator.state == slow_rng.bit_generator.state


def _same_state(a, b):
    """Bit generator states are equal, array-valued entries (MT19937's key) included."""
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same_state(a[key], b[key]) for key in a)
    return np.array_equal(a, b)


def _count_blocks(monkeypatch):
    """Count the replay's blocks and those drawn through ``Generator``."""
    counts = {"blocks": 0, "exact": 0}
    decide, exact = coverage._decide_block, coverage._draw_block

    def counted_decide(*args):
        counts["blocks"] += 1
        return decide(*args)

    def counted_exact(*args):
        counts["exact"] += 1
        return exact(*args)

    monkeypatch.setattr(coverage, "_decide_block", counted_decide)
    monkeypatch.setattr(coverage, "_draw_block", counted_exact)
    return counts


class TestRawWordDraw:
    """The raw-word support and bin draws against ``Generator``'s own, and
    the cases that must take the ``Generator`` loop instead."""

    # (k, p, m, n_bins, dark, path): "raw" where every block decodes raw
    # words, "exact" where every block takes the Generator loop, "some" where
    # rejected draws send blocks to it
    CASES = {
        # bounds near 3 * 2^30 reject about a quarter of all 32-bit draws
        "rejections": (3, 0.8, 10, 3 * 2**30, 1.0, "some"),
        # the last Floyd bound and the bin bound are 2^32 itself
        "2^32 bins": (3, 0.8, 10, 2**32, 1.0, "raw"),
        # numpy's 64-bit bounded draws
        "2^32 + 1 bins": (2, 0.8, 10, 2**32 + 1, 1.0, "exact"),
        # Floyd's last draw has bound 1 and takes no output
        "k == n_bins": (4, 0.8, 10, 4, 1.0, "exact"),
        "k == n_bins == 1": (1, 0.8, 3, 1, 1.0, "exact"),
        # choice shuffles a tail of arange(n_bins) instead of running Floyd
        "tail shuffle 20000": (401, 0.99, 405, 20000, 0.01, "exact"),
        "tail shuffle 2^15": (656, 0.99, 660, 2**15, 0.01, "exact"),
        # the largest K on Floyd's path at 2^15 bins, and the SuccessVsM defaults
        "Floyd 2^15": (655, 0.99, 660, 2**15, 0.01, "raw"),
        "SuccessVsM": (20, 0.98, 50, 2**15, 0.01, "raw"),
        # repeated Floyd draws in nearly every trial
        "few bins": (9, 0.9, 20, 12, 0.5, "raw"),
    }

    @pytest.mark.parametrize("buffered", [False, True], ids=["empty", "buffered"])
    @pytest.mark.parametrize("case", CASES)
    def test_matches_the_generator_loop(self, monkeypatch, case, buffered):
        k, p, m, n_bins, dark, path = self.CASES[case]
        args = (k, p, m, 1, n_bins, dark)
        fast_rng, slow_rng = np.random.default_rng(m), np.random.default_rng(m)
        if buffered:
            # leaves the high half of a word in the buffer the bounded draws share
            fast_rng.integers(0, 10), slow_rng.integers(0, 10)
        counts = _count_blocks(monkeypatch)
        fast = coverage._replay_with_dark(*args, fast_rng, 60)
        slow = _replay_reference(*args, slow_rng, 60)
        assert fast == slow
        assert fast_rng.bit_generator.state == slow_rng.bit_generator.state
        assert counts["blocks"] > 0
        if path == "raw":
            assert counts["exact"] == 0
        elif path == "exact":
            assert counts["exact"] == counts["blocks"]
        else:
            assert counts["exact"] > 0

    # near 3 * 2^30 bins a quarter of all bounded draws are rejected: with no
    # background events only support draws are, and with one trial a block
    # and one support draw a trial, three blocks in four reject only bin draws
    @pytest.mark.parametrize("k, dark, chunk", [(3, 1e-6, coverage._CHUNK), (1, 5.0, 1)])
    def test_a_rejected_draw_redraws_its_block(self, monkeypatch, k, dark, chunk):
        monkeypatch.setattr(coverage, "_CHUNK", chunk)
        args = (k, 0.8, 10, 1, 3 * 2**30, dark)
        fast_rng, slow_rng = np.random.default_rng(10), np.random.default_rng(10)
        counts = _count_blocks(monkeypatch)
        fast = coverage._replay_with_dark(*args, fast_rng, 60)
        slow = _replay_reference(*args, slow_rng, 60)
        assert fast == slow
        assert fast_rng.bit_generator.state == slow_rng.bit_generator.state
        assert counts["exact"] > 0

    @pytest.mark.parametrize("buffered", [False, True], ids=["empty", "buffered"])
    def test_other_bit_generators_take_the_generator_loop(self, monkeypatch, buffered):
        args = (5, 0.9, 16, 1, 32, 1.0)
        fast_rng = np.random.Generator(np.random.MT19937(7))
        slow_rng = np.random.Generator(np.random.MT19937(7))
        if buffered:
            fast_rng.integers(0, 10), slow_rng.integers(0, 10)
        counts = _count_blocks(monkeypatch)
        fast = coverage._replay_with_dark(*args, fast_rng, 60)
        slow = _replay_reference(*args, slow_rng, 60)
        assert 0 < slow < 60
        assert fast == slow
        assert _same_state(fast_rng.bit_generator.state, slow_rng.bit_generator.state)
        assert counts["exact"] == counts["blocks"] > 0

    @pytest.mark.parametrize("chunk", [1, 7, coverage._CHUNK])
    @pytest.mark.parametrize("dark", [0.2, 1.0, 3.0])
    def test_odd_and_even_dark_counts(self, monkeypatch, chunk, dark):
        # an odd count leaves a half word to the next trial's draws, an even one does not
        monkeypatch.setattr(coverage, "_CHUNK", chunk)
        args = (5, 0.9, 16, 1, 2**15, dark)
        counts_rng = np.random.default_rng(16)
        periods = coverage._periods_needed(5, 0.9, 16) + int(np.ceil(4 * dark))
        n_dark = []
        for _ in range(200):
            counts_rng.choice(2**15, size=5, replace=False)
            counts_rng.random((periods, 5))
            n_dark.append(counts_rng.poisson(dark * periods))
            counts_rng.uniform(0.0, periods, n_dark[-1])
            counts_rng.integers(0, 2**15, n_dark[-1])
        assert {c % 2 for c in n_dark if c} == {0, 1}
        fast_rng, slow_rng = np.random.default_rng(16), np.random.default_rng(16)
        blocks = _count_blocks(monkeypatch)
        fast = coverage._replay_with_dark(*args, fast_rng, 200)
        slow = _replay_reference(*args, slow_rng, 200)
        assert fast == slow
        assert fast_rng.bit_generator.state == slow_rng.bit_generator.state
        assert blocks["exact"] == 0

    def test_the_default_sweep_takes_the_raw_path(self, monkeypatch):
        # a silent fall back to the Generator loop gives the same results, only slower
        counts = _count_blocks(monkeypatch)
        cfg = load_config(Path(__file__).resolve().parent.parent / "configs/success_vs_m.json")
        experiments.run_success_vs_m(cfg.parameters, np.random.SeedSequence(cfg.seed))
        assert cfg.seed == 20260810
        assert counts["blocks"] > 100
        assert counts["exact"] <= 0.01 * counts["blocks"]


def _simulated(k, p, m, trials, seed, min_hits, n_bins, dark):
    """The estimate ``coverage_mc`` gives, from the simulation it runs."""
    if dark == 0:
        successes = int(np.sum(coverage_times(k, p, m, trials, seed, min_hits) <= m))
    else:
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        args = (k, p, m, min_hits, n_bins, dark, rng, trials)
        successes = coverage._replay_with_dark(*args)
    lo, hi = wilson_interval(successes, trials)
    return coverage.CoverageEstimate(successes / trials, lo, hi, trials)


def _forbid_simulation(monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("an impossible case was simulated")

    monkeypatch.setattr(coverage, "coverage_times", fail)
    monkeypatch.setattr(coverage, "_replay_with_dark", fail)


class TestImpossibleCases:
    """M < K * min_hits clicks cannot give every bin min_hits of them."""

    @pytest.mark.parametrize(
        "k, p, min_hits, n_bins, dark",
        [
            # the SuccessVsM defaults, dark and dark-free
            (20, 0.98, 2, 2**15, 0.01),
            (20, 0.98, 2, 2**15, 0.0),
            (5, 1.0, 1, 64, 2.0),
            (3, 0.7, 3, 8, 0.0),
        ],
    )
    def test_answered_without_drawing_as_the_simulation_would(
        self, monkeypatch, k, p, min_hits, n_bins, dark
    ):
        m, trials = k * min_hits - 1, 300
        args = (k, p, m, trials, 17, min_hits, n_bins, dark)
        want = _simulated(*args)
        assert want.success_rate == 0.0
        _forbid_simulation(monkeypatch)
        got = coverage_mc(
            k, p, m, trials, seed=17, min_hits=min_hits, n_bins=n_bins,
            dark_per_period=dark,
        )
        assert got == want

    @pytest.mark.parametrize("dark", [0.0, 0.01])
    def test_m_of_k_times_min_hits_is_simulated(self, monkeypatch, dark):
        _forbid_simulation(monkeypatch)
        with pytest.raises(AssertionError, match="simulated"):
            coverage_mc(20, 0.98, 40, 10, seed=1, min_hits=2, n_bins=2**15, dark_per_period=dark)

    def test_an_impossible_case_reaches_no_cap(self):
        # simulating any M at dark_per_period = 1e9 would pass the dark cap
        est = coverage_mc(3, 0.5, 5, 10, seed=1, min_hits=2, n_bins=8, dark_per_period=1e9)
        assert est.success_rate == 0.0
        with pytest.raises(InvalidArgument, match="dark_per_period"):
            coverage_mc(3, 0.5, 6, 10, seed=1, min_hits=2, n_bins=8, dark_per_period=1e9)

    @pytest.mark.parametrize("k, min_hits, field", [(0, 1, "k"), (3, 0, "min_hits"), (-2, -3, "k")])
    def test_nonpositive_k_or_min_hits_is_refused(self, k, min_hits, field):
        with pytest.raises(InvalidArgument, match=f"^{field} must be an integer >= 1"):
            coverage_mc(k, 0.5, 5, 10, seed=1, min_hits=min_hits, n_bins=8, dark_per_period=1.0)


class TestArgumentContracts:
    """``coverage_times`` and both paths of ``coverage_mc`` take the same seeds
    and refuse the same counts, before any drawing."""

    CALLS = {
        "coverage_times": lambda m=12, trials=10, **kw: coverage_times(3, 0.7, m, trials, **kw),
        "coverage_mc, dark-free": lambda m=12, trials=10, **kw: coverage_mc(
            3, 0.7, m, trials, **kw
        ),
        "coverage_mc, dark": lambda m=12, trials=10, **kw: coverage_mc(
            3, 0.7, m, trials, n_bins=8, dark_per_period=0.5, **kw
        ),
    }

    @pytest.mark.parametrize("call", CALLS)
    @pytest.mark.parametrize("bit_generator", [np.random.PCG64, np.random.MT19937])
    def test_a_generator_seed_is_drawn_from(self, call, bit_generator):
        caller, twin = (np.random.Generator(bit_generator(5)) for _ in range(2))
        start = twin.bit_generator.state
        got, want = self.CALLS[call](seed=caller), self.CALLS[call](seed=twin)
        assert np.array_equal(got, want) if isinstance(want, np.ndarray) else got == want
        assert _same_state(caller.bit_generator.state, twin.bit_generator.state)
        assert not _same_state(caller.bit_generator.state, start)

    @pytest.mark.parametrize("call", CALLS)
    @pytest.mark.parametrize(
        "seed, min_hits",
        [
            (None, 1),
            (5, 1),
            (np.random.SeedSequence(5), 1),
            (np.random.PCG64(5), 1),
            (5, np.int64(2)),
        ],
    )
    def test_valid_seeds_and_min_hits_run(self, call, seed, min_hits):
        self.CALLS[call](seed=seed, min_hits=min_hits)

    @pytest.mark.parametrize("call", CALLS)
    @pytest.mark.parametrize("min_hits", [1.5, 2.0, 0, -1])
    def test_min_hits_must_be_a_positive_integer(self, call, min_hits):
        # 1.5 once ran as 2 in the simulation but as 4.5 in the M < K * min_hits check
        with pytest.raises(InvalidArgument, match="min_hits"):
            self.CALLS[call](seed=1, min_hits=min_hits)

    @pytest.mark.parametrize("call", CALLS)
    @pytest.mark.parametrize("count, value", [("trials", 10.5), ("m", 12.5), ("m", 0)])
    def test_counts_must_be_positive_integers_and_are_named(self, call, count, value):
        # trials = 10.5 once raised a bare TypeError, and m = 12.5 ran
        name = "m_max" if count == "m" and call == "coverage_times" else count
        with pytest.raises(InvalidArgument, match=f"^{name} must be an integer >= 1"):
            self.CALLS[call](seed=1, **{count: value})

    @pytest.mark.parametrize("call", CALLS)
    def test_numpy_integer_counts_run_as_python_ints(self, call):
        got = self.CALLS[call](m=np.int64(12), trials=np.int64(10), seed=1)
        want = self.CALLS[call](seed=1)
        assert np.array_equal(got, want) if isinstance(want, np.ndarray) else got == want

    def test_the_pulse_cap_binds_at_4369_trials(self):
        # 4,369 trials x 1,536 periods x K = 10 pulses is just under 2^26
        assert coverage._periods_needed(10, 0.005, 20, 4369) == 1536
        with pytest.raises(InvalidArgument, match="^p = 0.005 is too small"):
            coverage._periods_needed(10, 0.005, 20, 4370)

    def test_trials_past_the_cap_unit_are_refused_before_drawing(self):
        # trials count against the pulse cap in units of _TRIAL_BATCH
        rng = np.random.default_rng(1)
        start = rng.bit_generator.state
        with pytest.raises(InvalidArgument, match="20000 trial\\(s\\) together"):
            coverage_times(10, 0.005, 20, 40_000, seed=rng)
        assert rng.bit_generator.state == start
        with pytest.raises(InvalidArgument, match="20000 trial\\(s\\) together"):
            coverage_times(10, 0.005, 20, 40_000, seed=1)

    def test_nan_dark_rate_is_refused_naming_it(self):
        # NaN passed a `< 0` check and ended in a bare ValueError
        with pytest.raises(InvalidArgument, match="dark_per_period"):
            coverage_mc(3, 0.7, 12, 10, seed=1, n_bins=8, dark_per_period=float("nan"))

    @pytest.mark.parametrize(
        "field, value",
        [("n_bins", 8.5), ("n_bins", float("inf")), ("dark_per_period", float("inf"))],
    )
    def test_dark_path_refuses_a_fractional_or_infinite_field_naming_it(self, field, value):
        # n_bins = 8.5 ran as 8 bins, and either infinity ended in a bare OverflowError
        kwargs = {"n_bins": 8, "dark_per_period": 0.5, field: value}
        with pytest.raises(InvalidArgument, match=f"^{field} must be"):
            coverage_mc(3, 0.7, 12, 10, seed=1, **kwargs)


def _traced_peak(fn, *args, **kwargs):
    tracemalloc.start()
    try:
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestMemory:
    def test_coverage_times_draws_in_chunks(self):
        # one 20,000-trial batch drawn at once held ~155 MB, and 2^18-pulse
        # chunks ~3.6 MB
        peak = _traced_peak(coverage_times, 100, 0.98, 464, 20000, seed=1)
        assert peak < 2 * 2**20

    def test_dark_replay_blocks_stay_small(self):
        peak = _traced_peak(
            coverage_mc, 100, 0.98, 410, 1000, min_hits=2, n_bins=2**15, dark_per_period=0.01
        )
        # blocks of 2^18 replayed events held ~4.5 MB
        assert peak < 2**20


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

    @pytest.mark.parametrize("k", [2, 3])
    @pytest.mark.parametrize("p", np.logspace(-300, 0, 40))
    def test_closed_forms_reach_any_target_below_1_quickly(self, k, p):
        # a miss on K = 2 shrinks the failure by (1 - p)/(2 - p) <= 1/2, so
        # no search cap is needed: the worst case is M = 54 (K = 2), 93 (K = 3)
        assert min_measurements(k, p, np.nextafter(1.0, 0.0)) <= 100

    def test_monotone_in_target(self):
        ms = [min_measurements(8, 0.9, t) for t in (0.5, 0.9, 0.99)]
        assert ms[0] <= ms[1] <= ms[2]

    def test_nonincreasing_in_p(self):
        m_low = min_measurements(8, 0.5, 0.9)
        m_high = min_measurements(8, 0.95, 0.9)
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

    @pytest.mark.parametrize("min_hits", [0, -1, 1.5])
    @pytest.mark.parametrize("p", [1.0, 0.9])
    def test_min_hits_must_be_a_positive_integer(self, min_hits, p):
        # p = 1 once returned 0 for min_hits = 0 through its shortcut
        with pytest.raises(InvalidArgument, match="min_hits"):
            min_measurements(5, p, 0.9, min_hits=min_hits)

    @pytest.mark.parametrize("k", [4.5, 0])
    def test_k_must_be_a_positive_integer(self, k):
        with pytest.raises(InvalidArgument, match="^k must be an integer >= 1"):
            min_measurements(k, 0.5, 0.9)

    def test_target_within_the_error_floor_is_refused(self):
        with pytest.raises(InvalidArgument, match="target"):
            min_measurements(4, 0.5, 0.9999999999999999)
        assert min_measurements(4, 0.5, 1 - 2 * coverage._CURVE_FLOOR) > 4

    def test_curve_past_the_work_cap_is_refused_naming_p(self):
        with pytest.raises(InvalidArgument, match="p = 0.001"):
            min_measurements(10, 0.001, 0.95)

    def test_is_the_first_m_the_curve_reaches_the_target(self):
        for k, c in ((10, 1), (50, 1), (100, 1), (100, 2)):
            m = min_measurements(k, 0.98, 0.95, min_hits=c)
            curve = coverage._coverage_cdf(k, 0.98, m, c)
            assert curve[m - 2] < 0.95 <= curve[m - 1]

    def test_memory_stays_small(self):
        assert _traced_peak(min_measurements, 100, 0.98, 0.95, min_hits=2) < 16 * 2**20


def _coverage_cdf_reference(k, p, m_max, min_hits):
    """The sum over pulses of ``_coverage_cdf`` with the generating functions
    as polynomials cut at degree m_max - 1, so no FFT.  It runs until fewer
    than m_max clicks in t pulses has odds below 1e-20."""
    q = 1.0 - p

    def mul(a, b):
        return np.convolve(a, b)[:m_max]

    def at_least(pmf, c):
        return np.where(np.arange(m_max) >= c, pmf, 0.0)

    pmf = np.eye(1, m_max)[0]  # Binomial(t, p) hit counts below m_max
    total = np.zeros(m_max)
    while pmf.sum() >= 1e-20:
        after = q * pmf
        after[1:] += p * pmf[:-1]
        a, b = at_least(after, min_hits), at_least(pmf, min_hits)
        a_pow, b_pow = [np.eye(1, m_max)[0]], [at_least(pmf, min_hits - 1)]
        for _ in range(k - 1):
            a_pow.append(mul(a_pow[-1], a))
            b_pow.append(mul(b_pow[-1], b))
        total += sum(mul(a_pow[i], b_pow[k - 1 - i]) for i in range(k))
        pmf = after
    return p * total


class TestCoverageCdf:
    @pytest.mark.parametrize("p", [0.1, 0.7, 0.98, 1.0])
    def test_matches_binomial_polynomial_products(self, p):
        for k in range(1, 8):
            for c in (1, 2, 3):
                want = _coverage_cdf_reference(k, p, 40, c)
                assert np.abs(coverage._coverage_cdf(k, p, 40, c) - want).max() < 1e-12

    @pytest.mark.parametrize("k, success", [(2, success_k2), (3, success_k3)])
    @pytest.mark.parametrize("p", [0.01, 0.1, 0.5, 0.98, 1.0])
    def test_matches_closed_forms(self, k, success, p):
        curve = coverage._coverage_cdf(k, p, 60, 1)
        want = [success(p, m) if m >= k else 0.0 for m in range(1, 61)]
        assert np.abs(curve - want).max() < 1e-12

    @pytest.mark.parametrize("k", [10, 100])
    @pytest.mark.parametrize("c", [1, 2])
    def test_within_four_standard_errors_of_the_monte_carlo(self, k, c):
        m_max, trials = 4 * k * c + 64, 100_000
        times = coverage_times(k, 0.98, m_max, trials, seed=9000 + 10 * k + c, min_hits=c)
        sample = np.searchsorted(np.sort(times), np.arange(1, m_max + 1), side="right") / trials
        curve = coverage._coverage_cdf(k, 0.98, m_max, c)
        se = np.sqrt(np.clip(curve * (1 - curve), 0, None) / trials)
        assert np.all(np.abs(sample - curve) <= 4 * se + 1e-12)


class TestFitScaling:
    def test_exact_line(self):
        alpha, c, r2 = fit_scaling([(k, 2 * k + 1) for k in (10, 20, 30, 40)])
        assert alpha == pytest.approx(2.0)
        assert c == pytest.approx(1.0)
        assert r2 == pytest.approx(1.0)

    def test_too_few_samples(self):
        with pytest.raises(InvalidArgument, match="three samples at distinct K"):
            fit_scaling([(10, 20), (20, 40)])

    def test_repeated_k_rejected(self):
        with pytest.raises(InvalidArgument, match="three samples at distinct K"):
            fit_scaling([(10, 20), (10, 21), (10, 19)])


def test_wilson_interval_basic():
    lo, hi = wilson_interval(50, 100)
    assert lo < 0.5 < hi
    assert wilson_interval(0, 10)[0] == 0.0
    assert wilson_interval(10, 10)[1] == 1.0


def test_fit_line_exact():
    slope, intercept, r2 = coverage.fit_line([1, 2, 3], [3.0, 5.0, 7.0])
    assert slope == pytest.approx(2.0)
    assert intercept == pytest.approx(1.0)
    assert r2 == pytest.approx(1.0)


@pytest.mark.parametrize("seed", range(5))
def test_fit_line_matches_polyfit(seed):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-3.0, 7.0, 12)
    y = 1.7 * x - 0.4 + rng.standard_normal(12)
    slope, intercept, r2 = coverage.fit_line(x, y)
    ref_slope, ref_intercept = np.polyfit(x, y, 1)
    assert slope == pytest.approx(ref_slope, rel=1e-12)
    assert intercept == pytest.approx(ref_intercept, rel=1e-12)
    ss_res = np.sum((y - (ref_slope * x + ref_intercept)) ** 2)
    ss_tot = np.sum((y - y.mean()) ** 2)
    assert r2 == pytest.approx(1.0 - ss_res / ss_tot, rel=1e-12)


def test_fit_line_of_a_constant_y_is_flat_with_r2_one():
    assert coverage.fit_line([1, 2, 4], [2.0, 2.0, 2.0]) == (0.0, 2.0, 1.0)


def test_fit_line_refuses_equal_x():
    # np.polyfit gave a minimum-norm line and a RankWarning
    with pytest.raises(InvalidArgument, match="two distinct x values"):
        coverage.fit_line([3.0, 3.0], [-1.0, 1.0])


@pytest.mark.parametrize(
    "x, y, name",
    [
        # a bare ValueError from matmul
        ([1, 2, 3], [1, 2], "y"),
        # a bare TypeError
        ([[1, 2], [3, 4]], [[1, 2], [3, 4]], "x"),
        ([1, 2, 3], [[1, 2, 3]], "y"),
        # (nan, nan, nan)
        ([1, np.nan, 3], [1, 2, 3], "x"),
        ([1, 2, 3], [1, -np.inf, 3], "y"),
    ],
)
def test_fit_line_refuses_malformed_points_naming_them(x, y, name):
    with pytest.raises(InvalidArgument, match=f"^{name} "):
        coverage.fit_line(x, y)


class TestClosedFormContracts:
    @pytest.mark.parametrize(
        "call, name",
        [
            # M = 2.5 and 3.5 ran as the M below: success_k2(0.5, 2.5) gave the M = 2 value
            (lambda: success_k2(0.5, 2.5), "m"),
            (lambda: success_k3(0.5, 3.5), "m"),
            (lambda: success_k3(0.5, 0), "m"),
            (lambda: wilson_interval(3, 10.5), "trials"),
            (lambda: wilson_interval(3, True), "trials"),
        ],
        ids=["k2-m", "k3-m", "k3-m0", "wilson-trials", "wilson-trials-bool"],
    )
    def test_counts_must_be_positive_integers_and_are_named(self, call, name):
        with pytest.raises(InvalidArgument, match=f"^{name} must be an integer >= 1"):
            call()

    @pytest.mark.parametrize("successes", [11, -1])
    def test_successes_outside_the_trials_are_refused(self, successes):
        # returned (0.0, 1.0) with a numpy sqrt warning
        with pytest.raises(InvalidArgument, match=r"successes must be in \[0, trials\]"):
            wilson_interval(successes, 10)

    @pytest.mark.parametrize("successes", [2.5, 2.0])
    def test_non_integer_successes_are_refused(self, successes):
        # 2.5 returned (0.081, 0.558)
        with pytest.raises(InvalidArgument, match="^successes must be an integer"):
            wilson_interval(successes, 10)
