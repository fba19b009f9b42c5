"""Success-probability theory for covering the nonzero bins.

A K-sparse pulse train replays cyclically; each pulse converts to a click
with probability p, and acquisition stops after M clicks.  Recovery
succeeds when every nonzero bin has collected at least ``min_hits`` clicks
(one by default; two under the double-count background rule).

Closed forms exist for K = 2 and K = 3.  Conditioned on a click occurring,
the distance to the next click (in pulses, folded modulo K) is geometric:

    P(d) = (1 - p)^(d - 1) * p / (1 - (1 - p)^K),   d = 1..K

which drives a small absorbing Markov chain over the uncovered-bin
configurations.  For general K the exact coverage-time distribution comes
from binomial generating functions (``_coverage_cdf``).  A vectorized Monte
Carlo of the raw Bernoulli process is the oracle of both, and the estimator
of ``coverage_mc``.  ``fit_scaling`` fits M_min ~ alpha * K + c with the
least-squares ``fit_line``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgument, check_counts, is_integer, seeded_rng

# coverage_times trials whose pulses count together against _PULSE_CAP
_TRIAL_BATCH = 20_000
# background events one dark-count trial may draw
_DARK_CAP = 1 << 24
# pulses _TRIAL_BATCH coverage_times trials or one dark-count trial may
# simulate: a bound on work, not on memory (see _CHUNK)
_PULSE_CAP = 1 << 26
# pulses x FFT length one exact coverage curve may take (well under a second)
_CURVE_CAP = 1 << 26
# a target closer to 1 than this is within the exact curve's rounding error
_CURVE_FLOOR = 1e-10
# pulses, or replayed events, drawn and decided per chunk: ~128 KB of doubles,
# small enough that the heap reuses it rather than mapping fresh pages per case
_CHUNK = 1 << 14
# normal quantile of the two-sided 95% Wilson interval
WILSON_Z = 1.96


def success_k2(p: float, m: int) -> float:
    """P(both bins hit within M clicks) = 1 - ((1-p)/(2-p))^(M-1)."""
    _check_args(p, m=m)
    if m < 2:
        raise InvalidArgument("the first click fixes one bin; success needs M >= 2")
    return 1.0 - ((1.0 - p) / (2.0 - p)) ** (m - 1)


def success_k3(p: float, m: int) -> float:
    """P(all three bins hit within M clicks), by chain absorption.

    The transient states are (one covered), (missing bin adjacent) and
    (missing bin two ahead); columns index the source state, so
    fail(M) = 1^T . T^(M-1) . e_1.
    """
    _check_args(p, m=m)
    # 1 - (1-p)^3 without the cancellation at small p
    period_prob = -math.expm1(3 * math.log1p(-p)) if p < 1 else 1.0
    u, v, w = (p * (1.0 - p) ** d / period_prob for d in range(3))
    transition = np.array(
        [
            [w, 0.0, 0.0],
            [u, w, u],
            [v, v, w],
        ]
    )
    power = np.linalg.matrix_power(transition, m - 1)
    return 1.0 - float(power[:, 0].sum())


def wilson_interval(successes: int, trials: int):
    """95% Wilson score interval for a binomial proportion."""
    check_counts(trials=trials)
    if not is_integer(successes):
        raise InvalidArgument("successes must be an integer")
    if not 0 <= successes <= trials:
        raise InvalidArgument("successes must be in [0, trials]")
    z = WILSON_Z
    phat = successes / trials
    denom = 1.0 + z**2 / trials
    center = (phat + z**2 / (2 * trials)) / denom
    half = z * np.sqrt(phat * (1 - phat) / trials + z**2 / (4 * trials**2)) / denom
    return max(0.0, center - half), min(1.0, center + half)


@dataclass(frozen=True)
class CoverageEstimate:
    success_rate: float
    ci_lo: float
    ci_hi: float
    trials: int


def _check_args(p, **counts) -> None:
    """Refuse a p outside (0, 1], or a named count that is not an integer >= 1."""
    if not 0 < p <= 1:
        raise InvalidArgument("detection probability must be in (0, 1]")
    check_counts(**counts)


def _periods_needed(k: int, p: float, m_max: int, draws: int = 1) -> int:
    # enough cyclic periods that >= m_max clicks occur with overwhelming odds,
    # refused (naming p) where ``draws`` trials together would pass the pulse cap
    target = m_max + 8.0 * np.sqrt(m_max + 1.0) + 20.0
    periods = np.ceil(target / (p * k)) + 2 if target < _PULSE_CAP * p * k else np.inf
    if draws * periods * k > _PULSE_CAP:
        raise InvalidArgument(
            f"p = {p:g} is too small: {draws} trial(s) together need over {_PULSE_CAP} pulses"
        )
    return int(periods)


def coverage_times(
    k: int,
    p: float,
    m_max: int,
    trials: int,
    seed=None,
    min_hits: int = 1,
) -> np.ndarray:
    """Per-trial click counts to full coverage (censored at ``m_max + 1``).

    Simulates the raw Bernoulli replay process directly, independently of
    the chain formulas, so it can serve as their oracle.  Trials are drawn
    from ``seeded_rng(seed)`` in row chunks of about ``_CHUNK``
    pulses; the generator fills in C order, so the chunks hold exactly the
    rows of one big draw.  A bin completes at its first pulse with min_hits
    hits so far; a trial needs its clicks up to the last completion,
    censored if a bin never completes.
    """
    _check_args(p, k=k, m_max=m_max, trials=trials, min_hits=min_hits)
    periods = _periods_needed(k, p, m_max, min(trials, _TRIAL_BATCH))
    rng = seeded_rng(seed)
    rows = max(1, _CHUNK // (periods * k))
    out = np.empty(trials, dtype=np.int64)
    for lo in range(0, trials, rows):
        n = min(rows, trials - lo)
        det = rng.random((n, periods * k)) < p
        # whether each bin has min_hits hits after each period
        reached = np.cumsum(det.reshape(n, periods, k), axis=1, dtype=np.int32) >= min_hits
        last = (np.argmax(reached, axis=1) * k + np.arange(k)).max(axis=1)
        clicks = np.cumsum(det, axis=1, dtype=np.int32)[np.arange(n), last]
        covered = reached[:, -1].all(axis=1)
        out[lo : lo + n] = np.where(covered, np.minimum(clicks, m_max + 1), m_max + 1)
    return out


def _replay_with_dark(k, p, m, min_hits, n_bins, dark_per_period, rng, trials):
    """Replay with background events mixed into the click budget.

    Each trial draws from ``rng`` in a fixed order: its support, its pulses,
    its background count and then that many background times and bins
    (``_draw_block``).  Trials are drawn, sorted, floored and decided together
    in blocks of about ``_CHUNK`` events.  Where ``choice`` runs Floyd's
    algorithm on a PCG64, a block decodes the same draws from raw words
    (``_draw_block_raw``), and redraws through ``Generator`` on a rejection.
    """
    periods = _periods_needed(k, p, m) + int(np.ceil(4 * dark_per_period))
    if dark_per_period * periods > _DARK_CAP:
        raise InvalidArgument(
            f"dark_per_period x {periods} periods exceeds {_DARK_CAP} background events per trial"
        )
    block = max(1, int(_CHUNK // (periods * (k + dark_per_period))))
    mean = dark_per_period * periods
    # choice's Floyd path, each Lemire draw bounded by j + 1 <= 2^32 with j >= 1
    floyd = n_bins <= 10000 or k <= n_bins // 50
    raw = type(rng.bit_generator) is np.random.PCG64 and floyd and k < n_bins <= 2**32
    successes = 0
    for lo in range(0, trials, block):
        n = min(block, trials - lo)
        args = (k, n_bins, periods, mean, rng, n)
        support, pulses, n_dark, times, bins = raw and _draw_block_raw(*args) or _draw_block(*args)
        per = np.floor(np.concatenate(times)).astype(np.int64)
        dark = (np.repeat(np.arange(n), n_dark), per, np.concatenate(bins))
        successes += _decide_block(support, pulses, p, dark, m, min_hits, n_bins)
    return successes


def _draw_block(k, n_bins, periods, mean, rng, n):
    """A block's sorted supports, pulse uniforms, background counts, and lists
    of background times and bins, each led by an empty array, drawn trial by trial."""
    support = np.empty((n, k), dtype=np.int64)
    pulses = np.empty((n, periods, k))
    n_dark = np.empty(n, dtype=np.int64)
    times, bins = [np.empty(0)], [np.empty(0, dtype=np.int64)]
    for t in range(n):
        support[t] = rng.choice(n_bins, size=k, replace=False)
        rng.random(out=pulses[t])
        n_dark[t] = count = rng.poisson(mean)
        if count:
            times.append(rng.uniform(0.0, periods, count))
            bins.append(rng.integers(0, n_bins, count))
    support.sort(axis=1)
    return support, pulses, n_dark, times, bins


def _draw_block_raw(k, n_bins, periods, mean, rng, n):
    """``_draw_block`` on a PCG64, its bounded draws decoded from raw words.

    ``choice`` takes 2k - 1 bounded 32-bit draws (k by Floyd's algorithm, then
    k - 1 for a shuffle the sort undoes) and ``integers`` one per bin.  PCG64
    serves a word's low half first and buffers the high half for the next
    such draw.  None, with the state restored, if numpy would redraw one.
    """
    bitgen = rng.bit_generator
    saved = bitgen.state
    has = saved["has_uint32"]
    pulses = np.empty((n, periods, k))
    n_dark = np.empty(n, dtype=np.int64)
    words, times = [], [np.empty(0)]
    for t in range(n):
        words.append(bitgen.random_raw(k - has))
        has ^= 1
        rng.random(out=pulses[t])
        n_dark[t] = count = rng.poisson(mean)
        if count:
            times.append(rng.uniform(0.0, periods, count))
            words.append(bitgen.random_raw((count - has + 1) // 2))
            has = (has + count) & 1
    halves = np.concatenate(words).astype("<u8").view("<u4")
    if saved["has_uint32"]:
        halves = np.concatenate(([np.uint32(saved["uinteger"])], halves))
    # each trial's first draw in the stream, its choice, then its bins
    take = 2 * k - 1 + n_dark
    first = np.cumsum(take) - take
    # Floyd's bounds j + 1 for j = n_bins - k .. n_bins - 1, then the shuffle's i + 1
    bound = np.concatenate((np.arange(n_bins - k + 1, n_bins + 1), np.arange(k, 1, -1)))
    drawn, rejected = _lemire(halves[first[:, None] + np.arange(2 * k - 1)], bound)
    at = np.repeat(first + 2 * k - 1 - (np.cumsum(n_dark) - n_dark), n_dark)
    bins, bins_rejected = _lemire(halves[at + np.arange(at.size)], n_bins)
    if rejected or bins_rejected:
        bitgen.state = saved
        return None
    support = _floyd(drawn[:, :k].astype(np.int64), n_bins)
    state = bitgen.state
    # the last high half drawn stays in the buffer, taken or not
    state["has_uint32"], state["uinteger"] = has, int(halves[-1])
    bitgen.state = state
    return support, pulses, n_dark, times, [bins.astype(np.int64)]


def _lemire(halves, bound):
    """numpy's bounded draws in [0, bound) from 32-bit outputs, and whether
    any of them would have been rejected and redrawn."""
    bound = np.asarray(bound, dtype=np.uint64)
    product = halves.astype(np.uint64) * bound
    rejected = (product & 0xFFFFFFFF) < (2**32 - bound) % bound
    return product >> 32, bool(rejected.any())


def _floyd(drawn, n_bins):
    """Sorted supports from Floyd's draws: draw i, bounded by j + 1 for
    j = n_bins - k + i, is taken unless already chosen, and then j is.
    Without a repeat every draw is taken, so only rows with one replay it."""
    support = np.sort(drawn, axis=1)
    k = drawn.shape[1]
    for t in np.flatnonzero((support[:, 1:] == support[:, :-1]).any(axis=1)):
        chosen = set()
        for value, j in zip(drawn[t].tolist(), range(n_bins - k, n_bins)):
            chosen.add(j if value in chosen else value)
        support[t] = sorted(chosen)
    return support


def _decide_block(support, pulses, p, dark, m, min_hits, n_bins):
    """Successes among a block of replayed trials.

    A trial's events sort by (period, bin), signal events before dark ones
    on ties and dark ones in draw order; the trial keeps its first ``m``.
    Signal events come in that order already and only hit support bins, so
    only the dark events need a sort.  ``dark`` holds the block's dark
    events as (trial, period, bin) arrays in draw order, perhaps empty.  Pulse
    clicks are laid out pulse by trial, with the trials on the fast axis,
    so the running counts and per-bin sums run over contiguous rows.
    """
    n, periods, k = pulses.shape
    hits = np.empty((periods * k, n), dtype=bool)
    np.less(pulses.reshape(n, periods * k).T, p, out=hits)
    # signal events up to and including each pulse
    seen = np.cumsum(hits, axis=0, dtype=np.int32)
    events = seen[-1].astype(np.int64)
    sig_budget = np.full(n, m)
    bin_hits = np.zeros((k, n), dtype=np.int64)
    ok = np.ones(n, dtype=bool)
    t, per, b = dark
    order = np.argsort((t * periods + per) * n_bins + b, kind="stable")
    t, per, b = t[order], per[order], b[order]
    per_trial = np.bincount(t, minlength=n)
    events += per_trial
    # support bins at or below each dark bin, found in the trial-offset support keys
    trial_keys = (np.arange(n)[:, None] * n_bins + support).ravel()
    col = np.searchsorted(trial_keys, t * n_bins + b, side="right") - t * k
    # rank in its trial: the signal events up to its (period, bin), then earlier dark ones
    pulse = per * k + col
    rank = np.where(pulse > 0, seen[pulse - 1, t], 0) + np.arange(t.size)
    rank -= (np.cumsum(per_trial) - per_trial)[t]
    keep = rank < m
    t, b, col = t[keep], b[keep], col[keep]
    sig_budget -= np.bincount(t, minlength=n)
    hit = (col > 0) & (support[t, col - 1] == b)
    np.add.at(bin_hits, (col[hit] - 1, t[hit]), 1)
    # a background bin reaching min_hits spoils exact support recovery;
    # its sorted (trial, bin) keys then hold a run with equal keys min_hits - 1 apart
    keys = np.sort(t[~hit] * n_bins + b[~hit])
    run = keys[min_hits - 1 :]
    ok[run[run == keys[: run.size]] // n_bins] = False
    # the first m events are the kept dark ones and the first sig_budget signal ones
    hits &= seen <= sig_budget
    bin_hits += hits.reshape(periods, k, n).sum(axis=0)
    ok &= (events >= m) & (bin_hits.min(axis=0) >= min_hits)
    return int(np.count_nonzero(ok))


def coverage_mc(
    k: int,
    p: float,
    m: int,
    trials: int,
    seed=None,
    min_hits: int = 1,
    n_bins: int | None = None,
    dark_per_period: float = 0.0,
) -> CoverageEstimate:
    """Monte Carlo success rate for covering K bins within M clicks.

    ``dark_per_period`` adds uniform background events (over ``n_bins``
    bins) that consume click budget, and success is then exact support
    recovery: no background bin may reach ``min_hits`` either.  A Wilson
    95% interval is attached.

    Success needs ``min_hits`` of the first M events on each of the K bins,
    so M < K * min_hits fails in every trial: such a case is answered as 0
    successes without simulating (and so without reaching the pulse and
    dark caps).  Where each case has its own seed, as in every sweep,
    skipping its draws changes no other result.
    """
    if not 0 <= dark_per_period < math.inf:
        raise InvalidArgument("dark_per_period must be finite and nonnegative")
    bins = {"n_bins": n_bins} if dark_per_period > 0 else {}
    _check_args(p, k=k, m=m, trials=trials, min_hits=min_hits, **bins)
    if dark_per_period > 0 and n_bins < k:
        raise InvalidArgument("dark counts need the full bin count n_bins >= k")
    rng = seeded_rng(seed)
    if m < k * min_hits:
        successes = 0
    elif dark_per_period == 0:
        successes = int(np.sum(coverage_times(k, p, m, trials, rng, min_hits) <= m))
    else:
        successes = _replay_with_dark(
            k, p, int(m), min_hits, int(n_bins), dark_per_period, rng, int(trials)
        )
    lo, hi = wilson_interval(successes, trials)
    return CoverageEstimate(
        success_rate=successes / trials, ci_lo=lo, ci_hi=hi, trials=int(trials)
    )


def _coverage_cdf(k, p, m_max, min_hits):
    """P(T <= M) for M = 1..m_max, T the clicks until every bin has min_hits.

    The M-th click falls on some pulse j = t*K + b.  Before it, bins below b
    have seen t + 1 pulses and the others t, with independent binomial hit
    counts, so with H_{n,c}(z) = sum_{x >= c} C(n,x) p^x q^(n-x) z^x

        F(M) = p * sum_j [z^(M-1)] H_{t+1,c}^b H_{t,c}^(K-1-b) H_{t,c-1}.

    The sum over the pulse horizon is taken at FFT nodes; one inverse FFT
    gives every coefficient.
    """
    c, periods = min_hits, _periods_needed(k, p, m_max)
    clicks = p * periods * k
    # longer than the horizon's clicks (mean + 10 sd), so nothing aliases
    n = 1 << int(clicks + 10 * math.sqrt(clicks) + 20).bit_length()
    if periods * k * n > _CURVE_CAP:
        raise InvalidArgument(
            f"p = {p:g} is too small for K = {k}, min_hits = {c}: the coverage curve "
            f"needs {periods * k} pulses at {n} nodes, over {_CURVE_CAP}"
        )
    z = np.exp(-2j * np.pi * np.arange(n // 2 + 1) / n)
    q, pz = 1.0 - p, p * z
    step = q + pz
    # exact[x] = C(t,x) p^x q^(t-x) z^x for x < c, and tail = H_{t,c}
    exact = np.zeros((c, z.size), dtype=complex)
    exact[0] = 1.0
    tail, total = np.zeros_like(z), np.zeros_like(z)
    for _ in range(periods):
        after = step * tail + pz * exact[-1]
        total += _monomial_sum(after, tail, k) * (tail + exact[-1])
        exact[1:] = q * exact[1:] + pz * exact[:-1]
        exact[0] *= q
        tail = after
    # rounding leaves values such as -1e-17 where the probability is 0
    return np.clip(p * np.fft.irfft(total, n)[:m_max], 0.0, 1.0)


def _monomial_sum(x, y, e):
    """sum_{b < e} x^b y^(e-1-b) for e >= 1, by the bits of e from the top.

    With S_e that sum, S_2e = S_e (x^e + y^e) and S_2e+1 = x S_2e + y^2e:
    at most eight array operations per bit of e, where a Horner loop takes
    three per unit of e.  It adds only products of the monomials, so unlike
    (x^e - y^e) / (x - y) nothing cancels near x = y, and its rounding grows
    as log(e), not e.
    """
    s, xe, ye = 1.0, x, y
    for bit in bin(e)[3:]:
        s = s * (xe + ye)
        xe, ye = xe * xe, ye * ye
        if bit == "1":
            s = x * s + ye
            xe, ye = xe * x, ye * y
    return s


def min_measurements(k: int, p: float, target: float, min_hits: int = 1) -> int:
    """Smallest M with success probability >= target.

    Uses the closed forms for K <= 3 at min_hits = 1 and otherwise the exact
    coverage curve, doubling its horizon until the target is reached.
    """
    if not 0 < target < 1:
        raise InvalidArgument("target must be in (0, 1)")
    _check_args(p, k=k, min_hits=min_hits)
    if min_hits == 1 and k == 1:
        return 1
    if min_hits == 1 and k in (2, 3):
        # for any p and any target below 1 this ends by M = 54 (K = 2) or 93 (K = 3)
        success, m = (success_k2 if k == 2 else success_k3), k
        while success(p, m) < target:
            m += 1
        return m
    if p == 1.0:
        return k * min_hits
    if target > 1 - _CURVE_FLOOR:
        raise InvalidArgument(
            f"target = {target!r} is within {_CURVE_FLOOR:g} of 1, the exact curve's error floor"
        )
    m_max = 4 * k * min_hits + 64
    while True:
        reached = np.flatnonzero(_coverage_cdf(k, p, m_max, min_hits) >= target)
        if reached.size:
            return int(reached[0]) + 1
        m_max *= 2


def fit_line(x, y):
    """Least-squares (slope, intercept, r^2) of y against x, in closed form."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    for name, values in (("x", x), ("y", y)):
        if values.ndim != 1 or not np.isfinite(values).all():
            raise InvalidArgument(f"{name} must be one-dimensional and finite")
    if y.size != x.size:
        raise InvalidArgument(f"y has {y.size} points but x has {x.size}")
    if x.size < 2:
        raise InvalidArgument("need at least two points")
    x_mean, y_mean = float(x.mean()), float(y.mean())
    dx, dy = x - x_mean, y - y_mean
    sxx, sxy, syy = float(dx @ dx), float(dx @ dy), float(dy @ dy)
    if sxx == 0:
        raise InvalidArgument("need at least two distinct x values")
    slope = sxy / sxx
    r2 = 1.0 if syy == 0 else sxy**2 / (sxx * syy)
    return slope, y_mean - slope * x_mean, r2


def fit_scaling(samples):
    """Least-squares line M_min ~ alpha * K + c through (K, M_min) pairs,
    returned as ``(alpha, c, r2)``; needs >= 3 distinct K."""
    pairs = tuple((int(k), float(m)) for k, m in samples)
    ks = [k for k, _ in pairs]
    if len(pairs) < 3 or len(set(ks)) != len(ks):
        raise InvalidArgument("need at least three samples at distinct K")
    return fit_line(ks, [m for _, m in pairs])
