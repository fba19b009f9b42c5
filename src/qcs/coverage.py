"""Success-probability theory for covering the nonzero bins.

A K-sparse pulse train replays cyclically; each pulse converts to a click
with probability p, and acquisition stops after M clicks.  Recovery
succeeds when every nonzero bin has collected at least ``min_hits`` clicks
(one by default; two under the double-count background rule).

Closed forms exist for K = 2 and K = 3.  Conditioned on a click occurring,
the distance to the next click (in pulses, folded modulo K) is geometric:

    P(d) = (1 - p)^(d - 1) * p / (1 - (1 - p)^K),   d = 1..K

which drives a small absorbing Markov chain over the uncovered-bin
configurations.  For general K a vectorized Monte Carlo of the raw
Bernoulli process serves as estimator and as the oracle the closed forms
are validated against.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import InsufficientData, InvalidArgument, Unreachable
from .baseline import fit_line

_TRIAL_BATCH = 20_000
_SEARCH_CAP = 1 << 24
# background events one dark-count trial may draw
_DARK_CAP = 1 << 24


def _seed_sequence(seed) -> np.random.SeedSequence:
    if isinstance(seed, np.random.SeedSequence):
        return seed
    if isinstance(seed, np.random.Generator):
        return np.random.SeedSequence(seed.integers(0, 2**63, size=4).tolist())
    return np.random.SeedSequence(seed)


@dataclass(frozen=True)
class CoverageChain:
    """Jump distribution and transient-state transition matrix (K <= 3).

    ``transition`` columns index the source state, matching the left-acting
    convention fail(M) = 1^T . T^(M-1) . init.
    """

    sparsity: int
    detection_prob: float
    period_prob: float
    jumps: tuple
    transition: np.ndarray
    init: np.ndarray


def coverage_chain(k: int, p: float) -> CoverageChain:
    """Exact chain for K in {2, 3}; larger K is handled by Monte Carlo."""
    if not 0 < p <= 1:
        raise InvalidArgument("detection probability must be in (0, 1]")
    if k not in (2, 3):
        raise InvalidArgument("exact chains are derived for K = 2 and K = 3 only")
    q = 1.0 - p
    period_prob = 1.0 - q**k
    jumps = tuple(q ** (d - 1) * p / period_prob for d in range(1, k + 1))
    if k == 2:
        # single transient state: one bin covered, the other pending
        u, w = jumps
        transition = np.array([[w]])
        init = np.array([1.0])
    else:
        u, v, w = jumps
        # states: (one covered), (missing bin adjacent), (missing bin two ahead)
        transition = np.array(
            [
                [w, 0.0, 0.0],
                [u, w, u],
                [v, v, w],
            ]
        )
        init = np.array([1.0, 0.0, 0.0])
    return CoverageChain(
        sparsity=k,
        detection_prob=p,
        period_prob=period_prob,
        jumps=jumps,
        transition=transition,
        init=init,
    )


def success_k2(p: float, m: int) -> float:
    """P(both bins hit within M clicks) = 1 - ((1-p)/(2-p))^(M-1)."""
    if not 0 < p <= 1:
        raise InvalidArgument("detection probability must be in (0, 1]")
    if int(m) < 2:
        raise InvalidArgument("the first click fixes one bin; success needs M >= 2")
    return 1.0 - ((1.0 - p) / (2.0 - p)) ** (int(m) - 1)


def success_k3(p: float, m: int) -> float:
    """P(all three bins hit within M clicks), by chain absorption."""
    m = int(m)
    if m < 1:
        raise InvalidArgument("need at least one click")
    chain = coverage_chain(3, p)
    power = np.linalg.matrix_power(chain.transition, m - 1)
    fail = float(np.ones(3) @ power @ chain.init)
    return 1.0 - fail


def wilson_interval(successes: int, trials: int, z: float = 1.96):
    """Wilson score interval for a binomial proportion."""
    if trials < 1:
        raise InvalidArgument("need at least one trial")
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


def _periods_needed(k: int, p: float, m_max: int) -> int:
    # enough cyclic periods that >= m_max clicks occur with overwhelming odds
    mean = p * k
    target = m_max + 8.0 * np.sqrt(m_max + 1.0) + 20.0
    return int(np.ceil(target / mean)) + 2


def _coverage_times_batch(k, p, m_max, min_hits, rng, trials):
    """Clicks needed until every bin reaches min_hits, censored at m_max + 1."""
    periods = _periods_needed(k, p, m_max)
    det = rng.random((trials, periods * k)) < p
    # per-bin hit counts by period; int32 keeps them at half an int64 cumsum
    hits = np.cumsum(det.reshape(trials, periods, k), axis=1, dtype=np.int32)
    covered = hits[:, -1].min(axis=1) >= min_hits
    # flat index of the pulse that completes each bin; the last one ends the trial
    last = (np.argmax(hits >= min_hits, axis=1) * k + np.arange(k)).max(axis=1)
    needed = np.count_nonzero(det & (np.arange(periods * k) <= last[:, None]), axis=1)
    return np.where(covered, np.minimum(needed, m_max + 1), m_max + 1)


def coverage_times(
    k: int,
    p: float,
    m_max: int,
    trials: int,
    seed=None,
    min_hits: int = 1,
    threads: int = 1,
) -> np.ndarray:
    """Per-trial click counts to full coverage (censored at ``m_max + 1``).

    Simulates the raw Bernoulli replay process directly, independently of
    the chain formulas, so it can serve as their oracle.  Trials are split
    into fixed batches with spawned seeds; results are identical for any
    thread count.
    """
    if not 0 < p <= 1:
        raise InvalidArgument("detection probability must be in (0, 1]")
    if k < 1 or trials < 1 or m_max < 1:
        raise InvalidArgument("k, trials, and m_max must be positive")
    if min_hits < 1:
        raise InvalidArgument("min_hits must be at least 1")
    sizes = [_TRIAL_BATCH] * (trials // _TRIAL_BATCH)
    if trials % _TRIAL_BATCH:
        sizes.append(trials % _TRIAL_BATCH)
    seeds = _seed_sequence(seed).spawn(len(sizes))

    def run(args):
        ss, size = args
        return _coverage_times_batch(k, p, m_max, min_hits, np.random.default_rng(ss), size)

    if threads > 1 and len(sizes) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            parts = list(pool.map(run, zip(seeds, sizes)))
    else:
        parts = [run(args) for args in zip(seeds, sizes)]
    return np.concatenate(parts)


def _replay_with_dark(k, p, m, min_hits, n_bins, dark_per_period, rng, trials, exclusive):
    """Trial loop with background events mixed into the click budget."""
    successes = 0
    periods = _periods_needed(k, p, m) + int(np.ceil(4 * dark_per_period))
    if dark_per_period * periods > _DARK_CAP:
        raise InvalidArgument(
            f"dark_per_period x {periods} periods exceeds {_DARK_CAP} background events per trial"
        )
    for _ in range(trials):
        support = rng.choice(n_bins, size=k, replace=False)
        support.sort()
        sig_hits = rng.random((periods, k)) < p
        sig_per, sig_pulse = np.nonzero(sig_hits)
        sig_pos = sig_per * n_bins + support[sig_pulse]
        n_dark = rng.poisson(dark_per_period * periods)
        dark_time = rng.uniform(0.0, periods, n_dark)
        dark_bin = rng.integers(0, n_bins, n_dark)
        dark_pos = np.floor(dark_time).astype(np.int64) * n_bins + dark_bin
        pos = np.concatenate([sig_pos, dark_pos])
        bins = np.concatenate([support[sig_pulse], dark_bin])
        if pos.size < m:
            continue
        first_m = bins[np.argsort(pos, kind="stable")[:m]]
        seen, mult = np.unique(first_m, return_counts=True)
        heavy = seen[mult >= min_hits]
        # coverage: every support bin is heavy; exclusive: no other bin is
        if np.isin(support, heavy).all() and (not exclusive or heavy.size == k):
            successes += 1
    return successes


def coverage_mc(
    k: int,
    p: float,
    m: int,
    trials: int,
    seed=None,
    min_hits: int = 1,
    n_bins: int | None = None,
    dark_per_period: float = 0.0,
    exclusive: bool = False,
    threads: int = 1,
) -> CoverageEstimate:
    """Monte Carlo success rate for covering K bins within M clicks.

    ``dark_per_period`` adds uniform background events (over ``n_bins``
    bins) that consume click budget; ``exclusive`` additionally requires
    that no background bin reaches ``min_hits``, i.e. exact support
    recovery rather than bare coverage.  A Wilson 95% interval is attached.
    """
    if not 0 < p <= 1:
        raise InvalidArgument("detection probability must be in (0, 1]")
    if trials < 1:
        raise InvalidArgument("need at least one trial")
    if m < 1:
        raise InvalidArgument("need at least one click")
    if dark_per_period < 0:
        raise InvalidArgument("dark_per_period must be nonnegative")
    if dark_per_period > 0 and (n_bins is None or n_bins < k):
        raise InvalidArgument("dark counts need the full bin count n_bins >= k")
    if dark_per_period == 0:
        times = coverage_times(k, p, m, trials, seed, min_hits, threads)
        successes = int(np.sum(times <= m))
    else:
        rng = np.random.default_rng(_seed_sequence(seed))
        successes = _replay_with_dark(
            k, p, int(m), min_hits, int(n_bins), dark_per_period, rng, int(trials), exclusive
        )
    lo, hi = wilson_interval(successes, trials)
    return CoverageEstimate(
        success_rate=successes / trials, ci_lo=lo, ci_hi=hi, trials=int(trials)
    )


def _analytic_min_measurements(k, p, target):
    success = success_k2 if k == 2 else success_k3
    m = k
    while success(p, m) < target:
        m += 1
        if m > _SEARCH_CAP:
            raise Unreachable("target success rate not reached within the search cap")
    return m


def min_measurements(
    k: int,
    p: float,
    target: float,
    min_hits: int = 1,
    seed=None,
    trials: int = 20_000,
    threads: int = 1,
) -> int:
    """Smallest M with success probability >= target.

    Uses the exact formulas for K <= 3 at min_hits = 1 and otherwise the
    target quantile of a simulated coverage-time sample, doubling the
    censoring horizon until the target is reachable.
    """
    if not 0 < target < 1:
        raise InvalidArgument("target must be in (0, 1)")
    if not 0 < p <= 1:
        raise InvalidArgument("detection probability must be in (0, 1]")
    if k < 1:
        raise InvalidArgument("sparsity must be positive")
    if min_hits == 1 and k == 1:
        return 1
    if min_hits == 1 and k in (2, 3):
        return _analytic_min_measurements(k, p, target)
    if p == 1.0:
        return k * min_hits
    m_max = 4 * k * min_hits + 64
    while True:
        times = coverage_times(k, p, m_max, trials, seed, min_hits, threads)
        rank = int(np.ceil(target * trials)) - 1
        times.sort()
        if times[rank] <= m_max:
            return int(times[rank])
        m_max *= 2
        if m_max > _SEARCH_CAP:
            raise Unreachable("target success rate not reached within the search cap")


@dataclass(frozen=True)
class ScalingFit:
    """Linear fit M_min ~ alpha * K + c with its r^2 and source samples."""

    alpha: float
    c: float
    r2: float
    samples: tuple


def fit_scaling(samples) -> ScalingFit:
    """Least-squares line through (K, M_min) pairs; needs >= 3 distinct K."""
    pairs = tuple((int(k), float(m)) for k, m in samples)
    ks = [k for k, _ in pairs]
    if len(pairs) < 3 or len(set(ks)) != len(ks):
        raise InsufficientData("need at least three samples at distinct K")
    alpha, c, r2 = fit_line(ks, [m for _, m in pairs])
    return ScalingFit(alpha=alpha, c=c, r2=r2, samples=pairs)
