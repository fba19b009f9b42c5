"""Sparse test-signal synthesis and intensity-modulation rendering.

Signals are K-sparse on an integer-cycle frequency grid (a set of tones).
Rendering maps a signal onto a nonnegative optical intensity
``rate * (1 + depth * x(t))`` so the photon front end can sample it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgument


@dataclass(frozen=True)
class SparseSignal:
    """A K-sparse signal: N frequency-grid bins, support indices, positive
    amplitudes of zero-phase cosines.

    ``period`` is the signal repetition period in seconds.
    """

    dimension: int
    support: tuple
    amplitudes: tuple
    period: float

    def __post_init__(self):
        if self.dimension < 1:
            raise InvalidArgument("dimension must be a positive integer")
        if self.period <= 0:
            raise InvalidArgument("period must be positive")
        support = tuple(int(i) for i in self.support)
        amplitudes = tuple(float(a) for a in self.amplitudes)
        if not support:
            raise InvalidArgument("support must not be empty")
        if len(support) != len(set(support)):
            raise InvalidArgument("support indices must be distinct")
        if min(support) < 0 or max(support) >= self.dimension:
            raise InvalidArgument("support indices must lie in [0, dimension)")
        if len(amplitudes) != len(support):
            raise InvalidArgument("need one amplitude per support index")
        if any(a <= 0 for a in amplitudes):
            raise InvalidArgument("amplitudes must be positive")
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "amplitudes", amplitudes)

    @property
    def sparsity(self) -> int:
        return len(self.support)


@dataclass(frozen=True)
class IntensityWaveform:
    """One period of a nonnegative intensity, sampled on a uniform grid."""

    values: np.ndarray
    period: float

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", values)
        if self.period <= 0:
            raise InvalidArgument("period must be positive")


def make_tone_signal(tones, window: float, n) -> SparseSignal:
    """Place ``(frequency_hz, amplitude)`` tones, zero-phase cosines, on the
    length-``n`` frequency grid of a ``window``-second period.

    Off-grid tones snap to the nearest bin.  Tones at or above the grid
    Nyquist (bin n/2) are rejected.
    """
    n = int(n)
    if window <= 0:
        raise InvalidArgument("window must be positive")
    if not tones:
        raise InvalidArgument("tone set is empty")
    bins = []
    for freq, _ in tones:
        if freq < 0:
            raise InvalidArgument("tone frequencies must be nonnegative")
        cycles = freq * window
        # a product that overflows is above any grid's Nyquist
        bin_idx = int(round(cycles)) if np.isfinite(cycles) else n
        # strictly below Nyquist: the bin-n/2 cosine is degenerate on the grid
        if 2 * bin_idx >= n:
            raise InvalidArgument(
                f"tone at {freq:g} Hz is at or above the grid Nyquist ({n / 2 / window:g} Hz)"
            )
        bins.append(bin_idx)
    if len(set(bins)) != len(bins):
        raise InvalidArgument("two tones snapped to the same frequency bin")
    order = np.argsort(bins)
    return SparseSignal(
        dimension=n,
        support=tuple(bins[i] for i in order),
        amplitudes=tuple(tones[i][1] for i in order),
        period=float(window),
    )


def signal_waveform(signal: SparseSignal, grid: int, midpoint: bool = False) -> np.ndarray:
    """Evaluate the signal's sum of zero-phase cosines on ``grid`` samples
    of one period, scaled to unit peak magnitude.

    With ``midpoint`` each sample represents its grid cell's center, so a
    zeroth-order hold of the values carries no half-sample delay.
    """
    grid = int(grid)
    if grid < signal.dimension:
        raise InvalidArgument("grid must be at least the signal dimension")
    pos = np.arange(grid) + (0.5 if midpoint else 0.0)
    x = np.zeros(grid)
    for idx, amp in zip(signal.support, signal.amplitudes):
        x += amp * np.cos(2 * np.pi * idx * pos / grid)
    peak = np.abs(x).max()
    if peak > 0:
        x = x / peak
    return x


def render_intensity(
    signal: SparseSignal, depth: float, mean_rate: float, grid: int
) -> IntensityWaveform:
    """Render ``mean_rate * (1 + depth * x(t))`` over one period.

    ``x`` has unit peak magnitude and the depth is in (0, 1], so the result
    is nonnegative for every signal.  Samples are taken at grid-cell centers
    so the held waveform stays phase-aligned with the continuous signal.
    """
    if not 0 < depth <= 1:
        raise InvalidArgument("modulation depth must be in (0, 1]")
    if mean_rate <= 0:
        raise InvalidArgument("mean_rate must be positive (counts/second)")
    x = signal_waveform(signal, grid, midpoint=True)
    values = mean_rate * (1.0 + depth * x)
    return IntensityWaveform(values=values, period=signal.period)
