"""Time-lens domain alignment: frequency <-> detection-time mapping.

A quadratic-phase modulator plus a dispersive fiber Fourier-transforms each
signal window, so a tone at frequency f is detected at time
t = -2*pi*dispersion*f inside the window and the detection-time density is
proportional to the power spectrum.  The jitter frequency response and its
3 dB bandwidth live here too, since jitter is what limits the mapping.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgument, seeded_rng
from .frontend import PS_PER_S, JitterModel

# relative width of the bracket at which bandwidth_3db stops bisecting
BANDWIDTH_REL_TOL = 1e-9


@dataclass(frozen=True)
class TimeLensConfig:
    """Lens geometry: second-order dispersion (s^2) and window length (s).

    The chirp rate is fixed by the imaging condition chirp * dispersion = 1,
    so the dispersion alone sets the map.
    """

    dispersion: float
    window: float

    def __post_init__(self):
        if self.dispersion == 0:
            raise InvalidArgument("dispersion must be nonzero")
        if self.window <= 0:
            raise InvalidArgument("window must be positive")


def frequency_to_time(freq, cfg: TimeLensConfig):
    """Lens-output detection time for a tone: t = -2*pi*dispersion*f."""
    t = -2.0 * np.pi * cfg.dispersion * np.asarray(freq, dtype=float)
    if np.any(np.abs(t) > cfg.window / 2 * (1 + 1e-12)):
        raise InvalidArgument("frequency maps outside the lens window")
    return t if t.ndim else float(t)


def time_to_frequency(t, cfg: TimeLensConfig):
    """Inverse map over the centered window [-T/2, T/2]."""
    t = np.asarray(t, dtype=float)
    if np.any(np.abs(t) > cfg.window / 2 * (1 + 1e-12)):
        raise InvalidArgument("time lies outside the lens window")
    f = -t / (2.0 * np.pi * cfg.dispersion)
    return f if f.ndim else float(f)


def tone_bin(freq: float, cfg: TimeLensConfig, n_bins: int) -> int:
    """Detection-time bin (of ``n_bins`` per window) where a tone lands.

    Lens times are negative for positive frequencies; recorded timestamps
    wrap into [0, window).
    """
    t = frequency_to_time(freq, cfg)
    recorded = t % cfg.window
    return int(recorded / cfg.window * n_bins) % n_bins


def tls_sample(
    tones,
    cfg: TimeLensConfig,
    m: int,
    background: float = 0.0,
    seed=None,
    n_bins: int = 1024,
) -> np.ndarray:
    """Draw ``m`` lens-output detections for ``(frequency_hz, amplitude)`` tones.

    Each detection lands in the time bin of tone n with probability
    proportional to |s_n|^2, or uniformly over the window with probability
    ``background``.  Returns the unsorted, i.i.d. timestamps in integer ps,
    wrapped into [0, window).
    """
    if not tones or any(a <= 0 for _, a in tones):
        raise InvalidArgument("need at least one tone, each with a positive amplitude")
    if not 0 <= background <= 1:
        raise InvalidArgument("background fraction must be in [0, 1]")
    if m < 0:
        raise InvalidArgument("photon count must be nonnegative")
    m = int(m)
    rng = seeded_rng(seed)
    window_ps = int(round(cfg.window * PS_PER_S))
    bins = np.array([tone_bin(f, cfg, n_bins) for f, _ in tones], dtype=np.int64)
    if window_ps < n_bins:
        raise InvalidArgument("window shorter than one picosecond per bin")
    lo = -(-bins * window_ps // n_bins)  # ceil division
    hi = -(-(bins + 1) * window_ps // n_bins)
    powers = np.array([a * a for _, a in tones])
    weights = powers / powers.sum()
    ts = np.empty(m, dtype=np.int64)
    is_bg = rng.random(m) < background
    n_bg = int(is_bg.sum())
    ts[is_bg] = rng.integers(0, window_ps, n_bg)
    n_sig = m - n_bg
    which = rng.choice(weights.size, size=n_sig, p=weights)
    ts[~is_bg] = lo[which] + (
        rng.random(n_sig) * (hi[which] - lo[which])
    ).astype(np.int64)
    return ts


def jitter_response(jitter: JitterModel, freq) -> np.ndarray:
    """|H(f)| of the EMG jitter: Gaussian roll-off times a Lorentzian-like tail.

    exp(-2 pi^2 sigma^2 f^2) / sqrt(1 + (2 pi tau f)^2); equals the Fourier
    magnitude of the jitter density, 1 at DC, and strictly decreasing.
    """
    f = np.asarray(freq, dtype=float)
    gauss = np.exp(-2.0 * np.pi**2 * jitter.sigma**2 * f**2)
    tail = 1.0 / np.sqrt(1.0 + (2.0 * np.pi * jitter.tau * f) ** 2)
    out = gauss * tail
    return out if out.ndim else float(out)


def bandwidth_3db(jitter: JitterModel) -> float:
    """Smallest frequency with |H(f)| <= 1/sqrt(2), by bracketing + bisection.

    The search runs in units of 1/max(sigma, tau), so the response's squares
    stay finite at any scale; a bandwidth past the float range is refused.
    """
    if jitter.degenerate:
        raise InvalidArgument("flat response: sigma and tau are both zero")
    target = 2.0**-0.5
    scale = max(jitter.sigma, jitter.tau)
    unit = JitterModel(sigma=jitter.sigma / scale, tau=jitter.tau / scale)
    hi = 1.0 / (2.0 * np.pi)
    while jitter_response(unit, hi) > target:
        hi *= 2.0
    lo = 0.0
    while hi - lo > BANDWIDTH_REL_TOL * hi:
        mid = 0.5 * (lo + hi)
        if jitter_response(unit, mid) > target:
            lo = mid
        else:
            hi = mid
    f3 = 0.5 * (lo + hi) / scale
    if not np.isfinite(f3):
        raise InvalidArgument(f"the 3 dB bandwidth at max(sigma, tau) = {scale:g} s overflows")
    return f3
