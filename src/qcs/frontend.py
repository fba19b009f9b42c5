"""Photon-arrival simulation, the detector clock, and the jitter model.

Arrivals from a coherent source follow an inhomogeneous Poisson process
with the rendered intensity as its rate; the detector layer rescales them
by a linear clock skew.  ``JitterModel`` describes the exponentially
modified Gaussian (EMG) timing response whose bandwidth ``timelens``
computes.

Timestamps are integer picoseconds (the TDC resolution), rounded to
nearest.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgument, seeded_rng
from .signals import IntensityWaveform

PS_PER_S = 10**12

# expected candidate arrivals above which sample_arrivals refuses to draw:
# 4x the ~4 M of the largest committed config, DftDemo's 2 M-photon comb; a
# call at the cap peaks at about 135 MB (8 bytes per candidate)
MAX_CANDIDATES = 1 << 24

# candidates sample_arrivals thins per step: its four buffers (~0.39 MB) fit a 2 MiB L2
_BLOCK = 1 << 14

# FWHM of a Gaussian = 2*sqrt(2*ln 2) * sigma
GAUSSIAN_FWHM_FACTOR = 2.0 * np.sqrt(2.0 * np.log(2.0))


@dataclass(frozen=True)
class JitterModel:
    """EMG timing response: Gaussian(0, sigma) convolved with Exp(tau).

    Its variance is sigma^2 + tau^2; a fixed delay would change only the
    phase of the response, so none is kept.  sigma = tau = 0 degenerates to
    no jitter; it is accepted so the ideal limit stays expressible, but
    bandwidth queries on it are unbounded.
    """

    sigma: float = 0.0
    tau: float = 0.0

    def __post_init__(self):
        if self.sigma < 0 or self.tau < 0:
            raise InvalidArgument("jitter sigma and tau must be nonnegative")

    @property
    def degenerate(self) -> bool:
        return self.sigma == 0 and self.tau == 0

    @staticmethod
    def from_fwhm(fwhm: float, tau: float = 0.0) -> "JitterModel":
        """Gaussian-dominated model with the given full width at half maximum."""
        if fwhm <= 0:
            raise InvalidArgument("fwhm must be positive")
        return JitterModel(sigma=fwhm / GAUSSIAN_FWHM_FACTOR, tau=tau)


@dataclass(frozen=True)
class PhotonStream:
    """Sorted detection timestamps in integer picoseconds over a span."""

    timestamps: np.ndarray
    span_ps: int

    def __post_init__(self):
        ts = _whole_ps("timestamps", self.timestamps)
        if ts.ndim != 1:
            raise InvalidArgument("timestamps must be a one-dimensional array")
        span = _whole_ps("span_ps", self.span_ps)
        if span.ndim or span < 0:
            raise InvalidArgument("span_ps must be one whole number of picoseconds in [0, 2^63)")
        object.__setattr__(self, "timestamps", ts)
        object.__setattr__(self, "span_ps", int(span))
        if ts.size:
            if (ts[1:] < ts[:-1]).any():
                raise InvalidArgument("timestamps must be nondecreasing")
            if ts[0] < 0 or ts[-1] > self.span_ps:
                raise InvalidArgument("timestamps must lie within [0, span]")

    @property
    def count(self) -> int:
        return int(self.timestamps.size)

    @property
    def span(self) -> float:
        """Observation span in seconds."""
        return self.span_ps / PS_PER_S

    def seconds(self) -> np.ndarray:
        return self.timestamps / PS_PER_S


def _whole_ps(name: str, value) -> np.ndarray:
    """``value`` as int64 picoseconds, each element an integer or whole float
    within int64, else refused naming ``name``; an int64 array is not copied."""
    ps = np.asarray(value)
    if ps.dtype.kind == "f":
        # NaN fails the first test and infinity the second, with no warning
        if not ((np.floor(ps) == ps) & (np.abs(ps) < 2.0**63)).all():
            raise InvalidArgument(f"{name} must be whole picoseconds within int64")
    elif ps.dtype.kind not in "iu" or (ps.dtype.kind == "u" and ps.size and ps.max() >= 2**63):
        raise InvalidArgument(f"{name} must be integers within int64")
    return ps.astype(np.int64, copy=False)


def sample_arrivals(waveform: IntensityWaveform, span: float, seed=None) -> PhotonStream:
    """Inhomogeneous Poisson arrivals over ``span`` seconds.

    The waveform repeats with its own period; sampling thins a homogeneous
    candidate process at the waveform's peak rate, which is exact for any
    nonnegative rate profile.  A span outside [1 ps, 2^63 ps) or more than
    ``MAX_CANDIDATES`` expected candidates is refused.
    """
    if not 1 <= span * PS_PER_S < 2**63:
        raise InvalidArgument(f"span {span!r} s is outside [1 ps, 2^63 ps)")
    values = waveform.values
    if values.size == 0 or np.any(values < 0):
        raise InvalidArgument("intensity waveform must be nonnegative and nonempty")
    rng = seeded_rng(seed)
    span_ps = int(round(span * PS_PER_S))
    lam_max = float(values.max())
    if lam_max == 0:
        return PhotonStream(np.empty(0, dtype=np.int64), span_ps)
    expected = lam_max * span
    if not expected <= MAX_CANDIDATES:
        raise InvalidArgument(
            f"peak rate x span asks for {expected:.3g} candidate arrivals, "
            f"more than {MAX_CANDIDATES}"
        )
    n_candidates = rng.poisson(expected)
    # rng.uniform(0.0, span, n) gives these doubles (0.0 + span * next_double), slower
    times = rng.random(n_candidates)
    times *= span
    # Thinned in blocks over buffers made once per call: ``_cell_index``
    # draws nothing and runs first with ``u`` as scratch, consecutive fills
    # of ``u`` are the draws of one rng.random(n_candidates), take's "clip"
    # only spares it a buffered copy (every cell is in range), and the
    # survivors are copied down into ``times`` itself.
    ratio = values / lam_max
    size = min(n_candidates, _BLOCK)
    u, cells = np.empty(size), np.empty(size)
    idx, mask = np.empty(size, np.int64), np.empty(size, bool)
    filled = 0
    for start in range(0, n_candidates, _BLOCK):
        t = times[start : start + _BLOCK]
        b = t.size
        _cell_index(t, waveform.period, values.size, span, idx[:b], cells[:b], u[:b], mask[:b])
        rng.random(out=u[:b])
        np.less(u[:b], ratio.take(idx[:b], out=cells[:b], mode="clip"), out=mask[:b])
        k = np.count_nonzero(mask[:b])
        times[filled : filled + k] = np.compress(mask[:b], t)
        filled += k
    kept = times[:filled]
    kept *= PS_PER_S
    np.rint(kept, out=kept)
    kept.sort()
    # setitem casts to int64 over the same bytes in place, then the buffer
    # shrinks to the photons: no second array as long as the photons
    times.view(np.int64)[:filled] = kept
    t = kept = None  # the last views of ``times``: resize must not leave one dangling
    times.resize(filled, refcheck=False)
    photons = times.view(np.int64)
    # the times lie in [0, span), so only the last few can round past span_ps
    return PhotonStream(photons[: np.searchsorted(photons, span_ps, "right")], span_ps)


def _cell_index(times, period, grid, span, idx, cells, floor, near) -> None:
    """Write each time's waveform cell, ``(t % period) / period * grid``
    clipped to the grid, into ``idx`` bit for bit; ``cells``, ``floor`` and
    ``near`` are scratch buffers of the same length.

    The fractional part of ``t / period`` gives the same cell at a fraction
    of the cost of the float remainder, except within its rounding error of
    a cell edge.  Those times take the remainder itself, and so does every
    time once that error reaches half a cell.
    """
    # In cells, rounding t / period costs at most eps/2 * grid * span/period
    # and each of the three other roundings eps/2 * grid; the margin is over
    # eight times their sum.
    margin = 4 * np.finfo(float).eps * grid * (span / period + 4)
    np.divide(times, period, out=cells)
    cells -= np.floor(cells, out=floor)
    cells *= grid
    idx[...] = np.floor(cells, out=floor)
    cells -= floor
    if margin <= cells.min() and cells.max() < 1 - margin:
        return
    np.less(cells, margin, out=near)
    near |= cells >= 1 - margin
    # a fraction below 1 times grid rounds up to grid at most, and then sits
    # on an edge: only the remainders need the clip
    near = np.flatnonzero(near)
    cell = ((times[near] % period) / period * grid).astype(np.int64)
    idx[near] = np.clip(cell, 0, grid - 1, out=cell)


def apply_detector(stream: PhotonStream, clock_skew: float) -> PhotonStream:
    """Read the stream on a clock with a linear skew: every timestamp is
    scaled by (1 + clock_skew) and rounded to whole picoseconds, and events
    leaving [0, span] are dropped.  It draws nothing.
    """
    times = stream.timestamps / PS_PER_S * (1.0 + clock_skew)
    ts = np.round(times * PS_PER_S).astype(np.int64)
    # every step is monotone, so a positive factor keeps the stream's order;
    # a nonpositive one leaves only zeros in the span
    return PhotonStream(ts[(ts >= 0) & (ts <= stream.span_ps)], stream.span_ps)


def save_stream(stream: PhotonStream, path) -> None:
    """Write the on-disk format: a span header then one timestamp per line."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"# span_ps={stream.span_ps}\n")
        for t in stream.timestamps:
            fh.write(f"{t}\n")


def load_stream(path) -> PhotonStream:
    """Read the format ``save_stream`` writes; a value that is not an
    integer is refused with its file and line."""
    span_ps = None
    values = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                if line.startswith("#"):
                    key, _, val = line[1:].strip().partition("=")
                    if key.strip() == "span_ps":
                        span_ps = int(val)
                    continue
                values.append(int(line))
            except ValueError:
                raise InvalidArgument(f"{path}:{lineno}: {line!r} is not an integer") from None
    if span_ps is None:
        raise InvalidArgument(f"{path}: missing '# span_ps=' header")
    return PhotonStream(timestamps=np.array(values, dtype=np.int64), span_ps=span_ps)
