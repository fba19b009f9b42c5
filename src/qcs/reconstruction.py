"""Sparse-coefficient estimation from detection events and signal rebuild.

The coefficients are read off a non-uniform DFT of the raw timestamp
sequence; top-K selection and the inverse Fourier transform then rebuild
the waveform and score it against the true signal.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgument
from .frontend import PS_PER_S, PhotonStream
from .signals import SparseSignal, signal_waveform

# complex work array budget for the chunked non-uniform DFT
_DFT_BUDGET = 1 << 22
# longest period, in picoseconds, that the harmonic DFT path folds and transforms
_FFT_MAX_PERIOD_PS = 1 << 17
# timestamps per block of the residue fold: its int64 buffer (64 KiB) stays
# under glibc's 128 KiB mmap threshold, so it reuses heap pages call to call
_FOLD_BLOCK = 1 << 13
# photons per block, and steps between direct re-evaluations, of the phasor recurrence
_RECURRENCE_CHUNK = 1 << 14
_REANCHOR_STEPS = 128
# a grid fits its harmonic or uniform model to within this many ulps of its largest value
_GRID_ULPS = 8


@dataclass(frozen=True)
class ReconstructionResult:
    """Reconstructed waveform plus recovery metrics against ground truth.

    ``coefficients`` is the complex spectrum the waveform was synthesized
    from, one entry per grid bin.
    """

    coefficients: np.ndarray
    waveform: np.ndarray
    support: tuple
    nmse: float
    success: bool


def dft_coefficients(stream: PhotonStream, freqs) -> np.ndarray:
    """Complex non-uniform DFT of the timestamps at the given frequencies.

    s(f) = sum_m exp(-2i pi f t_m); |s(0)| equals the event count and a
    pure tone at a grid frequency aligns all phasors.

    ``_uniform_step`` classifies the grid once, and that picks the path:

    - a uniform grid on a whole-picosecond lattice, step 1/P with P at most
      2^17 ps and every f*P an integer: fold the timestamps modulo P in
      integers, count per residue and take one FFT of length P.  The phase
      comes from integer arithmetic, so it stays exact at any f*t.
    - any other uniform grid, f_j = f_0 + j*df: one exp for f_0 and one for
      df per photon, then one complex multiply per further frequency; the
      phasor is re-evaluated directly every 128 steps so rounding cannot
      drift.
    - everything else, single frequencies included: the chunked direct sum
      ``_dft_direct``, the oracle the two fast paths are tested against.
    """
    freqs = np.atleast_1d(np.asarray(freqs, dtype=float))
    if freqs.ndim > 1:
        raise InvalidArgument(f"freqs must be a scalar or a 1-D grid, not of shape {freqs.shape}")
    if stream.count == 0:
        raise InvalidArgument("cannot estimate a spectrum from zero detections")
    if not np.all(np.isfinite(freqs)):
        raise InvalidArgument("grid frequencies must be finite")
    if np.any(freqs < 0):
        raise InvalidArgument("grid frequencies must be nonnegative")
    if freqs.size == 0:
        return np.zeros(0, dtype=complex)
    step = _uniform_step(freqs)
    if step is None:
        return _dft_direct(stream, freqs)
    harmonic = _harmonic_bins(freqs, step)
    if harmonic is not None:
        return _dft_harmonic(stream.timestamps, *harmonic)
    return _dft_recurrence(stream.seconds(), freqs[0], step, freqs.size)


def _dft_direct(stream: PhotonStream, freqs: np.ndarray) -> np.ndarray:
    t = stream.seconds()
    out = np.zeros(freqs.size, dtype=complex)
    step = max(1024, _DFT_BUDGET // freqs.size)
    for start in range(0, t.size, step):
        chunk = t[start : start + step]
        out += np.exp(-2j * np.pi * freqs[:, None] * chunk[None, :]).sum(axis=1)
    return out


def _harmonic_bins(freqs: np.ndarray, step: float) -> tuple[int, np.ndarray] | None:
    """(P, b) with step == 1/P, P whole picoseconds up to 2^17, and freqs == b / P."""
    # a Python float quotient: a step below ~1e-296 Hz gives inf, not a numpy overflow warning
    period = PS_PER_S / float(step) if step else 0.0  # a constant grid has step 0
    if not 0.5 < period < _FFT_MAX_PERIOD_PS + 0.5:
        return None
    period_ps = round(period)
    # every f*P an integer to within a few ulps: this also refuses a P more
    # than about 2e-15 P off a whole picosecond
    scaled = freqs * period_ps / PS_PER_S
    bins = np.round(scaled)
    top = scaled.max()
    # from 2^52 up every double is an integer, so the test below proves nothing
    if top >= 2**52 or np.abs(scaled - bins).max() > _GRID_ULPS * np.spacing(top):
        return None
    return period_ps, bins.astype(np.int64)


def _dft_harmonic(timestamps: np.ndarray, period_ps: int, bins: np.ndarray) -> np.ndarray:
    counts = _residue_counts(timestamps, period_ps)
    # the counts are real, so bin b above P/2 is the conjugate of bin P - b
    bins = bins % period_ps
    upper = bins > period_ps // 2
    out = np.fft.rfft(counts)[np.where(upper, period_ps - bins, bins)]
    np.conjugate(out, out=out, where=upper)
    return out


def _residue_counts(timestamps: np.ndarray, period_ps: int) -> np.ndarray:
    """``np.bincount(timestamps % period_ps, minlength=period_ps)`` as float64,
    folded in blocks so that no temporary is as long as the timestamps.

    For nonnegative timestamps t - (t // P) * P is the remainder exactly, at
    about half the cost of int64 ``%``; the counts stay exact integers.
    """
    counts = np.zeros(period_ps)
    residues = np.empty(min(timestamps.size, _FOLD_BLOCK), dtype=np.int64)
    for start in range(0, timestamps.size, _FOLD_BLOCK):
        block = timestamps[start : start + _FOLD_BLOCK]
        r = residues[: block.size]
        np.floor_divide(block, period_ps, out=r)
        r *= period_ps
        np.subtract(block, r, out=r)
        # a float 1.0 keeps add.at on its fast path; an int 1 casts per element
        np.add.at(counts, r, 1.0)
    return counts


def _uniform_step(freqs: np.ndarray) -> float | None:
    """df with freqs == f_0 + j*df to within a few ulps of the largest frequency."""
    n = freqs.size
    if n < 2:
        return None
    step = (freqs[-1] - freqs[0]) / (n - 1)
    model = freqs[0] + step * np.arange(n)
    if np.abs(freqs - model).max() > _GRID_ULPS * np.spacing(freqs.max()):
        return None
    return step


def _dft_recurrence(t: np.ndarray, f0: float, step: float, n: int) -> np.ndarray:
    out = np.zeros(n, dtype=complex)
    for start in range(0, t.size, _RECURRENCE_CHUNK):
        chunk = t[start : start + _RECURRENCE_CHUNK]
        advance = _phasors(step, chunk)
        for j in range(n):
            if j % _REANCHOR_STEPS == 0:
                phasor = _phasors(f0 + j * step, chunk)
            out[j] += phasor.sum()
            phasor *= advance
    return out


def _phasors(freq: float, t: np.ndarray) -> np.ndarray:
    """exp(-2i pi freq t), with the cycles reduced mod 1 first.

    The cos and sin of a phase within half a turn cost about a third of
    those at ~1e9 turns.  The rounding of t and of freq * t stays, so the
    phase error still grows with freq * t, though it is no larger than
    before.  Written as cos and sin of the real angle, the result is bit for
    bit ``np.exp(-2j * np.pi * cycles)`` without its complex argument array:
    rint(c) - c is exactly -(c - rint(c)), and +0.0 on a whole turn, as the
    complex product gives.
    """
    cycles = freq * t
    np.subtract(np.rint(cycles), cycles, out=cycles)
    cycles *= 2 * np.pi  # now the angle, in radians
    out = np.empty(cycles.size, dtype=complex)
    np.cos(cycles, out=out.real)
    np.sin(cycles, out=out.imag)
    return out


def top_k_select(magnitudes, k: int) -> list:
    """Indices of the K largest magnitudes; ties break toward lower index."""
    mags = np.asarray(magnitudes, dtype=float)
    k = int(k)
    if k < 1 or k > mags.size:
        raise InvalidArgument("k must be in [1, N]")
    order = np.lexsort((np.arange(mags.size), -mags))
    return [int(i) for i in order[:k]]


def _nmse(reconstructed: np.ndarray, reference: np.ndarray) -> float:
    """Squared error between the waveforms scaled to unit peak."""
    a = np.asarray(reconstructed, dtype=float)
    b = np.asarray(reference, dtype=float)
    peak_a = np.abs(a).max()
    peak_b = np.abs(b).max()
    if peak_b == 0:
        raise InvalidArgument("reference waveform is identically zero")
    a = a / peak_a if peak_a > 0 else a
    b = b / peak_b
    return float(np.sum((a - b) ** 2) / np.sum(b**2))


def reconstruct(coefficients, truth: SparseSignal) -> ReconstructionResult:
    """Invert the Fourier basis: synthesize a cosine at each bin index.

    Each complex coefficient carries its bin's measured magnitude and phase
    into the waveform.  The support is the top K magnitudes, K being the
    truth's sparsity; nmse compares the waveforms scaled to unit peak, and
    success means the recovered support equals the true support exactly.
    """
    coefficients = np.asarray(coefficients, dtype=complex)
    n = coefficients.size
    if truth.dimension != n:
        raise InvalidArgument("estimate length does not match the truth dimension")
    # sum_n |c_n| cos(2 pi n j / N + arg c_n) == Re(N * ifft(c))
    waveform = np.real(np.fft.ifft(coefficients) * n)
    support = tuple(sorted(top_k_select(np.abs(coefficients), truth.sparsity)))
    nmse = _nmse(waveform, signal_waveform(truth, n))
    success = support == tuple(sorted(truth.support))
    return ReconstructionResult(
        coefficients=coefficients, waveform=waveform, support=support, nmse=nmse, success=success
    )

