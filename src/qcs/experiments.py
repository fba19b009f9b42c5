"""End-to-end pipelines and the experiment sweeps the CLI can run.

Each experiment has one frozen spec dataclass, named after it, next to its
runner.  A field's annotation states its type and range, and its value is
the default; ``harness.load_config`` checks a config against these.  Each
runner takes its spec plus a root SeedSequence and returns
``{filename: (schema, rows)}``; the harness turns those into checksummed
CSV files.  All randomness flows from the root seed through
``SeedSequence.spawn``, so a sweep is reproducible bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Annotated, Callable, NamedTuple, get_type_hints

import numpy as np

from . import baseline, coverage, reconstruction, signals, timelens
from .errors import ConfigError, InvalidArgument, seeded_rng
from .frontend import JitterModel, PhotonStream, apply_detector, sample_arrivals
from .signals import SparseSignal
from .timelens import TimeLensConfig


class Bound(NamedTuple):
    """A spec field's range: ``test`` holds for each valid value or element."""

    text: str
    test: Callable


Count = Annotated[int, Bound("in [1, 2**53)", lambda v: 1 <= v < 2**53)]
Positive = Annotated[float, Bound("> 0", lambda v: v > 0)]
NonNegative = Annotated[float, Bound(">= 0", lambda v: v >= 0)]
Probability = Annotated[float, Bound("in (0, 1]", lambda v: 0 < v <= 1)]
Fraction = Annotated[float, Bound("in (0, 1)", lambda v: 0 < v < 1)]
Share = Annotated[float, Bound("in [0, 1]", lambda v: 0 <= v <= 1)]


def _upto(limit: int, text: str):
    return Annotated[int, Bound(f"in [1, {text}]", lambda v: 1 <= v <= limit)]


# Counts a sweep allocates or loops over, capped so that a run fits in memory
# and ends: past its cap, each crashed, hung or overflowed.
Grid = _upto(2**16, "2**16")  # waveform grid bins and frequency points
Lines = _upto(2**10, "2**10")  # comb lines; rendering costs lines x grid cosines
Bins = _upto(2**32, "2**32")  # the dark-count replay keys (period, bin) in int64
Trials = _upto(10**6, "10**6")  # Monte Carlo trials of one case
Seeds = _upto(10**4, "10**4")  # trials that each hold a spawned SeedSequence
Photons = _upto(16, "16")  # ConfusionTLS draws trials x photons detections at once
# ps; sigma^2 in the response curve stays a normal float
JitterPs = Annotated[float, Bound("in [1e-3, 1e9]", lambda v: 1e-3 <= v <= 1e9)]


# ---------------------------------------------------------------------------
# pipelines

def dft_tone_pipeline(
    signal: SparseSignal,
    m_photons: int,
    seed,
    depth: float = 1.0,
    n_periods: int = 1000,
) -> reconstruction.ReconstructionResult:
    """Frequency-sparse signal -> intensity -> Poisson photons -> spectral
    estimate -> waveform, scored against the input signal.

    The candidate grid is every bin from 1 up to the signal's Nyquist.
    Coefficient magnitudes drive top-K support selection; the complex
    coefficients, measured phases included, feed the waveform synthesis so
    the spectral noise floor stays zero-mean in the reconstruction.
    """
    n = signal.dimension
    period = signal.period
    span = period * n_periods
    rate = m_photons / span
    waveform = signals.render_intensity(signal, depth, rate, grid=max(n, 64))
    stream = sample_arrivals(waveform, span, seed)
    bins = np.arange(1, n // 2 + 1)
    coefficients = np.zeros(n, dtype=complex)
    coefficients[bins] = reconstruction.dft_coefficients(stream, bins / period)
    return reconstruction.reconstruct(coefficients, truth=signal)


def tone_signal(tone_freq_hz: float, period_s: float, n: int) -> SparseSignal:
    return signals.make_tone_signal(((tone_freq_hz, 1.0),), period_s, n)


def comb_signal(k: int, spacing_hz: float, n: int) -> SparseSignal:
    """Equal-amplitude zero-phase comb: lines at spacing..k*spacing."""
    tones = [(spacing_hz * (i + 1), 1.0) for i in range(k)]
    return signals.make_tone_signal(tones, 1.0 / spacing_hz, n)


def _checked(field: str, build, *args):
    """``build(*args)``, its InvalidArgument refused as a bad config ``field``."""
    try:
        return build(*args)
    except InvalidArgument as exc:
        raise ConfigError(field, f"is out of range: {exc}") from None


# ---------------------------------------------------------------------------
# sweep runners

@dataclass(frozen=True)
class SuccessVsM:
    n: Bins = 2**15
    k_list: tuple[Count, ...] = (10, 20, 50, 100)
    p: Probability = 0.98
    m_grid: tuple[Count, ...] | None = None
    trials: Trials = 1000
    min_hits: Count = 2
    # detector-level dark rate (~10 cps) times a millisecond-scale period
    dark_per_period: NonNegative = 0.01

    def __post_init__(self):
        # background lands on all n bins, the K signal bins among them
        if self.dark_per_period > 0 and self.n < max(self.k_list):
            msg = f"is out of range: dark counts need n >= K, and K = {max(self.k_list)}"
            raise ConfigError("n", msg)


def run_success_vs_m(spec: SuccessVsM, seed_seq) -> dict:
    """Support-recovery success rate over an M grid for each sparsity."""
    rows = []
    cases = [(k, m) for k in spec.k_list for m in _m_grid_for(k, spec.m_grid)]
    rngs = seed_seq.spawn(len(cases))
    for (k, m), ss in zip(cases, rngs):
        est = coverage.coverage_mc(
            k,
            spec.p,
            m,
            spec.trials,
            seed=ss,
            min_hits=spec.min_hits,
            n_bins=spec.n,
            dark_per_period=spec.dark_per_period,
        )
        rows.append((k, spec.p, m, est.success_rate, est.ci_lo, est.ci_hi))
    return {"success_vs_m.csv": (("k", "p", "m", "success", "ci_lo", "ci_hi"), rows)}


def _m_grid_for(k: int, grid) -> list:
    if grid is not None:
        return list(grid)
    return sorted({max(1, k // 2), k, 2 * k + 10, 2 * k + 30, 3 * k, 4 * k})


@dataclass(frozen=True)
class MminVsK:
    k_list: tuple[Count, ...] = (10, 20, 30, 40, 50, 60, 70, 80, 90, 100)
    p: Probability = 0.98
    target: Fraction = 0.95
    min_hits_list: tuple[Count, ...] = (1, 2)
    bound_n: Count = 2**20
    bound_c: Positive = 1.0

    def __post_init__(self):
        # the M_min ~ K fit needs three distinct K; each min_hits names a CSV column
        if len(self.k_list) < 3 or len(set(self.k_list)) < len(self.k_list):
            msg = f"is out of range: {list(self.k_list)} is not three or more distinct K"
            raise ConfigError("k_list", msg)
        if len(set(self.min_hits_list)) < len(self.min_hits_list):
            msg = f"is out of range: {list(self.min_hits_list)} repeats a value"
            raise ConfigError("min_hits_list", msg)
        # the classical bound needs K <= N
        if self.bound_n < max(self.k_list):
            msg = f"is out of range: {self.bound_n} is below the largest K, {max(self.k_list)}"
            raise ConfigError("bound_n", msg)


def run_mmin_vs_k(spec: MminVsK, seed_seq) -> dict:
    """Minimum M for a target success rate versus K, with the classical bound.

    M_min comes from the exact coverage curve, so the sweep draws nothing.
    """
    k_list, hits_list, p, target = spec.k_list, spec.min_hits_list, spec.p, spec.target
    per_hits = {
        hits: [coverage.min_measurements(k, p, target, min_hits=hits) for k in k_list]
        for hits in hits_list
    }
    out = {}
    for hits, vals in per_hits.items():
        rows = [(k, p, target, m) for k, m in zip(k_list, vals)]
        out[f"mmin_vs_k_c{hits}.csv"] = (("k", "p", "target", "m_min"), rows)
    overlay = []
    for i, k in enumerate(k_list):
        row = [k] + [per_hits[h][i] for h in hits_list]
        row += [baseline.classical_bound(k, spec.bound_n, spec.bound_c), k, 2 * k]
        overlay.append(tuple(row))
    schema = ["k"] + [f"m_min_c{h}" for h in hits_list] + ["classical_bound", "ideal_k", "twice_k"]
    out["mmin_overlay.csv"] = (tuple(schema), overlay)
    fits = []
    for hits, vals in per_hits.items():
        fits.append((hits, *coverage.fit_scaling(list(zip(k_list, vals)))))
    out["mmin_scaling_fit.csv"] = (("min_hits", "alpha", "intercept", "r2"), fits)
    return out


@dataclass(frozen=True)
class NmseVsM:
    tone_freq_hz: Positive = 5e9
    period_s: Positive = 1e-9
    n: Grid = 16
    depth: Probability = 1.0
    m_list: tuple[Count, ...] = (100, 1000, 10_000, 100_000, 1_000_000)
    trials_per_m: Seeds = 4
    n_periods: Count = 1000

    def __post_init__(self):
        _checked("tone_freq_hz", tone_signal, self.tone_freq_hz, self.period_s, self.n)
        if len(set(self.m_list)) < len(self.m_list):
            msg = f"is out of range: {list(self.m_list)} repeats an M"
            raise ConfigError("m_list", msg)


def run_nmse_vs_m(spec: NmseVsM, seed_seq) -> dict:
    """Reconstruction error of the spectral pipeline versus photon count."""
    m_list = spec.m_list
    signal = tone_signal(spec.tone_freq_hz, spec.period_s, spec.n)
    rngs = seed_seq.spawn(len(m_list) * spec.trials_per_m)
    rows = []
    rmses = []
    idx = 0
    for m in m_list:
        nmses = []
        for _ in range(spec.trials_per_m):
            res = dft_tone_pipeline(
                signal, m, rngs[idx], depth=spec.depth, n_periods=spec.n_periods
            )
            nmses.append(res.nmse)
            idx += 1
        nmse = float(np.mean(nmses))
        rmses.append(np.sqrt(nmse))
        rows.append([m, nmse, np.sqrt(nmse)])
    # 1/sqrt(M) reference anchored at the geometric mean of the data
    logm = np.log10(m_list)
    anchor = float(np.mean(np.log10(rmses) + 0.5 * logm))
    for row, lm in zip(rows, logm):
        row.append(10.0 ** (anchor - 0.5 * lm))
    out = {"nmse_vs_m.csv": (("m", "nmse", "rmse", "ref_rmse"), [tuple(r) for r in rows])}
    if len(m_list) >= 2:
        slope, intercept, r2 = coverage.fit_line(logm, np.log10(rmses))
        out["nmse_fit.csv"] = (("slope", "intercept", "r2"), [(slope, intercept, r2)])
    return out


def fit_background_for_accuracy(target_single_photon_accuracy: float) -> float:
    """Background fraction giving the target one-photon identification rate.

    With four candidate tones, a background photon is classified correctly
    a quarter of the time on average, so acc(b) = 1 - 3b/4 exactly.
    """
    if not 0 < target_single_photon_accuracy <= 1:
        raise InvalidArgument("target accuracy must be in (0, 1]")
    b = 4.0 * (1.0 - target_single_photon_accuracy) / 3.0
    if b >= 1.0:
        raise InvalidArgument("target accuracy below the 4-tone chance floor")
    return b


@dataclass(frozen=True)
class ConfusionTLS:
    tone_freqs_hz: tuple[Positive, ...] = (5.4e9, 16.2e9, 27.0e9, 37.8e9)
    dispersion_s2: float = 1074e-24
    window_s: Positive = 5.12e-10
    n_bins: Count = 512
    photon_counts: tuple[Photons, ...] = (1, 2, 3, 4)
    trials: Trials = 10000
    confusion_photons: Photons = 4
    target_single_photon_accuracy: Probability = 0.47
    # None: fit the background to the target one-photon accuracy
    background: Share | None = None

    def __post_init__(self):
        if self.confusion_photons not in self.photon_counts:
            msg = f"is out of range: {self.confusion_photons} is not one of photon_counts"
            raise ConfigError("confusion_photons", f"{msg} {list(self.photon_counts)}")
        cfg = _checked("dispersion_s2", TimeLensConfig, self.dispersion_s2, self.window_s)
        freqs = self.tone_freqs_hz
        bins = {_checked("tone_freqs_hz", timelens.tone_bin, f, cfg, self.n_bins) for f in freqs}
        if len(bins) < len(freqs):
            msg = "is out of range: tones collide in the lens bin grid; increase n_bins"
            raise ConfigError("tone_freqs_hz", msg)
        if self.background is None:
            acc = self.target_single_photon_accuracy
            _checked("target_single_photon_accuracy", fit_background_for_accuracy, acc)


def run_confusion_tls(spec: ConfusionTLS, seed_seq) -> dict:
    """Tone identification accuracy versus photon count, plus the confusion
    matrix at a chosen photon number."""
    tone_freqs, n_bins = spec.tone_freqs_hz, spec.n_bins
    cfg = TimeLensConfig(dispersion=spec.dispersion_s2, window=spec.window_s)
    confusion_at = spec.confusion_photons
    b = spec.background
    if b is None:
        b = fit_background_for_accuracy(spec.target_single_photon_accuracy)
    window_ps = int(round(cfg.window * 1e12))
    bins = np.array([timelens.tone_bin(f, cfg, n_bins) for f in tone_freqs])
    per_tone = max(1, spec.trials // len(tone_freqs))
    acc_rows = []
    confusion = np.zeros((len(tone_freqs), len(tone_freqs)), dtype=np.int64)
    n_streams = len(spec.photon_counts) * len(tone_freqs) + 1
    rngs = [seeded_rng(ss) for ss in seed_seq.spawn(n_streams)]
    tie_rng = rngs[-1]
    idx = 0
    for m in spec.photon_counts:
        hits = 0
        for true_idx, freq in enumerate(tone_freqs):
            rng = rngs[idx]
            idx += 1
            draws = timelens.tls_sample(((freq, 1.0),), cfg, per_tone * m, b, rng, n_bins)
            draw_bins = (draws * n_bins) // window_ps
            counts = (draw_bins.reshape(per_tone, m)[:, :, None] == bins[None, None, :]).sum(
                axis=1
            )
            # random tie-break, including the all-background case
            scores = counts + 0.5 * tie_rng.random(counts.shape)
            predicted = np.argmax(scores, axis=1)
            hits += int(np.sum(predicted == true_idx))
            if m == confusion_at:
                for j in range(len(tone_freqs)):
                    confusion[true_idx, j] += int(np.sum(predicted == j))
        total = per_tone * len(tone_freqs)
        lo, hi = coverage.wilson_interval(hits, total)
        acc_rows.append((m, hits / total, lo, hi))
    conf_rows = []
    for i, fi in enumerate(tone_freqs):
        for j, fj in enumerate(tone_freqs):
            conf_rows.append((fi, fj, int(confusion[i, j]), confusion[i, j] / per_tone))
    return {
        "accuracy_vs_photons.csv": (("photons", "accuracy", "ci_lo", "ci_hi"), acc_rows),
        "confusion_matrix.csv": (
            ("true_tone_hz", "identified_tone_hz", "count", "fraction"),
            conf_rows,
        ),
        "confusion_params.csv": (
            ("background", "trials_per_tone", "confusion_photons"),
            [(b, per_tone, confusion_at)],
        ),
    }


@dataclass(frozen=True)
class DftDemo:
    tone_freq_hz: Positive = 20e9
    tone_period_s: Positive = 1e-9
    tone_n: Grid = 64
    tone_photons: Count = 100_000
    comb_k: Lines = 83
    comb_spacing_hz: Positive = 1e7
    comb_n: Grid = 256
    comb_photons: Count = 2_000_000
    n_periods: Count = 1000

    def __post_init__(self):
        _checked("tone_freq_hz", tone_signal, self.tone_freq_hz, self.tone_period_s, self.tone_n)
        _checked("comb_k", comb_signal, self.comb_k, self.comb_spacing_hz, self.comb_n)


def run_dft_demo(spec: DftDemo, seed_seq) -> dict:
    """Single-tone and comb reconstructions via the spectral pipeline."""
    out = {}
    rngs = seed_seq.spawn(2)
    tone = tone_signal(spec.tone_freq_hz, spec.tone_period_s, spec.tone_n)
    res = dft_tone_pipeline(tone, spec.tone_photons, rngs[0], n_periods=spec.n_periods)
    out["dft_tone_waveform.csv"] = _waveform_rows(tone, res)
    out["dft_tone_coefficients.csv"] = _coefficient_rows(tone, res)
    comb = comb_signal(spec.comb_k, spec.comb_spacing_hz, spec.comb_n)
    res_c = dft_tone_pipeline(comb, spec.comb_photons, rngs[1], n_periods=spec.n_periods)
    out["dft_comb_waveform.csv"] = _waveform_rows(comb, res_c)
    out["dft_comb_coefficients.csv"] = _coefficient_rows(comb, res_c)
    out["dft_demo_metrics.csv"] = (
        ("case", "k", "photons", "nmse", "support_recovered"),
        [
            ("tone", tone.sparsity, spec.tone_photons, res.nmse, res.success),
            ("comb", comb.sparsity, spec.comb_photons, res_c.nmse, res_c.success),
        ],
    )
    return out


def _waveform_rows(signal: SparseSignal, res: reconstruction.ReconstructionResult):
    n = signal.dimension
    original = signals.signal_waveform(signal, n)
    recon = res.waveform / np.abs(res.waveform).max()
    rows = [(i, original[i], recon[i], recon[i] - original[i]) for i in range(n)]
    return (("index", "original", "reconstructed", "residual"), rows)


def _coefficient_rows(signal: SparseSignal, res: reconstruction.ReconstructionResult):
    mags = np.abs(res.coefficients)
    support = set(signal.support)
    rows = []
    for b in range(signal.dimension):
        if mags[b] > 0 or b in support:
            rows.append((b, b / signal.period, mags[b], int(b in support)))
    return (("bin", "freq_hz", "magnitude", "true_line"), rows)


@dataclass(frozen=True)
class JitterBandwidth:
    fwhm_ps_list: tuple[JitterPs, ...] = (45.3, 20.2, 3.0)
    tau_ps: NonNegative = 0.0
    f_min_hz: Positive = 1e8
    f_max_hz: Positive = 3e11
    f_points: Grid = 200


def run_jitter_bandwidth(spec: JitterBandwidth, seed_seq) -> dict:
    """|H(f)| curves and 3 dB bandwidths for a list of jitter widths."""
    tau_ps = spec.tau_ps
    f_grid = np.logspace(np.log10(spec.f_min_hz), np.log10(spec.f_max_hz), spec.f_points)
    curve_rows = []
    band_rows = []
    for fwhm in spec.fwhm_ps_list:
        jit = JitterModel.from_fwhm(fwhm * 1e-12, tau=tau_ps * 1e-12)
        mags = timelens.jitter_response(jit, f_grid)
        for f, h in zip(f_grid, mags):
            curve_rows.append((fwhm, f, h))
        f3 = timelens.bandwidth_3db(jit)
        band_rows.append((fwhm, jit.sigma * 1e12, tau_ps, f3, f3 * fwhm * 1e-12))
    return {
        "jitter_response.csv": (("fwhm_ps", "f_hz", "magnitude"), curve_rows),
        "jitter_bandwidth.csv": (
            ("fwhm_ps", "sigma_ps", "tau_ps", "f3db_hz", "f3db_times_fwhm"),
            band_rows,
        ),
    }


# The coarse search spans f0 +- (1.5*|skew|*f0 + 5/T) in steps of 1/(2T), so
# it evaluates about 6*|skew|*f0*T + 20 frequencies (the defaults: ~1,500).
_MAX_COARSE_POINTS = 1 << 20


def _coarse_points(skew: float, f0: float, t_int: float) -> float:
    return 6.0 * abs(skew) * f0 * t_int + 20.0


def _estimate_peak_frequency(stream: PhotonStream, f0: float, span_hint: float):
    """Two-stage spectral peak search around f0."""
    t_span = stream.span
    coarse_step = 1.0 / (2.0 * t_span)
    half = max(span_hint, 20.0 * coarse_step)
    grid = np.arange(f0 - half, f0 + half + coarse_step, coarse_step)
    grid = grid[grid > 0]
    mags = np.abs(reconstruction.dft_coefficients(stream, grid))
    peak = grid[int(np.argmax(mags))]
    fine_step = 1.0 / (40.0 * t_span)
    grid2 = np.arange(peak - 2 * coarse_step, peak + 2 * coarse_step, fine_step)
    grid2 = grid2[grid2 > 0]
    mags2 = np.abs(reconstruction.dft_coefficients(stream, grid2))
    return float(grid2[int(np.argmax(mags2))])


@dataclass(frozen=True)
class ResolutionVsIntegration:
    f0_hz: Positive = 1e9
    photons: Count = 20000
    integration_s: tuple[Positive, ...] = (0.1, 1.0, 10.0, 50.0)
    # (name, clock skew) per clock model
    clocks: tuple[tuple[str, float], ...] = (
        ("free_running", 5e-9), ("gps_locked", 3e-11), ("common_clock", 0.0)
    )

    def __post_init__(self):
        skews = [skew for _, skew in self.clocks]
        if min(skews) <= -1:
            msg = "is out of range: a skew of -1 or less maps every timestamp to <= 0"
            raise ConfigError("clocks", msg)
        max_skew, t_max = max(map(abs, skews)), max(self.integration_s)
        points = _coarse_points(max_skew, self.f0_hz, t_max)
        if points > _MAX_COARSE_POINTS:
            msg = f"is out of range: the coarse peak search would take {points:.3g} frequencies"
            raise ConfigError("clocks", f"{msg}, more than {_MAX_COARSE_POINTS}")
        # no search point lies past f0 + 1.5*|skew|*f0 + 11.5/T; where the
        # float spacing there reaches the fine step, the fine grid stalls
        top = self.f0_hz * (1.0 + 1.5 * max_skew) + 12.0 / t_max
        fine_step = 1.0 / (40.0 * t_max)
        if not np.spacing(top) < fine_step:
            msg = f"is out of range: the fine peak search steps by {fine_step:.3g} Hz"
            spacing = f"the float spacing, {np.spacing(top):.3g} Hz, at {top:.3g} Hz"
            raise ConfigError("f0_hz", f"{msg}, not above {spacing}")


def run_resolution_vs_integration(spec: ResolutionVsIntegration, seed_seq) -> dict:
    """Apparent frequency error versus integration time for clock settings.

    A skewed clock rescales every timestamp, shifting a tone at f0 by
    skew * f0; an ideal common clock leaves only the Fourier limit 1/T.
    """
    f0, photons, clocks = spec.f0_hz, spec.photons, spec.clocks
    period = 1.0 / f0
    rows = []
    rngs = seed_seq.spawn(len(clocks) * len(spec.integration_s))
    idx = 0
    max_skew = max(abs(s) for _, s in clocks)
    for name, skew in clocks:
        for t_int in spec.integration_s:
            rate = photons / t_int
            signal = tone_signal(f0, period, 4)
            waveform = signals.render_intensity(signal, 1.0, rate, grid=64)
            stream = apply_detector(sample_arrivals(waveform, t_int, rngs[idx]), skew)
            idx += 1
            span_hint = 1.5 * max_skew * f0 + 5.0 / t_int
            f_hat = _estimate_peak_frequency(stream, f0, span_hint)
            err = abs(f_hat - f0)
            rows.append((name, skew, t_int, 1.0 / t_int, err, max(err, 1.0 / t_int)))
    return {
        "resolution_vs_integration.csv": (
            ("clock", "skew", "integration_s", "fourier_limit_hz", "freq_error_hz", "resolution_hz"),
            rows,
        )
    }


RUNNERS = {
    "SuccessVsM": run_success_vs_m,
    "MminVsK": run_mmin_vs_k,
    "NmseVsM": run_nmse_vs_m,
    "ConfusionTLS": run_confusion_tls,
    "DftDemo": run_dft_demo,
    "JitterBandwidth": run_jitter_bandwidth,
    "ResolutionVsIntegration": run_resolution_vs_integration,
}

# each runner's spec class, read from its signature
SPECS = {name: get_type_hints(runner)["spec"] for name, runner in RUNNERS.items()}
