"""Photon-counting compressed-sensing simulator and analysis toolkit.

Frequency-sparse signals are rendered as optical intensities, sampled as
photon detection events, and reconstructed from a non-uniform DFT of their
arrival times or read off a time lens; coverage statistics quantify how the
required event count scales with sparsity, against classical
compressed-sensing baselines.
"""

__version__ = "0.1.0"

from .errors import ConfigError, InvalidArgument, QcsError
from .signals import (
    IntensityWaveform,
    SparseSignal,
    make_tone_signal,
    render_intensity,
    signal_waveform,
)
from .frontend import (
    JitterModel,
    PhotonStream,
    apply_detector,
    load_stream,
    sample_arrivals,
    save_stream,
)
from .timelens import (
    TimeLensConfig,
    bandwidth_3db,
    frequency_to_time,
    jitter_response,
    time_to_frequency,
    tls_sample,
)
from .reconstruction import (
    ReconstructionResult,
    dft_coefficients,
    reconstruct,
)
from .baseline import (
    classical_bound,
    gaussian_matrix,
    omp_solve,
    one_hot_matrix,
    rip_check,
)
from .coverage import (
    CoverageEstimate,
    coverage_mc,
    coverage_times,
    fit_scaling,
    min_measurements,
    success_k2,
    success_k3,
    wilson_interval,
)
from .harness import ExperimentConfig, RunManifest, emit_results, load_config, run_experiment
