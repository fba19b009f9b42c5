"""Photon-counting compressed-sensing simulator and analysis toolkit.

Sparse signals are rendered as optical intensities, sampled as photon
detection events, and reconstructed by counting or by a non-uniform DFT;
coverage statistics quantify how the required event count scales with
sparsity, against classical compressed-sensing baselines.
"""

__version__ = "0.1.0"

from .errors import (
    ConfigError,
    EmptyMeasurement,
    FrequencyOutOfRange,
    InsufficientData,
    InvalidArgument,
    InvalidIntensity,
    InvalidSupport,
    MissingField,
    ModulationOverdrive,
    OutOfRange,
    OutOfWindow,
    QcsError,
    SingularSystem,
    TypeMismatch,
    Unbounded,
    UnknownExperiment,
    Unreachable,
)
from .signals import (
    IntensityWaveform,
    ModulationConfig,
    SparseSignal,
    ToneSet,
    make_dirac_train,
    make_tone_signal,
    render_intensity,
    signal_waveform,
)
from .frontend import (
    DetectorModel,
    JitterModel,
    PhotonStream,
    apply_detector,
    click_probability,
    load_stream,
    sample_arrivals,
    sample_pulse_detections,
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
    CountHistogram,
    EquivalentMatrix,
    ReconstructionResult,
    SparseEstimate,
    bin_timestamps,
    counting_estimate,
    dft_coefficients,
    dft_estimate,
    equivalent_matrix,
    reconstruct,
    recover_support_time,
    top_k_select,
)
from .baseline import (
    RipReport,
    SensingMatrix,
    classical_bound,
    gaussian_matrix,
    omp_solve,
    one_hot_matrix,
    rip_check,
)
from .coverage import (
    CoverageChain,
    CoverageEstimate,
    ScalingFit,
    coverage_chain,
    coverage_mc,
    coverage_times,
    fit_scaling,
    min_measurements,
    success_k2,
    success_k3,
    wilson_interval,
)
from .harness import ExperimentConfig, RunManifest, emit_results, load_config, run_experiment
