"""Polarization-entangled photon-pair generation in an ultrathin film.

Simulates and analyzes a transmission-geometry pair source: a 400 nm
zinc-blende film on glass pumped at 638 nm, emitting degenerate
polarization-entangled pairs into a single spatial mode. The package
covers the emission amplitudes from the nonlinear tensor, the two-photon
polarization state and its entanglement measures, coincidence tomography,
CHSH tests, the etalon-shaped pair spectrum with Hong-Ou-Mandel
interference, birefringent delay-line scans, and a full simulated
characterization run.
"""

from .bell import (
    ChshSettings,
    TwoQubitState,
    chsh_value,
    correlator_table,
    default_chsh_settings,
    simulate_chsh,
    split_postselect,
    split_postselect_rho,
    werner_state,
)
from .config import ExperimentConfig, load_config
from .crystal import (
    CrystalOrientation,
    SpdcResult,
    calibrate_azimuth,
    calibrate_orientation,
    chi2_zincblende,
    pair_rate_curve,
    rotation_matrix,
    spdc_amplitudes,
    weight_residual,
)
from .delayline import (
    DelayLine,
    Plate,
    calcite_delay,
    default_delay_line,
    delay_scan,
    uniaxial_index,
)
from .errors import (
    AsymmetricSpectrum,
    ConfigError,
    DegenerateTop,
    FitFailure,
    GridTooNarrow,
    IncompleteProtocol,
    InvalidDensityMatrix,
    InvalidState,
    NotNormalized,
    OutOfRange,
    PoorFit,
    SingularFit,
    SpdcFilmError,
    TooFewBins,
    TotalInternalReflection,
    ZeroAmplitude,
)
from .experiment import (
    BellResult,
    DelayScan,
    ExperimentReport,
    SourceModel,
    SpectralSection,
    TomographyResult,
    delay_line_scan,
    run_experiment,
    source_model,
    spectral_section,
    write_report,
)
from .histogram import (
    NoiseModel,
    TimeTagHistogram,
    simulate_histogram,
    subtract_accidentals,
)
from .materials import Sellmeier, load_material, refractive_index
from .polarization import analyzer_ket, linear_analyzer, pump_ket, two_photon_projector
from .qutrit import (
    concurrence,
    concurrence_bounds,
    concurrence_phase_curve,
    depolarize,
    dominant_eigenstate,
    purity,
    schmidt_number,
)
from .spectral import (
    FilmStack,
    SpectralAmplitude,
    apply_detector_response,
    gaussian_response,
    hom_curve,
    hom_fwhm,
    intensity_fwhm,
    joint_spectrum,
    longpass_pair_response,
    lorentzian_response,
)
from .tomography import (
    AnalyzerSetting,
    CoincidenceRecord,
    FitReport,
    completeness_check,
    default_protocol,
    forward_rates,
    fringe_scan,
    load_records_csv,
    reconstruct,
)

__version__ = "0.1.0"
