"""Typed experiment configuration loaded from INI files.

Defaults ship in ``data/default.cfg``; a user file overlays them. Unknown
sections or keys, unparsable values, and out-of-range parameters all
raise :class:`ConfigError`.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass
from importlib import resources

from .errors import ConfigError
from .polarization import ANALYZER_ANGLES

_SCHEMA = {
    "crystal": {"tilt_deg", "azimuth_deg", "d_coefficient"},
    "calibration": {"h_pump_weights", "v_pump_weights", "fit_threshold"},
    "pump": {"wavelength_nm", "angle_deg"},
    "film": {"thickness_nm", "film_index", "substrate_index", "ambient_index"},
    "spectrum": {"span_thz", "points"},
    "filters": {"longpass_cuton_nm", "edge_width_thz"},
    "detector_response": {"shape", "fwhm_thz"},
    "noise": {
        "pair_rate_hz",
        "efficiency",
        "singles_a_hz",
        "singles_b_hz",
        "depolarization",
    },
    "tomography": {"duration_per_setting_s"},
    "histogram": {"n_bins", "bin_width_ns", "exclusion_bins"},
    "bell": {"counts_per_setting"},
    "delay_line": {
        "plate_thickness_mm",
        "base_tilt_deg",
        "wavelength_um",
        "scan_start_deg",
        "scan_stop_deg",
        "scan_points",
    },
    "hom": {"delay_start_fs", "delay_stop_fs", "delay_points"},
    "fringe": {"theta_start_deg", "theta_stop_deg", "theta_points", "fixed_analyzer"},
    "run": {"seed", "bootstrap_samples"},
}


def _require(condition: bool, message: str):
    if not condition:
        raise ConfigError(message)


@dataclass(frozen=True)
class CrystalConfig:
    tilt_deg: float | None  # None = fit from the calibration tables
    azimuth_deg: float | None
    d_coefficient: float

    def __post_init__(self):
        if self.tilt_deg is not None:
            _require(0.0 <= self.tilt_deg < 90.0, "crystal tilt_deg must be in [0, 90)")
        _require(self.d_coefficient > 0, "crystal d_coefficient must be positive")


@dataclass(frozen=True)
class CalibrationConfig:
    h_pump_weights: tuple
    v_pump_weights: tuple
    fit_threshold: float

    def __post_init__(self):
        for name, w in (("h_pump", self.h_pump_weights), ("v_pump", self.v_pump_weights)):
            _require(len(w) == 3, f"{name}_weights needs 3 entries")
            _require(all(x >= 0 for x in w), f"{name}_weights must be nonnegative")
            _require(abs(sum(w) - 1.0) < 0.05, f"{name}_weights should sum to ~1")
        _require(self.fit_threshold > 0, "calibration fit_threshold must be positive")


@dataclass(frozen=True)
class PumpConfig:
    wavelength_nm: float
    angle_deg: float

    def __post_init__(self):
        _require(self.wavelength_nm > 0, "pump wavelength_nm must be positive")


@dataclass(frozen=True)
class FilmConfig:
    thickness_nm: float
    film_index: object
    substrate_index: object
    ambient_index: object

    def __post_init__(self):
        _require(self.thickness_nm > 0, "film thickness_nm must be positive")


@dataclass(frozen=True)
class SpectrumConfig:
    span_thz: float
    points: int

    def __post_init__(self):
        _require(self.span_thz > 0, "spectrum span_thz must be positive")
        _require(self.points >= 16, "spectrum points must be at least 16")


@dataclass(frozen=True)
class FiltersConfig:
    longpass_cuton_nm: tuple
    edge_width_thz: float

    def __post_init__(self):
        _require(len(self.longpass_cuton_nm) >= 1, "need at least one long-pass cut-on")
        _require(all(c > 0 for c in self.longpass_cuton_nm), "cut-ons must be positive")
        _require(self.edge_width_thz > 0, "filter edge_width_thz must be positive")


@dataclass(frozen=True)
class DetectorResponseConfig:
    shape: str
    fwhm_thz: float

    def __post_init__(self):
        _require(
            self.shape in ("none", "gaussian", "lorentzian"),
            "detector_response shape must be none, gaussian, or lorentzian",
        )
        _require(self.fwhm_thz > 0, "detector_response fwhm_thz must be positive")


@dataclass(frozen=True)
class NoiseConfig:
    pair_rate_hz: float
    efficiency: float
    singles_a_hz: float
    singles_b_hz: float
    depolarization: float

    def __post_init__(self):
        _require(self.pair_rate_hz >= 0, "noise pair_rate_hz must be nonnegative")
        _require(0 < self.efficiency <= 1, "noise efficiency must be in (0, 1]")
        _require(
            self.singles_a_hz >= 0 and self.singles_b_hz >= 0,
            "singles rates must be nonnegative",
        )
        _require(0 <= self.depolarization <= 1, "depolarization must be in [0, 1]")


@dataclass(frozen=True)
class TomographyConfig:
    duration_per_setting_s: float

    def __post_init__(self):
        _require(self.duration_per_setting_s > 0, "tomography duration must be positive")


@dataclass(frozen=True)
class HistogramConfig:
    n_bins: int
    bin_width_ns: float
    exclusion_bins: int

    def __post_init__(self):
        _require(self.n_bins >= 3 and self.n_bins % 2 == 1, "histogram n_bins must be odd >= 3")
        _require(self.bin_width_ns > 0, "histogram bin_width_ns must be positive")
        _require(self.exclusion_bins >= 0, "histogram exclusion_bins must be nonnegative")
        _require(
            self.n_bins - (2 * self.exclusion_bins + 1) >= 20,
            "histogram leaves fewer than 20 off-peak bins",
        )


@dataclass(frozen=True)
class BellConfig:
    counts_per_setting: int

    def __post_init__(self):
        _require(self.counts_per_setting >= 1, "bell counts_per_setting must be >= 1")


@dataclass(frozen=True)
class DelayLineConfig:
    plate_thickness_mm: float
    base_tilt_deg: float
    wavelength_um: float
    scan_start_deg: float
    scan_stop_deg: float
    scan_points: int

    def __post_init__(self):
        _require(self.plate_thickness_mm > 0, "plate thickness must be positive")
        _require(abs(self.base_tilt_deg) < 60, "base tilt must be inside +-60 deg")
        _require(self.wavelength_um > 0, "delay-line wavelength must be positive")
        _require(self.scan_points >= 2, "delay scan needs at least 2 points")
        _require(
            abs(self.scan_start_deg) < 60 and abs(self.scan_stop_deg) < 60,
            "delay scan tilts must stay inside +-60 deg",
        )


@dataclass(frozen=True)
class HomConfig:
    delay_start_fs: float
    delay_stop_fs: float
    delay_points: int

    def __post_init__(self):
        _require(self.delay_points >= 2, "hom delay grid needs at least 2 points")


@dataclass(frozen=True)
class FringeConfig:
    theta_start_deg: float
    theta_stop_deg: float
    theta_points: int
    fixed_analyzer: str

    def __post_init__(self):
        _require(self.theta_points >= 8, "fringe grid needs at least 8 points")
        _require(
            self.theta_stop_deg - self.theta_start_deg >= 180.0,
            "fringe scan must span at least 180 degrees",
        )
        _require(
            self.fixed_analyzer in ANALYZER_ANGLES,
            f"fixed_analyzer must be one of {sorted(ANALYZER_ANGLES)}",
        )


@dataclass(frozen=True)
class RunConfig:
    seed: int
    bootstrap_samples: int

    def __post_init__(self):
        _require(self.seed >= 0, "run seed must be nonnegative")
        _require(self.bootstrap_samples >= 0, "bootstrap_samples must be nonnegative")
        # one replicate has no sample spread: its sigmas would all be NaN
        _require(self.bootstrap_samples != 1, "bootstrap_samples must be 0 or at least 2")


@dataclass(frozen=True)
class ExperimentConfig:
    crystal: CrystalConfig
    calibration: CalibrationConfig
    pump: PumpConfig
    film: FilmConfig
    spectrum: SpectrumConfig
    filters: FiltersConfig
    detector_response: DetectorResponseConfig
    noise: NoiseConfig
    tomography: TomographyConfig
    histogram: HistogramConfig
    bell: BellConfig
    delay_line: DelayLineConfig
    hom: HomConfig
    fringe: FringeConfig
    run: RunConfig


def _read_parser(path=None) -> configparser.ConfigParser:
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    with resources.files("spdcfilm.data").joinpath("default.cfg").open() as f:
        parser.read_file(f)
    if path is not None:
        loaded = parser.read(str(path))
        if not loaded:
            raise ConfigError(f"config file not found or unreadable: {path}")
    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown config section [{section}]")
        for key in parser[section]:
            if key not in _SCHEMA[section]:
                raise ConfigError(f"unknown key '{key}' in section [{section}]")
    return parser


def _floats(raw: str) -> tuple:
    try:
        return tuple(float(tok) for tok in raw.replace(",", " ").split())
    except ValueError as exc:
        raise ConfigError(f"expected a list of numbers, got {raw!r}") from exc


def _float(parser, section, key) -> float:
    try:
        return parser.getfloat(section, key)
    except ValueError as exc:
        raise ConfigError(f"[{section}] {key} must be a number") from exc


def _int(parser, section, key) -> int:
    try:
        return parser.getint(section, key)
    except ValueError as exc:
        raise ConfigError(f"[{section}] {key} must be an integer") from exc


def _angle_or_auto(parser, section, key):
    raw = parser.get(section, key).strip().lower()
    if raw == "auto":
        return None
    return _float(parser, section, key)


def _index_model(raw: str):
    raw = raw.strip()
    try:
        return float(raw)
    except ValueError:
        return raw


def load_config(path=None) -> ExperimentConfig:
    """Load the packaged defaults, overlaid by ``path`` if given."""
    parser = _read_parser(path)
    return ExperimentConfig(
        crystal=CrystalConfig(
            tilt_deg=_angle_or_auto(parser, "crystal", "tilt_deg"),
            azimuth_deg=_angle_or_auto(parser, "crystal", "azimuth_deg"),
            d_coefficient=_float(parser, "crystal", "d_coefficient"),
        ),
        calibration=CalibrationConfig(
            h_pump_weights=_floats(parser.get("calibration", "h_pump_weights")),
            v_pump_weights=_floats(parser.get("calibration", "v_pump_weights")),
            fit_threshold=_float(parser, "calibration", "fit_threshold"),
        ),
        pump=PumpConfig(
            wavelength_nm=_float(parser, "pump", "wavelength_nm"),
            angle_deg=_float(parser, "pump", "angle_deg"),
        ),
        film=FilmConfig(
            thickness_nm=_float(parser, "film", "thickness_nm"),
            film_index=_index_model(parser.get("film", "film_index")),
            substrate_index=_index_model(parser.get("film", "substrate_index")),
            ambient_index=_index_model(parser.get("film", "ambient_index")),
        ),
        spectrum=SpectrumConfig(
            span_thz=_float(parser, "spectrum", "span_thz"),
            points=_int(parser, "spectrum", "points"),
        ),
        filters=FiltersConfig(
            longpass_cuton_nm=_floats(parser.get("filters", "longpass_cuton_nm")),
            edge_width_thz=_float(parser, "filters", "edge_width_thz"),
        ),
        detector_response=DetectorResponseConfig(
            shape=parser.get("detector_response", "shape").strip().lower(),
            fwhm_thz=_float(parser, "detector_response", "fwhm_thz"),
        ),
        noise=NoiseConfig(
            pair_rate_hz=_float(parser, "noise", "pair_rate_hz"),
            efficiency=_float(parser, "noise", "efficiency"),
            singles_a_hz=_float(parser, "noise", "singles_a_hz"),
            singles_b_hz=_float(parser, "noise", "singles_b_hz"),
            depolarization=_float(parser, "noise", "depolarization"),
        ),
        tomography=TomographyConfig(
            duration_per_setting_s=_float(parser, "tomography", "duration_per_setting_s"),
        ),
        histogram=HistogramConfig(
            n_bins=_int(parser, "histogram", "n_bins"),
            bin_width_ns=_float(parser, "histogram", "bin_width_ns"),
            exclusion_bins=_int(parser, "histogram", "exclusion_bins"),
        ),
        bell=BellConfig(
            counts_per_setting=_int(parser, "bell", "counts_per_setting"),
        ),
        delay_line=DelayLineConfig(
            plate_thickness_mm=_float(parser, "delay_line", "plate_thickness_mm"),
            base_tilt_deg=_float(parser, "delay_line", "base_tilt_deg"),
            wavelength_um=_float(parser, "delay_line", "wavelength_um"),
            scan_start_deg=_float(parser, "delay_line", "scan_start_deg"),
            scan_stop_deg=_float(parser, "delay_line", "scan_stop_deg"),
            scan_points=_int(parser, "delay_line", "scan_points"),
        ),
        hom=HomConfig(
            delay_start_fs=_float(parser, "hom", "delay_start_fs"),
            delay_stop_fs=_float(parser, "hom", "delay_stop_fs"),
            delay_points=_int(parser, "hom", "delay_points"),
        ),
        fringe=FringeConfig(
            theta_start_deg=_float(parser, "fringe", "theta_start_deg"),
            theta_stop_deg=_float(parser, "fringe", "theta_stop_deg"),
            theta_points=_int(parser, "fringe", "theta_points"),
            fixed_analyzer=parser.get("fringe", "fixed_analyzer").strip().upper(),
        ),
        run=RunConfig(
            seed=_int(parser, "run", "seed"),
            bootstrap_samples=_int(parser, "run", "bootstrap_samples"),
        ),
    )
