"""Typed experiment configuration loaded from INI files.

Defaults ship in ``data/default.cfg``; a user file overlays them. The
schema is the dataclasses below, ``spectral.FilmStack``, the ``[film]``
section, and ``delayline.DelayLine``, the ``[delay_line]`` section: each
section is a field of ``ExperimentConfig``, each key a field of its
section's dataclass, parsed by that field's annotation. Malformed
files, unknown sections or keys, unparsable or non-finite values, unknown
materials and out-of-range parameters all raise :class:`ConfigError`.
"""

import configparser
import math
from dataclasses import dataclass, fields
from importlib import resources

import numpy as np

from .delayline import DelayLine
from .errors import ConfigError, SpdcFilmError
from .frozen import Value
from .qutrit import depolarize
from .spectral import (
    C_NM_THZ,
    DETECTOR_RESPONSES,
    FilmStack,
    check_delays,
    check_grid,
    default_grid,
)
from .tomography import setting


def _require(condition: bool, message: str):
    if not condition:
        raise ConfigError(message)


def _built(section: str, build, *args, **kwargs):
    """``build(...)``; its ValueError or SpdcFilmError becomes a ConfigError
    naming ``section``, and a ConfigError passes through unchanged."""
    try:
        return build(*args, **kwargs)
    except ConfigError:
        raise
    except (ValueError, SpdcFilmError) as exc:
        raise ConfigError(f"[{section}] {exc}") from None


@dataclass(eq=False, repr=False)
class CrystalConfig(Value):
    """The ``[crystal]`` section: the film orientation (``auto`` fits it) and d coefficient."""

    tilt_deg: float | None  # None = fit from the calibration tables
    azimuth_deg: float | None
    d_coefficient: float

    def __post_init__(self):
        if self.tilt_deg is not None:
            _require(0.0 <= self.tilt_deg < 90.0, "crystal tilt_deg must be in [0, 90)")
        _require(self.d_coefficient > 0, "crystal d_coefficient must be positive")


@dataclass(eq=False, repr=False)
class CalibrationConfig(Value):
    """The ``[calibration]`` section: the weights an ``auto`` orientation fits."""

    h_pump_weights: tuple
    v_pump_weights: tuple
    fit_threshold: float

    def __post_init__(self):
        for name, w in (("h_pump", self.h_pump_weights), ("v_pump", self.v_pump_weights)):
            _require(len(w) == 3, f"calibration {name}_weights needs 3 entries")
            _require(all(x >= 0 for x in w), f"calibration {name}_weights must be nonnegative")
            _require(abs(sum(w) - 1.0) < 0.05, f"calibration {name}_weights should sum to ~1")
        _require(self.fit_threshold > 0, "calibration fit_threshold must be positive")


@dataclass(eq=False, repr=False)
class PumpConfig(Value):
    """The ``[pump]`` section: the pump wavelength and linear polarization angle."""

    wavelength_nm: float
    angle_deg: float

    def __post_init__(self):
        _require(self.wavelength_nm > 0, "pump wavelength_nm must be positive")
        _require(math.isfinite(self.angle_deg), "pump angle_deg must be a finite number")


@dataclass(eq=False, repr=False)
class SpectrumConfig(Value):
    """The ``[spectrum]`` section: the detuning grid's half span and points."""

    span_thz: float
    points: int

    def __post_init__(self):
        _require(self.span_thz > 0, "spectrum span_thz must be positive")
        _require(self.points >= 16, "spectrum points must be at least 16")
        _built("spectrum", check_grid, default_grid(self.span_thz, self.points))


@dataclass(eq=False, repr=False)
class FiltersConfig(Value):
    """The ``[filters]`` section: the long-pass cut-ons and their edge width."""

    longpass_cuton_nm: tuple
    edge_width_thz: float

    def __post_init__(self):
        _require(len(self.longpass_cuton_nm) >= 1, "filters need at least one long-pass cut-on")
        _require(all(c > 0 for c in self.longpass_cuton_nm), "filters cut-ons must be positive")
        _require(self.edge_width_thz > 0, "filter edge_width_thz must be positive")


@dataclass(eq=False, repr=False)
class DetectorResponseConfig(Value):
    """The ``[detector_response]`` section: the detectors' spectral response."""

    shape: str
    fwhm_thz: float

    def __post_init__(self):
        object.__setattr__(self, "shape", self.shape.lower())
        _require(
            self.shape in DETECTOR_RESPONSES,
            f"detector_response shape must be one of {sorted(DETECTOR_RESPONSES)}",
        )
        _require(self.fwhm_thz > 0, "detector_response fwhm_thz must be positive")


@dataclass(eq=False, repr=False)
class NoiseConfig(Value):
    """The ``[noise]`` section: pair and singles rates, efficiency, depolarization."""

    pair_rate_hz: float
    efficiency: float
    singles_a_hz: float
    singles_b_hz: float
    depolarization: float

    def __post_init__(self):
        rates = (self.pair_rate_hz, self.singles_a_hz, self.singles_b_hz)
        _require(all(rate >= 0 for rate in rates), "[noise] rates must be nonnegative")
        _require(0.0 < self.efficiency <= 1.0, "[noise] efficiency must be in (0, 1]")
        _built("noise", depolarize, [1.0, 0.0, 0.0], self.depolarization)


@dataclass(eq=False, repr=False)
class TomographyConfig(Value):
    """The ``[tomography]`` section: the counting time of each setting."""

    duration_per_setting_s: float

    def __post_init__(self):
        _require(self.duration_per_setting_s > 0, "tomography duration must be positive")


@dataclass(eq=False, repr=False)
class HistogramConfig(Value):
    """The ``[histogram]`` section: the coincidence histogram's bins."""

    n_bins: int
    bin_width_ns: float
    exclusion_bins: int

    def __post_init__(self):
        _require(self.n_bins >= 3 and self.n_bins % 2 == 1,
                 "[histogram] n_bins must be odd and at least 3")
        _require(self.bin_width_ns > 0, "[histogram] bin_width_ns must be positive")
        _require(self.exclusion_bins >= 0, "[histogram] exclusion_bins must be nonnegative")
        # the peak region is the 2 exclusion_bins + 1 bins about the centre one
        n_off = max(self.n_bins - 2 * self.exclusion_bins - 1, 0)
        _require(n_off >= 20, f"[histogram] only {n_off} off-peak bins to estimate the floor; "
                              "need at least 20")


@dataclass(eq=False, repr=False)
class BellConfig(Value):
    """The ``[bell]`` section: the pairs counted at each CHSH setting."""

    counts_per_setting: int

    def __post_init__(self):
        _require(self.counts_per_setting >= 1, "bell counts_per_setting must be >= 1")


@dataclass(eq=False, repr=False)
class HomConfig(Value):
    """The ``[hom]`` section: the HOM curve's delay grid."""

    delay_start_fs: float
    delay_stop_fs: float
    delay_points: int

    def __post_init__(self):
        _require(self.delay_points >= 2, "hom delay grid needs at least 2 points")
        _require(math.isfinite(self.delay_stop_fs - self.delay_start_fs),
                 "hom delay grid must span a finite range")


@dataclass(eq=False, repr=False)
class FringeConfig(Value):
    """The ``[fringe]`` section: the fringe's angle grid and fixed analyzer."""

    theta_start_deg: float
    theta_stop_deg: float
    theta_points: int
    fixed_analyzer: str

    def __post_init__(self):
        object.__setattr__(self, "fixed_analyzer", self.fixed_analyzer.upper())
        _require(self.theta_points >= 8, "fringe grid needs at least 8 points")
        _require(math.isfinite(self.theta_stop_deg - self.theta_start_deg),
                 "fringe theta grid must span a finite range")
        theta_grid = np.linspace(self.theta_start_deg, self.theta_stop_deg, self.theta_points)
        _require(np.ptp(theta_grid) >= 180.0, "[fringe] theta grid must span at least 180 degrees")
        _built("fringe", setting, self.fixed_analyzer)


@dataclass(eq=False, repr=False)
class RunConfig(Value):
    """The ``[run]`` section: the master seed and the bootstrap replicate count."""

    seed: int
    bootstrap_samples: int

    def __post_init__(self):
        _require(self.seed >= 0, "run seed must be nonnegative")
        _require(self.bootstrap_samples >= 0, "run bootstrap_samples must be nonnegative")
        # not a limit of the bootstrap's one generator: a bound kept so that
        # the same configurations load, far past any count whose table of
        # sampled measures a run could hold
        _require(self.bootstrap_samples <= 2**32, "run bootstrap_samples must be at most 2**32")
        # one replicate has no sample spread: its sigmas would all be NaN
        _require(self.bootstrap_samples != 1, "run bootstrap_samples must be 0 or at least 2")


@dataclass(eq=False, repr=False)
class ExperimentConfig(Value):
    """The whole configuration: one field per INI section."""

    crystal: CrystalConfig
    calibration: CalibrationConfig
    pump: PumpConfig
    film: FilmStack
    spectrum: SpectrumConfig
    filters: FiltersConfig
    detector_response: DetectorResponseConfig
    noise: NoiseConfig
    tomography: TomographyConfig
    histogram: HistogramConfig
    bell: BellConfig
    delay_line: DelayLine
    hom: HomConfig
    fringe: FringeConfig
    run: RunConfig

    def __post_init__(self):
        # the grid's extreme detunings put the signal and idler at v0 +- span
        # (v0 = v_p / 2): every [film] index model must hold there and at the
        # pump before any stage runs, not only when the spectrum is built
        nu0 = C_NM_THZ / self.pump.wavelength_nm / 2.0
        span = self.spectrum.span_thz
        _require(span < nu0, f"spectrum span_thz must stay below the degenerate {nu0:.6g} THz")
        _built("spectrum", self.film.indices, [2.0 * nu0, nu0 + span, nu0 - span])
        # past half its period, the HOM curve on this grid repeats itself
        _built("hom", check_delays, span, self.spectrum.points,
               (self.hom.delay_start_fs, self.hom.delay_stop_fs))


def _read_parser(path) -> configparser.ConfigParser:
    # values are plain literals: a "%" in one is no interpolation syntax
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"), interpolation=None)
    with resources.files("spdcfilm.data").joinpath("default.cfg").open(encoding="utf-8") as f:
        parser.read_file(f)
    if path is not None:
        try:
            loaded = parser.read(str(path), encoding="utf-8-sig")  # a BOM is skipped
        except (configparser.Error, UnicodeDecodeError) as exc:
            raise ConfigError(f"malformed config file {path}: {exc}") from None
        _require(bool(loaded), f"config file not found or unreadable: {path}")
    sections = {f.name: f.type for f in fields(ExperimentConfig)}
    for section in parser.sections():
        _require(section in sections, f"unknown config section [{section}]")
        known = {f.name for f in fields(sections[section])}
        for key in parser[section]:
            _require(key in known, f"unknown key '{key}' in section [{section}]")
    return parser


def _number(raw: str, section: str, key: str) -> float:
    try:
        value = float(raw)
    except ValueError as exc:
        raise ConfigError(f"[{section}] {key} must be a number") from exc
    _require(math.isfinite(value), f"[{section}] {key} must be a finite number")
    return value


def _number_or_auto(raw: str, section: str, key: str):
    return None if raw.strip().lower() == "auto" else _number(raw, section, key)


def _integer(raw: str, section: str, key: str) -> int:
    try:
        return int(raw)
    except ValueError as exc:
        raise ConfigError(f"[{section}] {key} must be an integer") from exc


def _numbers(raw: str, section: str, key: str) -> tuple:
    try:
        values = tuple(float(tok) for tok in raw.replace(",", " ").split())
    except ValueError as exc:
        raise ConfigError(f"[{section}] {key} must be a list of numbers, got {raw!r}") from exc
    _require(all(map(math.isfinite, values)), f"[{section}] {key} must be a finite number")
    return values


def _index_model(raw: str, section: str, key: str):
    try:  # a material name, or a number for a constant index
        float(raw)
    except ValueError:
        return raw.strip()
    return _number(raw, section, key)


#: parser of each field annotation used in the section dataclasses
_PARSERS = {
    float: _number,
    float | None: _number_or_auto,
    int: _integer,
    tuple: _numbers,
    object: _index_model,
    str: lambda raw, *where: raw.strip(),
}


def load_config(path=None) -> ExperimentConfig:
    """Load the packaged defaults, overlaid by ``path`` if given.

    Every section is the dataclass of the same-named ``ExperimentConfig``
    field, and each key is parsed by the annotation of its field. A section
    that rejects its values raises a ConfigError naming it. The file is read
    as UTF-8, a leading byte-order mark skipped; a file that is not UTF-8
    raises a ConfigError.
    """
    parser = _read_parser(path)
    return ExperimentConfig(**{
        section.name: _built(section.name, section.type, **{
            f.name: _PARSERS[f.type](parser.get(section.name, f.name), section.name, f.name)
            for f in fields(section.type)
        })
        for section in fields(ExperimentConfig)
    })
