"""End-to-end simulated run: generation, tomography, Bell test, spectra.

``run_experiment`` wires the physics modules into one reproducible
pipeline: orient the film, generate the pump-dependent qutrit, mix in the
documented noise, simulate per-setting coincidence histograms, subtract
accidentals, reconstruct the state, derive entanglement measures with
parametric-bootstrap errors, run the finite-statistics CHSH test on the
reconstructed state, and evaluate the pair spectrum, HOM curves, and the
calcite delay-line scan. All randomness derives from one master seed, so a
given (config, seed) pair always produces byte-identical canonical output.

The run has five stages. Each returns a frozen result whose ``to_json()``
builds fresh dicts and lists of the ``report.json`` sections it owns, and
whose ``encoded()`` returns their indented text and its CSV sidecars' bytes.
An ``ExperimentReport`` holds the seed and the five results; its ``summary``
and ``write_report`` read nothing else.

Three stages do not depend on the seed. Each takes the ``ExperimentConfig``
and is memoized on the sections it reads for the last ``_MEMO_CONFIGS``
configurations, so a seed sweep or a CLI command after a run pays for it once:

* ``source_model`` -> ``SourceModel`` (orientation, H/V and configured-pump
  amplitudes, depolarized qutrit, its CHSH value): ``[crystal]``,
  ``[calibration]``, ``[pump]``, the ``[noise]`` depolarization. The
  orientation alone is memoized on the first two; its fit takes the
  ``[calibration]`` section as it is.
* ``spectral_section`` -> ``SpectralSection`` (pair spectrum, HOM curves and
  widths): ``[spectrum]``, ``[film]``, the ``[pump]`` wavelength,
  ``[filters]``, ``[detector_response]``, ``[hom]``. The spectrum is the grid
  and the pair intensity |Phi|**2 times the filter band and the detector
  response, formed once and checked once (``check_spectrum``); the width
  kernel takes the two arrays, the HOM kernels their fold onto W >= 0, and
  none checks again.
* ``delay_line_scan`` -> ``DelayScan`` (calcite delay scan): ``[delay_line]``,
  which is the line itself (``delayline.DelayLine``); ``delay_scan`` scans it.

Their arrays are read-only copies, shared by every run of the configuration,
and each kind caches ``encoded()`` by identity for the last ``_MEMO_CONFIGS``
results, however many reports hold them.

The two seeded stages run once per run on its integer seed:
``simulate_tomography(cfg, seed)`` draws the histograms (``simulate_histograms``)
and hands their records to ``analyze_tomography``, which analyzes measured
records too and draws the bootstrap; ``simulate_bell(cfg, tomography, seed)``
tests the reconstructed state. Each seeded step makes one generator of its
own ``_stream`` of the seed (the bootstrap's stream is made only when there
is a replicate), so a stage draws the run's numbers whichever stages ran
before it.

What the seeded stages read of the configuration alone is made once per
configuration too, so a warm run only draws, fits and fills in its numbers:
the model state's rates at the ``default_protocol()`` settings
(``SourceModel.protocol_rates``), the ``[histogram]`` grid's read-only bin
delays (``_bin_delays``), the ``[fringe]`` angles and arm A's kets at them
(``_fringe_grid``), and ``fringe.csv``'s text with its angle column written
(``_fringe_rows``), whose slots the curve's rates fill. The seeded stages'
``report.json`` sections are filled the same way: a template per section
shape (``_SectionTemplates``) takes the run's floats.

A state enters a run at two places, and each checks it once:
``source_model`` checks the model state (``purity``, through
``check_density_matrix``), and ``tomography.estimate`` checks the spectrum
``reconstruct`` returns with the bootstrap replicates' in one pass. A warm
run makes one ``eigh`` call for the fit, one more per block of up to 1,024
replicates, and one spectrum check per block: two calls and one check with
the packaged 100 replicates, and one of each without replicates (``[run]
bootstrap_samples = 0``), when the fit is checked alone. The functions that
take a state after that (``forward_rates``, ``fringe_rates``,
``split_postselect_rho``, ``chsh_value``, ``simulate_chsh``) check nothing
again. The nine settings' coincidence histograms are one ``simulate_counts``
count array, which one ``subtract_accidentals`` pass reduces to the records
table and which ``TomographyResult`` holds as it was drawn, with the bin
grid's delays.
"""

from __future__ import annotations

import functools
import itertools
import json
import operator
import os
import stat
from dataclasses import asdict, dataclass
from math import isfinite
from pathlib import Path

import numpy as np

from . import bell as bell_mod
from .config import ExperimentConfig, PumpConfig
from .crystal import (
    CrystalOrientation,
    SpdcResult,
    calibrate_azimuth,
    calibrate_orientation,
    chi2_zincblende,
    normal_axis_angles,
    spdc_amplitudes,
    weight_residual,
)
from .delayline import delay_scan
from .errors import ConfigError
from .frozen import Record, Value
from .histogram import bin_centers, simulate_counts, subtract_accidentals
from .polarization import pump_ket
from .qutrit import concurrence, concurrence_bounds, depolarize, purity, schmidt_number
from .spectral import (
    DETECTOR_RESPONSES,
    check_spectrum,
    default_grid,
    hom_fwhm,
    intensity_fwhm,
    interference_contrast,
    joint_spectrum,
    longpass_pair_response,
)
from .tomography import (
    CoincidenceRecords,
    FitReport,
    default_protocol,
    estimate,
    forward_rates,
    fringe_kets,
    fringe_rates,
)

SCHEMA_VERSION = 1

#: configurations each seed-free stage's memo, and each encoding cache, holds
_MEMO_CONFIGS = 4

#: the spawn key of each seeded step's ``_stream``; a new step takes the next unused one
HISTOGRAMS_KEY, BOOTSTRAP_KEY, CHSH_KEY = 0, 1, 2


def _checked_seed(seed) -> int:
    """``seed`` as an int: a non-integer (``operator.index``) raises TypeError,
    a negative one ConfigError, as a configured one does."""
    seed = operator.index(seed)
    if seed < 0:
        raise ConfigError("run seed must be nonnegative")
    return seed


def _stream(seed, key: int) -> np.random.SeedSequence:
    """A seeded step's stream of a ``_checked_seed``, ``SeedSequence(seed).spawn``'s
    child at ``key``."""
    return np.random.SeedSequence(_checked_seed(seed), spawn_key=(key,))


def _memoized(sections):
    """Decorator: the stage computed from, and memoized on, ``sections(*args)``
    (frozen, hashable config sections, or a curve's angles) for the last
    ``_MEMO_CONFIGS`` distinct ones. The body takes the sections alone, so it cannot read one its key
    misses. The key holds their repr beside them: sections compare equal when
    they differ only in the sign of a zero, which a stage may print.

    A call first looks the stage up by the identity of its arguments, among
    the last ``_MEMO_CONFIGS`` argument tuples seen, so the repr is formed
    once per configuration object. Each entry keeps its arguments, so their
    ids cannot be reused while it stands.
    """

    def decorate(stage):
        cached = functools.lru_cache(maxsize=_MEMO_CONFIGS)(lambda _repr, *key: stage(*key))
        by_identity = {}  # argument ids -> (arguments, result), oldest first

        def memo(*args):
            ids = tuple(map(id, args))
            entry = by_identity.get(ids)
            if entry is None:
                key = sections(*args)
                entry = by_identity[ids] = (args, cached(repr(key), *key))
                if len(by_identity) > _MEMO_CONFIGS:
                    del by_identity[next(iter(by_identity))]
            return entry[1]

        def cache_clear():
            by_identity.clear()
            cached.cache_clear()

        memo.__name__, memo.__qualname__, memo.__doc__ = (
            stage.__name__, stage.__qualname__, stage.__doc__)
        memo.cache_clear = cache_clear
        return memo

    return decorate


#: JSON text of a string (``ensure_ascii``) and of a finite float, as ``json.dumps`` writes them
_STRING_TEXT, _FLOAT_TEXT = json.encoder.encode_basestring_ascii, float.__repr__


def _json_text(value, newline: str) -> str:
    """``value`` as ``json.dumps(value, indent=2, sort_keys=True,
    allow_nan=False)`` renders it, with ``newline`` (a newline and the
    current indent) in place of each of its newlines. It renders as the
    stdlib's own encoder does, which for ``indent`` is pure Python: a
    subclass of str, int, float, list or dict (``np.float64``, say) as its
    base, a tuple as a list, a dict by its keys (strings) sorted; a NaN or
    an infinity raises the stdlib's ValueError, any other type its TypeError."""
    kind = type(value)
    if kind is float or isinstance(value, float):
        if isfinite(value):
            return _FLOAT_TEXT(value)
        raise ValueError("Out of range float values are not JSON compliant: " + repr(value))
    # a finite float item is rendered in place: most items are, and a call costs more
    if kind is dict or isinstance(value, dict):
        inner = newline + "  "
        items = [f"{_STRING_TEXT(key)}: "
                 + (_FLOAT_TEXT(item) if type(item) is float and isfinite(item)
                    else _json_text(item, inner)) for key, item in sorted(value.items())]
        return "{" + inner + ("," + inner).join(items) + newline + "}" if items else "{}"
    if kind is list or isinstance(value, (list, tuple)):
        inner = newline + "  "
        items = [_FLOAT_TEXT(item) if type(item) is float and isfinite(item)
                 else _json_text(item, inner) for item in value]
        return "[" + inner + ("," + inner).join(items) + newline + "]" if items else "[]"
    if isinstance(value, str):
        return _STRING_TEXT(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    raise TypeError(f"Object of type {value.__class__.__name__} is not JSON serializable")


def _section_text(value) -> str:
    """``value`` as ``report.json`` holds it one level in: the text of
    ``json.dumps(value, indent=2, sort_keys=True, allow_nan=False)`` with
    every line after the first indented two more spaces. ``_json_text``
    renders it, not the ``json`` module, whose indented dump runs in pure
    Python; tests pin its bytes to the stdlib's."""
    return _json_text(value, "\n  ")


def _json_bytes(texts: dict) -> bytes:
    """``json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"`` of
    a non-empty ``obj``, from the ``_section_text`` of each of its values: one
    join of the key and section texts, encoded once."""
    parts = ["{\n  "]
    for key in sorted(texts):
        parts += _STRING_TEXT(key), ": ", texts[key], ",\n  "
    parts[-1] = "\n}\n"
    return "".join(parts).encode()


def report_json_bytes(sections: dict) -> bytes:
    """The bytes ``report.json`` renders for a non-empty dict of sections:
    ``json.dumps(sections, indent=2, sort_keys=True, allow_nan=False) + "\n"``."""
    return _json_bytes({key: _section_text(value) for key, value in sections.items()})


def _encoded(sections: dict, *sidecars) -> tuple:
    """A result's ``encoded()``: the ``_section_text`` of each of its
    ``report.json`` sections, and its sidecars' (name, bytes) pairs."""
    return {key: _section_text(value) for key, value in sections.items()}, sidecars


#: what a template's rendering holds at each float, before it becomes a ``%s`` slot
_SLOT = "\0"
_SLOT_TEXT = _STRING_TEXT(_SLOT)


def _slotted(value):
    """``value`` with ``_SLOT`` in place of each float in it (a subclass too)."""
    if isinstance(value, float):
        return _SLOT
    if isinstance(value, dict):
        return {key: _slotted(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_slotted(item) for item in value]
    return value


def _filled(template: str, leaves) -> str | None:
    """``template`` with its ``%s`` slots filled with the JSON text of the
    floats ``leaves``, a subclass as its base; None when a leaf is not a
    finite float or the slots are not one per leaf."""
    try:
        if all(map(isfinite, leaves)):
            return template % tuple(map(_FLOAT_TEXT, leaves))
    except (TypeError, OverflowError):
        pass
    return None


class _SectionTemplates(dict):
    """shape -> the text of one ``report.json`` section of that shape with a
    ``%s`` slot at each float, for the last ``_MEMO_CONFIGS`` shapes. A shape
    is what sets the section's layout besides its floats: the result kind
    says what, and gathers the floats (its leaves) in the order
    ``_json_text`` renders them, with no tree built."""

    def __init__(self, key: str):
        super().__init__()
        self.key = key

    cache_clear = dict.clear

    def text(self, result, shape, leaves) -> str:
        """``_section_text`` of ``result.to_json()[key]``: the template of
        ``shape`` filled with ``leaves``. A new shape's template is made from
        one rendering of the section with ``_SLOT`` at each float, and is kept
        only if filling it with ``leaves`` gives the section's text. A leaf
        that is not a finite float takes the section's own rendering, which
        renders it or raises ``_json_text``'s ValueError or TypeError."""
        template = self.get(shape)
        if template is not None:
            text = _filled(template, leaves)
            if text is not None:
                return text
        section = result.to_json()[self.key]
        text = _section_text(section)
        if template is None:
            template = _section_text(_slotted(section)).replace("%", "%%")
            template = template.replace(_SLOT_TEXT, "%s")
            if _filled(template, leaves) == text:
                self[shape] = template
                if len(self) > _MEMO_CONFIGS:
                    del self[next(iter(self))]
        return text


def complex_json(a) -> list:
    """A complex array as nested lists with one [re, im] pair per element."""
    a = np.asarray(a)
    return np.stack([np.real(a), np.imag(a)], axis=-1).tolist()


def amplitudes_json(res) -> dict:
    """JSON form of one pump's ``SpdcResult``."""
    return {
        "state": complex_json(res.state),
        "weights": res.weights.tolist(),
        "relative_rate": res.relative_rate,
    }


@dataclass(eq=False, repr=False)
class SourceModel(Record):
    """``source_model``'s result: the amplitudes under an H, a V and the
    configured pump, ``rho`` the last one's qutrit after the depolarization,
    ``concurrence`` the pumped ket's and ``purity`` rho's, ``f_model`` rho's
    CHSH value (reported by the run's ``BellResult``), and ``protocol_rates``
    its relative coincidence rates at the ``default_protocol()`` settings
    (``forward_rates`` at scale 1), which a run's histograms are drawn at. The
    arrays are read-only copies."""

    orientation: CrystalOrientation
    calibration_residual: float
    pump: PumpConfig
    depolarization: float
    h_pump: SpdcResult
    v_pump: SpdcResult
    pumped: SpdcResult
    rho: np.ndarray
    concurrence: float
    purity: float
    f_model: float
    protocol_rates: np.ndarray

    def to_json(self) -> dict:
        """The report's orientation, amplitudes, pump and model_state sections."""
        pumped = self.pumped
        return {
            "orientation": {
                **asdict(self.orientation),
                "calibration_residual": self.calibration_residual,
                "normal_axis_angles_deg": normal_axis_angles(self.orientation).tolist(),
            },
            "amplitudes": {
                "h_pump": amplitudes_json(self.h_pump),
                "v_pump": amplitudes_json(self.v_pump),
                "rate_ratio_h_over_v": self.h_pump.relative_rate / self.v_pump.relative_rate,
            },
            "pump": asdict(self.pump),
            "model_state": {
                "weights": pumped.weights.tolist(),
                "concurrence": self.concurrence,
                "schmidt_number": schmidt_number(self.concurrence),
                "depolarization": self.depolarization,
                "purity": self.purity,
                "concurrence_bounds": list(concurrence_bounds(pumped.weights)),
            },
        }

    @functools.lru_cache(maxsize=_MEMO_CONFIGS)
    def encoded(self) -> tuple:
        """``_encoded`` of the four sections, cached by identity."""
        return _encoded(self.to_json())


@_memoized(lambda crystal, calibration: (crystal, calibration))
def _orientation(crystal, calibration):
    """(chi, orientation, calibration residual) of the crystal sections: the
    configured angles, or a fit of the ``auto`` ones to the calibration weights.
    An ``auto`` tilt fits both angles jointly and ignores ``azimuth_deg``; an
    ``auto`` azimuth alone is fitted at the configured tilt."""
    chi = chi2_zincblende(crystal.d_coefficient)
    chi.flags.writeable = False  # shared by every run of the configuration
    tilt, az = crystal.tilt_deg, crystal.azimuth_deg
    if tilt is None:
        orientation, residual = calibrate_orientation(chi, calibration)
    elif az is None:
        fitted_az, residual = calibrate_azimuth(chi, tilt, calibration)
        orientation = CrystalOrientation(tilt, fitted_az)
    else:
        orientation = CrystalOrientation(tilt, az)
        residual = weight_residual(chi, orientation, calibration)
    return chi, orientation, residual


@_memoized(lambda cfg: (cfg.crystal, cfg.calibration, cfg.pump, cfg.noise.depolarization))
def source_model(crystal, calibration, pump, depolarization) -> SourceModel:
    """``source_model(cfg)``: the configuration's ``SourceModel``."""
    chi, orientation, residual = _orientation(crystal, calibration)
    h_pump = spdc_amplitudes(chi, orientation, pump_ket(0.0))
    v_pump = spdc_amplitudes(chi, orientation, pump_ket(90.0))
    pumped = spdc_amplitudes(chi, orientation, pump_ket(pump.angle_deg))
    rho = depolarize(pumped.state, depolarization)
    return SourceModel(
        orientation=orientation,
        calibration_residual=residual,
        pump=pump,
        depolarization=depolarization,
        h_pump=h_pump,
        v_pump=v_pump,
        pumped=pumped,
        rho=rho,
        concurrence=concurrence(pumped.state),
        purity=purity(rho),  # the model state's one check
        f_model=bell_mod.chsh_value(bell_mod.split_postselect_rho(rho),
                                    bell_mod.default_chsh_settings()),
        protocol_rates=forward_rates(rho, default_protocol(), 1.0),
    )


@dataclass(eq=False, repr=False)
class SpectralSection(Record):
    """``spectral_section``'s result: the filtered pair spectrum ``intensity``
    at the detunings ``omega_thz``, and the HOM dip and peak at ``delays_fs``:
    the normalized coincidence rates (1 -+ g) / 2 of the orthogonal (D-A) and
    parallel (D-D) analyzers, 0 and 1 at zero delay, so dip + peak = 1. The
    arrays are read-only copies, so the bytes ``encoded()`` caches stay
    theirs."""

    omega_thz: np.ndarray
    intensity: np.ndarray
    delays_fs: np.ndarray
    r_dip: np.ndarray
    r_peak: np.ndarray
    intensity_fwhm_thz: float
    hom_dip_fwhm_fs: float
    detector_response: str

    def _curve_rows(self):
        return zip(self.delays_fs.tolist(), self.r_dip.tolist(), self.r_peak.tolist())

    def hom_csv(self) -> bytes:
        """``hom.csv``: the dip and peak rate at each delay."""
        return _csv_bytes(["tau_fs", "r_dip", "r_peak"], self._curve_rows())

    def to_json(self) -> dict:
        """The report's ``spectral`` section."""
        return {
            "spectral": {
                "intensity_fwhm_thz": self.intensity_fwhm_thz,
                "hom_dip_fwhm_fs": self.hom_dip_fwhm_fs,
                "detector_response": self.detector_response,
                "hom_curve": [
                    {"tau_fs": t, "r_dip": d, "r_peak": p} for t, d, p in self._curve_rows()
                ],
            }
        }

    @functools.lru_cache(maxsize=_MEMO_CONFIGS)
    def encoded(self) -> tuple:
        """``_encoded`` of the section, ``hom.csv`` and ``spectrum.csv``, cached by identity."""
        spectrum_rows = zip(self.omega_thz.tolist(), self.intensity.tolist())
        return _encoded(
            self.to_json(),
            ("hom.csv", self.hom_csv()),
            ("spectrum.csv", _csv_bytes(["omega_thz", "intensity"], spectrum_rows)),
        )


@_memoized(lambda cfg: (cfg.spectrum, cfg.film, cfg.pump.wavelength_nm, cfg.filters,
                        cfg.detector_response, cfg.hom))
def spectral_section(spectrum, film, pump_nm, filters, detector_response, hom) -> SpectralSection:
    """``spectral_section(cfg)``: the configured film's ``SpectralSection``.

    The intensity is checked (``check_spectrum``) on the full grid, which
    ``default_grid`` makes symmetric. ``interference_contrast`` and
    ``hom_fwhm`` then take its fold onto W >= 0, I(W) + I(-W) with W = 0
    counted once: the same cosine sums with half the terms, on the same
    spacing. The fold is not a checked spectrum (``check_spectrum`` would
    reject it as asymmetric), so the curves and the dip width equal the
    kernels on the full arrays to rounding (2e-15 absolute, 1e-14 relative),
    not bit for bit; ``intensity`` and ``spectrum.csv`` stay the full arrays."""
    omega = default_grid(spectrum.span_thz, spectrum.points)
    phi = joint_spectrum(film, pump_nm, omega)
    band = longpass_pair_response(omega, pump_nm, filters.longpass_cuton_nm,
                                  filters.edge_width_thz)
    detector = DETECTOR_RESPONSES[detector_response.shape](omega, detector_response.fwhm_thz)
    intensity = np.abs(phi) ** 2 * (band * detector)
    check_spectrum(intensity)
    half = omega.size // 2  # omega[half] is W = 0 on an odd grid
    folded = intensity[half:].copy()
    folded[omega.size % 2:] += intensity[:half][::-1]

    delays = np.linspace(hom.delay_start_fs, hom.delay_stop_fs, hom.delay_points)
    g = interference_contrast(omega[half:], folded, delays)  # the dip and peak share one kernel
    return SpectralSection(
        omega_thz=omega,
        intensity=intensity,
        delays_fs=delays,
        r_dip=(1.0 - g) / 2.0,
        r_peak=(1.0 + g) / 2.0,
        intensity_fwhm_thz=intensity_fwhm(omega, intensity),
        hom_dip_fwhm_fs=hom_fwhm(omega[half:], folded),
        detector_response=detector_response.shape,
    )


@dataclass(eq=False, repr=False)
class DelayScan(Record):
    """``delay_line_scan``'s result: ``scan`` holds a (tilt_deg, delay_fs)
    float pair per tilt of the inner plate pair, as a tuple whatever sequence
    it is given; ``delay_at_base_fs`` is the delay with every plate at
    ``base_tilt_deg``."""

    base_tilt_deg: float
    delay_at_base_fs: float
    scan: tuple

    def __post_init__(self):
        object.__setattr__(self, "scan", tuple((float(t), float(d)) for t, d in self.scan))

    def to_json(self) -> dict:
        """The report's ``delay_line`` section."""
        return {
            "delay_line": {
                "base_tilt_deg": self.base_tilt_deg,
                "delay_at_base_fs": self.delay_at_base_fs,
                "scan": [{"tilt_deg": t, "delay_fs": d} for t, d in self.scan],
            }
        }

    @functools.lru_cache(maxsize=_MEMO_CONFIGS)
    def encoded(self) -> tuple:
        """``_encoded`` of the section and ``delay_scan.csv``, cached by identity."""
        return _encoded(self.to_json(),
                        ("delay_scan.csv", _csv_bytes(["tilt_deg", "delay_fs"], self.scan)))


@_memoized(lambda cfg: (cfg.delay_line,))
def delay_line_scan(delay_line) -> DelayScan:
    """``delay_line_scan(cfg)``: the inner plate pair's ``DelayScan``."""
    return DelayScan(
        base_tilt_deg=delay_line.base_tilt_deg,
        delay_at_base_fs=delay_line.delay_fs(delay_line.base_tilt_deg),
        scan=delay_scan(delay_line),
    )


@dataclass(eq=False, repr=False)
class TomographyResult(Record):
    """``analyze_tomography``'s result: the fitted ``records`` table,
    ``measures`` and ``sigmas`` (the report's JSON values, None where
    undefined), ``counts``, the (settings, n_bins) int64 array of the
    coincidence histograms, their bins at the delays ``centers_ns`` (n_bins 0
    for measured records), and ``fringe_curve``, (theta_deg, rate) pairs,
    none when the fringe has no counts."""

    records: CoincidenceRecords
    rho: np.ndarray
    fit: FitReport
    measures: dict
    sigmas: dict
    fixed_analyzer: str
    counts: np.ndarray
    centers_ns: np.ndarray
    fringe_curve: list

    def to_json(self) -> dict:
        """The report's ``tomography`` section."""
        entries = {**self.measures, **self.sigmas}
        diagnostics = dict(vars(self.fit))
        t = self.records
        rows = zip(t.raw.tolist(), t.accidental.tolist(), t.duration_s.tolist(),
                   t.net_sigma.tolist(), t.net.tolist())
        return {
            "tomography": {
                "records": [{"index": m, "raw": r, "accidental": a, "duration_s": d,
                             "net_sigma": s, "net": n} for m, (r, a, d, s, n) in enumerate(rows)],
                "rho": complex_json(self.rho),
                "scale_hz": diagnostics.pop("scale"),
                "fit": diagnostics,
                # a copy of each list, so editing the section leaves the result alone
                **{key: list(v) if isinstance(v, list) else v for key, v in entries.items()},
                "fringe_fixed_analyzer": self.fixed_analyzer,
            }
        }

    def _shape_and_leaves(self) -> tuple:
        """The section's shape and floats for ``_TOMOGRAPHY_TEMPLATES``. The
        shape: the record count (which sets each record's ``index``), rho's
        shape, the fixed analyzer, the fit's rank, and each measure and sigma
        entry's null items, or its type. The floats come from the record
        columns, ``rho``, the fit and the entries, in the section's sorted-key
        order."""
        t, fit, rho = self.records, self.fit, np.asarray(self.rho)
        shape = [len(t), rho.shape, self.fixed_analyzer, type(fit.design_rank), fit.design_rank]
        flat = itertools.chain.from_iterable
        groups = {
            # a record's keys: accidental, duration_s, index (an int), net, net_sigma, raw
            "records": flat(zip(t.accidental.tolist(), t.duration_s.tolist(), t.net.tolist(),
                                t.net_sigma.tolist(), t.raw.tolist())),
            # complex_json's [re, im] of each element
            "rho": flat(zip(np.real(rho).ravel().tolist(), np.imag(rho).ravel().tolist())),
            "scale_hz": (fit.scale,),
            # the fit's keys: condition_number, design_rank (an int), negative_mass_clipped,
            # weighted_rms_residual
            "fit": (fit.condition_number, fit.negative_mass_clipped, fit.weighted_rms_residual),
        }
        for key, value in {**self.measures, **self.sigmas}.items():
            if type(value) is list:
                shape.append((key, tuple([item is None for item in value])))
                groups[key] = [item for item in value if item is not None]
            else:
                shape.append((key, type(value)))
                groups[key] = () if value is None else (value,)
        groups["fringe_fixed_analyzer"] = ()
        return tuple(shape), list(flat(map(groups.get, sorted(groups))))

    def encoded(self) -> tuple:
        """The section's text, ``histogram.csv`` and ``fringe.csv``: the
        section fills its shape's template (``_TOMOGRAPHY_TEMPLATES``) with
        the run's floats, as ``_section_text`` of ``to_json()`` renders it."""
        return {"tomography": _TOMOGRAPHY_TEMPLATES.text(self, *self._shape_and_leaves())}, (
            ("histogram.csv", histogram_csv(self.counts, self.centers_ns)),
            ("fringe.csv", _fringe_csv(self.fringe_curve)),
        )


_TOMOGRAPHY_TEMPLATES = _SectionTemplates("tomography")


def analyze_tomography(cfg: ExperimentConfig, protocol, records, seed) -> TomographyResult:
    """Tomography of ``records``, the ``CoincidenceRecords`` of ``protocol``'s
    settings: the point fit and its measures, the ``[fringe]`` curve, and the
    ``[run] bootstrap_samples`` sigmas drawn from the bootstrap's stream of
    ``seed``, a run's. The result holds no histograms (n_bins 0)."""
    return _analyzed(cfg, protocol, records, seed,
                     np.zeros((len(records), 0), dtype=np.int64), np.zeros(0))


@_memoized(lambda cfg: (cfg.fringe,))
def _fringe_grid(fringe) -> tuple:
    """(angles, kets) of the ``[fringe]`` grid: its angles (degrees) as a
    tuple of floats, which every curve of the configuration shares, and the
    read-only ``fringe_kets`` table of arm A's kets at them."""
    theta_grid = np.linspace(fringe.theta_start_deg, fringe.theta_stop_deg, fringe.theta_points)
    kets = fringe_kets(theta_grid)
    kets.flags.writeable = False
    return tuple(theta_grid.tolist()), kets


def _analyzed(cfg, protocol, records, seed, counts, centers_ns) -> TomographyResult:
    """``analyze_tomography`` of ``records``, with the histograms they were
    reduced from: ``counts`` and their bin delays ``centers_ns``. The
    bootstrap's stream is made only when there is a replicate to draw."""
    fringe, n_boot = cfg.fringe, cfg.run.bootstrap_samples
    seed = _checked_seed(seed)
    stream = _stream(seed, BOOTSTRAP_KEY) if n_boot else None
    rho_hat, fit, measures, sigmas = estimate(records, protocol, n_boot,
                                              fringe.fixed_analyzer, stream)
    curve = []  # no counts at any angle: a null visibility and no curve
    if measures["visibility"] is not None:
        angles, kets = _fringe_grid(cfg)
        curve = list(zip(angles, fringe_rates(rho_hat, fringe.fixed_analyzer, kets).tolist()))
    return TomographyResult(
        records=records, rho=rho_hat, fit=fit, measures=measures, sigmas=sigmas,
        fixed_analyzer=fringe.fixed_analyzer, fringe_curve=curve,
        counts=counts, centers_ns=centers_ns,
    )


@_memoized(lambda cfg: (cfg.histogram,))
def _bin_delays(histogram) -> np.ndarray:
    """The read-only ``bin_centers`` of the ``[histogram]`` grid."""
    centers = bin_centers(histogram)
    centers.flags.writeable = False
    return centers


def simulate_histograms(cfg: ExperimentConfig, seed) -> tuple:
    """``simulate_tomography``'s draw step: the ``simulate_counts`` array of
    the ``default_protocol`` histograms of ``source_model(cfg).rho`` (at its
    ``protocol_rates``), from one generator of the histograms' stream of
    ``seed``, and the grid's read-only bin delays."""
    rng = np.random.default_rng(_stream(seed, HISTOGRAMS_KEY))
    counts = simulate_counts(cfg.noise, cfg.histogram, source_model(cfg).protocol_rates,
                             cfg.tomography.duration_per_setting_s, rng)
    return counts, _bin_delays(cfg)


def simulate_tomography(cfg: ExperimentConfig, seed) -> TomographyResult:
    """Simulated tomography of ``source_model(cfg).rho``: ``analyze_tomography``
    of the records table one ``subtract_accidentals`` pass makes of the
    ``simulate_histograms`` counts, accidental = raw - net, in a result that
    holds the counts, made read-only as they were drawn (no copy)."""
    counts, centers = simulate_histograms(cfg, seed)
    counts.flags.writeable = False
    raw, net, sigma = subtract_accidentals(counts, cfg.histogram.exclusion_bins)
    records = CoincidenceRecords(raw, raw - net,
                                 np.full(len(raw), cfg.tomography.duration_per_setting_s), sigma)
    return _analyzed(cfg, default_protocol(), records, seed, counts, centers)


@dataclass(eq=False, repr=False)
class BellResult(Value):
    """``simulate_bell``'s result: the report's ``bell`` section, the model
    state's ``f_model`` included."""

    f_model: float
    f_reconstructed: float
    f_simulated: float
    sigma_f: float
    std_devs_above_classical: float | None
    counts_per_setting: int

    def to_json(self) -> dict:
        """The report's ``bell`` section."""
        return {"bell": asdict(self)}

    def encoded(self) -> tuple:
        """The section's text, which fills its shape's template
        (``_BELL_TEMPLATES``), keyed by ``counts_per_setting`` and whether
        ``std_devs_above_classical`` is null, with the CHSH floats; it has no
        sidecar."""
        counts, std_devs = self.counts_per_setting, self.std_devs_above_classical
        leaves = [self.f_model, self.f_reconstructed, self.f_simulated, self.sigma_f]
        if std_devs is not None:
            leaves.append(std_devs)
        shape = (type(counts), counts, type(std_devs))
        return {"bell": _BELL_TEMPLATES.text(self, shape, leaves)}, ()


_BELL_TEMPLATES = _SectionTemplates("bell")


def simulate_bell(cfg: ExperimentConfig, tomography: TomographyResult, seed) -> BellResult:
    """The CHSH test of the reconstructed ``tomography.rho`` at
    ``default_chsh_settings()``, beside the model state's
    ``source_model(cfg).f_model``: ``[bell] counts_per_setting`` pairs per
    setting, drawn from one generator of the CHSH test's stream of ``seed``.
    The state is taken as checked, as ``simulate_tomography`` returns it."""
    rho4 = bell_mod.split_postselect_rho(tomography.rho)
    settings = bell_mod.default_chsh_settings()
    f_sim, sigma_f, std_devs = bell_mod.simulate_chsh(
        rho4, cfg.bell.counts_per_setting, np.random.default_rng(_stream(seed, CHSH_KEY)), settings)
    return BellResult(
        f_model=source_model(cfg).f_model,
        f_reconstructed=bell_mod.chsh_value(rho4, settings),
        f_simulated=f_sim,
        sigma_f=sigma_f,
        std_devs_above_classical=std_devs,
        counts_per_setting=cfg.bell.counts_per_setting,
    )


@dataclass(eq=False, repr=False)
class ExperimentReport(Value):
    """Everything one simulated run produced: its master ``seed`` and its five
    stage results (the seed-free ones shared by every run of the configuration).
    ``summary`` is rebuilt from them on each access, so editing it changes
    neither the report nor its files: edit the results with ``replace``."""

    seed: int
    source: SourceModel
    tomography: TomographyResult
    bell: BellResult
    spectral: SpectralSection
    delay_scan: DelayScan

    @property
    def results(self) -> tuple:
        """The five stage results, in the order their sidecars are written."""
        return self.source, self.tomography, self.bell, self.spectral, self.delay_scan

    @property
    def summary(self) -> dict:
        """``report.json``'s content, as a fresh JSON-safe dictionary."""
        summary = {"schema_version": SCHEMA_VERSION, "seed": self.seed}
        for result in self.results:
            summary.update(result.to_json())
        return summary


def run_experiment(cfg: ExperimentConfig, seed=None) -> ExperimentReport:
    """Simulate one full characterization run of the film pair source at ``seed``."""
    seed = operator.index(cfg.run.seed if seed is None else seed)
    tomography = simulate_tomography(cfg, seed)
    return ExperimentReport(
        seed=seed,
        source=source_model(cfg),
        tomography=tomography,
        bell=simulate_bell(cfg, tomography, seed),
        spectral=spectral_section(cfg),
        delay_scan=delay_line_scan(cfg),
    )


#: rows a sidecar encodes at a time: bounds the text held while encoding
_CSV_BLOCK_ROWS = 1024


def _csv_bytes(header, rows) -> bytes:
    """The bytes ``csv.writer`` writes for a header and rows of numbers, each
    row a tuple with one number per header field: str() of each cell, CRLF
    line ends. Encoded ``_CSV_BLOCK_ROWS`` rows at a time, each row through
    one ``%s`` template, into one bytes object, so no list of every row's
    text is held."""
    rows = iter(rows)
    encoded = bytearray((",".join(header) + "\r\n").encode())
    row_text = ",".join(["%s"] * len(header)) + "\r\n"  # %s is str(), as csv.writer's
    while block := list(itertools.islice(rows, _CSV_BLOCK_ROWS)):
        encoded += "".join(map(row_text.__mod__, block)).encode()
    return bytes(encoded)


@_memoized(lambda *angles: angles)
def _fringe_rows(*angles) -> str:
    """``fringe.csv``'s text at these angles with a ``%s`` slot for each rate:
    the header, then ``str(angle),%s`` lines. Looked up first by the identity
    of the angles, which every curve of a configuration shares
    (``_fringe_grid``), then by their repr, so -0.0 is not 0.0."""
    lines = (str(angle).replace("%", "%%") + ",%s\r\n" for angle in angles)
    return "theta_deg,rate\r\n" + "".join(lines)


def _fringe_csv(curve) -> bytes:
    """``fringe.csv`` of (theta, rate) pairs, as ``_csv_bytes`` writes it: the
    rates fill ``_fringe_rows`` of the angles, ``%s`` being str()."""
    if not curve:
        return _csv_bytes(["theta_deg", "rate"], ())
    angles, rates = zip(*curve)
    return (_fringe_rows(*angles) % rates).encode()


class _RowTemplates(dict):
    """setting index -> the ``histogram.csv`` rows of one bin grid, with a
    ``%d`` for each count: ``setting_index,delta_t_ns,%d`` byte lines joined
    ``_CSV_BLOCK_ROWS`` to a template. Made on first use, from each delay's
    ``delta_t_ns,%d`` line, formatted once and shared by every setting."""

    def __init__(self, delta_t):
        super().__init__()
        lines = [f"{t},%d\r\n".encode() for t in delta_t]
        self.blocks = [lines[start:start + _CSV_BLOCK_ROWS]
                       for start in range(0, len(lines), _CSV_BLOCK_ROWS)]

    def __missing__(self, m):
        index = b"%d," % m
        self[m] = templates = [index + index.join(block) for block in self.blocks]
        return templates


@functools.lru_cache(maxsize=_MEMO_CONFIGS)
def _histogram_row_templates(dtype: str, centers: bytes) -> _RowTemplates:
    """The row templates of the bin grid with these centers: keyed on their
    dtype and bytes, so -0.0 and 0.0 are different grids."""
    return _RowTemplates(np.frombuffer(centers, dtype=dtype).tolist())


def histogram_csv(counts, centers_ns) -> bytes:
    """``histogram.csv`` of an integer count array with bins at the delays
    ``centers_ns``: the cached row templates filled with each count, whose
    ``%d`` text is its str(). Counts of another dtype raise TypeError: ``%d``
    would print a float count truncated."""
    if counts.dtype.kind not in "iu":
        raise TypeError(f"histogram counts must be integers, not {counts.dtype}")
    encoded = bytearray(b"setting_index,delta_t_ns,counts\r\n")
    templates = _histogram_row_templates(centers_ns.dtype.str, centers_ns.tobytes())
    for m, row in enumerate(counts.tolist()):
        for start, template in zip(range(0, len(row), _CSV_BLOCK_ROWS), templates[m]):
            encoded += template % tuple(row[start:start + _CSV_BLOCK_ROWS])
    return bytes(encoded)


def write_report(report: ExperimentReport, out_dir) -> list:
    """Write report.json plus CSV sidecars; returns the written paths.

    ``report.json`` is ``_json_bytes`` of ``schema_version``, ``seed`` and each
    stage result's ``encoded()`` sections, so it holds ``report.summary``. The
    package's ``_json_text`` renders every section, to the bytes that
    ``json.dumps(summary, indent=2, sort_keys=True)`` writes (tests pin them to
    the stdlib's): the seed-free ones once per configuration, the seeded
    ``tomography`` and ``bell`` once per shape, as a template that each run
    fills with its floats (``_SectionTemplates``), so a warm write builds no
    ``to_json()`` tree of them. The sidecars follow in the order of
    ``report.results``.

    Each sidecar holds the bytes ``csv.writer`` writes for its rows: str() of
    each number, CRLF line ends. The seed-free results encode theirs once.
    ``histogram.csv`` fills row templates made once per bin grid (matched by
    its dtype and bytes) with the counts.

    Every file is encoded before the first one is opened, so a report that
    fails to encode (a NaN seed, say) leaves the directory as it was. Existing
    files are overwritten in place and cut to the new length: like a
    truncating write, this is not atomic, and a reader that looks while the
    report is written can see a mix of the old and the new bytes.
    """
    texts, sidecars = _encoded({"schema_version": SCHEMA_VERSION, "seed": report.seed})
    for result in report.results:
        result_texts, result_sidecars = result.encoded()
        texts.update(result_texts)
        sidecars += result_sidecars
    files = [("report.json", _json_bytes(texts)), *sidecars]
    out = Path(out_dir)
    if not out.is_dir():  # a rewrite of a report's directory makes none
        out.mkdir(parents=True, exist_ok=True)
    paths = []
    for name, data in files:
        paths.append(out / name)
        write_bytes(paths[-1], data)
    return paths


def write_bytes(path, data: bytes) -> None:
    """Write ``data`` to ``path``, created with mode 0o666 less the umask.

    An existing file is opened without ``O_TRUNC``, overwritten and then cut
    to ``len(data)`` if it was longer: truncating a file that holds data on
    open costs ext4 a flush (``auto_da_alloc``) that a same-size rewrite
    never pays. Only a regular file is cut; ``ftruncate`` fails on
    ``/dev/null`` or a pipe. The bytes go to the descriptor with
    ``os.write``, through no Python buffer.
    """
    # O_BINARY (Windows only) keeps the CRLF sidecars' bytes as they are
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0), 0o666)
    try:
        old = os.fstat(fd)
        left = memoryview(data)
        while left:  # a pipe may take fewer bytes than it is given
            left = left[os.write(fd, left):]
        if stat.S_ISREG(old.st_mode) and old.st_size > len(data):
            os.ftruncate(fd, len(data))
    finally:
        os.close(fd)
