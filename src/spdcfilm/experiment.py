"""End-to-end simulated run: generation, tomography, Bell test, spectra.

``run_experiment`` wires the physics modules into one reproducible
pipeline: orient the film, generate the pump-dependent qutrit, mix in the
documented noise, simulate per-setting coincidence histograms, subtract
accidentals, reconstruct the state, derive entanglement measures with
parametric-bootstrap errors, run the finite-statistics CHSH test on the
reconstructed state, and evaluate the pair spectrum, HOM curves, and the
calcite delay-line scan. All randomness derives from one master seed: its
SeedSequence spawns three children in a fixed order, and each seeded step
draws from one generator of its child, so a given (config, seed) pair always
produces byte-identical canonical output.

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

The two seeded stages run once per run, in this order, on one
``SeedSequence(seed)``: ``simulate_tomography(cfg, seed_seq)`` draws the
histograms (``simulate_histograms``, child 0) and hands their records to
``analyze_tomography``, which analyzes measured records too and draws the
bootstrap (child 1), then ``simulate_bell(cfg, tomography, seed_seq)`` tests
the reconstructed state (child 2). Each child makes one generator, the
bootstrap's only when there is a replicate. A caller that passes one
sequence to both in that order draws the run's numbers.

A state enters a run at two places, and each checks it once:
``source_model`` checks the model state (``purity``, through
``check_density_matrix``), and ``tomography.point_measures`` checks the
spectrum ``reconstruct`` returns, as ``bootstrap_sigmas`` checks each
replicate's: a warm run makes two ``eigh`` calls. The functions that take a
state after that (``forward_rates``, ``fringe_curve``,
``split_postselect_rho``, ``chsh_value``, ``simulate_chsh``) check nothing
again. The nine settings' coincidence histograms are one ``simulate_counts``
count array, which one ``subtract_accidentals`` pass reduces to the records
and which ``TomographyResult`` holds as it was drawn, with the bin grid's
delays.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import stat
from dataclasses import asdict, dataclass, replace
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
    CoincidenceRecord,
    FitReport,
    bootstrap_sigmas,
    default_protocol,
    forward_rates,
    fringe_curve,
    point_measures,
    reconstruct,
)

SCHEMA_VERSION = 1

#: configurations each seed-free stage's memo, and each encoding cache, holds
_MEMO_CONFIGS = 4


def _memoized(sections):
    """Decorator: the stage computed from, and memoized on, ``sections(*args)``
    (frozen, hashable config sections) for the last ``_MEMO_CONFIGS`` distinct
    ones. The body takes the sections alone, so it cannot read one its key
    misses. The key holds their repr beside them: sections compare equal when
    they differ only in the sign of a zero, which a stage may print.
    """

    def decorate(stage):
        cached = functools.lru_cache(maxsize=_MEMO_CONFIGS)(lambda _repr, *key: stage(*key))

        def memo(*args):
            key = sections(*args)
            return cached(repr(key), *key)

        memo.__name__, memo.__qualname__, memo.__doc__ = (
            stage.__name__, stage.__qualname__, stage.__doc__)
        memo.cache_clear = cached.cache_clear
        return memo

    return decorate


def _read_only_copy(a) -> np.ndarray:
    """A read-only copy of ``a``, whose memory no other array shares."""
    a = np.array(a)
    a.flags.writeable = False
    return a


def _set_read_only_copies(result, *names):
    """Make each named field of a frozen result a read-only copy of its array."""
    for name in names:
        object.__setattr__(result, name, _read_only_copy(getattr(result, name)))


def _section_text(value) -> str:
    """``value`` as ``report.json`` holds it one level in: its ``indent=2``,
    sorted-key, strict JSON text with every line after the first indented two
    more spaces (JSON text has raw newlines only from indentation)."""
    return json.dumps(value, indent=2, sort_keys=True, allow_nan=False).replace("\n", "\n  ")


def _json_bytes(texts: dict) -> bytes:
    """``json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"`` of
    a non-empty ``obj``, from the ``_section_text`` of each of its values."""
    body = ",\n".join(f"  {json.dumps(key)}: {texts[key]}" for key in sorted(texts))
    return ("{\n" + body + "\n}\n").encode()


def report_json_bytes(sections: dict) -> bytes:
    """The bytes ``report.json`` renders for a non-empty dict of sections:
    ``json.dumps(sections, indent=2, sort_keys=True, allow_nan=False) + "\n"``."""
    return _json_bytes({key: _section_text(value) for key, value in sections.items()})


def _encoded(sections: dict, *sidecars) -> tuple:
    """A result's ``encoded()``: the ``_section_text`` of each of its
    ``report.json`` sections, and its sidecars' (name, bytes) pairs."""
    return {key: _section_text(value) for key, value in sections.items()}, sidecars


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
    ``concurrence`` the pumped ket's and ``purity`` rho's, and ``f_model``
    rho's CHSH value (reported by the run's ``BellResult``). The arrays are
    read-only copies."""

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

    def __post_init__(self):
        for name in ("h_pump", "v_pump", "pumped"):
            res = getattr(self, name)
            object.__setattr__(self, name, replace(res, state=_read_only_copy(res.state)))
        _set_read_only_copies(self, "rho")

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
    chi = _read_only_copy(chi2_zincblende(crystal.d_coefficient))
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

    def __post_init__(self):
        _set_read_only_copies(self, "omega_thz", "intensity", "delays_fs", "r_dip", "r_peak")

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
    """``analyze_tomography``'s result. ``measures`` and ``sigmas`` hold the
    report's JSON values (None where undefined); ``counts`` is the
    (settings, n_bins) int64 array of the coincidence histograms, their bins
    at the delays ``centers_ns`` (n_bins 0 for measured records);
    ``fringe_curve`` holds (theta_deg, rate) pairs, none when the fringe has no counts."""

    records: list
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
        return {
            "tomography": {
                "records": [{**vars(r), "net": r.net} for r in self.records],
                "rho": complex_json(self.rho),
                "scale_hz": diagnostics.pop("scale"),
                "fit": diagnostics,
                # a copy of each list, so editing the section leaves the result alone
                **{key: list(v) if isinstance(v, list) else v for key, v in entries.items()},
                "fringe_fixed_analyzer": self.fixed_analyzer,
            }
        }

    def encoded(self) -> tuple:
        """``_encoded`` of the section, ``histogram.csv`` and ``fringe.csv``."""
        return _encoded(
            self.to_json(),
            ("histogram.csv", histogram_csv(self.counts, self.centers_ns)),
            ("fringe.csv", _csv_bytes(["theta_deg", "rate"], self.fringe_curve)),
        )


def analyze_tomography(cfg: ExperimentConfig, protocol, records, seed_seq) -> TomographyResult:
    """Tomography of ``records``, the net counts of ``protocol``'s settings in
    order: the point fit and its measures, the ``[fringe]`` curve, and the
    ``[run] bootstrap_samples`` sigmas drawn from the next spawned child of
    ``seed_seq``. The result holds no histograms (n_bins 0)."""
    rho_hat, fit, (vals, vecs) = reconstruct(records, protocol)
    fringe = cfg.fringe
    measures = point_measures(vals, vecs, fringe.fixed_analyzer)
    curve = []  # no counts at any angle: a null visibility and no curve
    if measures["visibility"] is not None:
        theta_grid = np.linspace(fringe.theta_start_deg, fringe.theta_stop_deg, fringe.theta_points)
        curve = fringe_curve(rho_hat, fringe.fixed_analyzer, theta_grid)
    boot_seq = seed_seq.spawn(1)[0]
    return TomographyResult(
        records=records, rho=rho_hat, fit=fit, measures=measures,
        sigmas=bootstrap_sigmas(rho_hat, fit.scale, records, protocol,
                                cfg.run.bootstrap_samples, fringe.fixed_analyzer, boot_seq),
        fixed_analyzer=fringe.fixed_analyzer, fringe_curve=curve,
        counts=np.zeros((len(records), 0), dtype=np.int64), centers_ns=np.zeros(0),
    )


def simulate_histograms(cfg: ExperimentConfig, seed_seq) -> tuple:
    """``simulate_tomography``'s draw step: the ``simulate_counts`` array of
    the ``default_protocol`` histograms of ``source_model(cfg).rho``, from one
    generator of the next spawned child of ``seed_seq``, and its bin delays."""
    rel_rates = forward_rates(source_model(cfg).rho, default_protocol(), 1.0)
    counts = simulate_counts(cfg.noise, cfg.histogram, rel_rates,
                             cfg.tomography.duration_per_setting_s,
                             np.random.default_rng(seed_seq.spawn(1)[0]))
    return counts, bin_centers(cfg.histogram)


def simulate_tomography(cfg: ExperimentConfig, seed_seq) -> TomographyResult:
    """Simulated tomography of ``source_model(cfg).rho``: ``analyze_tomography``
    of the records one ``subtract_accidentals`` pass makes of the
    ``simulate_histograms`` counts."""
    counts, centers = simulate_histograms(cfg, seed_seq)
    duration = cfg.tomography.duration_per_setting_s
    raw, net, sigma = subtract_accidentals(counts, cfg.histogram.exclusion_bins)
    records = [
        CoincidenceRecord(index=m, raw=r, accidental=r - n, duration_s=duration, net_sigma=s)
        for m, (r, n, s) in enumerate(zip(raw.tolist(), net.tolist(), sigma.tolist()))
    ]
    result = analyze_tomography(cfg, default_protocol(), records, seed_seq)
    return replace(result, counts=counts, centers_ns=centers)


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
        """``_encoded`` of the section; it has no sidecar."""
        return _encoded(self.to_json())


def simulate_bell(cfg: ExperimentConfig, tomography: TomographyResult, seed_seq) -> BellResult:
    """The CHSH test of the reconstructed ``tomography.rho`` at
    ``default_chsh_settings()``, beside the model state's
    ``source_model(cfg).f_model``: ``[bell] counts_per_setting`` pairs per
    setting, drawn from one generator of the next spawned child of
    ``seed_seq``. The state is taken as checked, as ``simulate_tomography`` returns it."""
    rho4 = bell_mod.split_postselect_rho(tomography.rho)
    settings = bell_mod.default_chsh_settings()
    f_sim, sigma_f, std_devs = bell_mod.simulate_chsh(
        rho4, cfg.bell.counts_per_setting, np.random.default_rng(seed_seq.spawn(1)[0]), settings)
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
    """Simulate one full characterization run of the film pair source."""
    master_seed = cfg.run.seed if seed is None else int(seed)
    seed_seq = np.random.SeedSequence(master_seed)
    tomography = simulate_tomography(cfg, seed_seq)
    return ExperimentReport(
        seed=master_seed,
        source=source_model(cfg),
        tomography=tomography,
        bell=simulate_bell(cfg, tomography, seed_seq),
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


class _RowTemplates(dict):
    """setting index -> the ``histogram.csv`` rows of one bin grid, with a
    ``%s`` for each count: ``setting_index,delta_t_ns,%s`` lines joined
    ``_CSV_BLOCK_ROWS`` to a template. Made on first use, from each delay's
    ``delta_t_ns,%s`` line, formatted once and shared by every setting."""

    def __init__(self, delta_t):
        super().__init__()
        lines = [f"{t},%s\r\n" for t in delta_t]
        self.blocks = [lines[start:start + _CSV_BLOCK_ROWS]
                       for start in range(0, len(lines), _CSV_BLOCK_ROWS)]

    def __missing__(self, m):
        index = f"{m},"
        self[m] = templates = [index + index.join(block) for block in self.blocks]
        return templates


@functools.lru_cache(maxsize=_MEMO_CONFIGS)
def _histogram_row_templates(dtype: str, centers: bytes) -> _RowTemplates:
    """The row templates of the bin grid with these centers: keyed on their
    dtype and bytes, so -0.0 and 0.0 are different grids."""
    return _RowTemplates(np.frombuffer(centers, dtype=dtype).tolist())


def histogram_csv(counts, centers_ns) -> bytes:
    """``histogram.csv`` of a count array with bins at the delays ``centers_ns``:
    the cached row templates filled with str() of each count."""
    encoded = bytearray(b"setting_index,delta_t_ns,counts\r\n")
    templates = _histogram_row_templates(centers_ns.dtype.str, centers_ns.tobytes())
    for m, row in enumerate(counts.tolist()):
        for start, template in zip(range(0, len(row), _CSV_BLOCK_ROWS), templates[m]):
            encoded += (template % tuple(row[start:start + _CSV_BLOCK_ROWS])).encode()
    return bytes(encoded)


def write_report(report: ExperimentReport, out_dir) -> list:
    """Write report.json plus CSV sidecars; returns the written paths.

    ``report.json`` is ``_json_bytes`` of ``schema_version``, ``seed`` and each
    stage result's ``encoded()`` sections, so it holds ``report.summary``. The
    sidecars follow in the order of ``report.results``.

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
    out.mkdir(parents=True, exist_ok=True)
    paths = []
    for name, data in files:
        paths.append(out / name)
        write_bytes(paths[-1], data)
    return paths


def write_bytes(path, data: bytes) -> None:
    """Write ``data`` to ``path``, created with mode 0o666 less the umask.

    An existing file is opened without ``O_TRUNC``, overwritten and then cut
    to ``len(data)``: truncating a file that holds data on open costs ext4 a
    flush (``auto_da_alloc``) that a same-size rewrite never pays. Only a
    regular file is cut; ``ftruncate`` fails on ``/dev/null`` or a pipe.
    """
    # O_BINARY (Windows only) keeps the CRLF sidecars' bytes as they are
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0), 0o666)
    with open(fd, "wb") as fh:
        fh.write(data)
        if stat.S_ISREG(os.fstat(fd).st_mode):
            fh.truncate()
