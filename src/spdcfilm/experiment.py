"""End-to-end simulated run: generation, tomography, Bell test, spectra.

``run_experiment`` wires the physics modules into one reproducible
pipeline: orient the film, generate the pump-dependent qutrit, mix in the
documented noise, simulate per-setting coincidence histograms, subtract
accidentals, reconstruct the state, derive entanglement measures with
parametric-bootstrap errors, run the finite-statistics CHSH test on the
reconstructed state, and evaluate the pair spectrum, HOM curves, and the
calcite delay-line scan. All randomness derives from one master seed via
numpy SeedSequence spawning, in a fixed order, so a given (config, seed)
pair always produces byte-identical canonical output.

Three stages do not depend on the seed. Each takes the ``ExperimentConfig``,
returns a frozen result whose ``to_json()`` builds its report sections, and
is memoized on the sections it reads for the last ``_MEMO_CONFIGS``
configurations, so a seed sweep or a CLI command after a run pays for it once:

* ``source_model`` -> ``SourceModel`` (orientation, H/V and configured-pump
  amplitudes, depolarized qutrit, its CHSH value): ``[crystal]``,
  ``[calibration]``, ``[pump]``, the ``[noise]`` depolarization. The
  orientation alone is memoized on the first two.
* ``spectral_section`` -> ``SpectralSection`` (pair spectrum, HOM curves and
  widths): ``[spectrum]``, the film etalon at the pump wavelength,
  ``[filters]``, ``[detector_response]``, ``[hom]``.
* ``delay_line_scan`` -> ``DelayScan`` (calcite delay scan): ``[delay_line]``.

A result's arrays are read-only copies, shared by every run of its
configuration; ``to_json()`` builds fresh dicts and lists on each call.
Each result encodes its output once, for the last ``_MEMO_CONFIGS`` results
(keyed by identity), however many reports hold them: ``section_texts()`` is
the indented ``report.json`` text of the sections it owns, and the spectral
section's and delay scan's ``sidecars()`` are their CSV files.
``write_report`` splices that text in and encodes only the seed-dependent
sections per run, so ``report.json``'s seed-free sections come from the
report's stage results, not from its summary.
"""

from __future__ import annotations

import functools
import itertools
import json
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from . import bell as bell_mod
from .config import ExperimentConfig, PumpConfig, load_config
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
from .delayline import calcite_delay, default_delay_line, delay_scan
from .histogram import NoiseModel, simulate_histogram, subtract_accidentals
from .polarization import pump_ket
from .qutrit import (
    _state_measures,
    concurrence,
    concurrence_bounds,
    depolarize,
    purity,
    schmidt_number,
)
from .spectral import (
    DETECTOR_RESPONSES,
    apply_detector_response,
    default_grid,
    hom_fwhm,
    intensity_fwhm,
    interference_contrast,
    joint_spectrum,
    longpass_pair_response,
)
from .tomography import (
    CoincidenceRecord,
    _fit_stack,
    _fringe_visibility,
    default_protocol,
    forward_rates,
    fringe_scan,
    reconstruct,
)

SCHEMA_VERSION = 1

#: configurations each seed-free stage's memo, and each sidecar cache, holds
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


@dataclass(frozen=True, eq=False)
class SourceModel:
    """``source_model``'s result: the amplitudes under an H, a V and the
    configured pump, ``rho`` the last one's qutrit after the depolarization,
    and ``f_model`` its CHSH value. The arrays are read-only copies."""

    orientation: CrystalOrientation
    calibration_residual: float
    pump: PumpConfig
    depolarization: float
    h_pump: SpdcResult
    v_pump: SpdcResult
    pumped: SpdcResult
    rho: np.ndarray
    f_model: float

    def __post_init__(self):
        for name in ("h_pump", "v_pump", "pumped"):
            res = getattr(self, name)
            object.__setattr__(self, name, replace(res, state=_read_only_copy(res.state)))
        _set_read_only_copies(self, "rho")

    def to_json(self) -> dict:
        """The report's orientation, amplitudes, pump and model_state sections, and bell.f_model."""
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
                "concurrence": concurrence(pumped.state),
                "schmidt_number": schmidt_number(concurrence(pumped.state)),
                "depolarization": self.depolarization,
                "purity": purity(self.rho),
                "concurrence_bounds": list(concurrence_bounds(pumped.weights)),
            },
            "bell": {"f_model": self.f_model},
        }

    @functools.lru_cache(maxsize=_MEMO_CONFIGS)
    def section_texts(self) -> dict:
        """``_section_text`` of the orientation, amplitudes, pump and
        model_state sections, cached by identity. Not bell: a run merges
        ``f_model`` with its own CHSH fields."""
        return {key: _section_text(value) for key, value in self.to_json().items()
                if key != "bell"}


@_memoized(lambda crystal, calibration: (crystal, calibration))
def _orientation(crystal, calibration):
    """(chi, orientation, calibration residual) of the crystal sections: the
    configured angles, or a fit of the ``auto`` ones to the calibration weights."""
    chi = _read_only_copy(chi2_zincblende(crystal.d_coefficient))
    targets = {"H": calibration.h_pump_weights, "V": calibration.v_pump_weights}
    tilt, az = crystal.tilt_deg, crystal.azimuth_deg
    if tilt is None:
        orientation, residual = calibrate_orientation(
            chi, targets, threshold=calibration.fit_threshold
        )
    elif az is None:
        fitted_az, residual = calibrate_azimuth(
            chi, tilt, targets, threshold=calibration.fit_threshold
        )
        orientation = CrystalOrientation(tilt, fitted_az)
    else:
        orientation = CrystalOrientation(tilt, az)
        residual = weight_residual(chi, orientation, targets)
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
        f_model=bell_mod.chsh_value(bell_mod.split_postselect_rho(rho)),
    )


@dataclass(frozen=True, eq=False)
class SpectralSection:
    """``spectral_section``'s result: the filtered pair spectrum ``intensity``
    at the detunings ``omega_thz``, and the HOM dip and peak at ``delays_fs``.
    The arrays are read-only copies, so the bytes ``sidecars()`` encodes once
    stay theirs."""

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
    def section_texts(self) -> dict:
        """``_section_text`` of the ``spectral`` section, cached by identity."""
        return {key: _section_text(value) for key, value in self.to_json().items()}

    @functools.lru_cache(maxsize=_MEMO_CONFIGS)
    def sidecars(self) -> tuple:
        """(name, bytes) of ``hom.csv`` and ``spectrum.csv``, cached by identity."""
        spectrum_rows = zip(self.omega_thz.tolist(), self.intensity.tolist())
        return (
            ("hom.csv", _csv_bytes(["tau_fs", "r_dip", "r_peak"], self._curve_rows())),
            ("spectrum.csv", _csv_bytes(["omega_thz", "intensity"], spectrum_rows)),
        )


@_memoized(lambda cfg: (cfg.spectrum, cfg.film_stack(), cfg.filters, cfg.detector_response,
                        cfg.hom))
def spectral_section(spectrum, film_stack, filters, detector_response, hom) -> SpectralSection:
    """``spectral_section(cfg)``: the configured film's ``SpectralSection``."""
    grid = default_grid(spectrum.span_thz, spectrum.points)
    spec = joint_spectrum(film_stack, grid)
    spec = apply_detector_response(
        spec,
        longpass_pair_response(spec, filters.longpass_cuton_nm, filters.edge_width_thz),
    )
    response = DETECTOR_RESPONSES[detector_response.shape]
    if response is not None:
        spec = apply_detector_response(spec, response(spec, detector_response.fwhm_thz))

    delays = np.linspace(hom.delay_start_fs, hom.delay_stop_fs, hom.delay_points)
    g = interference_contrast(spec, delays)  # the dip and peak curves share one kernel
    return SpectralSection(
        omega_thz=spec.omega_thz,
        intensity=spec.intensity,
        delays_fs=delays,
        r_dip=(1.0 - g) / 2.0,
        r_peak=(1.0 + g) / 2.0,
        intensity_fwhm_thz=intensity_fwhm(spec),
        hom_dip_fwhm_fs=hom_fwhm(spec),
        detector_response=detector_response.shape,
    )


@dataclass(frozen=True, eq=False)
class DelayScan:
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
    def section_texts(self) -> dict:
        """``_section_text`` of the ``delay_line`` section, cached by identity."""
        return {key: _section_text(value) for key, value in self.to_json().items()}

    @functools.lru_cache(maxsize=_MEMO_CONFIGS)
    def sidecars(self) -> tuple:
        """(name, bytes) of ``delay_scan.csv``, cached by identity."""
        return (("delay_scan.csv", _csv_bytes(["tilt_deg", "delay_fs"], self.scan)),)


@_memoized(lambda cfg: (cfg.delay_line,))
def delay_line_scan(delay_line) -> DelayScan:
    """``delay_line_scan(cfg)``: the inner plate pair's ``DelayScan``."""
    line = default_delay_line(
        base_tilt_deg=delay_line.base_tilt_deg,
        thickness_mm=delay_line.plate_thickness_mm,
        wavelength_um=delay_line.wavelength_um,
    )
    tilt_grid = np.linspace(
        delay_line.scan_start_deg, delay_line.scan_stop_deg, delay_line.scan_points
    )
    return DelayScan(
        base_tilt_deg=delay_line.base_tilt_deg,
        delay_at_base_fs=calcite_delay(line),
        scan=delay_scan(line, tilt_grid, which="inner"),
    )


@dataclass(frozen=True)
class ExperimentReport:
    """Everything one simulated run produced.

    ``summary`` is the JSON-safe dictionary, built fresh for each run. The
    histograms and the fringe curve ride along for the CSV sidecars. The
    seed-free stage results (shared by every run of the configuration) ride
    along for their encoded ``report.json`` sections and sidecars:
    ``write_report`` writes those from ``source``, ``spectral`` and
    ``delay_scan``, so editing their keys in ``summary`` does not change the
    files, while edits to ``seed``, ``tomography`` and ``bell`` do.
    """

    summary: dict
    histograms: list
    source: SourceModel
    spectral: SpectralSection
    delay_scan: DelayScan
    fringe_curve: list

    def canonical_json(self) -> str:
        """Stable serialization used for reproducibility comparisons."""
        return json.dumps(self.summary, sort_keys=True, separators=(",", ":"), allow_nan=False)


def setting_histogram(cfg: ExperimentConfig, seed, relative_rate: float = 1.0):
    """One configured coincidence histogram, pair rate scaled by ``relative_rate``."""
    noise = NoiseModel(
        pair_rate_hz=cfg.noise.pair_rate_hz * float(relative_rate),
        efficiency=cfg.noise.efficiency,
        singles_a_hz=cfg.noise.singles_a_hz,
        singles_b_hz=cfg.noise.singles_b_hz,
    )
    return simulate_histogram(
        noise,
        duration_s=cfg.tomography.duration_per_setting_s,
        n_bins=cfg.histogram.n_bins,
        bin_width_ns=cfg.histogram.bin_width_ns,
        seed=seed,
    )


def _simulate_records(cfg, rel_rates, seeds):
    histograms, records = [], []
    excl = cfg.histogram.exclusion_bins
    for m, (rel, seed) in enumerate(zip(rel_rates, seeds)):
        hist = setting_histogram(cfg, seed, rel)
        net, sigma = subtract_accidentals(hist, exclusion_bins=excl)
        in_peak = np.abs(np.arange(len(hist.counts)) - hist.peak_index) <= excl
        raw = float(hist.counts[in_peak].sum())
        records.append(
            CoincidenceRecord(
                index=m,
                raw=raw,
                accidental=raw - net,
                duration_s=hist.duration_s,
                net_sigma=sigma,
            )
        )
        histograms.append(hist)
    return histograms, records


def _measures(rhos, fixed_analyzer) -> dict:
    """Report measures of each state of a (B, 3, 3) stack, as (B, ...) arrays:
    ``_state_measures`` plus the fringe visibility (NaN where the fringe has
    no counts)."""
    return {**_state_measures(rhos), "visibility": _fringe_visibility(rhos, fixed_analyzer)}


def _defined(values):
    """JSON form of a measure: floats, with None where it is undefined (NaN)."""
    if np.ndim(values):
        return [_defined(v) for v in values]
    return None if np.isnan(values) else float(values)


def _point_measures(rho, fixed_analyzer) -> dict:
    """The report entries of one state: the one-state case of ``_measures``."""
    return {key: _defined(value[0]) for key, value in _measures(rho[None], fixed_analyzer).items()}


def _spread(samples):
    """Bootstrap sigma: nanstd(ddof=1) over the replicates (axis 0), None
    where fewer than two replicates are finite."""
    enough = np.count_nonzero(np.isfinite(samples), axis=0) >= 2
    sigma = np.nanstd(np.where(enough, samples, 0.0), axis=0, ddof=1)
    return _defined(np.where(enough, sigma, np.nan))


def _bootstrap_states(rho_hat, scale_hat, records, protocol, n_boot, seed_seq):
    """The (n_boot, 3, 3) states of a parametric bootstrap: net counts redrawn
    from the fitted model, then reconstructed all at once.

    Replicate k draws from the k-th spawned child of ``seed_seq`` and keeps its
    records' accidentals, durations and sigmas, as ``reconstruct`` would see
    ``replace(record, raw=max(draw + accidental, 0))``.
    """
    durations = np.array([r.duration_s for r in records])
    accidental = np.array([r.accidental for r in records])
    sigmas = np.array([r.net_sigma for r in records])
    model_net = durations * forward_rates(rho_hat, protocol, scale_hat)
    draws = np.array(
        [np.random.default_rng(child).normal(model_net, sigmas) for child in seed_seq.spawn(n_boot)]
    )
    nets = np.maximum(draws + accidental, 0.0) - accidental
    return _fit_stack(nets, durations, protocol)[0]


def _bootstrap_sigmas(cfg, rho_hat, scale_hat, records, protocol, seed_seq):
    """Parametric bootstrap: redraw net counts from the fitted model.

    Returns the report's ``<measure>_sigma`` entries, all None without replicates.
    """
    n_boot = cfg.run.bootstrap_samples
    measures = ("weights", "purity", "concurrence", "visibility")
    if n_boot == 0:
        return {f"{key}_sigma": None for key in measures}
    rhos = _bootstrap_states(rho_hat, scale_hat, records, protocol, n_boot, seed_seq)
    samples = _measures(rhos, cfg.fringe.fixed_analyzer)
    return {f"{key}_sigma": _spread(samples[key]) for key in measures}


def simulate_tomography(cfg: ExperimentConfig, rho_true, seed_seq):
    """Simulated tomography of ``rho_true``: the report's "tomography" section.

    Spawns one child of ``seed_seq`` per protocol setting, then one for the
    bootstrap. Also returns the reconstructed state, the per-setting
    histograms and the fringe curve of the reconstructed state.
    """
    protocol = default_protocol()
    rel_rates = forward_rates(rho_true, protocol)
    histograms, records = _simulate_records(cfg, rel_rates, seed_seq.spawn(len(protocol)))
    rho_hat, fit = reconstruct(records, protocol)

    measures = _point_measures(rho_hat, cfg.fringe.fixed_analyzer)
    fringe_curve = []  # no counts at any angle: a null visibility and no curve
    if measures["visibility"] is not None:
        theta_grid = np.linspace(
            cfg.fringe.theta_start_deg, cfg.fringe.theta_stop_deg, cfg.fringe.theta_points
        )
        fringe_curve, _ = fringe_scan(rho_hat, cfg.fringe.fixed_analyzer, theta_grid)
    boot_seq = seed_seq.spawn(1)[0]
    sigmas = _bootstrap_sigmas(cfg, rho_hat, fit.scale, records, protocol, boot_seq)
    fit_json = asdict(fit)
    del fit_json["scale"]  # reported as scale_hz, beside the fit
    section = {
        "records": [{**asdict(r), "net": r.net} for r in records],
        "rho": complex_json(rho_hat),
        "scale_hz": fit.scale,
        "fit": fit_json,
        **measures,
        **sigmas,
        "fringe_fixed_analyzer": cfg.fringe.fixed_analyzer,
    }
    return section, rho_hat, histograms, fringe_curve


def run_experiment(cfg: ExperimentConfig | None = None, seed=None) -> ExperimentReport:
    """Simulate one full characterization run of the film pair source."""
    if cfg is None:
        cfg = load_config()
    master_seed = cfg.run.seed if seed is None else int(seed)
    seed_seq = np.random.SeedSequence(master_seed)

    source = source_model(cfg)
    tomography, rho_hat, histograms, fringe_curve = simulate_tomography(cfg, source.rho, seed_seq)

    rho4_hat = bell_mod.split_postselect_rho(rho_hat)
    bell_rng = np.random.default_rng(seed_seq.spawn(1)[0])
    f_sim, sigma_f, std_devs = bell_mod.simulate_chsh(
        rho4_hat, cfg.bell.counts_per_setting, bell_rng
    )

    spectral = spectral_section(cfg)
    delay = delay_line_scan(cfg)

    summary = {
        "schema_version": SCHEMA_VERSION,
        "seed": master_seed,
        **source.to_json(),
        "tomography": tomography,
        **spectral.to_json(),
        **delay.to_json(),
    }
    summary["bell"].update(
        f_reconstructed=bell_mod.chsh_value(rho4_hat),
        f_simulated=f_sim,
        sigma_f=sigma_f,
        std_devs_above_classical=std_devs,
        counts_per_setting=cfg.bell.counts_per_setting,
    )

    return ExperimentReport(
        summary=summary,
        histograms=histograms,
        source=source,
        spectral=spectral,
        delay_scan=delay,
        fringe_curve=fringe_curve,
    )


#: rows a sidecar encodes at a time: bounds the text held while encoding
_CSV_BLOCK_ROWS = 1024


def _csv_bytes(header, rows) -> bytes:
    """The bytes ``csv.writer`` writes for a header and rows of numbers: str()
    of each cell, CRLF line ends. Encoded ``_CSV_BLOCK_ROWS`` rows at a time
    into one bytes object, so no list of every row's text is held."""
    rows = iter(rows)
    encoded = bytearray((",".join(header) + "\r\n").encode())
    while block := list(itertools.islice(rows, _CSV_BLOCK_ROWS)):
        encoded += "".join([",".join(map(str, row)) + "\r\n" for row in block]).encode()
    return bytes(encoded)


class _RowTemplates(dict):
    """setting index -> the ``histogram.csv`` rows of one bin grid, with a
    ``%s`` for each count: ``setting_index,delta_t_ns,%s`` lines joined
    ``_CSV_BLOCK_ROWS`` to a template. Made on first use."""

    def __init__(self, delta_t):
        super().__init__()
        self.delta_t = delta_t

    def __missing__(self, m):
        self[m] = templates = [
            "".join([f"{m},{t},%s\r\n" for t in self.delta_t[start:start + _CSV_BLOCK_ROWS]])
            for start in range(0, len(self.delta_t), _CSV_BLOCK_ROWS)
        ]
        return templates


@functools.lru_cache(maxsize=_MEMO_CONFIGS)
def _histogram_row_templates(dtype: str, centers: bytes) -> _RowTemplates:
    """The row templates of the bin grid with these centers: keyed on their
    dtype and bytes, so -0.0 and 0.0 are different grids."""
    return _RowTemplates(np.frombuffer(centers, dtype=dtype).tolist())


def _histogram_csv(histograms) -> bytes:
    """``histogram.csv``: the cached row templates filled with str() of each count."""
    encoded = bytearray(b"setting_index,delta_t_ns,counts\r\n")
    for m, h in enumerate(histograms):
        counts = h.counts.tolist()
        templates = _histogram_row_templates(h.centers_ns.dtype.str, h.centers_ns.tobytes())[m]
        for start, template in zip(range(0, len(counts), _CSV_BLOCK_ROWS), templates):
            encoded += (template % tuple(counts[start:start + _CSV_BLOCK_ROWS])).encode()
    return bytes(encoded)


def write_report(report: ExperimentReport, out_dir) -> list:
    """Write report.json plus CSV sidecars; returns the written paths.

    ``report.json`` is assembled key by key over the summary's sorted keys: a
    section a seed-free stage result owns is its cached ``section_texts()``,
    and ``bell``, ``schema_version``, ``seed`` and ``tomography`` are encoded
    per run. For a report as ``run_experiment`` returns it, that is the bytes
    of ``json.dumps(report.summary, indent=2, sort_keys=True, allow_nan=False)
    + "\n"``.

    Each sidecar holds the bytes ``csv.writer`` writes for its rows: str() of
    each number, CRLF line ends. The seed-free sections encode theirs once
    (``sidecars()``). ``histogram.csv`` fills row templates made once per bin
    grid (matched by its dtype and bytes) with the counts.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = [out / "report.json"]
    owned = {**report.source.section_texts(), **report.spectral.section_texts(),
             **report.delay_scan.section_texts()}
    summary = report.summary
    body = ",\n".join(
        f"  {json.dumps(key)}: {owned[key] if key in owned else _section_text(summary[key])}"
        for key in sorted(summary)
    )
    paths[0].write_bytes(("{\n" + body + "\n}\n").encode())
    sidecars = (
        ("histogram.csv", _histogram_csv(report.histograms)),
        ("fringe.csv", _csv_bytes(["theta_deg", "rate"], report.fringe_curve)),
        *report.spectral.sidecars(),
        *report.delay_scan.sidecars(),
    )
    for name, data in sidecars:
        paths.append(out / name)
        paths[-1].write_bytes(data)
    return paths
