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

The seed-free stages are computed once per configuration: the orientation
(fit or fixed, keyed on ``[crystal]`` and ``[calibration]``), the source
model (H/V and configured-pump amplitudes, the depolarized qutrit and its
CHSH value; also keyed on ``[pump]`` and the ``[noise]`` depolarization),
the spectral section (keyed on ``[spectrum]``, the film etalon at the pump
wavelength, ``[filters]``, ``[detector_response]`` and ``[hom]``) and the
delay scan (keyed on ``[delay_line]``). Each memo holds the last
``_MEMO_CONFIGS`` configurations; a seed sweep pays for these stages once.
Their arrays, the report's spectrum arrays among them, are shared between
runs and read-only; the summary's dicts and lists are built fresh per run.

``write_report`` encodes the seed-free sidecar bytes once per configuration
too: ``spectrum.csv`` once per pair of the read-only spectrum arrays that
``run_experiment`` returns (matched by identity, not by equal values), and
the ``setting_index,delta_t_ns,`` prefix of each ``histogram.csv`` row once
per bin grid, each for the last ``_MEMO_CONFIGS`` of them. The histogram
counts, ``fringe.csv``, ``hom.csv``, ``delay_scan.csv`` and ``report.json``
are encoded per run.

The stages the CLI runs on their own are public: ``resolve_orientation``,
``source_state``, ``setting_histogram``, ``simulate_tomography`` and
``spectral_section``, with the JSON helpers the report shares with it.
"""

from __future__ import annotations

import functools
import itertools
import json
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import bell as bell_mod
from .config import ExperimentConfig, load_config
from .crystal import (
    CrystalOrientation,
    calibrate_azimuth,
    calibrate_orientation,
    chi2_zincblende,
    normal_axis_angles,
    spdc_amplitudes,
    weight_residual,
)
from .delayline import calcite_delay, default_delay_line, delay_scan
from .errors import FitFailure
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


@dataclass(frozen=True)
class ExperimentReport:
    """Everything one simulated run produced.

    ``summary`` is the JSON-safe dictionary (scalars and short curves, the
    HOM and delay-scan curves among them); the bulky arrays (histograms,
    spectrum) and the fringe curve ride along for CSV sidecars. The two
    spectrum arrays are shared by every run of the configuration, and
    read-only, so ``write_report`` encodes their ``spectrum.csv`` once for
    all those runs; a report given other arrays, writable ones included,
    gets those arrays' own bytes.
    """

    summary: dict
    histograms: list
    spectrum_omega_thz: np.ndarray
    spectrum_intensity: np.ndarray
    fringe_curve: list

    def canonical_json(self) -> str:
        """Stable serialization used for reproducibility comparisons."""
        return json.dumps(self.summary, sort_keys=True, separators=(",", ":"), allow_nan=False)


def resolve_orientation(cfg: ExperimentConfig, chi):
    """(orientation, calibration residual): the configured angles, or a fit
    of the ``auto`` ones to the calibration weights."""
    return _fit_orientation(cfg.crystal, cfg.calibration, chi)


def _fit_orientation(crystal, calibration, chi):
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
    return orientation, residual


#: configurations each memo of a seed-free stage holds
_MEMO_CONFIGS = 4


def _memoized(stage):
    """``stage`` memoized on its (frozen, hashable) config-section arguments,
    for the last ``_MEMO_CONFIGS`` distinct ones.

    The key holds the arguments' repr beside them: sections compare equal
    when they differ only in the sign of a zero, which a stage may print.
    """
    cached = functools.lru_cache(maxsize=_MEMO_CONFIGS)(lambda _repr, *args: stage(*args))

    @functools.wraps(stage)
    def memo(*args):
        return cached(repr(args), *args)

    memo.cache_clear = cached.cache_clear
    return memo


def _read_only(*arrays):
    """Make each array read-only, and every array its memory is a view of."""
    for a in arrays:
        while isinstance(a, np.ndarray):
            a.flags.writeable = False
            a = a.base


def _frozen(a) -> bool:
    """Whether ``a`` is an array whose values stay as they are: it and every
    array up its view chain to the memory's owner are read-only, so only
    setting a writeable flag back would allow a write."""
    while isinstance(a, np.ndarray):
        if a.flags.writeable:
            return False
        a = a.base
    return a is None


@_memoized
def _orientation(crystal, calibration):
    """(chi, orientation, calibration residual) of the crystal sections."""
    chi = chi2_zincblende(crystal.d_coefficient)
    _read_only(chi)
    return (chi, *_fit_orientation(crystal, calibration, chi))


def complex_json(a) -> list:
    """A complex array as nested lists with one [re, im] pair per element."""
    a = np.asarray(a)
    return np.stack([np.real(a), np.imag(a)], axis=-1).tolist()


def orientation_json(orientation: CrystalOrientation, residual: float) -> dict:
    """The orientation entries shared by the report and ``spdcfilm amplitudes``."""
    return {
        "tilt_deg": orientation.tilt_deg,
        "azimuth_deg": orientation.azimuth_deg,
        "calibration_residual": residual,
    }


def amplitudes_json(res) -> dict:
    """JSON form of one pump's ``SpdcResult``."""
    return {
        "state": complex_json(res.state),
        "weights": res.weights.tolist(),
        "relative_rate": res.relative_rate,
    }


def source_state(cfg: ExperimentConfig, chi, orientation):
    """The generated qutrit at the configured pump, and its depolarized density matrix."""
    return _pumped_state(chi, orientation, cfg.pump.angle_deg, cfg.noise.depolarization)


def _pumped_state(chi, orientation, angle_deg, depolarization):
    res = spdc_amplitudes(chi, orientation, pump_ket(angle_deg))
    return res, depolarize(res.state, depolarization)


@_memoized
def _source_model(crystal, calibration, pump, depolarization):
    """The seed-free source: (orientation, calibration residual, H-pump,
    V-pump and configured-pump amplitudes, the depolarized model qutrit, its
    CHSH value)."""
    chi, orientation, residual = _orientation(crystal, calibration)
    res_h = spdc_amplitudes(chi, orientation, pump_ket(0.0))
    res_v = spdc_amplitudes(chi, orientation, pump_ket(90.0))
    res_pump, rho_true = _pumped_state(chi, orientation, pump.angle_deg, depolarization)
    _read_only(res_h.state, res_v.state, res_pump.state, rho_true)
    f_model = bell_mod.chsh_value(bell_mod.split_postselect_rho(rho_true))
    return orientation, residual, res_h, res_v, res_pump, rho_true, f_model


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


def spectral_section(cfg: ExperimentConfig):
    """(spectrum, delays, dip, peak, intensity FWHM, HOM dip FWHM) of the configured film.

    Computed once per configuration (see the module docstring): the arrays
    are shared with later calls and runs, and read-only.
    """
    return _spectral(cfg.spectrum, cfg.film_stack(), cfg.filters, cfg.detector_response,
                     cfg.hom)[:6]


@_memoized
def _spectral(spectrum, film_stack, filters, detector_response, hom):
    """``spectral_section``'s tuple, then the spectrum's intensity."""
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
    dip, peak = (1.0 - g) / 2.0, (1.0 + g) / 2.0
    intensity = spec.intensity
    _read_only(spec.omega_thz, spec.phi, spec.response, delays, dip, peak, intensity)
    return spec, delays, dip, peak, intensity_fwhm(spec), hom_fwhm(spec), intensity


@_memoized
def _delay_line_scan(delay_line):
    """(delay at the base tilt, ((tilt, delay), ...) over the inner-pair scan)."""
    line = default_delay_line(
        base_tilt_deg=delay_line.base_tilt_deg,
        thickness_mm=delay_line.plate_thickness_mm,
        wavelength_um=delay_line.wavelength_um,
    )
    tilt_grid = np.linspace(
        delay_line.scan_start_deg, delay_line.scan_stop_deg, delay_line.scan_points
    )
    return calcite_delay(line), tuple(delay_scan(line, tilt_grid, which="inner"))


def hom_curve_json(delays, dip, peak) -> list:
    """The HOM curves as one {tau_fs, r_dip, r_peak} entry per delay."""
    return [
        {"tau_fs": t, "r_dip": d, "r_peak": p}
        for t, d, p in zip(delays.tolist(), dip.tolist(), peak.tolist())
    ]


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

    theta_grid = np.linspace(
        cfg.fringe.theta_start_deg, cfg.fringe.theta_stop_deg, cfg.fringe.theta_points
    )
    measures = _point_measures(rho_hat, cfg.fringe.fixed_analyzer)
    try:
        fringe_curve, _ = fringe_scan(rho_hat, cfg.fringe.fixed_analyzer, theta_grid)
    except FitFailure:  # no counts at any angle: the visibility is reported as null
        fringe_curve = []
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

    orientation, residual, res_h, res_v, res_pump, rho_true, f_model = _source_model(
        cfg.crystal, cfg.calibration, cfg.pump, cfg.noise.depolarization
    )
    tomography, rho_hat, histograms, fringe_curve = simulate_tomography(
        cfg, rho_true, seed_seq
    )

    rho4_hat = bell_mod.split_postselect_rho(rho_hat)
    bell_rng = np.random.default_rng(seed_seq.spawn(1)[0])
    f_sim, sigma_f, std_devs = bell_mod.simulate_chsh(
        rho4_hat, cfg.bell.counts_per_setting, bell_rng
    )

    spec, delays, dip, peak, fwhm_thz, dip_fwhm, intensity = _spectral(
        cfg.spectrum, cfg.film_stack(), cfg.filters, cfg.detector_response, cfg.hom
    )
    delay_at_base, delay_curve = _delay_line_scan(cfg.delay_line)

    summary = {
        "schema_version": SCHEMA_VERSION,
        "seed": master_seed,
        "orientation": {
            **orientation_json(orientation, residual),
            "normal_axis_angles_deg": normal_axis_angles(orientation).tolist(),
        },
        "amplitudes": {
            "h_pump": amplitudes_json(res_h),
            "v_pump": amplitudes_json(res_v),
            "rate_ratio_h_over_v": res_h.relative_rate / res_v.relative_rate,
        },
        "pump": {
            "angle_deg": cfg.pump.angle_deg,
            "wavelength_nm": cfg.pump.wavelength_nm,
        },
        "model_state": {
            "weights": res_pump.weights.tolist(),
            "concurrence": concurrence(res_pump.state),
            "schmidt_number": schmidt_number(concurrence(res_pump.state)),
            "depolarization": cfg.noise.depolarization,
            "purity": purity(rho_true),
            "concurrence_bounds": list(concurrence_bounds(res_pump.weights)),
        },
        "tomography": tomography,
        "bell": {
            "f_model": f_model,
            "f_reconstructed": bell_mod.chsh_value(rho4_hat),
            "f_simulated": f_sim,
            "sigma_f": sigma_f,
            "std_devs_above_classical": std_devs,
            "counts_per_setting": cfg.bell.counts_per_setting,
        },
        "spectral": {
            "intensity_fwhm_thz": fwhm_thz,
            "hom_dip_fwhm_fs": dip_fwhm,
            "detector_response": cfg.detector_response.shape,
            "hom_curve": hom_curve_json(delays, dip, peak),
        },
        "delay_line": {
            "base_tilt_deg": cfg.delay_line.base_tilt_deg,
            "delay_at_base_fs": delay_at_base,
            "scan": [{"tilt_deg": t, "delay_fs": d} for t, d in delay_curve],
        },
    }

    return ExperimentReport(
        summary=summary,
        histograms=histograms,
        spectrum_omega_thz=spec.omega_thz,
        spectrum_intensity=intensity,
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


class _Same:
    """An object held as a cache key that compares and hashes by identity."""

    __slots__ = ("obj",)

    def __init__(self, obj):
        self.obj = obj

    def __hash__(self):
        return id(self.obj)

    def __eq__(self, other):
        return self.obj is other.obj


def _spectrum_csv(omega, intensity) -> bytes:
    return _csv_bytes(["omega_thz", "intensity"], zip(omega.tolist(), intensity.tolist()))


@functools.lru_cache(maxsize=_MEMO_CONFIGS)
def _frozen_spectrum_csv(omega: _Same, intensity: _Same) -> bytes:
    """``spectrum.csv`` of two frozen arrays, encoded once while they are cached.

    Keyed by identity, not value: the key holds the arrays, so no other array
    can take their ids, and frozen arrays cannot change.
    """
    return _spectrum_csv(omega.obj, intensity.obj)


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

    Each sidecar holds the bytes ``csv.writer`` writes for its rows: str() of
    each number, CRLF line ends. Encoded once per configuration, for the
    last ``_MEMO_CONFIGS`` of them:

    * ``spectrum.csv``, per pair of spectrum arrays that no write can change
      (``_frozen``, as ``run_experiment`` returns them), matched by identity;
      any other arrays are encoded per call;
    * in ``histogram.csv``, each row's ``setting_index,delta_t_ns,`` prefix,
      per bin grid (matched by its dtype and bytes) and setting index, as
      templates the counts fill.

    Encoded per call: the histogram counts, ``fringe.csv``, and ``hom.csv``
    and ``delay_scan.csv`` from the summary's curves.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = []

    json_path = out / "report.json"
    json_path.write_text(json.dumps(report.summary, indent=2, sort_keys=True, allow_nan=False) + "\n")
    paths.append(json_path)

    def write_csv(name, data: bytes):
        path = out / name
        path.write_bytes(data)
        paths.append(path)

    s = report.summary
    write_csv("histogram.csv", _histogram_csv(report.histograms))
    write_csv("fringe.csv", _csv_bytes(["theta_deg", "rate"], report.fringe_curve))
    write_csv("hom.csv", _csv_bytes(
        ["tau_fs", "r_dip", "r_peak"],
        [(p["tau_fs"], p["r_dip"], p["r_peak"]) for p in s["spectral"]["hom_curve"]],
    ))
    omega, intensity = report.spectrum_omega_thz, report.spectrum_intensity
    if _frozen(omega) and _frozen(intensity):
        write_csv("spectrum.csv", _frozen_spectrum_csv(_Same(omega), _Same(intensity)))
    else:
        write_csv("spectrum.csv", _spectrum_csv(omega, intensity))
    write_csv("delay_scan.csv", _csv_bytes(
        ["tilt_deg", "delay_fs"],
        [(p["tilt_deg"], p["delay_fs"]) for p in s["delay_line"]["scan"]],
    ))
    return paths
