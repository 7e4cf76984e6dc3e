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

The stages the CLI runs on their own are public: ``resolve_orientation``,
``source_state``, ``setting_histogram``, ``simulate_tomography`` and
``spectral_section``, with the JSON helpers the report shares with it.
"""

from __future__ import annotations

import csv
import json
from dataclasses import asdict, dataclass, replace
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
from .errors import DegenerateTop, FitFailure
from .histogram import NoiseModel, simulate_histogram, subtract_accidentals
from .polarization import pump_ket
from .qutrit import (
    concurrence,
    concurrence_bounds,
    depolarize,
    dominant_eigenstate,
    purity,
    schmidt_number,
)
from .spectral import (
    FilmStack,
    apply_detector_response,
    default_grid,
    gaussian_response,
    hom_fwhm,
    intensity_fwhm,
    interference_contrast,
    joint_spectrum,
    longpass_pair_response,
    lorentzian_response,
)
from .tomography import (
    CoincidenceRecord,
    default_protocol,
    forward_rates,
    fringe_scan,
    reconstruct,
)

SCHEMA_VERSION = 1

#: [detector_response] shape -> response multiplier; "none" adds none
_DETECTOR_RESPONSES = {"gaussian": gaussian_response, "lorentzian": lorentzian_response}


@dataclass(frozen=True)
class ExperimentReport:
    """Everything one simulated run produced.

    ``summary`` is the JSON-safe dictionary (scalars and short curves, the
    HOM and delay-scan curves among them); the bulky arrays (histograms,
    spectrum) and the fringe curve ride along for CSV sidecars.
    """

    summary: dict
    histograms: list
    spectrum_omega_thz: np.ndarray
    spectrum_intensity: np.ndarray
    fringe_curve: list

    def canonical_json(self) -> str:
        """Stable serialization used for reproducibility comparisons."""
        return json.dumps(self.summary, sort_keys=True, separators=(",", ":"))


def resolve_orientation(cfg: ExperimentConfig, chi):
    """(orientation, calibration residual): the configured angles, or a fit
    of the ``auto`` ones to the calibration weights."""
    targets = {
        "H": cfg.calibration.h_pump_weights,
        "V": cfg.calibration.v_pump_weights,
    }
    tilt, az = cfg.crystal.tilt_deg, cfg.crystal.azimuth_deg
    if tilt is None:
        orientation, residual = calibrate_orientation(
            chi, targets, threshold=cfg.calibration.fit_threshold
        )
    elif az is None:
        fitted_az, residual = calibrate_azimuth(
            chi, tilt, targets, threshold=cfg.calibration.fit_threshold
        )
        orientation = CrystalOrientation(tilt, fitted_az)
    else:
        orientation = CrystalOrientation(tilt, az)
        residual = weight_residual(chi, orientation, targets)
    return orientation, residual


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
    res = spdc_amplitudes(chi, orientation, pump_ket(cfg.pump.angle_deg))
    return res, depolarize(res.state, cfg.noise.depolarization)


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


def _measures_from_rho(rho, fixed_analyzer, theta_grid):
    """Report entries of one state (weights, purity, dominant-branch
    entanglement, fringe visibility), and its fringe curve."""
    out = {"weights": np.real(np.diag(rho)).tolist(), "purity": purity(rho)}
    try:
        top, top_weight = dominant_eigenstate(rho)
        c = concurrence(top)
        out.update(
            concurrence=c,
            schmidt_number=schmidt_number(c),
            dominant_weight=top_weight,
        )
    except DegenerateTop:
        out.update(concurrence=np.nan, schmidt_number=np.nan, dominant_weight=np.nan)
    try:
        curve, out["visibility"] = fringe_scan(rho, fixed_analyzer, theta_grid)
    except FitFailure:
        curve, out["visibility"] = [], np.nan
    return out, curve


def _bootstrap_sigmas(cfg, rho_hat, scale_hat, records, protocol, seed_seq):
    """Parametric bootstrap: redraw net counts from the fitted model.

    Returns the report's ``<measure>_sigma`` entries, all None without replicates.
    """
    n_boot = cfg.run.bootstrap_samples
    measures = ("weights", "purity", "concurrence", "visibility")
    if n_boot == 0:
        return {f"{key}_sigma": None for key in measures}
    duration = cfg.tomography.duration_per_setting_s
    model_net = duration * forward_rates(rho_hat, protocol, scale_hat)
    sigmas = np.array([r.net_sigma for r in records])
    theta_grid = np.linspace(0.0, 360.0, 37)

    samples = {key: [] for key in measures}
    for child in seed_seq.spawn(n_boot):
        rng = np.random.default_rng(child)
        net_draw = rng.normal(model_net, sigmas)
        # each replicate keeps its record's accidentals, duration and sigma
        boot_records = [
            replace(r, raw=max(draw + r.accidental, 0.0)) for r, draw in zip(records, net_draw)
        ]
        rho_b, _ = reconstruct(boot_records, protocol)
        meas, _ = _measures_from_rho(rho_b, cfg.fringe.fixed_analyzer, theta_grid)
        for key in measures:
            samples[key].append(meas[key])
    return {
        f"{key}_sigma": np.nanstd(np.asarray(samples[key]), axis=0, ddof=1).tolist()
        for key in measures
    }


def spectral_section(cfg: ExperimentConfig):
    """(spectrum, delays, dip, peak, intensity FWHM, HOM dip FWHM) of the configured film."""
    stack = FilmStack(
        thickness_nm=cfg.film.thickness_nm,
        film=cfg.film.film_index,
        substrate=cfg.film.substrate_index,
        ambient=cfg.film.ambient_index,
        pump_nm=cfg.pump.wavelength_nm,
    )
    grid = default_grid(cfg.spectrum.span_thz, cfg.spectrum.points)
    spec = joint_spectrum(stack, grid)
    spec = apply_detector_response(
        spec,
        longpass_pair_response(
            spec, cfg.filters.longpass_cuton_nm, cfg.filters.edge_width_thz
        ),
    )
    response = _DETECTOR_RESPONSES.get(cfg.detector_response.shape)
    if response is not None:
        spec = apply_detector_response(spec, response(spec, cfg.detector_response.fwhm_thz))

    delays = np.linspace(
        cfg.hom.delay_start_fs, cfg.hom.delay_stop_fs, cfg.hom.delay_points
    )
    g = interference_contrast(spec, delays)  # the dip and peak curves share one kernel
    dip, peak = (1.0 - g) / 2.0, (1.0 + g) / 2.0
    return spec, delays, dip, peak, intensity_fwhm(spec), hom_fwhm(spec)


def hom_curve_json(delays, dip, peak) -> list:
    """The HOM curves as one {tau_fs, r_dip, r_peak} entry per delay."""
    return [
        {"tau_fs": float(t), "r_dip": float(d), "r_peak": float(p)}
        for t, d, p in zip(delays, dip, peak)
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
    measures, fringe_curve = _measures_from_rho(rho_hat, cfg.fringe.fixed_analyzer, theta_grid)
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

    chi = chi2_zincblende(cfg.crystal.d_coefficient)
    orientation, residual = resolve_orientation(cfg, chi)

    res_h = spdc_amplitudes(chi, orientation, pump_ket(0.0))
    res_v = spdc_amplitudes(chi, orientation, pump_ket(90.0))
    res_pump, rho_true = source_state(cfg, chi, orientation)

    tomography, rho_hat, histograms, fringe_curve = simulate_tomography(
        cfg, rho_true, seed_seq
    )

    rho4_model = bell_mod.split_postselect_rho(rho_true)
    rho4_hat = bell_mod.split_postselect_rho(rho_hat)
    bell_rng = np.random.default_rng(seed_seq.spawn(1)[0])
    f_sim, sigma_f, std_devs = bell_mod.simulate_chsh(
        rho4_hat, cfg.bell.counts_per_setting, bell_rng
    )

    spec, delays, dip, peak, fwhm_thz, dip_fwhm = spectral_section(cfg)

    line = default_delay_line(
        base_tilt_deg=cfg.delay_line.base_tilt_deg,
        thickness_mm=cfg.delay_line.plate_thickness_mm,
        wavelength_um=cfg.delay_line.wavelength_um,
    )
    tilt_grid = np.linspace(
        cfg.delay_line.scan_start_deg,
        cfg.delay_line.scan_stop_deg,
        cfg.delay_line.scan_points,
    )
    delay_curve = delay_scan(line, tilt_grid, which="inner")

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
            "f_model": bell_mod.chsh_value(rho4_model),
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
            "delay_at_base_fs": calcite_delay(line),
            "scan": [{"tilt_deg": t, "delay_fs": d} for t, d in delay_curve],
        },
    }

    return ExperimentReport(
        summary=summary,
        histograms=histograms,
        spectrum_omega_thz=spec.omega_thz,
        spectrum_intensity=spec.intensity,
        fringe_curve=fringe_curve,
    )


def write_report(report: ExperimentReport, out_dir) -> list:
    """Write report.json plus CSV sidecars; returns the written paths."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = []

    json_path = out / "report.json"
    json_path.write_text(json.dumps(report.summary, indent=2, sort_keys=True) + "\n")
    paths.append(json_path)

    def write_csv(name, header, rows):
        path = out / name
        with path.open("w", newline="") as f:
            writer = csv.writer(f)
            writer.writerow(header)
            writer.writerows(rows)
        paths.append(path)

    write_csv(
        "histogram.csv",
        ["setting_index", "delta_t_ns", "counts"],
        [
            (m, float(t), int(c))
            for m, h in enumerate(report.histograms)
            for t, c in zip(h.centers_ns, h.counts)
        ],
    )
    write_csv(
        "fringe.csv",
        ["theta_deg", "rate"],
        [(float(t), float(r)) for t, r in report.fringe_curve],
    )
    write_csv(
        "hom.csv",
        ["tau_fs", "r_dip", "r_peak"],
        [(p["tau_fs"], p["r_dip"], p["r_peak"]) for p in report.summary["spectral"]["hom_curve"]],
    )
    write_csv(
        "spectrum.csv",
        ["omega_thz", "intensity"],
        [
            (float(w), float(s))
            for w, s in zip(report.spectrum_omega_thz, report.spectrum_intensity)
        ],
    )
    write_csv(
        "delay_scan.csv",
        ["tilt_deg", "delay_fs"],
        [(p["tilt_deg"], p["delay_fs"]) for p in report.summary["delay_line"]["scan"]],
    )
    return paths
