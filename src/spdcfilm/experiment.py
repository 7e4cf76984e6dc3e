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
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
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


@dataclass(frozen=True)
class ExperimentReport:
    """Everything one simulated run produced.

    ``summary`` is the JSON-safe dictionary (scalars and short curves);
    the bulky arrays (histograms, spectrum) ride along for CSV sidecars.
    """

    summary: dict
    histograms: list
    spectrum_omega_thz: np.ndarray
    spectrum_intensity: np.ndarray
    fringe_curve: list
    hom_delays_fs: np.ndarray
    hom_dip: np.ndarray
    hom_peak: np.ndarray
    delay_curve: list

    def canonical_json(self) -> str:
        """Stable serialization used for reproducibility comparisons."""
        return json.dumps(self.summary, sort_keys=True, separators=(",", ":"))


def _resolve_orientation(cfg: ExperimentConfig, chi):
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


def _pair_list(z) -> list:
    return [float(np.real(z)), float(np.imag(z))]


def _rho_json(rho) -> list:
    return [[_pair_list(z) for z in row] for row in np.asarray(rho)]


def _state_json(state) -> list:
    return [_pair_list(z) for z in np.asarray(state)]


def _simulate_records(cfg, rel_rates, rng_streams):
    histograms, records = [], []
    excl = cfg.histogram.exclusion_bins
    for m, rel in enumerate(rel_rates):
        noise = NoiseModel(
            pair_rate_hz=cfg.noise.pair_rate_hz * float(rel),
            efficiency=cfg.noise.efficiency,
            singles_a_hz=cfg.noise.singles_a_hz,
            singles_b_hz=cfg.noise.singles_b_hz,
        )
        hist = simulate_histogram(
            noise,
            duration_s=cfg.tomography.duration_per_setting_s,
            n_bins=cfg.histogram.n_bins,
            bin_width_ns=cfg.histogram.bin_width_ns,
            seed=rng_streams[m],
        )
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
    """Weights, purity, dominant-branch entanglement, fringe visibility."""
    out = {"weights": np.real(np.diag(rho)), "purity": purity(rho)}
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
        curve, vis = fringe_scan(rho, fixed_analyzer, theta_grid)
        out.update(visibility=vis, fringe_curve=curve)
    except FitFailure:
        out.update(visibility=np.nan, fringe_curve=[])
    return out


def _bootstrap_sigmas(cfg, rho_hat, scale_hat, records, protocol, seed_seq):
    """Parametric bootstrap: redraw net counts from the fitted model."""
    n_boot = cfg.run.bootstrap_samples
    if n_boot == 0:
        return None
    duration = cfg.tomography.duration_per_setting_s
    model_net = duration * forward_rates(rho_hat, protocol, scale_hat)
    sigmas = np.array([r.net_sigma for r in records])
    accidentals = np.array([r.accidental for r in records])
    theta_grid = np.linspace(0.0, 360.0, 37)

    samples = {"weights": [], "purity": [], "concurrence": [], "visibility": []}
    for child in seed_seq.spawn(n_boot):
        rng = np.random.default_rng(child)
        net_draw = rng.normal(model_net, sigmas)
        boot_records = [
            CoincidenceRecord(
                index=m,
                raw=max(net_draw[m] + accidentals[m], 0.0),
                accidental=float(accidentals[m]),
                duration_s=duration,
                net_sigma=float(sigmas[m]),
            )
            for m in range(len(records))
        ]
        rho_b, _ = reconstruct(boot_records, protocol)
        meas = _measures_from_rho(rho_b, cfg.fringe.fixed_analyzer, theta_grid)
        samples["weights"].append(meas["weights"])
        samples["purity"].append(meas["purity"])
        samples["concurrence"].append(meas["concurrence"])
        samples["visibility"].append(meas["visibility"])

    return {
        "weights": np.nanstd(np.asarray(samples["weights"]), axis=0, ddof=1),
        "purity": float(np.nanstd(samples["purity"], ddof=1)),
        "concurrence": float(np.nanstd(samples["concurrence"], ddof=1)),
        "visibility": float(np.nanstd(samples["visibility"], ddof=1)),
    }


def _spectral_section(cfg):
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
    if cfg.detector_response.shape == "gaussian":
        spec = apply_detector_response(
            spec, gaussian_response(spec, cfg.detector_response.fwhm_thz)
        )
    elif cfg.detector_response.shape == "lorentzian":
        spec = apply_detector_response(
            spec, lorentzian_response(spec, cfg.detector_response.fwhm_thz)
        )

    delays = np.linspace(
        cfg.hom.delay_start_fs, cfg.hom.delay_stop_fs, cfg.hom.delay_points
    )
    g = interference_contrast(spec, delays)  # the dip and peak curves share one kernel
    dip, peak = (1.0 - g) / 2.0, (1.0 + g) / 2.0
    return spec, delays, dip, peak, intensity_fwhm(spec), hom_fwhm(spec)


def run_experiment(cfg: ExperimentConfig | None = None, seed=None) -> ExperimentReport:
    """Simulate one full characterization run of the film pair source."""
    if cfg is None:
        cfg = load_config()
    master_seed = cfg.run.seed if seed is None else int(seed)
    seed_seq = np.random.SeedSequence(master_seed)

    chi = chi2_zincblende(cfg.crystal.d_coefficient)
    orientation, residual = _resolve_orientation(cfg, chi)

    res_h = spdc_amplitudes(chi, orientation, pump_ket(0.0))
    res_v = spdc_amplitudes(chi, orientation, pump_ket(90.0))
    res_pump = spdc_amplitudes(chi, orientation, pump_ket(cfg.pump.angle_deg))
    rho_true = depolarize(res_pump.state, cfg.noise.depolarization)

    protocol = default_protocol()
    rel_rates = forward_rates(rho_true, protocol)
    setting_seeds = [
        np.random.default_rng(s) for s in seed_seq.spawn(len(protocol))
    ]
    histograms, records = _simulate_records(cfg, rel_rates, setting_seeds)
    rho_hat, fit = reconstruct(records, protocol)

    theta_grid = np.linspace(
        cfg.fringe.theta_start_deg, cfg.fringe.theta_stop_deg, cfg.fringe.theta_points
    )
    measures = _measures_from_rho(rho_hat, cfg.fringe.fixed_analyzer, theta_grid)
    boot_seq = seed_seq.spawn(1)[0]
    sigmas = _bootstrap_sigmas(cfg, rho_hat, fit.scale, records, protocol, boot_seq)

    rho4_model = bell_mod.split_postselect_rho(rho_true)
    rho4_hat = bell_mod.split_postselect_rho(rho_hat)
    bell_rng = np.random.default_rng(seed_seq.spawn(1)[0])
    f_sim, sigma_f, std_devs = bell_mod.simulate_chsh(
        rho4_hat, cfg.bell.counts_per_setting, bell_rng
    )

    spec, delays, dip, peak, fwhm_thz, dip_fwhm = _spectral_section(cfg)

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
            "tilt_deg": orientation.tilt_deg,
            "azimuth_deg": orientation.azimuth_deg,
            "calibration_residual": residual,
            "normal_axis_angles_deg": normal_axis_angles(orientation).tolist(),
        },
        "amplitudes": {
            "h_pump": {
                "state": _state_json(res_h.state),
                "weights": res_h.weights.tolist(),
                "relative_rate": res_h.relative_rate,
            },
            "v_pump": {
                "state": _state_json(res_v.state),
                "weights": res_v.weights.tolist(),
                "relative_rate": res_v.relative_rate,
            },
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
        "tomography": {
            "records": [
                {
                    "index": r.index,
                    "raw": r.raw,
                    "accidental": r.accidental,
                    "net": r.net,
                    "net_sigma": r.net_sigma,
                    "duration_s": r.duration_s,
                }
                for r in records
            ],
            "rho": _rho_json(rho_hat),
            "scale_hz": fit.scale,
            "fit": {
                "weighted_rms_residual": fit.weighted_rms_residual,
                "negative_mass_clipped": fit.negative_mass_clipped,
                "design_rank": fit.design_rank,
                "condition_number": fit.condition_number,
            },
            "weights": measures["weights"].tolist(),
            "weights_sigma": None if sigmas is None else sigmas["weights"].tolist(),
            "purity": measures["purity"],
            "purity_sigma": None if sigmas is None else sigmas["purity"],
            "concurrence": measures["concurrence"],
            "concurrence_sigma": None if sigmas is None else sigmas["concurrence"],
            "schmidt_number": measures["schmidt_number"],
            "dominant_weight": measures["dominant_weight"],
            "visibility": measures["visibility"],
            "visibility_sigma": None if sigmas is None else sigmas["visibility"],
            "fringe_fixed_analyzer": cfg.fringe.fixed_analyzer,
        },
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
            "hom_curve": [
                {"tau_fs": float(t), "r_dip": float(d), "r_peak": float(p)}
                for t, d, p in zip(delays, dip, peak)
            ],
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
        fringe_curve=measures["fringe_curve"],
        hom_delays_fs=delays,
        hom_dip=dip,
        hom_peak=peak,
        delay_curve=delay_curve,
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
        [
            (float(t), float(d), float(p))
            for t, d, p in zip(report.hom_delays_fs, report.hom_dip, report.hom_peak)
        ],
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
        [(float(t), float(d)) for t, d in report.delay_curve],
    )
    return paths
