"""Command-line interface.

Subcommands cover the individual stages (amplitudes, tomography, bell,
hom, histogram) and the full pipeline (run). Exit codes: 0 success,
2 configuration or input-file problems, 3 numerical failures (poor fits,
singular reconstructions, vanishing amplitudes), 4 incomplete tomography
protocols.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import bell as bell_mod
from .config import load_config
from .crystal import chi2_zincblende, spdc_amplitudes
from .errors import ConfigError, IncompleteProtocol, SpdcFilmError
from .experiment import (
    amplitudes_json,
    complex_json,
    hom_curve_json,
    orientation_json,
    resolve_orientation,
    run_experiment,
    setting_histogram,
    simulate_tomography,
    source_state,
    spectral_section,
    write_report,
)
from .histogram import subtract_accidentals
from .polarization import pump_ket
from .qutrit import purity
from .tomography import load_records_csv, reconstruct

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_INCOMPLETE = 4


def _write(args, text: str):
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit(args, payload: dict):
    _write(args, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _seed(cfg, args) -> int:
    return cfg.run.seed if args.seed is None else args.seed


def _cmd_amplitudes(args, cfg):
    chi = chi2_zincblende(cfg.crystal.d_coefficient)
    orientation, residual = resolve_orientation(cfg, chi)
    angle = cfg.pump.angle_deg if args.pump is None else args.pump
    payload = {
        "orientation": orientation_json(orientation, residual),
        "pump_angle_deg": angle,
    }
    for label, theta in [("requested", angle), ("h_pump", 0.0), ("v_pump", 90.0)]:
        payload[label] = amplitudes_json(spdc_amplitudes(chi, orientation, pump_ket(theta)))
    _emit(args, payload)


def _model_state(cfg):
    """The configured depolarized qutrit, at the configured or fitted orientation."""
    chi = chi2_zincblende(cfg.crystal.d_coefficient)
    orientation, _ = resolve_orientation(cfg, chi)
    return source_state(cfg, chi, orientation)[1]


def _cmd_tomography(args, cfg):
    if args.records:
        try:
            protocol, records = load_records_csv(args.records)
        except (KeyError, ValueError) as exc:
            raise ConfigError(f"bad records file {args.records}: {exc}") from exc
        rho, fit = reconstruct(records, protocol)
        payload = {
            "source": args.records,
            "rho": complex_json(rho),
            "weights": np.real(np.diag(rho)).tolist(),
            "purity": purity(rho),
            "scale_hz": fit.scale,
            "weighted_rms_residual": fit.weighted_rms_residual,
            "negative_mass_clipped": fit.negative_mass_clipped,
        }
        _emit(args, payload)
    else:
        # the seeds run_experiment gives this stage: the first children of the master seed
        seed_seq = np.random.SeedSequence(_seed(cfg, args))
        _emit(args, simulate_tomography(cfg, _model_state(cfg), seed_seq)[0])


def _cmd_bell(args, cfg):
    rho4 = bell_mod.split_postselect_rho(_model_state(cfg))
    seed = _seed(cfg, args)
    f_sim, sigma_f, std_devs = bell_mod.simulate_chsh(
        rho4, cfg.bell.counts_per_setting, seed
    )
    _emit(
        args,
        {
            "f_exact": bell_mod.chsh_value(rho4),
            "f_simulated": f_sim,
            "sigma_f": sigma_f,
            "std_devs_above_classical": std_devs,
            "counts_per_setting": cfg.bell.counts_per_setting,
            "seed": seed,
        },
    )


def _cmd_hom(args, cfg):
    spec, delays, dip, peak, fwhm_thz, dip_fwhm = spectral_section(cfg)
    if args.format == "csv":
        rows = (f"{t:.6f},{d:.9f},{p:.9f}\n" for t, d, p in zip(delays, dip, peak))
        _write(args, "tau_fs,r_dip,r_peak\n" + "".join(rows))
        return
    _emit(
        args,
        {
            "intensity_fwhm_thz": fwhm_thz,
            "hom_dip_fwhm_fs": dip_fwhm,
            "detector_response": cfg.detector_response.shape,
            "curve": hom_curve_json(delays, dip, peak),
        },
    )


def _cmd_histogram(args, cfg):
    seed = _seed(cfg, args)
    hist = setting_histogram(cfg, seed)
    net, sigma = subtract_accidentals(hist, cfg.histogram.exclusion_bins)
    if args.format == "csv":
        rows = (f"{t:.3f},{int(c)}\n" for t, c in zip(hist.centers_ns, hist.counts))
        _write(args, "delta_t_ns,counts\n" + "".join(rows))
        return
    _emit(
        args,
        {
            "net": net,
            "net_sigma": sigma,
            "total_counts": int(hist.counts.sum()),
            "n_bins": len(hist.counts),
            "seed": seed,
        },
    )


def _cmd_run(args, cfg):
    report = run_experiment(cfg, seed=args.seed)
    out_dir = args.out or "spdcfilm_run"
    paths = write_report(report, out_dir)
    for p in paths:
        print(p)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spdcfilm",
        description="Simulate polarization-entangled pair generation in a "
        "thin-film source: emission amplitudes, tomography, Bell tests, "
        "two-photon spectra, and birefringent delay scans.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, fmt=False):
        p.add_argument("--config", help="INI file overriding the packaged defaults")
        p.add_argument("--seed", type=int, help="override the configured seed")
        p.add_argument("--out", help="output path (default: stdout)")
        if fmt:
            p.add_argument(
                "--format", choices=("json", "csv"), default="json",
                help="output format (default json)",
            )

    p = sub.add_parser("amplitudes", help="pair amplitudes for a pump polarization")
    common(p)
    p.add_argument("--pump", type=float, help="pump angle in degrees from horizontal")
    p.set_defaults(func=_cmd_amplitudes)

    p = sub.add_parser("tomography", help="simulate or fit coincidence tomography")
    common(p)
    p.add_argument("--records", help="CSV of measured settings and counts to fit")
    p.set_defaults(func=_cmd_tomography)

    p = sub.add_parser("bell", help="CHSH value and finite-statistics violation")
    common(p)
    p.set_defaults(func=_cmd_bell)

    p = sub.add_parser("hom", help="two-photon spectrum and interference curves")
    common(p, fmt=True)
    p.set_defaults(func=_cmd_hom)

    p = sub.add_parser("histogram", help="simulate one coincidence histogram")
    common(p, fmt=True)
    p.set_defaults(func=_cmd_histogram)

    p = sub.add_parser("run", help="full pipeline; writes report.json and CSVs")
    common(p)
    p.set_defaults(func=_cmd_run)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args.func(args, load_config(args.config))
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except IncompleteProtocol as exc:
        print(f"incomplete protocol: {exc}", file=sys.stderr)
        return EXIT_INCOMPLETE
    except SpdcFilmError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
