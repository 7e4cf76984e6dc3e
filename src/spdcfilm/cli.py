"""Command-line interface.

Subcommands cover the full pipeline (run) and its stages (amplitudes,
tomography, bell, hom, histogram); the stages call the memoized
``source_model`` and ``spectral_section`` that ``run_experiment`` calls.
So ``amplitudes``, ``hom`` and ``tomography`` print what a run's report holds
for the same config and seed. ``bell`` does not: it calls the run's
``simulate_bell`` and prints the run's ``bell.f_model`` as ``f_exact``, but
it simulates CHSH counts on the model state ``source_model(cfg).rho`` with
a generator seeded by ``[run] seed`` itself, while a run simulates them on
the reconstructed state with a child spawned from that seed, so
``f_simulated`` is a different draw of a different state. Exit codes: 0
success, 2 configuration or input-file problems, 3 numerical failures
(poor fits, singular reconstructions, vanishing amplitudes), 4 incomplete
tomography protocols.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace

import numpy as np

from .config import load_config
from .errors import ConfigError, IncompleteProtocol, SpdcFilmError
from .experiment import (
    amplitudes_json,
    complex_json,
    run_experiment,
    setting_histogram,
    simulate_bell,
    simulate_tomography,
    source_model,
    spectral_section,
    write_report,
)
from .histogram import subtract_accidentals
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
    _write(args, json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n")


def _cmd_amplitudes(args, cfg):
    if args.pump is not None:
        cfg = replace(cfg, pump=replace(cfg.pump, angle_deg=args.pump))
    model = source_model(cfg)
    orientation = model.to_json()["orientation"]
    del orientation["normal_axis_angles_deg"]  # the report's alone
    _emit(args, {
        "orientation": orientation,
        "pump_angle_deg": cfg.pump.angle_deg,
        "requested": amplitudes_json(model.pumped),
        "h_pump": amplitudes_json(model.h_pump),
        "v_pump": amplitudes_json(model.v_pump),
    })


def _cmd_tomography(args, cfg):
    if args.records:
        try:
            protocol, records = load_records_csv(args.records)
        except ValueError as exc:
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
        seed_seq = np.random.SeedSequence(cfg.run.seed)
        tomography = simulate_tomography(cfg, source_model(cfg).rho, seed_seq)
        _emit(args, tomography.to_json()["tomography"])


def _cmd_bell(args, cfg):
    model = source_model(cfg)
    bell = simulate_bell(cfg, model.f_model, model.rho, cfg.run.seed).to_json()["bell"]
    del bell["f_reconstructed"]  # of the model state here: f_exact again
    _emit(args, {"f_exact": bell.pop("f_model"), **bell, "seed": cfg.run.seed})


def _cmd_hom(args, cfg):
    section = spectral_section(cfg)
    if args.format == "csv":
        rows = (f"{t:.6f},{d:.9f},{p:.9f}\n"
                for t, d, p in zip(section.delays_fs, section.r_dip, section.r_peak))
        _write(args, "tau_fs,r_dip,r_peak\n" + "".join(rows))
        return
    payload = section.to_json()["spectral"]
    payload["curve"] = payload.pop("hom_curve")
    _emit(args, payload)


def _cmd_histogram(args, cfg):
    seed = cfg.run.seed
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
    report = run_experiment(cfg)
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
        cfg = load_config(args.config)
        if args.seed is not None:  # validated as the configured seed is
            cfg = replace(cfg, run=replace(cfg.run, seed=args.seed))
        args.func(args, cfg)
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
