"""Command-line interface.

``run`` runs the full pipeline and writes its report. Each stage command
runs only the pipeline stages its output needs, the same public stages
``run_experiment`` calls on the same seed sequence, and prints its part of
that run: ``amplitudes``, ``tomography``, ``bell`` and ``hom`` print the
report's keys of their stage result (``result.to_json()``) as ``report.json``
renders them, ``hom --format csv`` prints ``hom.csv`` and ``histogram``
prints ``histogram.csv`` of the draw step alone (``simulate_histograms``).
``tomography --records`` runs the same analysis, ``analyze_tomography``, on
the measured records of a CSV file instead of simulated ones, and prints
the run's ``tomography`` keys plus ``source``. Exit codes: 0 success, 2
configuration or input-file problems, 3 numerical failures (poor fits,
singular reconstructions, vanishing amplitudes), 4 incomplete tomography
protocols.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

import numpy as np

from .config import load_config
from .errors import ConfigError, IncompleteProtocol, SpdcFilmError
from .experiment import (
    SpectralSection,
    analyze_tomography,
    histogram_csv,
    report_json_bytes,
    run_experiment,
    simulate_bell,
    simulate_histograms,
    simulate_tomography,
    source_model,
    spectral_section,
    write_bytes,
    write_report,
)
from .tomography import load_records_csv

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_INCOMPLETE = 4


def _write(args, data: bytes):
    if args.out:
        write_bytes(args.out, data)
    else:
        sys.stdout.flush()
        sys.stdout.buffer.write(data)
        sys.stdout.buffer.flush()


def _seeded(stage):
    """``stage`` of the configuration and the run's seed sequence, as a stage of
    the configuration alone: the sequence, and with it ``numpy.random``, is
    made only when a stage that draws runs."""
    return lambda cfg: stage(cfg, np.random.SeedSequence(cfg.run.seed))


#: stage command -> (its stage result of the configuration, the result's
#: encoder of the sidecar it prints as CSV, the one ``encoded()`` calls for it)
_STAGES = {
    "amplitudes": (source_model, None),
    "tomography": (_seeded(simulate_tomography), None),
    "bell": (_seeded(lambda cfg, seed_seq: simulate_bell(
        cfg, simulate_tomography(cfg, seed_seq), seed_seq)), None),
    "hom": (spectral_section, SpectralSection.hom_csv),
    "histogram": (_seeded(simulate_histograms), lambda histograms: histogram_csv(*histograms)),
}


def _cmd_stage(args, cfg):
    if getattr(args, "records", None):
        try:
            protocol, records = load_records_csv(args.records)
        except ValueError as exc:
            raise ConfigError(f"bad records file {args.records}: {exc}") from exc
        seed_seq = np.random.SeedSequence(cfg.run.seed)  # the bootstrap draws
        sections = analyze_tomography(cfg, protocol, records, seed_seq).to_json()
        sections["tomography"]["source"] = args.records
    else:
        stage, encode_csv = _STAGES[args.command]
        result = stage(cfg)
        if args.format == "csv":
            return _write(args, encode_csv(result))
        sections = result.to_json()
    _write(args, report_json_bytes(sections))


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

    def command(name, func, help):
        p = sub.add_parser(name, help=help)
        p.add_argument("--config", help="INI file overriding the packaged defaults")
        p.add_argument("--seed", type=int, help="override the configured seed")
        p.add_argument("--out", help="output path (default: stdout)")
        p.set_defaults(func=func, format="json")
        return p

    p = command("amplitudes", _cmd_stage, "orientation, pair amplitudes and model state")
    p.add_argument("--pump", type=float, help="pump angle in degrees from horizontal")
    p = command("tomography", _cmd_stage, "simulate or fit coincidence tomography")
    p.add_argument("--records", help="CSV of measured settings and counts to fit")
    command("bell", _cmd_stage, "the run's CHSH test of the reconstructed state")
    p = command("hom", _cmd_stage, "two-photon spectrum widths and interference curves")
    p.add_argument("--format", choices=("json", "csv"), default="json",
                   help="output format (default json; csv prints hom.csv)")
    p = command("histogram", _cmd_stage, "the nine tomography histograms (histogram.csv)")
    p.set_defaults(format="csv")
    command("run", _cmd_run, "full pipeline; writes report.json and CSVs")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        # validated as the configured [run] seed and [pump] angle are
        if args.seed is not None:
            cfg = replace(cfg, run=replace(cfg.run, seed=args.seed))
        if getattr(args, "pump", None) is not None:
            cfg = replace(cfg, pump=replace(cfg.pump, angle_deg=args.pump))
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
