"""Output check for one benchmark operation.

Every operation's ``report.json`` is parsed as strict JSON (NaN and Infinity
rejected). Its seed-independent sections must match the stored reference of
the workload to RTOL/ATOL, and its seed-dependent sections must satisfy
physical invariants. The CSV sidecars must have one row per grid point.

    python3 perfbench/check.py --write-reference

regenerates ``perfbench/reference/<workload>.json`` from the current source,
after confirming that two seeds give the same seed-independent sections.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
REFERENCE_DIR = BENCH_DIR / "reference"
WORKLOAD_DIR = BENCH_DIR / "workloads"

RTOL = 1e-9
ATOL = 1e-12
INVARIANT_TOL = 1e-9
#: F = |S|/2 in the package's convention, so |S| <= 2 sqrt(2) reads F <= sqrt(2)
TSIRELSON_F = math.sqrt(2.0)
#: each correlator lies in [-1, 1], so a finite-count F is at most 2
ALGEBRAIC_F = 2.0
SIGMA_KEYS = ("purity_sigma", "concurrence_sigma", "visibility_sigma")


def reference_view(summary: dict) -> dict:
    """The sections of a report that do not depend on the seed."""
    spectral = summary["spectral"]
    return {
        "orientation": summary["orientation"],
        "amplitudes": summary["amplitudes"],
        "model_state": summary["model_state"],
        "spectral_widths": {
            "intensity_fwhm_thz": spectral["intensity_fwhm_thz"],
            "hom_dip_fwhm_fs": spectral["hom_dip_fwhm_fs"],
        },
        "hom_curve": spectral["hom_curve"],
        "delay_line": summary["delay_line"],
    }


def compare(expected, actual, path="") -> list[str]:
    """Differences between two JSON values, numbers compared to RTOL/ATOL."""
    if isinstance(expected, dict):
        if not isinstance(actual, dict) or expected.keys() != actual.keys():
            return [f"{path}: keys differ from the reference"]
        return [d for k in expected for d in compare(expected[k], actual[k], f"{path}.{k}")]
    if isinstance(expected, list):
        if not isinstance(actual, list) or len(expected) != len(actual):
            return [f"{path}: length differs from the reference"]
        return [d for i, (e, a) in enumerate(zip(expected, actual))
                for d in compare(e, a, f"{path}[{i}]")]
    numbers = (int, float)
    if isinstance(expected, numbers) and not isinstance(expected, bool):
        if not isinstance(actual, numbers) or isinstance(actual, bool):
            return [f"{path}: {actual!r} is not a number"]
        if abs(actual - expected) > ATOL + RTOL * abs(expected):
            return [f"{path}: {actual!r} differs from reference {expected!r}"]
        return []
    return [] if expected == actual else [f"{path}: {actual!r} != reference {expected!r}"]


def invariants(summary: dict, seed: int, bootstrap_samples: int) -> list[str]:
    """Physical invariants of the seed-dependent sections."""
    problems = []
    if summary["seed"] != seed:
        problems.append(f"seed {summary['seed']} != requested {seed}")
    tomo = summary["tomography"]
    rho = np.array([[complex(*z) for z in row] for row in tomo["rho"]])
    if np.max(np.abs(rho - rho.conj().T)) > INVARIANT_TOL:
        problems.append("rho is not Hermitian")
    if abs(np.trace(rho).real - 1.0) > INVARIANT_TOL:
        problems.append(f"trace(rho) = {np.trace(rho).real!r}")
    if np.linalg.eigvalsh((rho + rho.conj().T) / 2).min() < -INVARIANT_TOL:
        problems.append("rho has a negative eigenvalue")
    if abs(sum(tomo["weights"]) - 1.0) > INVARIANT_TOL:
        problems.append(f"tomography weights sum to {sum(tomo['weights'])!r}")
    if not 1.0 / 3.0 - INVARIANT_TOL <= tomo["purity"] <= 1.0 + INVARIANT_TOL:
        problems.append(f"purity {tomo['purity']!r} outside [1/3, 1]")

    bell = summary["bell"]
    for key, bound in (("f_model", TSIRELSON_F), ("f_reconstructed", TSIRELSON_F),
                       ("f_simulated", ALGEBRAIC_F)):
        if not abs(bell[key]) <= bound + INVARIANT_TOL:
            problems.append(f"bell {key} = {bell[key]!r} exceeds {bound:.6f}")

    sigmas = [tomo[k] for k in SIGMA_KEYS] + list(tomo["weights_sigma"] or [None])
    finite = all(isinstance(v, float) and math.isfinite(v) for v in sigmas)
    if bootstrap_samples > 0 and not finite:
        problems.append(f"bootstrap sigmas are not all finite: {sigmas}")
    if bootstrap_samples == 0 and any(v is not None for v in sigmas):
        problems.append("sigmas reported although no bootstrap replicates were drawn")
    return problems


def _reject_constant(name):
    raise ValueError(f"report.json contains the non-JSON constant {name}")


def expected_rows(cfg) -> dict:
    """Data rows of each CSV sidecar implied by the configuration."""
    return {
        "histogram.csv": 9 * cfg.histogram.n_bins,
        "hom.csv": cfg.hom.delay_points,
        "spectrum.csv": cfg.spectrum.points,
        "delay_scan.csv": cfg.delay_line.scan_points,
        "fringe.csv": cfg.fringe.theta_points,
    }


def check_output(out_dir: Path, reference: dict, seed: int, cfg) -> list[str]:
    """Every problem found in the files ``write_report`` left in ``out_dir``."""
    try:
        summary = json.loads((out_dir / "report.json").read_text(),
                             parse_constant=_reject_constant)
        problems = compare(reference["sections"], reference_view(summary))
        problems += invariants(summary, seed, cfg.run.bootstrap_samples)
        for name, rows in expected_rows(cfg).items():
            with (out_dir / name).open() as f:
                found = sum(1 for _ in f) - 1
            if found != rows:
                problems.append(f"{name}: {found} data rows, expected {rows}")
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        return [f"output unreadable: {type(exc).__name__}: {exc}"]
    return problems


def load_reference(workload: str) -> dict:
    return json.loads((REFERENCE_DIR / f"{workload}.json").read_text())


def write_references(seeds=(1, 2)):
    """Regenerate every workload's reference from the current source."""
    sys.path.insert(0, str(BENCH_DIR.parent / "src"))
    from spdcfilm import load_config, run_experiment

    REFERENCE_DIR.mkdir(exist_ok=True)
    for overlay in sorted(WORKLOAD_DIR.glob("*.cfg")):
        cfg = load_config(overlay)
        views = [reference_view(json.loads(json.dumps(run_experiment(cfg, s).summary)))
                 for s in seeds]
        differences = compare(views[0], views[1])
        if differences:
            raise SystemExit(f"{overlay.stem}: sections depend on the seed: {differences[:3]}")
        path = REFERENCE_DIR / f"{overlay.stem}.json"
        path.write_text(json.dumps({"workload": overlay.stem, "sections": views[0]},
                                   indent=1, sort_keys=True) + "\n")
        print(f"wrote {path.relative_to(BENCH_DIR.parent)}")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write-reference", action="store_true", required=True)
    parser.parse_args()
    write_references()
