"""spdcfilm benchmark: full simulated characterization runs on one workload.

    python3 perfbench/run.py --workload default_run --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
``src``. One operation is ``run_experiment(cfg, seed)`` plus
``write_report``, with ``cfg = load_config(perfbench/workloads/<workload>.cfg)``
loaded once per process. A single client runs operations in a closed loop in
a fresh process with one BLAS thread; every operation's output is checked
(``check.py``).

``--trace 0`` reports the end-to-end metrics. ``setup_s`` is the median over
SETUP_PROCESSES fresh processes, the loop's own among them. Times are
expressed at the nominal machine speed of ``calibration.py``; the unscaled
wall times are printed and kept in the result file too.
``--trace 1`` reports the per-layer metrics of ``tracer.py`` from a separate
process that runs untraced operations for half of ``--seconds`` and traced
ones for the other half. Per-layer times are unscaled wall times;
``trace.overhead_frac`` compares the scaled medians of the two halves.

The last line of standard output is the result as one JSON object; the lines
before it list every metric with its unit, the failure fraction and the
environment. The result, environment included, is also kept in
``.bench_build/perfbench/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SCRATCH = ROOT / ".bench_build" / "perfbench"
WORKLOADS = sorted(p.stem for p in (BENCH_DIR / "workloads").glob("*.cfg"))

SETUP_PROCESSES = 3
BLAS_THREADS = 1
#: a run must end within this many seconds, its child processes included
RUN_DEADLINE_S = 170.0

END_TO_END_UNITS = {
    "run_s.p50": "s",
    "runs_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def environment(blas_threads) -> dict:
    """What a result depends on besides the code: versions and the machine."""
    import numpy

    src = ROOT / "src"
    digest = hashlib.sha256()
    for path in sorted(p for p in src.rglob("*") if p.is_file() and "__pycache__" not in p.parts):
        digest.update(str(path.relative_to(src)).encode() + b"\0" + path.read_bytes())
    git_sha = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, check=False)
        git_sha = done.stdout.strip() or None
    cpu_model = platform.processor() or None
    try:
        with open("/proc/cpuinfo") as f:
            cpu_model = next((line.split(":", 1)[1].strip() for line in f
                              if line.startswith("model name")), cpu_model)
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": git_sha,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
    }


class Runner:
    """Starts worker processes for one benchmark run and collects their results."""

    def __init__(self, workload: str, seed: int, run_dir: Path):
        self.workload, self.seed, self.run_dir = workload, seed, run_dir
        self.deadline = time.monotonic() + RUN_DEADLINE_S
        self.env = dict(os.environ)
        src = str(ROOT / "src")
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p)
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            self.env[var] = str(BLAS_THREADS)

    def worker(self, mode: str, process: int, seconds: float = 0.0, spans=None) -> dict:
        out_dir = self.run_dir / f"p{process}"
        cmd = [sys.executable, str(BENCH_DIR / "worker.py"), "--mode", mode,
               "--overlay", str(BENCH_DIR / "workloads" / f"{self.workload}.cfg"),
               "--reference", str(BENCH_DIR / "reference" / f"{self.workload}.json"),
               "--out-dir", str(out_dir), "--seed", str(self.seed),
               "--process", str(process), "--seconds", str(seconds)]
        if spans is not None:
            cmd += ["--spans", str(spans)]
        # subprocess.run kills and reaps the worker if the deadline passes
        done = subprocess.run(cmd, env=self.env, stdout=subprocess.PIPE, text=True,
                              timeout=max(self.deadline - time.monotonic(), 1.0), check=False)
        if done.returncode != 0:
            raise RuntimeError(f"{mode} worker exited with code {done.returncode}")
        return json.loads(done.stdout.strip().splitlines()[-1])


def end_to_end(runner: Runner, seconds: float) -> tuple[dict, list[dict]]:
    probes = [runner.worker("setup", k) for k in range(1, SETUP_PROCESSES)]
    loop = runner.worker("loop", 0, seconds)
    metrics = {
        "run_s.p50": statistics.median(loop["scaled"]),
        "runs_per_s": loop["correct"] / sum(loop["scaled"]),
        "setup_s": statistics.median(w["setup_s"] for w in [loop, *probes]),
        "peak_rss_mb": loop["peak_rss_mb"],
    }
    print(f"unscaled: run_s.p50 {statistics.median(loop['times'])} s, runs_per_s "
          f"{loop['correct'] / sum(loop['times'])} 1/s, setup_s "
          f"{statistics.median(w['setup_raw_s'] for w in [loop, *probes])} s, "
          f"calibration kernel median {statistics.median(loop['kernel_s'])} s")
    return {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}, [loop, *probes]


def per_layer(runner: Runner, seconds: float) -> tuple[dict, list[dict]]:
    from tracer import PER_LAYER_UNITS

    spans = SCRATCH / "spans" / f"{runner.workload}.json"
    spans.parent.mkdir(parents=True, exist_ok=True)
    traced = runner.worker("trace", 0, seconds, spans)
    return ({k: (v, PER_LAYER_UNITS[k]) for k, v in traced["per_layer"].items()}, [traced])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "spdcfilm" / "__init__.py").is_file():
        print(f"error: no spdcfilm sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {WORKLOADS}",
              file=sys.stderr)
        return 2

    run_dir = SCRATCH / f"run-{args.workload}-{args.seed}-{os.getpid()}"
    runner = Runner(args.workload, args.seed, run_dir)
    measure = per_layer if args.trace else end_to_end
    try:
        metrics, workers = measure(runner, args.seconds)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    attempted = sum(w["attempted"] for w in workers)
    failed = sum(w["failed"] for w in workers)
    errors = [e for w in workers for e in w["errors"]]
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "fail_frac": failed / attempted, "errors": errors,
              "environment": environment(workers[0]["blas_threads"]), **result,
              "workers": [{k: v for k, v in w.items() if k != "per_layer"} for w in workers]}
    results_dir = SCRATCH / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    (results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")

    for e in errors:
        print(f"FAILED seed {e['seed']}: {'; '.join(e['problems'])}")
    print(f"environment {json.dumps(record['environment'])}")
    print(f"{args.workload}: {attempted} operations attempted, {failed} failed, "
          f"fail_frac {failed / attempted} ratio")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value} {unit}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
