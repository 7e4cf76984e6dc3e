"""One fresh benchmark process: set up, then run operations in a closed loop.

Started by ``run.py`` with ``src`` on PYTHONPATH and the BLAS thread count
fixed in the environment. One operation is ``run_experiment(cfg, seed)``
followed by ``write_report`` into a scratch directory; every operation's
output is checked. Modes:

* ``setup``: only the set-up (import, ``load_config``, one warm-up operation);
* ``loop``: set-up, then untraced operations for ``--seconds``;
* ``trace``: set-up, untraced operations for half of ``--seconds``, then
  traced operations for the other half.

The result is one JSON object on the last line of standard output.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import random
import resource
import statistics
import sys
import time
from pathlib import Path


def _blas_threads() -> int | None:
    """Thread count reported by the OpenBLAS library numpy loaded, if any."""
    with open("/proc/self/maps") as maps:
        libs = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                getter = getattr(handle, symbol)
                getter.restype = ctypes.c_int
                return int(getter())
    return None


class Loop:
    """Closed loop with one client: the next operation starts when one ends."""

    def __init__(self, cfg, reference, out_dir: Path, seeds):
        import spdcfilm.experiment

        self.cfg, self.reference, self.out_dir = cfg, reference, out_dir
        self.experiment = spdcfilm.experiment
        self.seeds = seeds
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def record(self, seed: int, problems: list[str]):
        self.attempted += 1
        if problems:
            self.failed += 1
            self.errors.append({"seed": seed, "problems": problems[:5]})

    def one(self, seed: int) -> tuple[float, bool]:
        """Run, time and check one operation; returns (seconds, correct)."""
        start = time.perf_counter()
        try:
            # looked up on the module so traced wrappers are used when installed
            report = self.experiment.run_experiment(self.cfg, seed)
            self.experiment.write_report(report, self.out_dir)
        except Exception as exc:  # noqa: BLE001 - any failure of the program is counted
            elapsed = time.perf_counter() - start
            problems = [f"{type(exc).__name__}: {exc}"]
        else:
            elapsed = time.perf_counter() - start
            problems = check_output(self.out_dir, self.reference, seed, self.cfg)
        self.record(seed, problems)
        return elapsed, not problems

    def run_for(self, seconds: float, before_op=None) -> dict:
        """Operations until ``seconds`` have passed (at least one).

        The calibration kernel runs right before each operation; ``scaled``
        holds each operation's time at nominal speed.
        """
        from calibration import NOMINAL_S, kernel_s

        times, kernels, correct = [], [], 0
        start = time.perf_counter()
        while not times or time.perf_counter() - start < seconds:
            if before_op is not None:
                before_op(len(times))
            kernels.append(kernel_s())
            elapsed, ok = self.one(next(self.seeds))
            times.append(elapsed)
            correct += ok
        scaled = [t * NOMINAL_S / k for t, k in zip(times, kernels)]
        return {"times": times, "scaled": scaled, "kernel_s": kernels, "correct": correct}


def check_output(*args):
    # imported late: check.py imports numpy, which set-up must pay for itself
    from check import check_output

    return check_output(*args)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mode", choices=("setup", "loop", "trace"), required=True)
    parser.add_argument("--overlay", type=Path, required=True)
    parser.add_argument("--reference", type=Path, required=True)
    parser.add_argument("--out-dir", type=Path, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--process", type=int, required=True,
                        help="index of this process within the benchmark run")
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--spans", type=Path, help="where trace mode writes its spans")
    args = parser.parse_args(argv)

    # Per-operation seeds derive from (seed, process); the first is the
    # warm-up's. Drawn without numpy so that its import counts in set-up.
    rng = random.Random(args.seed * 1000 + args.process)
    seeds = iter(lambda: rng.randrange(2**31), None)
    reference = json.loads(args.reference.read_text())

    # set-up: import the package, load the overlay, one warm-up operation
    start = time.perf_counter()
    import spdcfilm.config

    loop = Loop(spdcfilm.config.load_config(args.overlay), reference, args.out_dir, seeds)
    setup_s = time.perf_counter() - start + loop.one(next(seeds))[0]
    from calibration import scale_s

    result = {"setup_raw_s": setup_s, "setup_s": scale_s(setup_s),
              "blas_threads": _blas_threads()}
    if args.mode == "loop":
        result.update(loop.run_for(args.seconds))
    elif args.mode == "trace":
        result.update(_traced(loop, args))
    result.update(attempted=loop.attempted, failed=loop.failed, errors=loop.errors,
                  peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    print(json.dumps(result))
    return 0


def _traced(loop: Loop, args) -> dict:
    """Untraced then traced operations; per-layer medians over traced ones."""
    import spdcfilm.config
    from tracer import Tracer, summarize

    untraced = loop.run_for(args.seconds / 2)
    tracer = Tracer()
    tracer.install()
    first_span = []

    def before_op(op):
        # load_config is traced once per operation, outside the timed region
        first_span.append(len(tracer.spans))
        tracer.op = op
        loop.cfg = spdcfilm.config.load_config(args.overlay)

    try:
        traced = loop.run_for(args.seconds / 2, before_op)
    finally:
        tracer.uninstall()
    ends = first_span[1:] + [len(tracer.spans)]
    per_op = [tracer.op_metrics(range(a, b)) for a, b in zip(first_span, ends)]
    if args.spans is not None:
        tracer.write_spans(args.spans)
    untraced_p50 = statistics.median(untraced["scaled"])
    traced_p50 = statistics.median(traced["scaled"])
    return {"per_layer": summarize(per_op, untraced_p50, traced_p50),
            "untraced_p50_s": untraced_p50, "traced_p50_s": traced_p50,
            "traced_ops": len(per_op)}


if __name__ == "__main__":
    sys.exit(main())
