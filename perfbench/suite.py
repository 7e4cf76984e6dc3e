"""Run every workload of BENCHMARK.json and print every metric with its unit.

    python3 perfbench/suite.py --seeds 1,2,3
    python3 perfbench/suite.py --seeds 1-10 --trace-seeds 1,2 --baseline perfbench/baseline.json
    python3 perfbench/suite.py --smoke

Each (workload, seed) is one ``run.py`` process, untraced, followed by
traced runs for ``--trace-seeds``. The summary gives each end-to-end metric's
median over the seeds and its spread, the distance between the first and
third quartile as a share of the median, against the metric's bound.
``--baseline`` writes those figures, the per-layer metrics and the
environment to a JSON file.

``--smoke`` runs each workload for one second in both modes and asserts that
every metric of BENCHMARK.json is emitted with its unit and that the output
check passes; it then asserts that the output check rejects perturbed
references and reports.
"""

from __future__ import annotations

import argparse
import copy
import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One run.py process; its result with the recorded environment added."""
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
    lines = done.stdout.strip().splitlines()
    print("\n".join(f"  {line}" for line in lines[:-1]), flush=True)
    env = next(line.split(" ", 1)[1] for line in lines if line.startswith("environment "))
    return {**json.loads(lines[-1]), "environment": json.loads(env)}


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        first, last = (int(x) for x in text.split("-"))
        return list(range(first, last + 1))
    return [int(x) for x in text.split(",") if x]


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def measure(seeds, trace_seeds, seconds) -> tuple[dict, dict]:
    """Per-workload summaries, and the environment the runs recorded."""
    out = {}
    for w in SPEC["workloads"]:
        name = w["name"]
        runs = []
        for seed in seeds:
            print(f"{name} seed {seed} untraced", flush=True)
            runs.append(run(name, seed, seconds, 0))
        traced = []
        for seed in trace_seeds:
            print(f"{name} seed {seed} traced", flush=True)
            traced.append(run(name, seed, seconds, 1))
        attempted = sum(r["attempted"] for r in runs + traced)
        failed = sum(r["failed"] for r in runs + traced)
        summary = {"why": w["why"], "attempted": attempted, "failed": failed,
                   "fail_frac": failed / attempted, "end_to_end": {}, "per_layer": {}}
        for m in SPEC["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in runs]
            summary["end_to_end"][m["name"]] = {
                "unit": m["unit"], "median": statistics.median(values),
                "spread": spread(values) if len(values) > 1 else None,
                "bound": m["bound"], "values": values}
        for m in SPEC["per_layer"]:
            values = [r["metrics"][m["name"]]["value"] for r in traced]
            if values:
                summary["per_layer"][m["name"]] = {
                    "unit": m["unit"], "median": statistics.median(values), "values": values}
        out[name] = summary
    return out, runs[-1]["environment"]


def print_summary(results: dict):
    for name, s in results.items():
        print(f"\n{name}: {s['attempted']} operations, {s['failed']} failed, "
              f"fail_frac {s['fail_frac']} ratio")
        for metric, m in s["end_to_end"].items():
            extra = ""
            if m["spread"] is not None:
                # set-up time is gated on its median only, not on its spread
                flag = ("not gated" if metric == "setup_s"
                        else "ok" if m["spread"] < m["bound"] / 3 else "WIDE")
                extra = f"  spread {m['spread']:.4f} (bound {m['bound']}) {flag}"
            print(f"  {metric} {m['median']} {m['unit']}{extra}")
        for metric, m in s["per_layer"].items():
            print(f"  {metric} {m['median']} {m['unit']}")


def smoke():
    for w in SPEC["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            print(f"smoke {w['name']} trace {trace}", flush=True)
            result = run(w["name"], 1, 1, trace)
            expected = {m["name"]: m["unit"] for m in SPEC[key]}
            emitted = {k: v["unit"] for k, v in result["metrics"].items()}
            assert emitted == expected, f"{w['name']} trace {trace}: {emitted} != {expected}"
            assert result["correct"] and result["attempted"] >= 1, result
    check_rejects_perturbations()
    print("smoke: every metric emitted with its unit; output check rejects perturbations")


def check_rejects_perturbations(workload="default_run", seed=7):
    """The output check passes a real report and fails each perturbed copy."""
    sys.path.insert(0, str(ROOT / "src"))
    from check import check_output, load_reference
    from spdcfilm import load_config, run_experiment, write_report

    out = ROOT / ".bench_build" / "perfbench" / "smoke"
    cfg = load_config(BENCH_DIR / "workloads" / f"{workload}.cfg")
    write_report(run_experiment(cfg, seed), out)
    reference = load_reference(workload)
    assert check_output(out, reference, seed, cfg) == [], "clean report rejected"
    assert check_output(out, reference, seed + 1, cfg), "wrong seed accepted"

    for section in reference["sections"]:
        perturbed = copy.deepcopy(reference)
        _bump_first_number(perturbed["sections"][section], 1e-6)
        problems = check_output(out, perturbed, seed, cfg)
        assert any(f".{section}" in p for p in problems), f"perturbed {section} accepted"

    report_path = out / "report.json"
    summary = json.loads(report_path.read_text())
    for mutate in (_nan_purity, _non_hermitian_rho, _extra_weight):
        bad = copy.deepcopy(summary)
        mutate(bad)
        report_path.write_text(json.dumps(bad))
        assert check_output(out, reference, seed, cfg), f"{mutate.__name__} accepted"
    shutil.rmtree(out)


def _bump_first_number(node, rel) -> bool:
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        if isinstance(value, float) and value != 0.0:
            node[key] = value * (1.0 + rel)
            return True
        if isinstance(value, (dict, list)) and _bump_first_number(value, rel):
            return True
    return False


def _nan_purity(summary):
    summary["tomography"]["purity"] = float("nan")


def _non_hermitian_rho(summary):
    summary["tomography"]["rho"][0][1][1] += 1e-3


def _extra_weight(summary):
    summary["tomography"]["weights"][0] += 1e-3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--seeds", default="1", help="e.g. 1,2,3 or 1-10")
    parser.add_argument("--trace-seeds", default="1")
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--baseline", type=Path, help="write the summary to this JSON file")
    args = parser.parse_args(argv)
    if args.smoke:
        smoke()
        return 0
    results, environment = measure(
        parse_seeds(args.seeds), parse_seeds(args.trace_seeds), args.seconds)
    print_summary(results)
    if args.baseline is not None:
        args.baseline.write_text(json.dumps(
            {"seconds": args.seconds, "environment": environment, "workloads": results},
            indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
