"""Span tracing of spdcfilm's public functions, installed from outside the package.

``Tracer.install`` replaces each traced function wherever a module of the
package binds it (``spdcfilm.experiment.reconstruct``,
``spdcfilm.tomography.analyzer_ket``, ...) with a wrapper that records one
span per call: (op, name, start, end, parent, failed). Spans stay in memory
until ``write_spans``; ``op_metrics`` turns the spans of one operation into
the per-layer metrics.
"""

from __future__ import annotations

import functools
import json
import math
import statistics
import sys
import tracemalloc
from collections import defaultdict
from time import perf_counter

import numpy as np

#: traced functions: metric prefix -> (defining module, attribute)
TARGETS = {
    "config.load_config": ("spdcfilm.config", "load_config"),
    "experiment.run_experiment": ("spdcfilm.experiment", "run_experiment"),
    "experiment.write_report": ("spdcfilm.experiment", "write_report"),
    "crystal.calibrate_orientation": ("spdcfilm.crystal", "calibrate_orientation"),
    "crystal.weight_residual": ("spdcfilm.crystal", "weight_residual"),
    "crystal.spdc_amplitudes": ("spdcfilm.crystal", "spdc_amplitudes"),
    "histogram.simulate_histogram": ("spdcfilm.histogram", "simulate_histogram"),
    "histogram.subtract_accidentals": ("spdcfilm.histogram", "subtract_accidentals"),
    "tomography.reconstruct": ("spdcfilm.tomography", "reconstruct"),
    "tomography.completeness_check": ("spdcfilm.tomography", "completeness_check"),
    "tomography.project_psd": ("spdcfilm.tomography", "project_psd"),
    "tomography.fringe_scan": ("spdcfilm.tomography", "fringe_scan"),
    "polarization.analyzer_ket": ("spdcfilm.polarization", "analyzer_ket"),
    "qutrit.dominant_eigenstate": ("spdcfilm.qutrit", "dominant_eigenstate"),
    "bell.simulate_chsh": ("spdcfilm.bell", "simulate_chsh"),
    "bell.chsh_value": ("spdcfilm.bell", "chsh_value"),
    "spectral.joint_spectrum": ("spdcfilm.spectral", "joint_spectrum"),
    "spectral.interference_contrast": ("spdcfilm.spectral", "interference_contrast"),
    "spectral.hom_curve": ("spdcfilm.spectral", "hom_curve"),
    "spectral.hom_fwhm": ("spdcfilm.spectral", "hom_fwhm"),
    "delayline.delay_scan": ("spdcfilm.delayline", "delay_scan"),
}

#: per-layer metrics in report order: name -> unit
PER_LAYER_UNITS = {
    "experiment.run_experiment.self_s": "s",
    "experiment.write_report.s": "s",
    "experiment.write_report.bytes": "bytes",
    "experiment.bootstrap.useful_frac": "ratio",
    "tomography.reconstruct.calls": "count",
    "tomography.reconstruct.s": "s",
    "tomography.reconstruct.self_s": "s",
    "tomography.completeness_check.calls": "count",
    "tomography.completeness_check.s": "s",
    "tomography.fringe_scan.calls": "count",
    "tomography.fringe_scan.s": "s",
    "tomography.fringe_scan.self_s": "s",
    "tomography.fringe_scan.fail": "count",
    "tomography.project_psd.s": "s",
    "polarization.analyzer_ket.calls": "count",
    "polarization.analyzer_ket.s": "s",
    "qutrit.dominant_eigenstate.fail": "count",
    "crystal.orientation.s": "s",
    "crystal.weight_residual.calls": "count",
    "crystal.weight_residual.s": "s",
    "crystal.spdc_amplitudes.s": "s",
    "spectral.joint_spectrum.s": "s",
    "spectral.hom_curve.s": "s",
    "spectral.hom_fwhm.s": "s",
    "spectral.hom_fwhm.peak_traced_mb": "MB",
    "spectral.interference_contrast.calls": "count",
    "spectral.interference_contrast.s": "s",
    "spectral.interference_contrast.bytes_computed": "bytes",
    "histogram.simulate_histogram.s": "s",
    "histogram.subtract_accidentals.s": "s",
    "bell.simulate_chsh.s": "s",
    "bell.chsh_value.s": "s",
    "delayline.delay_scan.s": "s",
    "config.load_config.s": "s",
    "trace.overhead_frac": "ratio",
}


class Tracer:
    """In-memory span recorder; one instance per traced process."""

    def __init__(self):
        self.spans = []  # (op, name, start, end, parent index or -1, failed)
        self.attrs = {}  # span index -> extra measurements of that call
        self.op = -1
        self._stack = []
        self._patched = []

    def install(self):
        """Wrap every traced function at every module binding in the package.

        A function the package no longer defines is skipped; its metrics read 0.
        """
        for name, (module_name, attr) in TARGETS.items():
            original = getattr(sys.modules[module_name], attr, None)
            if original is None:
                continue
            wrapper = self._wrap(name, original)
            for module_name_, module in list(sys.modules.items()):
                if module_name_.split(".")[0] != "spdcfilm":
                    continue
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, key, original))
                        setattr(module, key, wrapper)

    def uninstall(self):
        for module, key, original in reversed(self._patched):
            setattr(module, key, original)
        self._patched.clear()

    def _wrap(self, name, fn):
        measure = _MEASURES.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            index = len(self.spans)
            self.spans.append(None)
            self._stack.append(index)
            failed = True
            start = perf_counter()
            try:
                if measure is None:
                    result = fn(*args, **kwargs)
                else:
                    result, attrs = measure(fn, args, kwargs)
                    self.attrs[index] = attrs
                failed = False
                return result
            finally:
                end = perf_counter()
                self._stack.pop()
                self.spans[index] = (self.op, name, start, end, parent, failed)

        return wrapper

    def write_spans(self, path):
        """Write every recorded span as one JSON document."""
        fields = ["op", "name", "start", "end", "parent", "failed"]
        path.write_text(json.dumps({"fields": fields, "spans": self.spans}))

    def op_metrics(self, indices: range) -> dict:
        """Per-layer metrics of the spans of one traced operation.

        A layer's self time is its span durations minus the time its direct
        child spans cover; its ``.s`` time counts only its outermost spans.
        """
        children_time = defaultdict(float)
        for i in indices:
            _, _, start, end, parent, _ = self.spans[i]
            if parent >= 0:
                children_time[parent] += end - start
        calls, fails = defaultdict(int), defaultdict(int)
        total, self_time = defaultdict(float), defaultdict(float)
        for i in indices:
            _, name, start, end, parent, failed = self.spans[i]
            calls[name] += 1
            self_time[name] += end - start - children_time[i]
            fails[name] += failed
            if not self._inside(parent, name):
                total[name] += end - start

        out = {}
        for prefix in TARGETS:
            out[f"{prefix}.calls"] = calls[prefix]
            out[f"{prefix}.s"] = total[prefix]
            out[f"{prefix}.self_s"] = self_time[prefix]
            out[f"{prefix}.fail"] = fails[prefix]
        # calibrate_orientation when the overlay asks for it, else one weight_residual
        out["crystal.orientation.s"] = sum(
            self.spans[i][3] - self.spans[i][2] for i in indices
            if self.spans[i][1] in ("crystal.calibrate_orientation", "crystal.weight_residual")
            and self.spans[i][4] >= 0
            and self.spans[self.spans[i][4]][1] == "experiment.run_experiment")
        out["experiment.write_report.bytes"] = self._attr_sum(
            indices, "experiment.write_report", "bytes")
        out["spectral.interference_contrast.bytes_computed"] = self._attr_sum(
            indices, "spectral.interference_contrast", "bytes_computed")
        peaks = [self.attrs[i]["peak_traced_mb"] for i in indices
                 if self.spans[i][1] == "spectral.hom_fwhm" and i in self.attrs]
        out["spectral.hom_fwhm.peak_traced_mb"] = max(peaks, default=0.0)
        out["experiment.bootstrap.useful_frac"] = self._useful_frac(indices)
        return {k: v for k, v in out.items() if k in PER_LAYER_UNITS}

    def _inside(self, index, name) -> bool:
        while index >= 0:
            if self.spans[index][1] == name:
                return True
            index = self.spans[index][4]
        return False

    def _attr_sum(self, indices, name, key) -> int:
        return int(sum(self.attrs[i][key] for i in indices
                         if self.spans[i][1] == name and i in self.attrs))

    def _useful_frac(self, indices) -> float:
        """Share of state evaluations whose concurrence and visibility are finite.

        ``run_experiment`` evaluates the point estimate and then each bootstrap
        replicate by one ``dominant_eigenstate`` call followed by one
        ``fringe_scan`` call; the k-th call of each belongs to evaluation k. A
        raised DegenerateTop or FitFailure, or a non-finite result, makes the
        evaluation useless. The point estimate counts as one evaluation so the
        ratio exists when no replicates are drawn.
        """
        def outcomes(name):
            return [not self.spans[i][5] and self.attrs.get(i, {}).get("finite", True)
                    for i in indices if self.spans[i][1] == name]

        tops = outcomes("qutrit.dominant_eigenstate")
        fringes = outcomes("tomography.fringe_scan")
        if len(tops) == len(fringes):
            useful = sum(a and b for a, b in zip(tops, fringes))
        else:  # the calls no longer pair up: at most the rarer success is useful
            useful = min(sum(tops), sum(fringes))
        return useful / max(len(tops), len(fringes), 1)


def _measure_finite(fn, args, kwargs):
    # fringe_scan returns (curve, visibility), dominant_eigenstate (vector, weight)
    first, second = result = fn(*args, **kwargs)
    finite = math.isfinite(second) and (isinstance(first, list) or bool(np.isfinite(first).all()))
    return result, {"finite": finite}


def _measure_contrast(fn, args, kwargs):
    spectrum, delays = args[0], args[1] if len(args) > 1 else kwargs["delays_fs"]
    n_tau = np.atleast_1d(np.asarray(delays)).size
    # float64 phase matrix plus the cosine matrix, each len(taus) x len(grid)
    computed = 16 * n_tau * spectrum.omega_thz.size
    return fn(*args, **kwargs), {"bytes_computed": computed}


def _measure_traced_peak(fn, args, kwargs):
    tracemalloc.start()
    try:
        result = fn(*args, **kwargs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, {"peak_traced_mb": peak / 2**20}


def _measure_written_bytes(fn, args, kwargs):
    paths = fn(*args, **kwargs)
    return paths, {"bytes": sum(p.stat().st_size for p in paths)}


_MEASURES = {
    "qutrit.dominant_eigenstate": _measure_finite,
    "tomography.fringe_scan": _measure_finite,
    "spectral.interference_contrast": _measure_contrast,
    "spectral.hom_fwhm": _measure_traced_peak,
    "experiment.write_report": _measure_written_bytes,
}


def summarize(per_op: list[dict], untraced_p50: float, traced_p50: float) -> dict:
    """Median over traced operations of each per-layer metric."""
    # median_low keeps counts whole: a count is an observed value, never an average
    out = {name: statistics.median_low(op[name] for op in per_op)
           if PER_LAYER_UNITS[name] in ("count", "bytes")
           else statistics.median(op[name] for op in per_op)
           for name in PER_LAYER_UNITS if name != "trace.overhead_frac"}
    out["trace.overhead_frac"] = traced_p50 / untraced_p50 - 1.0
    return out
