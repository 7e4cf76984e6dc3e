"""End-to-end pipeline tests: determinism, report schema, file output, memos."""

import csv
import dataclasses
import io
import json
import math
import os
import stat
import subprocess
import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import spdcfilm.experiment as experiment
import spdcfilm.frozen as frozen
import spdcfilm.tomography as tomography
from spdcfilm import load_config, run_experiment, write_report

SEED = 20260819
GOLDEN = Path(__file__).parent / "data" / "golden_default.json"
ROOT = Path(__file__).resolve().parents[1]
# the float tolerances of the benchmark's reference check (perfbench/check.py)
GOLDEN_RTOL = 1e-9
GOLDEN_ATOL = 1e-12


def _canonical(report) -> str:
    """The report's content as one compact, sorted-key, strict JSON string."""
    return json.dumps(report.summary, sort_keys=True, separators=(",", ":"), allow_nan=False)


@pytest.fixture(scope="module")
def report():
    return run_experiment(load_config(), seed=SEED)


def test_same_seed_same_report(report):
    again = run_experiment(load_config(), seed=SEED)
    assert _canonical(again) == _canonical(report)


def _golden_differences(expected, actual, path=""):
    """Field-by-field differences: floats to tolerance, everything else exact."""
    if isinstance(expected, dict):
        if not isinstance(actual, dict) or expected.keys() != actual.keys():
            return [f"{path}: keys differ"]
        return [d for k in expected for d in _golden_differences(expected[k], actual[k], f"{path}.{k}")]
    if isinstance(expected, list):
        if not isinstance(actual, list) or len(expected) != len(actual):
            return [f"{path}: length differs"]
        return [d for i, (e, a) in enumerate(zip(expected, actual))
                for d in _golden_differences(e, a, f"{path}[{i}]")]
    if type(expected) is not type(actual):
        return [f"{path}: {actual!r} has another type than {expected!r}"]
    if isinstance(expected, float):
        if abs(actual - expected) > GOLDEN_ATOL + GOLDEN_RTOL * abs(expected):
            return [f"{path}: {actual!r} != golden {expected!r}"]
        return []
    return [] if expected == actual else [f"{path}: {actual!r} != golden {expected!r}"]


def test_default_report_matches_golden(report):
    # tests/data/golden_default.json is the default-config summary at SEED
    golden = json.loads(GOLDEN.read_text())
    fresh = json.loads(json.dumps(report.summary, allow_nan=False))
    assert _golden_differences(golden, fresh) == []


def test_golden_comparison_catches_drift():
    golden = json.loads(GOLDEN.read_text())
    drifted = json.loads(GOLDEN.read_text())
    drifted["bell"]["f_simulated"] *= 1.0 + 1e-8
    drifted["tomography"]["fit"]["design_rank"] = 8
    drifted["seed"] = float(drifted["seed"])
    problems = _golden_differences(golden, drifted)
    assert len(problems) == 3
    assert _golden_differences(golden, golden) == []


def test_different_seed_differs(report):
    other = run_experiment(load_config(), seed=SEED + 1)
    assert _canonical(other) != _canonical(report)
    # the model state is seed-free; only sampled quantities move
    assert other.summary["model_state"] == report.summary["model_state"]


def test_summary_schema(report):
    s = report.summary
    assert s["schema_version"] == 1
    for key in (
        "seed",
        "orientation",
        "amplitudes",
        "pump",
        "model_state",
        "tomography",
        "bell",
        "spectral",
        "delay_line",
    ):
        assert key in s, key
    assert set(s["amplitudes"]) >= {"h_pump", "v_pump", "rate_ratio_h_over_v"}
    assert s["bell"]["counts_per_setting"] == 140
    assert len(s["tomography"]["records"]) == 9


def test_reconstruction_tracks_model(report):
    s = report.summary
    got = np.array(s["tomography"]["weights"])
    true = np.array(s["model_state"]["weights"])
    sig = np.array(s["tomography"]["weights_sigma"])
    assert np.all(np.abs(got - true) < 5.0 * sig + 0.01)
    assert s["tomography"]["purity"] == pytest.approx(
        s["model_state"]["purity"], abs=0.08
    )
    assert s["tomography"]["visibility"] == pytest.approx(0.96, abs=0.05)


def test_bell_section(report):
    b = report.summary["bell"]
    assert b["f_model"] <= np.sqrt(2.0) + 1e-9
    assert b["f_simulated"] == pytest.approx(b["f_model"], abs=4.0 * b["sigma_f"])
    assert b["std_devs_above_classical"] > 3.0


def test_spectral_and_delay_sections(report):
    s = report.summary
    assert s["spectral"]["intensity_fwhm_thz"] == pytest.approx(55.81, abs=0.1)
    assert s["spectral"]["hom_dip_fwhm_fs"] == pytest.approx(11.75, abs=0.05)
    assert s["delay_line"]["delay_at_base_fs"] == pytest.approx(0.0, abs=1e-9)
    scan = s["delay_line"]["scan"]
    assert len(scan) >= 5
    assert all({"tilt_deg", "delay_fs"} <= set(point) for point in scan)


def test_write_report_files(tmp_path, report):
    paths = write_report(report, tmp_path)
    names = {p.name for p in paths}
    assert names == {
        "report.json",
        "histogram.csv",
        "fringe.csv",
        "hom.csv",
        "spectrum.csv",
        "delay_scan.csv",
    }
    loaded = json.loads((tmp_path / "report.json").read_text())
    assert loaded["schema_version"] == 1
    with open(tmp_path / "histogram.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert {r["setting_index"] for r in rows} == {str(i) for i in range(9)}
    with open(tmp_path / "hom.csv", newline="") as fh:
        hom = list(csv.DictReader(fh))
    r0 = min(hom, key=lambda r: abs(float(r["tau_fs"])))
    assert float(r0["r_dip"]) == pytest.approx(0.0, abs=1e-10)
    assert float(r0["r_peak"]) == pytest.approx(1.0, abs=1e-10)


def test_config_seed_used_when_not_passed():
    cfg = load_config()
    rep = run_experiment(cfg)
    assert rep.summary["seed"] == cfg.run.seed


def test_bootstrap_sigmas_positive(report):
    t = report.summary["tomography"]
    assert all(s > 0.0 for s in t["weights_sigma"])
    assert t["purity_sigma"] > 0.0
    assert t["visibility_sigma"] > 0.0


def test_analyzing_the_runs_records_gives_the_runs_section(report):
    from spdcfilm.tomography import default_protocol

    result = experiment.analyze_tomography(load_config(), default_protocol(),
                                           report.tomography.records, SEED)
    assert json.dumps(result.to_json()) == json.dumps(report.tomography.to_json())
    assert result.counts.shape == (9, 0) and result.centers_ns.shape == (0,)
    assert result.fringe_curve == report.tomography.fringe_curve


def _clear_memos():
    """Forget every memoized stage, encoded report section and sidecar: the
    next run computes and writes all of them, as in a fresh process."""
    for memo in (
        tomography.default_protocol,
        tomography._fringe_basis,
        experiment._orientation,
        experiment.source_model,
        experiment.spectral_section,
        experiment.delay_line_scan,
        experiment.SourceModel.encoded,
        experiment.SpectralSection.encoded,
        experiment.DelayScan.encoded,
        experiment._histogram_row_templates,
        experiment._bin_delays,
        experiment._fringe_grid,
        experiment._fringe_rows,
        experiment._TOMOGRAPHY_TEMPLATES,
        experiment._BELL_TEMPLATES,
    ):
        memo.cache_clear()


def test_run_builds_analyzer_kets_once_per_protocol(monkeypatch):
    import spdcfilm.polarization as polarization

    # count from a cold memo: what one run in a fresh process builds
    _clear_memos()
    calls = []
    original = polarization.analyzer_ket

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    for module in (polarization, tomography):
        monkeypatch.setattr(module, "analyzer_ket", counting)
    run_experiment(load_config(), seed=SEED)
    # 18 protocol kets and the fixed analyzer's: the fringe curve and the
    # visibility both come from the closed-form 2x2 matrix, with no ket per angle
    assert len(calls) == 19
    # a warm run reads the protocol and the fringe basis it made: no ket at all
    del calls[:]
    run_experiment(load_config(), seed=SEED)
    assert calls == []


def _bootstrap_inputs(report):
    """The report's records, their point fit, and the bootstrap's stream in
    run_experiment: spawn key 1 of the run's seed."""
    from spdcfilm.tomography import CoincidenceRecords, default_protocol, reconstruct

    rows = report.summary["tomography"]["records"]
    assert [row["index"] for row in rows] == list(range(len(rows)))
    records = CoincidenceRecords(*(np.array([row[name] for row in rows])
                                   for name in ("raw", "accidental", "duration_s", "net_sigma")))
    rho_hat, fit, _ = reconstruct(records, default_protocol())
    return records, rho_hat, fit, np.random.SeedSequence(SEED, spawn_key=(1,))


def _bootstrap_stack(*args):
    """``_bootstrap_states``' blocks of spectra as one (n_boot, 3) stack of
    eigenvalues and one (n_boot, 3, 3) stack of eigenvectors."""
    from spdcfilm.tomography import _bootstrap_states

    blocks = list(_bootstrap_states(*args))
    return (np.concatenate([vals for vals, _ in blocks]),
            np.concatenate([vecs for _, vecs in blocks]))


def _formed(vals, vecs):
    """The (B, 3, 3) states V diag(vals) V^dag of a stack of spectra."""
    return (vecs * vals[:, None, :]) @ np.swapaxes(vecs.conj(), -1, -2)


def _point_measures(vals, vecs, fixed_analyzer):
    """The report entries of one state, given as its (3,) unit-sum ascending
    eigenvalues and (3, 3) eigenvectors: ``_measures`` of the one-state
    stack, None where a measure is undefined."""
    from spdcfilm.tomography import _defined, _measures

    measures = _measures(vals[None], vecs[None], fixed_analyzer)
    return {key: _defined(value[0]) for key, value in measures.items()}


def _two_pass_estimate(records, protocol, n_boot, fixed_analyzer, seed_seq):
    """``tomography.estimate`` as two passes, the reference its one pass
    equals: the point fit's spectrum measured alone, then the bootstrap
    replicates' measured and spread, all None when any replicate cannot be
    fitted."""
    from spdcfilm.errors import SingularFit
    from spdcfilm.tomography import _bootstrap_states, _measures, _spread, reconstruct

    rho_hat, fit, (vals, vecs) = reconstruct(records, protocol)
    measures = _point_measures(vals, vecs, fixed_analyzer)
    keys = ("weights", "purity", "concurrence", "visibility")
    states = _bootstrap_states(rho_hat, fit.scale, records, protocol, n_boot, seed_seq)
    try:
        blocks = [_measures(block_vals, block_vecs, fixed_analyzer)
                  for block_vals, block_vecs in states]
    except SingularFit:
        blocks = []
    if not blocks:
        return rho_hat, fit, measures, {f"{key}_sigma": None for key in keys}
    table = np.concatenate([np.column_stack([b[key] for key in keys]) for b in blocks])
    spread = _spread(table)
    return rho_hat, fit, measures, {
        f"{key}_sigma": value for key, value in zip(keys, (spread[:3], *spread[3:]))}


def test_batched_bootstrap_equals_scalar_replicates(report):
    from dataclasses import replace

    from spdcfilm.qutrit import concurrence, purity
    from spdcfilm.tomography import (
        _fringe_form,
        _fringe_visibility,
        _measures,
        default_protocol,
        forward_rates,
        reconstruct,
    )

    records, rho_hat, fit, boot_seq = _bootstrap_inputs(report)
    protocol = default_protocol()
    n_boot = 5
    spectra = _bootstrap_stack(rho_hat, fit.scale, records, protocol, n_boot, boot_seq)
    batched = _measures(*spectra, "H")
    rhos = _formed(*spectra)

    # the replicate loop the batch replaces: one reconstruct per row of the
    # bootstrap seed's one generator
    model_net = records.duration_s * forward_rates(rho_hat, protocol, fit.scale)
    rng = np.random.default_rng(_bootstrap_inputs(report)[3])
    for k in range(n_boot):
        draw = rng.normal(model_net, records.net_sigma)
        boot = replace(records, raw=np.maximum(draw + records.accidental, 0.0))
        rho_k, _, _ = reconstruct(boot, protocol)
        assert np.max(np.abs(rhos[k] - rho_k)) < 1e-12
        assert np.allclose(batched["weights"][k], np.real(np.diag(rho_k)), rtol=0, atol=1e-12)
        assert batched["purity"][k] == pytest.approx(purity(rho_k), abs=1e-12)
        vals, vecs = np.linalg.eigh(rho_k)
        # the concurrence of a ket does not depend on its global phase
        assert batched["concurrence"][k] == pytest.approx(concurrence(vecs[:, -1]), abs=1e-12)
        assert batched["dominant_weight"][k] == pytest.approx(vals[-1], abs=1e-12)
        (vis,) = _fringe_visibility(_fringe_form(rho_k[None], "H"))
        assert batched["visibility"][k] == pytest.approx(vis, abs=1e-12)


def test_bootstrap_replicate_does_not_depend_on_the_replicate_count(report):
    from spdcfilm.tomography import default_protocol

    records, rho_hat, fit, _ = _bootstrap_inputs(report)
    few, many = (
        _formed(*_bootstrap_stack(rho_hat, fit.scale, records, default_protocol(), n_boot,
                                  _bootstrap_inputs(report)[3]))
        for n_boot in (3, 100)
    )
    assert few.shape == (3, 3, 3) and many.shape == (100, 3, 3)
    assert np.max(np.abs(few - many[:3])) < 1e-12


def test_bootstrap_factorizes_each_replicate_once(monkeypatch, report):
    from spdcfilm.tomography import default_protocol

    cfg = load_config()
    records, _, _, boot_seq = _bootstrap_inputs(report)
    calls = []
    for name in ("svd", "eigh"):
        def counting(a, *args, _name=name, _original=getattr(np.linalg, name), **kwargs):
            calls.append((_name, np.shape(a)))
            return _original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counting)
    n_boot = cfg.run.bootstrap_samples
    tomography.estimate(records, default_protocol(), n_boot, cfg.fringe.fixed_analyzer, boot_seq)
    # the replicates share one design, whose condition number the protocol
    # holds: it clears their conditioning, so the only SVD is the point fit's
    # weighted design; the projection's eigh gives the measures their spectrum
    assert [shape for name, shape in calls if name == "svd"] == [(1, 9, 9)]
    assert [shape for name, shape in calls if name == "eigh"] == [(1, 3, 3), (n_boot, 3, 3)]


def test_bootstrap_makes_no_generator_per_replicate(monkeypatch, report):
    from spdcfilm.tomography import default_protocol

    cfg = load_config()
    records, _, _, boot_seq = _bootstrap_inputs(report)
    calls = []

    def counting(*args, _original=np.random.default_rng, **kwargs):
        calls.append(args)
        return _original(*args, **kwargs)

    monkeypatch.setattr(np.random, "default_rng", counting)
    tomography.estimate(records, default_protocol(), cfg.run.bootstrap_samples,
                        cfg.fringe.fixed_analyzer, boot_seq)
    assert cfg.run.bootstrap_samples == 100
    assert calls == [(boot_seq,)]
    assert boot_seq.n_children_spawned == 0


@pytest.mark.parametrize("bootstrap_samples", [0, 100])
def test_run_without_replicates_makes_no_bootstrap_generator(monkeypatch, bootstrap_samples):
    cfg = load_config()
    cfg = replace(cfg, run=replace(cfg.run, bootstrap_samples=bootstrap_samples))
    spawn_keys, draws = [], []

    class Recorded:
        """A generator that records the name of each method drawn from it."""

        def __init__(self, generator):
            self._generator = generator

        def __getattr__(self, name):
            draws.append(name)
            return getattr(self._generator, name)

    def counting(seed, _original=np.random.default_rng):
        spawn_keys.append(seed.spawn_key)
        return Recorded(_original(seed))

    monkeypatch.setattr(np.random, "default_rng", counting)
    summary = run_experiment(cfg, seed=SEED).summary
    # the nine settings' histograms (child 0) and the CHSH test (child 2)
    # draw Poisson counts alone; the bootstrap's child 1 makes a generator
    # only when there is a replicate to draw
    boot = [(1,)] if bootstrap_samples else []
    assert spawn_keys == [(0,), *boot, (2,)]
    assert ("standard_normal" in draws) == bool(bootstrap_samples)
    assert set(draws) <= {"poisson", "standard_normal"}
    assert (summary["tomography"]["purity_sigma"] is None) == (not bootstrap_samples)


@pytest.mark.parametrize("seed", [0, 3, 2**130 + 7])
def test_named_stream_is_the_spawned_child(seed):
    # a named key's stream is SeedSequence(seed)'s successive child at that
    # index, the stream the golden report and records_seed3.csv were drawn from
    root = np.random.SeedSequence(seed)
    keys = (experiment.HISTOGRAMS_KEY, experiment.BOOTSTRAP_KEY, experiment.CHSH_KEY)
    assert keys == (0, 1, 2)
    for key in keys:
        child = root.spawn(1)[0]
        named = experiment._stream(seed, key)
        assert named.spawn_key == child.spawn_key == (key,)
        assert np.array_equal(named.generate_state(8), child.generate_state(8))


def test_seeded_stage_does_not_depend_on_the_stages_before_it():
    cfg = load_config()
    seed = 3
    tomography_first = experiment.simulate_tomography(cfg, seed)
    bell = experiment.simulate_bell(cfg, tomography_first, seed).to_json()
    assert experiment.simulate_bell(cfg, tomography_first, seed).to_json() == bell
    experiment.simulate_histograms(cfg, seed)
    assert experiment.simulate_bell(cfg, tomography_first, seed).to_json() == bell
    assert json.dumps(experiment.simulate_tomography(cfg, seed).to_json()) == json.dumps(
        tomography_first.to_json())
    report = run_experiment(cfg, seed)
    assert report.bell.to_json() == bell
    assert json.dumps(report.tomography.to_json()) == json.dumps(tomography_first.to_json())


def test_numpy_integer_seed_runs_as_its_int(tmp_path):
    cfg = load_config()
    # passed, or held by a configuration built with replace (a file's is an int)
    reports = [run_experiment(cfg, 3), run_experiment(cfg, np.int64(3)),
               run_experiment(replace(cfg, run=replace(cfg.run, seed=np.int64(3))))]
    files = [{p.name: p.read_bytes() for p in write_report(report, tmp_path / str(i))}
             for i, report in enumerate(reports)]
    assert files[0] == files[1] == files[2]
    assert [type(report.seed) for report in reports] == [int] * 3
    assert run_experiment(cfg, True).summary["seed"] == 1


@pytest.mark.parametrize("seed", [2.9, 3.0, "3"])
def test_seed_that_is_not_an_integer_raises(seed):
    cfg = load_config()
    with pytest.raises(TypeError):
        run_experiment(cfg, seed)
    with pytest.raises(TypeError):
        experiment.simulate_histograms(cfg, seed)


def test_negative_seed_is_a_config_error():
    from spdcfilm.errors import ConfigError
    from spdcfilm.tomography import default_protocol

    cfg = load_config()
    report = run_experiment(cfg, 3)
    for stage in (lambda seed: run_experiment(cfg, seed),
                  lambda seed: experiment.simulate_histograms(cfg, seed),
                  lambda seed: experiment.analyze_tomography(
                      cfg, default_protocol(), report.tomography.records, seed),
                  lambda seed: experiment.simulate_bell(cfg, report.tomography, seed)):
        with pytest.raises(ConfigError, match="^run seed must be nonnegative$"):
            stage(-1)


@pytest.mark.parametrize("bootstrap_samples", [0, 100])
def test_warm_run_does_only_seeded_work(monkeypatch, bootstrap_samples):
    import spdcfilm.histogram as histogram

    cfg = load_config()
    cfg = replace(cfg, run=replace(cfg.run, bootstrap_samples=bootstrap_samples))
    expected = _canonical(run_experiment(cfg, SEED))  # fills this configuration's memos
    calls = Counter()
    for module, name in ((histogram, "bin_centers"), (experiment, "bin_centers"),
                         (tomography, "forward_rates"), (experiment, "forward_rates"),
                         (np.random, "SeedSequence")):
        def counting(*args, _name=name, _original=getattr(module, name), **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, counting)
    assert _canonical(run_experiment(cfg, SEED)) == expected
    # the bin delays and the model state's rates are the configuration's; the
    # bootstrap's model rates are the fit's, and its stream is made only for
    # replicates, beside the histograms' and the CHSH test's
    assert calls["bin_centers"] == 0
    assert calls["forward_rates"] == (1 if bootstrap_samples else 0)
    assert calls["SeedSequence"] == (3 if bootstrap_samples else 2)


def test_fringe_csv_is_csv_writers_of_any_curve():
    report = run_experiment(load_config(), SEED)
    curve = report.tomography.fringe_curve
    # the run's angles, the same values as new floats, signed zeros and other numbers
    curves = [curve, [(float(repr(t)), r) for t, r in curve],
              [(-0.0, 1.0), (0.0, -0.0)], [(0.0, 1.0), (-0.0, -0.0)],
              [(np.float64(0.5), np.float64(0.25)), (7, "x%s")], []]
    for edited in curves:
        result = replace(report.tomography, fringe_curve=edited)
        assert dict(result.encoded()[1])["fringe.csv"] == _csv_writer_bytes(
            ["theta_deg", "rate"], edited), edited


def test_run_checks_each_state_once(monkeypatch):
    # a warm run: the memos, the protocol's constants and the CHSH settings are filled
    from spdcfilm import qutrit

    cfg = load_config()
    expected = _canonical(run_experiment(cfg, seed=SEED))
    calls = Counter()
    for module, name in ((np.linalg, "eigh"), (np.linalg, "svd"), (np.linalg, "eigvalsh"),
                         (qutrit, "check_density_matrix"), (tomography, "_measures"),
                         (tomography, "_check_spectrum")):
        def counting(*args, _name=name, _original=getattr(module, name), **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, counting)
    again = _canonical(run_experiment(cfg, seed=SEED))
    # eigh: the point projection and the bootstrap's batched projection,
    # whose spectra the measures read in one pass, the point spectrum first,
    # and one check of every state. The one SVD is the point fit's weighted
    # design (its condition number); the protocol's own condition number
    # clears the replicates'. No state is checked as a matrix: the summary
    # reads the model state's purity and concurrence, computed and checked
    # once per configuration
    assert calls == {"eigh": 2, "svd": 1, "_measures": 1, "_check_spectrum": 1}
    monkeypatch.undo()
    assert again == expected


def _histograms_by_hand(cfg, rel_rates, child):
    """``simulate_histograms``' counts written out from one generator of
    ``child``: the Poisson floor of every bin, one setting after another, then
    each setting's zero-delay pairs, one draw at a time. Returns them with
    the records table that boolean masks reduce them to."""
    from spdcfilm.tomography import CoincidenceRecords

    grid, noise = cfg.histogram, cfg.noise
    duration = cfg.tomography.duration_per_setting_s
    half = grid.n_bins // 2
    rng = np.random.default_rng(child)
    mean_floor = noise.singles_a_hz * noise.singles_b_hz * 1e-9 * grid.bin_width_ns * duration
    counts = np.array([rng.poisson(mean_floor, size=grid.n_bins) for _ in rel_rates])
    for row, rel in zip(counts, rel_rates):
        row[half] += rng.poisson(noise.pair_rate_hz * float(rel) * noise.efficiency * duration)
    off = np.abs(np.arange(grid.n_bins) - half) > grid.exclusion_bins
    n_off = int(off.sum())
    n_peak = grid.n_bins - n_off
    columns = []
    for row in counts:
        off_total, raw = float(row[off].sum()), float(row[~off].sum())
        net = raw - off_total / n_off * n_peak
        sigma = float(np.sqrt(raw + (n_peak / n_off) ** 2 * off_total))
        columns.append((raw, raw - net, duration, sigma))
    return counts, CoincidenceRecords(*np.array(columns).T)


def _setting_inputs(tmp_path, overlay):
    """(cfg, relative rates of the nine settings) of a run of ``overlay``."""
    from spdcfilm.tomography import default_protocol, forward_rates

    path = tmp_path / "overlay.cfg"
    path.write_text(overlay)
    cfg = load_config(path)
    return cfg, forward_rates(experiment.source_model(cfg).rho, default_protocol(), 1.0)


@pytest.mark.parametrize("overlay", [
    "",
    "[histogram]\nn_bins = 41\nexclusion_bins = 0\n",
    "[histogram]\nn_bins = 501\nexclusion_bins = 10\n",
    "[noise]\npair_rate_hz = 0\n",
], ids=["default", "41_bins", "wide_peak", "no_pairs"])
@pytest.mark.parametrize("seed", [1, 3, 22, 2**130 + 7])
def test_count_array_is_the_per_setting_draw(monkeypatch, tmp_path, overlay, seed):
    # one generator's floor block, then its peaks: each setting's rows and
    # peak draws follow the previous setting's in its stream
    cfg, rel_rates = _setting_inputs(tmp_path, overlay)
    stream = np.random.SeedSequence(seed, spawn_key=(0,))  # the run's histograms' stream
    expected_counts, expected_records = _histograms_by_hand(cfg, rel_rates, stream)
    counts, centers = experiment.simulate_histograms(cfg, seed)
    assert counts.shape == (9, cfg.histogram.n_bins) and counts.dtype == np.int64
    assert np.array_equal(counts, expected_counts)
    n_bins = cfg.histogram.n_bins
    expected_centers = (np.arange(n_bins) - n_bins // 2) * cfg.histogram.bin_width_ns
    assert centers.dtype == expected_centers.dtype and np.array_equal(centers, expected_centers)

    # simulate_tomography fits the records of those counts
    class Fitted(Exception):
        pass

    def fitted(records, protocol):
        raise Fitted(records)

    monkeypatch.setattr(tomography, "reconstruct", fitted)
    with pytest.raises(Fitted) as records:
        experiment.simulate_tomography(cfg, seed)
    for name in ("raw", "accidental", "duration_s", "net_sigma", "net"):
        assert np.array_equal(getattr(records.value.args[0], name),
                              getattr(expected_records, name)), name


@pytest.mark.parametrize("overlay, message", [
    ("[noise]\nsingles_a_hz = 1e200\n",
     "accidental floor per bin Poisson mean 3e+196 exceeds 1e+18 counts"),
    # the first setting's pair mean fits, the second one's does not, and the
    # sixth one's is the largest
    ("[tomography]\nduration_per_setting_s = 1e16\n",
     "zero-delay pair Poisson mean 1.44004e+19 exceeds 1e+18 counts"),
], ids=["floor", "pairs"])
def test_count_array_checks_each_mean_as_one_setting_at_a_time_does(tmp_path, overlay, message):
    from spdcfilm.errors import OutOfRange
    from spdcfilm.histogram import simulate_counts

    cfg, rel_rates = _setting_inputs(tmp_path, overlay)
    duration = cfg.tomography.duration_per_setting_s
    rng = np.random.default_rng(1)
    state = rng.bit_generator.state
    with pytest.raises(OutOfRange) as exc:
        simulate_counts(cfg.noise, cfg.histogram, rel_rates, duration, rng)
    assert str(exc.value) == message
    assert rng.bit_generator.state == state  # nothing was drawn
    # the first setting whose one-row array fails names the same mean
    with pytest.raises(OutOfRange) as one_at_a_time:
        for rel in rel_rates:
            simulate_counts(cfg.noise, cfg.histogram, (rel,), duration, np.random.default_rng(1))
    assert str(one_at_a_time.value) == message
    with pytest.raises(OutOfRange) as run:
        run_experiment(cfg, 1)
    assert str(run.value) == message


def test_bootstrap_blocks_change_nothing_and_bound_memory(monkeypatch, report):
    import tracemalloc

    from spdcfilm.tomography import default_protocol

    cfg = load_config()
    records, rho_hat, fit, _ = _bootstrap_inputs(report)
    protocol = default_protocol()

    def bootstrap(n_boot):
        fitted = (rho_hat, fit.scale, records, protocol, n_boot)
        return (_formed(*_bootstrap_stack(*fitted, _bootstrap_inputs(report)[3])),
                tomography.estimate(records, protocol, n_boot, cfg.fringe.fixed_analyzer,
                                    _bootstrap_inputs(report)[3])[3])

    one_block, one_block_sigmas = bootstrap(100)
    monkeypatch.setattr(tomography, "_BOOTSTRAP_BLOCK", 7)  # 15 blocks, the last one short
    blocks, blocks_sigmas = bootstrap(100)
    assert blocks.shape == (100, 3, 3)
    assert np.max(np.abs(blocks - one_block)) < 1e-12
    for key, sigma in one_block_sigmas.items():
        assert np.allclose(blocks_sigmas[key], sigma, rtol=1e-12, atol=0.0), key

    # only the sample table grows with the replicate count: 768 more
    # replicates in three more blocks of 256 add about 270 B each to the
    # traced peak, under 400 kB for one block (unblocked, about 1.5 kB each)
    monkeypatch.setattr(tomography, "_BOOTSTRAP_BLOCK", 256)
    peaks = []
    for n_boot in (256, 1024):  # the memos were filled above
        boot_seq = _bootstrap_inputs(report)[3]
        tracemalloc.start()
        try:
            tomography.estimate(records, protocol, n_boot, cfg.fringe.fixed_analyzer, boot_seq)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert (peaks[1] - peaks[0]) / 768 <= 384, peaks


def _estimates_agree(one_pass, two_pass):
    rho, fit, measures, sigmas = one_pass
    assert rho.tobytes() == two_pass[0].tobytes() and fit == two_pass[1]
    # JSON's float text is the shortest that reads back the same double
    assert json.dumps([measures, sigmas]) == json.dumps(list(two_pass[2:]))


@pytest.mark.parametrize("seed", [1, 3, 2**130 + 7])
def test_one_pass_estimate_equals_the_two_pass_reference(monkeypatch, seed):
    from spdcfilm.tomography import default_protocol

    cfg = load_config()
    records = experiment.simulate_tomography(cfg, seed).records
    for block in (tomography._BOOTSTRAP_BLOCK, 7):  # the point joins the first block
        monkeypatch.setattr(tomography, "_BOOTSTRAP_BLOCK", block)
        for n_boot in (0, 1, 2, 100, 1025, 2500):
            inputs = (records, default_protocol(), n_boot, cfg.fringe.fixed_analyzer)
            one_pass = tomography.estimate(*inputs, np.random.SeedSequence(seed, spawn_key=(1,)))
            _estimates_agree(one_pass, _two_pass_estimate(
                *inputs, np.random.SeedSequence(seed, spawn_key=(1,))))
            assert (one_pass[3]["purity_sigma"] is None) == (n_boot < 2)


@pytest.mark.parametrize("seed", [1, 3, 2**130 + 7])
def test_one_pass_estimate_with_an_unfittable_replicate(monkeypatch, seed):
    # a redraw of these few counts leaves a replicate whose fitted total rate
    # is not positive: the 10th or the 18th, in the second or third block of 7
    protocol, records = tomography.load_records_csv(ROOT / "tests" / "data" /
                                                    "records_low_counts.csv")
    for block in (tomography._BOOTSTRAP_BLOCK, 7):
        monkeypatch.setattr(tomography, "_BOOTSTRAP_BLOCK", block)
        for n_boot in (100, 2500):
            inputs = (records, protocol, n_boot, "H")
            one_pass = tomography.estimate(*inputs, np.random.SeedSequence(seed, spawn_key=(1,)))
            _estimates_agree(one_pass, _two_pass_estimate(
                *inputs, np.random.SeedSequence(seed, spawn_key=(1,))))
            assert set(one_pass[3].values()) == {None}
            assert one_pass[2]["purity"] is not None


def test_undefined_measures_are_null_in_strict_json():
    from spdcfilm.tomography import _spread

    # the maximally mixed state has no dominant branch; its fringe is defined
    mixed = _point_measures(*np.linalg.eigh(np.eye(3, dtype=complex) / 3.0), "H")
    assert mixed["concurrence"] is None
    assert mixed["schmidt_number"] is None
    assert mixed["dominant_weight"] is None
    assert mixed["visibility"] == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert mixed["purity"] == pytest.approx(1.0 / 3.0, abs=1e-15)
    json.dumps(mixed, allow_nan=False)
    # |2V> gives an H-fixed fringe no counts at all
    dark = _point_measures(*np.linalg.eigh(np.diag([0.0, 0.0, 1.0]).astype(complex)), "H")
    assert dark["visibility"] is None and dark["concurrence"] == pytest.approx(0.0)
    # a sigma needs two finite replicates
    assert _spread(np.array([np.nan, 0.4, np.nan])) is None
    assert _spread(np.array([0.1, np.nan, 0.3])) == pytest.approx(np.std([0.1, 0.3], ddof=1))
    assert _spread(np.array([[0.1, np.nan], [0.3, 0.2]])) == [pytest.approx(0.1414213562), None]


def test_spread_is_the_sample_deviation_of_the_finite_replicates():
    from spdcfilm.tomography import _spread

    rng = np.random.default_rng(SEED)
    samples = rng.normal(size=(100, 3))
    samples[rng.random((100, 3)) < 0.2] = np.nan
    for table in (samples, samples[:, 0], samples[:, 1:]):
        expected = np.nanstd(table, axis=0, ddof=1)
        assert np.allclose(_spread(table), expected, rtol=1e-15, atol=0.0)


def test_report_serialization_is_strict_json(tmp_path, report):
    from dataclasses import replace

    broken = replace(report, seed=float("nan"))
    with pytest.raises(ValueError):
        _canonical(broken)
    with pytest.raises(ValueError):
        write_report(broken, tmp_path)


# runs the default config through the CLI, the fine-spectrum and azimuth-fit
# configs, then a joint orientation fit, and prints the scipy modules loaded
# by then
SCIPY_PROBE = """
import json, sys
from spdcfilm import load_config, run_experiment, write_report
from spdcfilm.cli import main

out, fine, azimuth, auto = sys.argv[1:]
if main(["run", "--seed", "3", "--out", f"{out}/default"]) != 0:
    raise SystemExit("spdcfilm run failed")
for name, cfg in (("fine", load_config(fine)), ("azimuth", load_config(azimuth))):
    write_report(run_experiment(cfg), f"{out}/{name}")
fitted = run_experiment(load_config(auto)).summary
print(json.dumps({"scipy": sorted(m for m in sys.modules if m.startswith("scipy")),
                  "residual": fitted["orientation"]["calibration_residual"],
                  "h_weights": fitted["amplitudes"]["h_pump"]["weights"]}))
"""


def test_no_run_imports_scipy(tmp_path):
    azimuth = tmp_path / "azimuth.cfg"
    azimuth.write_text("[crystal]\nazimuth_deg = auto\n\n[run]\nbootstrap_samples = 0\n")
    auto = tmp_path / "auto.cfg"
    auto.write_text("[crystal]\ntilt_deg = auto\n\n[run]\nbootstrap_samples = 0\n")
    fine = ROOT / "perfbench" / "workloads" / "fine_spectrum.cfg"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    done = subprocess.run(
        [sys.executable, "-c", SCIPY_PROBE, str(tmp_path), str(fine), str(azimuth), str(auto)],
        capture_output=True, text=True, env=env, check=True,
    )
    probe = json.loads(done.stdout.splitlines()[-1])
    # fixed, azimuth-only and joint (Nelder-Mead) orientations all run on numpy alone
    assert probe["scipy"] == []
    assert probe["residual"] < 0.005
    assert probe["h_weights"] == pytest.approx([0.7827, 0.0169, 0.2005], abs=5e-3)


def test_tilt_auto_fits_both_angles_whatever_the_azimuth(tmp_path):
    # tilt_deg = auto runs the joint fit, which starts from its own grid:
    # a configured azimuth_deg is not read
    fits = []
    for azimuth in ("auto", "10", "138.6"):
        path = tmp_path / f"tilt-auto-{azimuth}.cfg"
        path.write_text(f"[crystal]\ntilt_deg = auto\nazimuth_deg = {azimuth}\n")
        model = experiment.source_model(load_config(path))
        fits.append((model.orientation, model.calibration_residual))
    assert fits[0] == fits[1] == fits[2]
    assert fits[0][0].azimuth_deg == pytest.approx(41.32, abs=0.01)


def _quick():
    """The packaged defaults without bootstrap replicates."""
    cfg = load_config()
    return replace(cfg, run=replace(cfg.run, bootstrap_samples=0))


#: the seed-free stage functions whose calls ``stage_calls`` counts
COUNTED_STAGES = (
    "calibrate_orientation",
    "weight_residual",
    "spdc_amplitudes",
    "joint_spectrum",
    "delay_scan",
)


@pytest.fixture
def stage_calls(monkeypatch):
    """Cold memos, and a count of the calls each of COUNTED_STAGES gets from runs."""
    _clear_memos()
    calls = Counter()
    for name in COUNTED_STAGES:
        def counting(*args, _name=name, _original=getattr(experiment, name), **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(experiment, name, counting)
    yield calls
    _clear_memos()


def test_seed_sweep_computes_seed_free_stages_once(stage_calls):
    base = _quick()
    fitted = replace(base, crystal=replace(base.crystal, tilt_deg=None, azimuth_deg=None))
    first, second = (run_experiment(fitted, seed) for seed in (1, 2))
    assert _canonical(first) != _canonical(second)
    assert stage_calls["calibrate_orientation"] == 1
    assert stage_calls["joint_spectrum"] == 1
    assert stage_calls["delay_scan"] == 1
    assert stage_calls["spdc_amplitudes"] == 3  # H, V and the configured pump


def test_memo_keys_follow_the_sections_each_stage_reads(stage_calls):
    base = _quick()
    seed_side = [
        replace(base, run=replace(base.run, seed=5, bootstrap_samples=2)),
        replace(base, noise=replace(base.noise, pair_rate_hz=900.0, singles_a_hz=1e4)),
        replace(base, tomography=replace(base.tomography, duration_per_setting_s=3.0)),
        replace(base, bell=replace(base.bell, counts_per_setting=50)),
        replace(base, fringe=replace(base.fringe, fixed_analyzer="V")),
    ]
    for cfg in [base, *seed_side]:
        run_experiment(cfg, seed=3)
    assert dict(stage_calls) == {
        "weight_residual": 1, "spdc_amplitudes": 3, "joint_spectrum": 1, "delay_scan": 1,
    }

    # the spectrum is recomputed for a new grid, and only the spectrum
    run_experiment(replace(base, spectrum=replace(base.spectrum, points=2048)), seed=3)
    assert (stage_calls["joint_spectrum"], stage_calls["weight_residual"]) == (2, 1)
    # a new depolarization rebuilds the source model on the memoized orientation
    run_experiment(replace(base, noise=replace(base.noise, depolarization=0.1)), seed=3)
    assert (stage_calls["spdc_amplitudes"], stage_calls["weight_residual"]) == (6, 1)
    # a new crystal refits the orientation but keeps the spectrum
    run_experiment(replace(base, crystal=replace(base.crystal, tilt_deg=35.0)), seed=3)
    assert (stage_calls["weight_residual"], stage_calls["joint_spectrum"]) == (2, 2)
    # a new delay line rescans it
    run_experiment(replace(base, delay_line=replace(base.delay_line, scan_points=11)), seed=3)
    assert stage_calls["delay_scan"] == 2
    # a new film thickness or pump wavelength recomputes the spectrum, a new
    # pump angle only the source model
    run_experiment(replace(base, film=replace(base.film, thickness_nm=410.0)), seed=3)
    assert stage_calls["joint_spectrum"] == 3
    run_experiment(replace(base, pump=replace(base.pump, wavelength_nm=640.0)), seed=3)
    assert stage_calls["joint_spectrum"] == 4
    run_experiment(replace(base, pump=replace(base.pump, angle_deg=45.0)), seed=3)
    assert (stage_calls["joint_spectrum"], stage_calls["spdc_amplitudes"]) == (4, 15)


def test_memo_tells_negative_zero_from_zero():
    # two equal [delay_line] sections: one scan ends at 0.0, the other at -0.0
    base = _quick()
    line = replace(base.delay_line, scan_start_deg=-20.0, scan_stop_deg=0.0)
    configs = [replace(base, delay_line=line),
               replace(base, delay_line=replace(line, scan_stop_deg=-0.0))]
    assert configs[0] == configs[1]
    cold = []
    for cfg in configs:
        _clear_memos()
        cold.append(_canonical(run_experiment(cfg, seed=3)))
    assert cold[0] != cold[1]
    warm = [_canonical(run_experiment(cfg, seed=3)) for cfg in configs]
    assert warm == cold


def test_memo_forms_each_configurations_key_once(stage_calls, monkeypatch):
    # a memo finds a configuration object it has seen by its identity; it
    # forms the sections' repr, its key, only for an object it has not seen
    formed = []
    record_repr = frozen.Record.__repr__

    def counting_repr(record):
        formed.append(type(record).__name__)
        return record_repr(record)

    monkeypatch.setattr(frozen.Record, "__repr__", counting_repr)
    cfg = _quick()
    run_experiment(cfg, 1)
    assert formed
    formed.clear()
    run_experiment(cfg, 2)
    assert formed == []
    # an equal object forms the key again, and finds the stages computed
    run_experiment(replace(cfg), 3)
    assert formed
    assert dict(stage_calls) == {
        "weight_residual": 1, "spdc_amplitudes": 3, "joint_spectrum": 1, "delay_scan": 1,
    }
    # the identity table holds the last _MEMO_CONFIGS objects
    others = [replace(cfg) for _ in range(experiment._MEMO_CONFIGS)]
    for other in others:
        run_experiment(other, 3)
    formed.clear()
    run_experiment(cfg, 4)
    assert formed
    # cache_clear forgets the object with the sections
    experiment.source_model.cache_clear()
    run_experiment(cfg, 5)
    assert (stage_calls["spdc_amplitudes"], stage_calls["weight_residual"]) == (6, 1)


def test_memo_holds_the_arguments_it_knows_by_identity():
    # configurations made and dropped one after another: the id of a dropped
    # one may be given to the next, which must not find the dropped one's model
    cfg = _quick()
    for angle in range(2 * experiment._MEMO_CONFIGS + 1):
        pumped = replace(cfg, pump=replace(cfg.pump, angle_deg=float(angle)))
        assert experiment.source_model(pumped).pump.angle_deg == angle


def _written(report, out_dir) -> dict:
    return {p.name: p.read_bytes() for p in write_report(report, out_dir)}


def test_cold_and_warm_runs_write_identical_bytes(tmp_path):
    cfg = load_config()
    _clear_memos()
    cold = run_experiment(cfg, SEED)
    cold_files = _written(cold, tmp_path / "cold")
    run_experiment(cfg, SEED + 1)
    warm = run_experiment(cfg, SEED)
    assert _canonical(warm) == _canonical(cold)
    assert _written(warm, tmp_path / "warm") == cold_files


def test_overwriting_longer_files_writes_exact_bytes(tmp_path, report):
    # the fine-spectrum overlay's files are longer (its spectrum.csv is four
    # times the default's), and junk longer than the new content pads each
    fresh = _written(report, tmp_path / "fresh")
    fine = load_config(ROOT / "perfbench" / "workloads" / "fine_spectrum.cfg")
    over = tmp_path / "over"
    old = _written(run_experiment(fine, SEED), over)
    assert len(old["spectrum.csv"]) > len(fresh["spectrum.csv"])
    for name, data in fresh.items():
        (over / name).write_bytes(old[name] + b"junk" * len(data))
    assert _written(report, over) == fresh


def test_failed_encode_leaves_the_previous_report(tmp_path, report):
    # every file is encoded before the first one is opened
    good = _written(report, tmp_path)
    with pytest.raises(ValueError):
        write_report(replace(report, seed=float("nan")), tmp_path)
    assert {name: (tmp_path / name).read_bytes() for name in good} == good
    with pytest.raises(ValueError):
        write_report(replace(report, seed=float("nan")), tmp_path / "new")
    assert not (tmp_path / "new").exists()


@pytest.mark.skipif(os.name != "posix", reason="POSIX file modes")
@pytest.mark.parametrize("umask", [0o022, 0o077], ids=oct)
def test_new_files_get_the_default_mode(tmp_path, report, umask):
    # as open(path, "wb") creates them: 0o666 less the umask
    previous = os.umask(umask)
    try:
        paths = write_report(report, tmp_path)
    finally:
        os.umask(previous)
    assert {p.name: stat.S_IMODE(p.stat().st_mode) for p in paths} == {
        p.name: 0o666 & ~umask for p in paths}


def _arrays(value) -> list:
    """Every ndarray reachable from ``value`` through dataclass fields, tuples and lists."""
    if isinstance(value, np.ndarray):
        return [value]
    if dataclasses.is_dataclass(value):
        return [a for f in dataclasses.fields(value) for a in _arrays(getattr(value, f.name))]
    if isinstance(value, (tuple, list)):
        return [a for v in value for a in _arrays(v)]
    return []


def _scramble(value):
    """Change every dict and list reachable from a JSON value in place."""
    items = value.items() if isinstance(value, dict) else enumerate(value)
    for key, item in list(items):
        if isinstance(item, (dict, list)):
            _scramble(item)
        else:
            value[key] = "changed"
    if isinstance(value, list):
        value.append("added")
    else:
        value["added"] = None


def test_shared_arrays_are_read_only_and_summaries_fresh():
    cfg = _quick()
    first = run_experiment(cfg, SEED)
    expected = _canonical(first)
    stages = (experiment.source_model(cfg), experiment.spectral_section(cfg),
              experiment.delay_line_scan(cfg))
    assert stages[1] is first.spectral and stages[2] is first.delay_scan

    # arrays a caller passes in are copied: the caller's stay writable and apart
    given = {"rho": np.eye(3, dtype=complex) / 3.0, "state": np.ones(3, dtype=complex) / 3**0.5,
             "intensity": np.ones(4), "r_dip": np.zeros(4), "scan": np.ones((3, 2))}
    source, spectral, delay = stages
    replaced = (
        replace(source, rho=given["rho"], pumped=replace(source.pumped, state=given["state"])),
        replace(spectral, intensity=given["intensity"], r_dip=given["r_dip"]),
        replace(delay, scan=given["scan"]),
    )
    assert np.array_equal(replaced[0].pumped.state, given["state"])
    # the delay scan holds no arrays: a tuple of float pairs, whatever it is given
    for scan in (delay.scan, replaced[2].scan):
        assert type(scan) is tuple and {type(v) for pair in scan for v in pair} == {float}
    for result in stages + replaced:
        arrays = _arrays(result)
        # SourceModel: the three amplitude states, rho and the protocol rates
        assert len(arrays) == {"SourceModel": 5, "SpectralSection": 5}.get(type(result).__name__, 0)
        for a in arrays:
            assert not any(np.shares_memory(a, g) for g in given.values())
            with pytest.raises(ValueError):
                a.flat[0] = 0.0
    for g in given.values():
        g.flat[0] = 7.0
    assert replaced[1].intensity[0] == 1.0 and replaced[2].scan[0] == (1.0, 1.0)

    s = first.summary
    s["spectral"]["hom_curve"][0]["r_dip"] = 5.0
    s["spectral"]["hom_curve"].pop()
    s["model_state"]["concurrence_bounds"].append(1.0)
    s["amplitudes"]["h_pump"]["weights"][0] = 9.0
    s["orientation"]["normal_axis_angles_deg"].clear()
    s["delay_line"]["scan"][0]["delay_fs"] = 1.0
    # every dict and list a stage's to_json() returns is its own
    for result in stages:
        before = json.dumps(result.to_json(), sort_keys=True)
        _scramble(result.to_json())
        assert json.dumps(result.to_json(), sort_keys=True) == before
    assert _canonical(run_experiment(cfg, SEED)) == expected


def _builtin_type_errors(value, path="") -> list:
    """Paths in a summary that hold anything but dict, list, str, int, float, bool or None."""
    if type(value) is dict:
        return [e for k, v in value.items()
                for e in ([f"{path}: key {k!r}"] if type(k) is not str else [])
                + _builtin_type_errors(v, f"{path}.{k}")]
    if type(value) is list:
        return [e for i, v in enumerate(value) for e in _builtin_type_errors(v, f"{path}[{i}]")]
    if type(value) in (str, int, float, bool, type(None)):
        return []
    return [f"{path}: {type(value).__name__}"]


def test_summary_holds_only_builtin_types(report):
    assert _builtin_type_errors(report.summary) == []
    base = _quick()
    for crystal in (replace(base.crystal, tilt_deg=None, azimuth_deg=None),
                    replace(base.crystal, azimuth_deg=None)):
        fitted = run_experiment(replace(base, crystal=crystal), seed=3)
        assert _builtin_type_errors(fitted.summary) == []
    assert _builtin_type_errors({"x": [np.float64(1.0)]}) == [".x[0]: float64"]


def _csv_writer_bytes(header, rows) -> bytes:
    rendered = io.StringIO(newline="")
    writer = csv.writer(rendered)
    writer.writerow(header)
    writer.writerows(rows)
    return rendered.getvalue().encode()


def test_csv_bytes_are_what_csv_writer_renders():
    # each cell is str() of its number, as csv.writer writes it: ints, signed
    # zeros, extreme magnitudes and numpy scalars (whose repr is np.float64(...))
    cells = [0, -3, 2**70, 0.0, -0.0, 1e-300, -1e300, 5e-324, 0.1, 1 / 3,
             np.float64(0.1), np.float64(-0.0), np.float64(1e300), np.int64(-7)]
    rows = [(cells[k % len(cells)], cells[(3 * k + 1) % len(cells)], k)
            for k in range(2 * experiment._CSV_BLOCK_ROWS + 5)]  # past two blocks
    for count in (0, 1, experiment._CSV_BLOCK_ROWS, len(rows)):
        expected = _csv_writer_bytes(["a", "b", "c"], rows[:count])
        assert experiment._csv_bytes(["a", "b", "c"], iter(rows[:count])) == expected, count
    assert experiment._csv_bytes(["a", "b"], [(-0.0, 1e-300)]) == b"a,b\r\n-0.0,1e-300\r\n"
    assert experiment._csv_bytes(["a"], [(np.float64(0.5),)]) == b"a\r\n0.5\r\n"


def _rendered_sidecars(report) -> dict:
    """What csv.writer writes for each CSV sidecar of ``report``."""
    s = report.summary
    tables = {
        "histogram.csv": (["setting_index", "delta_t_ns", "counts"], [
            (m, t, c) for m, counts in enumerate(report.tomography.counts)
            for t, c in zip(report.tomography.centers_ns, counts)
        ]),
        "fringe.csv": (["theta_deg", "rate"], report.tomography.fringe_curve),
        "hom.csv": (["tau_fs", "r_dip", "r_peak"],
                    [(p["tau_fs"], p["r_dip"], p["r_peak"]) for p in s["spectral"]["hom_curve"]]),
        "spectrum.csv": (["omega_thz", "intensity"],
                         zip(report.spectral.omega_thz, report.spectral.intensity)),
        "delay_scan.csv": (["tilt_deg", "delay_fs"],
                           [(p["tilt_deg"], p["delay_fs"]) for p in s["delay_line"]["scan"]]),
    }
    return {name: _csv_writer_bytes(*table) for name, table in tables.items()}


def _sidecar_configs() -> dict:
    """The packaged defaults, the fine-spectrum overlay (16,384 points, the
    Lorentzian detector) and a fitted orientation."""
    base = load_config()
    return {
        "default": base,
        "fine_spectrum": load_config(ROOT / "perfbench" / "workloads" / "fine_spectrum.cfg"),
        "auto": replace(_quick(), crystal=replace(base.crystal, tilt_deg=None, azimuth_deg=None)),
    }


def test_sidecars_are_what_csv_writer_renders(tmp_path):
    # each configuration from cold memos and caches, then warm: a second seed
    # and the first again, which writes every cached encoding
    for name, cfg in _sidecar_configs().items():
        _clear_memos()
        for phase, seed in (("cold", SEED), ("warm", SEED + 1), ("warm", SEED)):
            report = run_experiment(cfg, seed)
            written = _written(report, tmp_path / f"{name}-{phase}-{seed}")
            for file, expected in _rendered_sidecars(report).items():
                assert written[file] == expected, (name, phase, seed, file)


def _dumped_report(report) -> bytes:
    """What ``json.dumps`` writes for ``report.summary``, indented, as ``report.json``."""
    return (json.dumps(report.summary, indent=2, sort_keys=True, allow_nan=False) + "\n").encode()


def test_report_json_is_what_json_dumps_renders(tmp_path):
    # as the sidecars: cold memos and caches, then a second seed and the first again
    for name, cfg in _sidecar_configs().items():
        _clear_memos()
        for phase, seed in (("cold", SEED), ("warm", SEED + 1), ("warm", SEED)):
            report = run_experiment(cfg, seed)
            written = _written(report, tmp_path / f"{name}-{phase}-{seed}")
            assert written["report.json"] == _dumped_report(report), (name, phase, seed)
    # equal orientations whose texts differ: an azimuth of 0.0, then of -0.0
    base = _quick()
    for azimuth in (0.0, -0.0, 0.0):
        report = run_experiment(replace(base, crystal=replace(base.crystal, azimuth_deg=azimuth)),
                                SEED)
        written = _written(report, tmp_path / "azimuth")["report.json"]
        assert written == _dumped_report(report), azimuth
        assert (b'"azimuth_deg": -0.0,' in written) is (math.copysign(1.0, azimuth) < 0)


def _stdlib_section_text(value) -> str:
    """What ``_section_text`` must return: the stdlib's text, one level in."""
    return json.dumps(value, indent=2, sort_keys=True, allow_nan=False).replace("\n", "\n  ")


#: leaves JSON holds: signed zeros, float and int extremes (ints past 2**64),
#: numpy float scalars, and strings with escapes and non-ASCII characters
_JSON_LEAVES = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(allow_nan=False, allow_infinity=False),
    st.floats(allow_nan=False, allow_infinity=False).map(np.float64),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e308, -1.7976931348623157e308,
                     2**64, -(2**64) - 1, 3**90, np.float64(-0.0)]),
    st.text(),
    st.sampled_from(["", "\"\\/\b\f\n\r\t\x00\x1f\x7f", "d\u00e9j\u00e0 \u2014 \U0001f600"]),
)
_JSON_TREES = st.recursive(
    _JSON_LEAVES,
    lambda children: st.one_of(st.lists(children, max_size=4),
                               st.lists(children, max_size=4).map(tuple),
                               st.dictionaries(st.text(), children, max_size=4)),
    max_leaves=40,
)


@settings(max_examples=400, deadline=None)
@given(_JSON_TREES)
@example([])
@example({})
@example({"b": [(), {}, [[]]], "a": (1.5, None, True, False)})
def test_section_text_is_the_stdlib_rendering(value):
    assert experiment._section_text(value) == _stdlib_section_text(value)
    assert experiment.report_json_bytes({"k": value}) == (
        json.dumps({"k": value}, indent=2, sort_keys=True, allow_nan=False) + "\n").encode()


#: leaves JSON cannot hold: the stdlib's ValueError for a non-finite float,
#: its TypeError for a value of another type
_BAD_LEAVES = [math.nan, math.inf, -math.inf, np.float64(math.nan), set(), frozenset({1}),
               b"bytes", np.int64(1), np.bool_(True), 1j, object()]


@settings(max_examples=200, deadline=None)
@given(_JSON_TREES, st.sampled_from(_BAD_LEAVES), st.booleans())
def test_section_text_raises_as_the_stdlib(tree, bad, in_dict):
    value = {"a": tree, "b": bad} if in_dict else [tree, (bad,)]
    with pytest.raises((ValueError, TypeError)) as stdlib:
        _stdlib_section_text(value)
    with pytest.raises(stdlib.type) as rendered:
        experiment._section_text(value)
    assert str(rendered.value) == str(stdlib.value)


def _tree_texts(result) -> dict:
    """What a seeded result's ``encoded()`` must return: ``_section_text`` of
    each section ``to_json()`` builds."""
    return {key: experiment._section_text(value) for key, value in result.to_json().items()}


def _with_bootstrap(samples):
    cfg = load_config()
    return replace(cfg, run=replace(cfg.run, bootstrap_samples=samples))


def _runs(cfg, *seeds) -> list:
    """The tomography and Bell results of a run of ``cfg`` at each seed."""
    reports = [run_experiment(cfg, seed) for seed in seeds]
    return [result for report in reports for result in (report.tomography, report.bell)]


def _analyses(records_file, *seeds) -> list:
    """``analyze_tomography`` of a records file (or of a (protocol, records)
    pair) at each seed, with the packaged defaults' 100 replicates."""
    protocol, records = (tomography.load_records_csv(ROOT / "tests" / "data" / records_file)
                         if isinstance(records_file, str) else records_file)
    return [experiment.analyze_tomography(load_config(), protocol, records, seed)
            for seed in seeds]


def _state_records(rho) -> tuple:
    """The default protocol and noiseless records of ``rho`` counted at 10 kHz."""
    protocol = tomography.default_protocol()
    raw = 10.0 * tomography.forward_rates(rho, protocol, 1000.0)
    return protocol, tomography.CoincidenceRecords(raw, np.zeros(9), np.full(9, 10.0),
                                                   np.sqrt(np.maximum(raw, 1.0)))


def _null_visibility(seed):
    # a zero-trace fringe: no counts at any angle, so no visibility and no curve
    t = run_experiment(load_config(), seed).tomography
    return replace(t, measures={**t.measures, "visibility": None}, fringe_curve=[])


def _null_weight_sigma(seed):
    t = run_experiment(load_config(), seed).tomography
    first, _, last = t.sigmas["weights_sigma"]
    return replace(t, sigmas={**t.sigmas, "weights_sigma": [first, None, last]})


def _bell_without_spread():
    # two pairs per setting: at seed 2 every correlator's counts fall in one
    # outcome class, so sigma_f is 0 and std_devs_above_classical is null
    cfg = load_config()
    cfg = replace(cfg, bell=replace(cfg.bell, counts_per_setting=2))
    bell = experiment.simulate_bell(cfg, experiment.simulate_tomography(cfg, 2), 2)
    assert bell.sigma_f == 0.0 and bell.std_devs_above_classical is None
    return [bell, replace(bell, f_simulated=0.75, f_reconstructed=-0.0)]


#: each section shape, as results of it: the first result makes the shape's
#: template, the others fill it
_SECTION_SHAPES = {
    "bootstrap_samples 0": lambda: _runs(_with_bootstrap(0), SEED, SEED + 1),
    "bootstrap_samples 2": lambda: _runs(_with_bootstrap(2), SEED, SEED + 1),
    "bootstrap_samples 100": lambda: _runs(load_config(), SEED, SEED + 1),
    "unfittable replicate": lambda: _analyses("records_low_counts.csv", 1, 2),
    "null visibility": lambda: [_null_visibility(SEED), _null_visibility(SEED + 1)],
    "degenerate dominant eigenstate": lambda: _analyses(
        _state_records(np.eye(3, dtype=complex) / 3.0), 1, 2),
    "null sigma in a list": lambda: [_null_weight_sigma(SEED), _null_weight_sigma(SEED + 1)],
    "null std_devs_above_classical": _bell_without_spread,
    "25 records": lambda: _analyses("records_overcomplete.csv", 1, 2),
}


@pytest.mark.parametrize("shape", list(_SECTION_SHAPES))
def test_section_templates_render_what_the_tree_renders(shape):
    _clear_memos()
    results = _SECTION_SHAPES[shape]()
    if shape == "unfittable replicate":
        assert {None} == set(results[0].sigmas.values())
    if shape == "degenerate dominant eigenstate":
        assert [results[0].measures[key] for key in
                ("concurrence", "schmidt_number", "dominant_weight")] == [None] * 3
    for result in results:
        assert result.encoded()[0] == _tree_texts(result), shape
    # each kind made one template, which the later results filled
    kinds = {type(result) for result in results}
    for kind, templates in ((experiment.TomographyResult, experiment._TOMOGRAPHY_TEMPLATES),
                            (experiment.BellResult, experiment._BELL_TEMPLATES)):
        assert len(templates) == (kind in kinds), (shape, kind)


@pytest.mark.parametrize("warm", [False, True])
def test_a_filled_section_raises_and_renders_as_the_stdlib(warm):
    report = run_experiment(load_config(), SEED)
    t, bell = report.tomography, report.bell
    _clear_memos()
    if warm:  # the templates of these shapes are made
        t.encoded(), bell.encoded()
    rho = t.rho.copy()
    rho[1, 2] = complex(0.1, math.nan)
    broken = [
        replace(t, measures={**t.measures, "purity": math.nan}),
        replace(t, sigmas={**t.sigmas, "weights_sigma": [0.1, math.inf, 0.2]}),
        replace(t, fit=replace(t.fit, condition_number=-math.inf)),
        replace(t, rho=rho),
        replace(bell, f_simulated=math.nan),
        replace(bell, std_devs_above_classical=np.float64(math.inf)),
    ]
    for result in broken:
        with pytest.raises(ValueError) as stdlib:
            json.dumps(result.to_json(), indent=2, sort_keys=True, allow_nan=False)
        with pytest.raises(ValueError) as rendered:
            result.encoded()
        assert str(rendered.value) == str(stdlib.value)
    # a float subclass is rendered as its base, as json.dumps renders it
    for result in (replace(t, measures={**t.measures, "purity": np.float64(0.5)},
                           fit=replace(t.fit, scale=np.float64(-0.0))),
                   replace(bell, sigma_f=np.float64(1e-300))):
        (key, text), = result.encoded()[0].items()
        assert text == _stdlib_section_text(result.to_json()[key])


def test_a_warm_write_renders_no_seeded_tree(tmp_path, monkeypatch):
    cfg = load_config()
    write_report(run_experiment(cfg, SEED), tmp_path)
    report = run_experiment(cfg, SEED + 1)
    rendered = []
    json_text = experiment._json_text

    def recording(value, newline):
        rendered.append(value)
        return json_text(value, newline)

    def no_tree(self):
        raise AssertionError(f"a warm write built {type(self).__name__}.to_json()")

    monkeypatch.setattr(experiment, "_json_text", recording)
    for kind in (experiment.TomographyResult, experiment.BellResult):
        monkeypatch.setattr(kind, "to_json", no_tree)
    write_report(report, tmp_path)
    monkeypatch.undo()
    sections = {**report.tomography.to_json(), **report.bell.to_json()}
    assert sections["tomography"] and sections["bell"]
    assert not [key for key, section in sections.items()
                if any(value == section for value in rendered)]


def test_report_json_takes_seed_free_sections_from_the_stage_results(tmp_path, report):
    # a summary is a fresh view: editing one reaches neither the next nor the files
    expected = _canonical(report)
    files = _written(report, tmp_path / "first")
    _scramble(report.summary)
    assert _canonical(report) == expected
    assert _written(report, tmp_path / "again") == files

    # edits go through the results, seed-free and per-run alike
    tomography, source = report.tomography, report.source
    edited = replace(
        report,
        seed=7,
        tomography=replace(tomography, measures={**tomography.measures, "purity": 0.5}),
        bell=replace(report.bell, f_simulated=1.25),
        spectral=replace(report.spectral, hom_dip_fwhm_fs=1.0),
        source=replace(source, orientation=replace(source.orientation, tilt_deg=0.0)),
        delay_scan=replace(report.delay_scan, scan=()),
    )
    written = _written(edited, tmp_path / "edited")["report.json"]
    assert written == _dumped_report(edited)
    loaded, before = json.loads(written), json.loads(files["report.json"])
    assert (loaded["seed"], loaded["tomography"]["purity"], loaded["bell"]["f_simulated"],
            loaded["spectral"]["hom_dip_fwhm_fs"], loaded["orientation"]["tilt_deg"],
            loaded["delay_line"]["scan"]) == (7, 0.5, 1.25, 1.0, 0.0, [])
    for key in ("schema_version", "amplitudes", "pump", "model_state"):
        assert loaded[key] == before[key], key

    # a per-run result is still encoded as strict JSON
    for broken in (replace(tomography, measures={**tomography.measures, "purity": float("nan")}),
                   replace(tomography, sigmas={**tomography.sigmas, "purity_sigma": math.inf})):
        with pytest.raises(ValueError):
            write_report(replace(report, tomography=broken), tmp_path / "broken")
    with pytest.raises(ValueError):
        write_report(replace(report, bell=replace(report.bell, f_simulated=math.nan)), tmp_path)


def _spectrum_rendered(omega, intensity) -> bytes:
    return _csv_writer_bytes(["omega_thz", "intensity"], zip(omega, intensity))


def test_spectrum_csv_follows_the_arrays_a_report_carries(tmp_path):
    cfg = _quick()
    report = run_experiment(cfg, SEED)
    _written(report, tmp_path / "cached")  # the configuration's encoding is cached
    omega, intensity = report.spectral.omega_thz, report.spectral.intensity

    def carrying(o, i):
        return replace(report, spectral=replace(report.spectral, omega_thz=o, intensity=i))

    def spectrum_csv(r, name):
        return _written(r, tmp_path / name)["spectrum.csv"]

    # writable arrays, changed before the section is made and after: it keeps
    # the values it was given, and a new section gets the new ones
    o, i = omega.copy(), intensity.copy()
    i[0] = 0.5
    copies = carrying(o, i)
    given = _spectrum_rendered(o, i)
    assert spectrum_csv(copies, "copy") == given
    o[-1] = -0.0
    assert spectrum_csv(copies, "copy") == given
    assert spectrum_csv(carrying(o, i), "copy") == _spectrum_rendered(o, i) != given

    # a read-only view of a writable array: the section holds the values at construction
    owner = intensity.copy()
    view = owner.view()
    view.flags.writeable = False
    viewed = carrying(omega, view)
    _written(viewed, tmp_path / "view")
    owner[1] = 2.0
    assert spectrum_csv(viewed, "view") == _spectrum_rendered(omega, intensity)
    assert spectrum_csv(carrying(omega, view), "view") == _spectrum_rendered(omega, owner)

    # another configuration's arrays on the same number of points, whole and mixed
    other = run_experiment(replace(cfg, spectrum=replace(cfg.spectrum, span_thz=140.0)), SEED)
    for o, i in ((other.spectral.omega_thz, other.spectral.intensity),
                 (omega, other.spectral.intensity),
                 (other.spectral.omega_thz, intensity)):
        assert spectrum_csv(carrying(o, i), "swapped") == _spectrum_rendered(o, i)
    # arrays of equal floats: one holds 0.0 where the other holds -0.0
    zeros = []
    for zero in (0.0, -0.0):
        frozen = omega.copy()
        frozen[0] = zero
        frozen.flags.writeable = False
        zeros.append(carrying(frozen, intensity))
        assert spectrum_csv(zeros[-1], "zero") == _spectrum_rendered(frozen, intensity)
    assert np.array_equal(zeros[0].spectral.omega_thz, zeros[1].spectral.omega_thz)
    assert spectrum_csv(report, "again") == _spectrum_rendered(omega, intensity)


def test_histogram_rows_follow_the_bin_grid_bytes(tmp_path):
    # grids equal as numbers to the simulated one: 0.0 made -0.0, and integers
    report = run_experiment(_quick(), SEED)

    def regridded(centers):
        return replace(report, tomography=replace(
            report.tomography, centers_ns=centers(report.tomography.centers_ns)))

    signed = regridded(lambda c: np.where(c == 0.0, -0.0, c))
    integer = regridded(lambda c: c.astype(np.int64))
    for r in (report, signed, integer, report):
        assert r.tomography.centers_ns.tolist() == report.tomography.centers_ns.tolist()
        assert _written(r, tmp_path)["histogram.csv"] == _rendered_sidecars(r)["histogram.csv"]
    assert b"\r\n0,-0.0," in _written(signed, tmp_path)["histogram.csv"]
    assert b"\r\n0,0," in _written(integer, tmp_path)["histogram.csv"]


def test_histogram_csv_takes_integer_counts_only():
    # %d prints an integer count as str() does, and would truncate a float one
    centers = np.array([-0.5, 0.0, 0.5])
    for dtype in (np.int64, np.uint32):
        assert experiment.histogram_csv(np.array([[1, 20, 300]], dtype=dtype), centers) == (
            b"setting_index,delta_t_ns,counts\r\n0,-0.5,1\r\n0,0.0,20\r\n0,0.5,300\r\n")
    for dtype in (np.float64, np.bool_, object):
        with pytest.raises(TypeError, match="integers"):
            experiment.histogram_csv(np.array([[1, 0, 1]], dtype=dtype), centers)


@pytest.mark.parametrize("before", [None, b"junk" * 4096, b"j"], ids=["new", "longer", "shorter"])
def test_write_bytes_leaves_exactly_the_bytes(tmp_path, before):
    data = bytes(range(256)) * 8 + b"\r\n"  # every byte value, CR and LF among them
    path = tmp_path / "file"
    if before is not None:
        path.write_bytes(before)
    experiment.write_bytes(path, data)
    assert path.read_bytes() == data
    experiment.write_bytes(path, b"")
    assert path.read_bytes() == b""


@pytest.mark.skipif(not os.path.exists("/dev/null"), reason="no /dev/null")
def test_write_bytes_to_a_device():
    # a character device takes the bytes and is not truncated
    experiment.write_bytes("/dev/null", b"x" * 100_000)


def test_sidecar_caches_hold_at_most_memo_configs(tmp_path):
    _clear_memos()
    base = _quick()
    caches = (experiment.SourceModel.encoded, experiment.SpectralSection.encoded,
              experiment.DelayScan.encoded, experiment._histogram_row_templates)
    block = experiment._CSV_BLOCK_ROWS
    kept = []  # reports a caller keeps hold no encodings beyond the bound
    for k in range(experiment._MEMO_CONFIGS + 2):
        # grids on both sides of an encoding block's edge
        cfg = replace(base, spectrum=replace(base.spectrum, points=block - 1 + k),
                      histogram=replace(base.histogram, n_bins=block - 1 + 2 * k),
                      delay_line=replace(base.delay_line, scan_points=block - 1 + k),
                      pump=replace(base.pump, angle_deg=base.pump.angle_deg + k))
        report = run_experiment(cfg, SEED)
        kept.append(report)
        written = _written(report, tmp_path / str(k))
        assert written.items() >= _rendered_sidecars(report).items(), k
        assert written["report.json"] == _dumped_report(report), k
        sizes = [cache.cache_info().currsize for cache in caches]
        assert sizes == [min(k + 1, experiment._MEMO_CONFIGS)] * len(caches), k
    _clear_memos()
    assert [cache.cache_info().currsize for cache in caches] == [0] * len(caches)
