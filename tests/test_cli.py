"""Command-line entry point tests: exit codes and output formats."""

import codecs
import json
import os
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import spdcfilm.bell as bell
import spdcfilm.cli as cli
import spdcfilm.experiment as experiment
from spdcfilm.cli import (
    EXIT_CONFIG,
    EXIT_INCOMPLETE,
    EXIT_NUMERICAL,
    EXIT_OK,
    main,
)
from spdcfilm.config import load_config
from spdcfilm.errors import ConfigError, InvalidState

ROOT = Path(__file__).resolve().parents[1]


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_amplitudes_json(capsys):
    code, out = run_cli(capsys, "amplitudes")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert sorted(doc) == ["amplitudes", "model_state", "orientation", "pump"]
    assert doc["amplitudes"]["h_pump"]["weights"] == pytest.approx(
        [0.7827, 0.0169, 0.2005], abs=5e-4
    )
    assert doc["amplitudes"]["v_pump"]["weights"][1] == pytest.approx(0.9794, abs=5e-4)


def test_bell_subcommand(capsys):
    code, out = run_cli(capsys, "bell", "--seed", "3")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert list(doc) == ["bell"]
    assert doc["bell"]["f_model"] <= 2.0**0.5 + 1e-9
    assert doc["bell"]["std_devs_above_classical"] > 0.0


def test_hom_csv(capsys):
    code, out = run_cli(capsys, "hom", "--format", "csv")
    assert code == EXIT_OK
    lines = out.split("\r\n")
    assert lines[0] == "tau_fs,r_dip,r_peak"
    assert lines[-1] == ""  # every line, the last included, ends in CRLF
    mid = lines[1 + (len(lines) - 2) // 2].split(",")
    assert float(mid[0]) == pytest.approx(0.0, abs=1e-9)
    assert float(mid[1]) == pytest.approx(0.0, abs=1e-10)


def test_histogram_csv(capsys):
    code, out = run_cli(capsys, "histogram", "--seed", "5")
    assert code == EXIT_OK
    lines = out.split("\r\n")
    assert lines[0] == "setting_index,delta_t_ns,counts"
    assert len(lines) == 2 + 9 * 501  # the header, 501 bins of nine settings, a final CRLF
    assert {line.split(",")[0] for line in lines[1:-1]} == {str(m) for m in range(9)}


def test_histogram_prints_counts_whose_fit_fails(capsys, tmp_path):
    # no pairs: at this seed the records of the histograms fit a total rate
    # that is not positive, so the run fails while the draw succeeds
    cfg = tmp_path / "dark.cfg"
    cfg.write_text("[noise]\npair_rate_hz = 0\n")
    code, out = run_cli(capsys, "histogram", "--seed", "1", "--config", str(cfg))
    assert code == EXIT_OK
    assert len(out.split("\r\n")) == 2 + 9 * 501
    code = main(["run", "--seed", "1", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert code == EXIT_NUMERICAL
    assert "is not positive" in capsys.readouterr().err


def test_histogram_has_no_format_option(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["histogram", "--format", "json"])
    assert exc.value.code == EXIT_CONFIG  # argparse's usage error
    assert "unrecognized arguments: --format" in capsys.readouterr().err


def test_run_writes_files(capsys, tmp_path):
    out_dir = tmp_path / "runout"
    code, out = run_cli(capsys, "run", "--seed", "11", "--out", str(out_dir))
    assert code == EXIT_OK
    assert (out_dir / "report.json").exists()
    assert (out_dir / "fringe.csv").exists()
    report = json.loads((out_dir / "report.json").read_text())
    assert report["seed"] == 11


DATA = Path(__file__).parent / "data"
#: the defaults' run at seed 3: its nine records, in the records CSV's columns
RECORDS_SEED3 = str(DATA / "records_seed3.csv")
#: the 25 settings {H, V, D, A, R}^2 of the defaults' model state at 1 kHz for
#: 2 s over 5 accidentals: more settings than parameters
RECORDS_OVERCOMPLETE = DATA / "records_overcomplete.csv"
#: about four pairs a setting over flat accidentals: some bootstrap replicate
#: at the configured seed has a fitted total rate that is not positive
RECORDS_LOW_COUNTS = str(DATA / "records_low_counts.csv")
SIGMAS = ("concurrence_sigma", "purity_sigma", "visibility_sigma", "weights_sigma")


def _tomography(capsys, *argv) -> dict:
    code, out = run_cli(capsys, "tomography", *argv)
    assert code == EXIT_OK
    return json.loads(out)["tomography"]


def test_tomography_from_records(capsys):
    # the run's own records, fitted as measured counts, give the run's estimates
    simulated = _tomography(capsys, "--seed", "3")
    fitted = _tomography(capsys, "--records", RECORDS_SEED3)
    assert set(fitted) == {*simulated, "source"} and fitted["source"] == RECORDS_SEED3
    for key in ("rho", "scale_hz", "fit", "weights", "purity", "concurrence", "schmidt_number",
                "dominant_weight", "visibility", "fringe_fixed_analyzer"):
        assert json.dumps(fitted[key]) == json.dumps(simulated[key]), key
    for record, run_record in zip(fitted["records"], simulated["records"], strict=True):
        assert record == {**run_record, "net_sigma": record["net_sigma"]}
        assert record["net_sigma"] == pytest.approx(run_record["net_sigma"], rel=0.003)
    for key in SIGMAS:
        assert np.isfinite(np.array(fitted[key], dtype=float)).all(), key  # None is NaN


def test_unfittable_bootstrap_replicate_leaves_null_sigmas(capsys, tmp_path):
    no_bootstrap = tmp_path / "no-bootstrap.cfg"
    no_bootstrap.write_text("[run]\nbootstrap_samples = 0\n")
    code, out = run_cli(capsys, "tomography", "--records", RECORDS_LOW_COUNTS)
    assert code == EXIT_OK
    assert [json.loads(out)["tomography"][key] for key in SIGMAS] == [None] * 4
    assert load_config().run.bootstrap_samples > 0
    # the point values are those of an analysis that draws no replicate
    assert run_cli(capsys, "tomography", "--records", RECORDS_LOW_COUNTS,
                   "--config", str(no_bootstrap)) == (EXIT_OK, out)


def test_overcomplete_records_take_the_svd_solve(capsys, monkeypatch):
    from spdcfilm.tomography import forward_rates, named_protocol

    protocol = named_protocol([a + b for a in "HVDAR" for b in "HVDAR"])
    rates = forward_rates(experiment.source_model(load_config()).rho, protocol, 1000.0)
    # the committed file holds exactly these records
    assert RECORDS_OVERCOMPLETE.read_text() == "qwp_a,hwp_a,qwp_b,hwp_b,raw,accidental,duration\n" \
        + "".join(f"{qa},{ha},{qb},{hb},{round(2.0 * rate) + 5},5.0,2.0\n"
                  for (qa, ha, qb, hb), rate in zip(protocol.angles.tolist(), rates))
    shapes = []

    def recording(a, *args, _original=np.linalg.svd, **kwargs):
        shapes.append(np.shape(a))
        return _original(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recording)
    fitted = _tomography(capsys, "--records", str(RECORDS_OVERCOMPLETE))
    assert len(fitted["records"]) == 25
    assert (load_config().run.bootstrap_samples, 25, 9) in shapes  # one weighted SVD a replicate
    for key in SIGMAS:
        assert np.isfinite(np.array(fitted[key], dtype=float)).all(), key  # None is NaN


def test_records_seed_sets_only_the_bootstrap(capsys):
    first, again, other = (run_cli(capsys, "tomography", "--records", RECORDS_SEED3,
                                   "--seed", seed) for seed in ("5", "5", "6"))
    assert first == again and first[0] == EXIT_OK
    first, other = json.loads(first[1])["tomography"], json.loads(other[1])["tomography"]
    assert sorted(key for key in first if first[key] != other[key]) == list(SIGMAS)


AMPLITUDES_KEYS = ("amplitudes", "model_state", "orientation", "pump")

#: stage command -> (its command line, the report.json keys it prints or the
#: sidecar whose bytes it prints)
STAGE_COMMANDS = {
    "amplitudes": (["amplitudes"], AMPLITUDES_KEYS),
    "amplitudes_pump": (["amplitudes", "--pump", "22.5"], AMPLITUDES_KEYS),
    "tomography": (["tomography"], ("tomography",)),
    "bell": (["bell"], ("bell",)),
    "hom": (["hom"], ("spectral",)),
    "hom_csv": (["hom", "--format", "csv"], "hom.csv"),
    "histogram": (["histogram"], "histogram.csv"),
}


def _runs_output(cfg, seed, command, out_dir) -> bytes:
    """What ``spdcfilm run`` writes that ``command`` prints: the rendering of
    its ``report.json`` keys alone, or its sidecar's bytes. The run's pump is
    the command's ``--pump``, if it has one."""
    argv, keys = STAGE_COMMANDS[command]
    if "--pump" in argv:
        cfg = replace(cfg, pump=replace(cfg.pump, angle_deg=float(argv[argv.index("--pump") + 1])))
    files = {p.name: p.read_bytes()
             for p in experiment.write_report(experiment.run_experiment(cfg, seed), out_dir)}
    if isinstance(keys, str):
        return files[keys]
    report = json.loads(files["report.json"])
    return (json.dumps({k: report[k] for k in keys}, indent=2, sort_keys=True) + "\n").encode()


#: the stage functions, in the ``experiment``, ``cli`` and ``bell`` modules,
#: that no stage command calls after a run of its configuration: the run's
#: whole pipeline, and the seed-free stages' work, which the memos hold
NOT_NEEDED = ("run_experiment", "delay_line_scan", "delay_scan", "calibrate_orientation",
              "weight_residual", "spdc_amplitudes", "joint_spectrum")
TOMOGRAPHY = ("simulate_tomography", "reconstruct", "simulate_counts")
BELL = ("simulate_bell", "simulate_chsh", "chsh_value")
#: subcommand -> the further stage functions its output does not need
STAGE_NOT_NEEDED = {
    "amplitudes": (*TOMOGRAPHY, *BELL, "spectral_section"),
    "tomography": (*BELL, "spectral_section"),
    "bell": ("spectral_section",),
    "hom": ("source_model", *TOMOGRAPHY, *BELL),
    "histogram": (*BELL, "spectral_section", "simulate_tomography", "analyze_tomography",
                  "reconstruct"),
}


@pytest.mark.parametrize("command", STAGE_COMMANDS)
def test_stage_command_runs_only_its_stage(capsysbinary, monkeypatch, tmp_path, command):
    expected = _runs_output(load_config(), 4, command, tmp_path)
    argv = STAGE_COMMANDS[command][0]

    def not_needed(*args, **kwargs):
        raise AssertionError(f"spdcfilm {' '.join(argv)} ran a stage it does not print")

    for name in (*NOT_NEEDED, *STAGE_NOT_NEEDED[argv[0]]):
        for module in (experiment, cli, bell):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, not_needed)
    assert main([*argv, "--seed", "4"]) == EXIT_OK
    assert capsysbinary.readouterr().out == expected


OVERLAYS = {
    "default": None,
    "auto_calibrate": ROOT / "perfbench" / "workloads" / "auto_calibrate.cfg",
    "fine_spectrum": ROOT / "perfbench" / "workloads" / "fine_spectrum.cfg",
}


@pytest.mark.parametrize("command", STAGE_COMMANDS)
@pytest.mark.parametrize("seed", [3, 22])
@pytest.mark.parametrize("overlay", OVERLAYS)
def test_stage_command_prints_the_runs_output(capsysbinary, tmp_path, overlay, seed, command):
    path = OVERLAYS[overlay]
    expected = _runs_output(load_config(path), seed, command, tmp_path)
    config = [] if path is None else ["--config", str(path)]
    assert main([*STAGE_COMMANDS[command][0], *config, "--seed", str(seed)]) == EXIT_OK
    assert capsysbinary.readouterr().out == expected


# runs the seed-free stage commands in one fresh process, then one that
# draws, and prints whether numpy.random was loaded after each
NUMPY_RANDOM_PROBE = """
import json, sys
from spdcfilm.cli import main

out = sys.argv[1]
loaded = {}
for argv in (["amplitudes"], ["amplitudes", "--pump", "22.5"], ["hom"],
             ["hom", "--format", "csv"], ["histogram"]):
    if main([*argv, "--seed", "3", "--out", f"{out}/{len(loaded)}"]) != 0:
        raise SystemExit(f"spdcfilm {' '.join(argv)} failed")
    loaded[" ".join(argv)] = "numpy.random" in sys.modules
print(json.dumps(loaded))
"""


def test_seed_free_commands_never_import_numpy_random(tmp_path):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", NUMPY_RANDOM_PROBE, str(tmp_path)],
                          capture_output=True, text=True, env=env, check=True)
    loaded = json.loads(done.stdout.splitlines()[-1])
    # amplitudes and hom draw nothing; histogram draws, so the probe sees the import
    assert loaded == {"amplitudes": False, "amplitudes --pump 22.5": False, "hom": False,
                      "hom --format csv": False, "histogram": True}


def test_out_holds_the_printed_bytes(capsysbinary, tmp_path):
    # --out gets the bytes stdout would: hom.csv's CRLF line ends unchanged
    expected = _runs_output(load_config(), 3, "hom_csv", tmp_path / "run")
    out = tmp_path / "hom.csv"
    assert main(["hom", "--format", "csv", "--seed", "3", "--out", str(out)]) == EXIT_OK
    assert capsysbinary.readouterr().out == b""
    assert out.read_bytes() == expected
    # over a longer file, which is cut to the new length
    out.write_bytes(b"junk" * len(expected))
    assert main(["hom", "--format", "csv", "--seed", "3", "--out", str(out)]) == EXIT_OK
    assert out.read_bytes() == expected


@pytest.mark.skipif(not os.path.exists("/dev/null"), reason="no /dev/null")
@pytest.mark.parametrize("argv", [["hom", "--format", "csv"], ["bell"]],
                         ids=["hom-csv", "bell"])
def test_out_to_a_device(capsysbinary, argv):
    # a character device takes the bytes but cannot be truncated
    assert main([*argv, "--seed", "3", "--out", "/dev/null"]) == EXIT_OK
    assert capsysbinary.readouterr().out == b""


def test_bad_config_path_exit_code(capsys, tmp_path):
    code, _ = run_cli(capsys, "amplitudes", "--config", str(tmp_path / "no.cfg"))
    assert code == EXIT_CONFIG


def test_invalid_config_value_exit_code(capsys, tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("[crystal]\ntilt_deg = 120.0\n")
    code, _ = run_cli(capsys, "amplitudes", "--config", str(cfg))
    assert code == EXIT_CONFIG


@pytest.mark.parametrize(
    "body, message",
    [
        ("angle_deg = 5\n", "File contains no section headers"),
        ("[pump]\nangle_deg = 5\nangle_deg = 6\n", "option 'angle_deg' in section 'pump' already exists"),
        ("[pump]\nangle_deg = 5%\n", "[pump] angle_deg must be a number"),
        ("[pump]\nangle_deg = nan\n", "[pump] angle_deg must be a finite number"),
        ("[hom]\ndelay_start_fs = nan\n", "[hom] delay_start_fs must be a finite number"),
        ("[film]\nfilm_index = unobtainium\n", "unknown material 'unobtainium'"),
        ("[film]\nfilm_index = -1.0\n", "[film] film index: constant index -1.0 must be"),
        ("[film]\nambient_index = -3.2\n", "[film] ambient index: constant index -3.2 must be"),
        ("[delay_line]\nwavelength_um = 10\n", "[delay_line] wavelength outside validity window"),
        ("[spectrum]\nspan_thz = 50\n", "[spectrum] grid [-50, 50] THz must cover +-100 THz"),
        ("[film]\nthickness_nm = 0\n", "[film] film thickness must be positive"),
        ("[film]\nthickness_nm = -400\n", "[film] film thickness must be positive"),
        ("[spectrum]\npoints = 40.5\n", "[spectrum] points must be an integer"),
        ("[calibration]\nh_pump_weights = a, b, c\n",
         "[calibration] h_pump_weights must be a list of numbers, got 'a, b, c'"),
    ],
    ids=[
        "no_header", "duplicate_key", "percent", "nan_angle", "nan_delay", "unknown_material",
        "negative_film_index", "negative_ambient_index", "calcite_wavelength", "narrow_span",
        "zero_thickness", "negative_thickness", "fractional_points", "non_numeric_weights",
    ],
)
def test_malformed_or_unrunnable_config_exit_code(capsys, tmp_path, body, message):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(body)
    code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ") and message in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["amplitudes", "--pump", "nan"],
        ["amplitudes", "--pump=inf"],
        ["amplitudes", "--pump=-inf"],
        ["run", "--seed=-1"],
        ["tomography", "--seed=-1"],
        ["bell", "--seed=-1"],
        ["histogram", "--seed=-1"],
    ],
    ids=["pump_nan", "pump_inf", "pump_minus_inf", "run_seed", "tomography_seed", "bell_seed",
         "histogram_seed"],
)
def test_bad_command_line_override_exit_code(capsys, tmp_path, argv):
    # the options go through the same checks as the [run] and [pump] keys
    code = main([*argv, "--out", str(tmp_path / "out")])
    assert code == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("configuration error: ")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("span, expected", [(154, EXIT_OK), (155, EXIT_CONFIG)])
def test_spectrum_span_checked_against_index_data_at_load(capsys, tmp_path, span, expected):
    # with the 638 nm pump, a span past about 154.14 THz puts the grid's
    # extreme idler beyond the fused-silica substrate data (3.71 um)
    cfg = tmp_path / "span.cfg"
    cfg.write_text(f"[spectrum]\nspan_thz = {span}\n")
    if expected == EXIT_CONFIG:
        with pytest.raises(ConfigError, match=r"^\[spectrum\] wavelength outside validity window"):
            load_config(cfg)
    code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert code == expected
    assert (tmp_path / "out" / "report.json").exists() == (expected == EXIT_OK)


@pytest.mark.parametrize(
    "command, body, message",
    [
        ("tomography", "[tomography]\nduration_per_setting_s = 1e16\n",
         "zero-delay pair Poisson mean 1.44004e+19 exceeds 1e+18 counts"),
        ("run", "[noise]\nsingles_a_hz = 1e200\n",
         "accidental floor per bin Poisson mean 3e+196 exceeds 1e+18 counts"),
        ("run", "[histogram]\nbin_width_ns = 1e300\n",
         "accidental floor per bin Poisson mean 9e+300 exceeds 1e+18 counts"),
        ("bell", f"[bell]\ncounts_per_setting = {10**21}\n",
         "CHSH outcome Poisson mean 5.41199e+20 exceeds 1e+18 counts"),
        # a count past the float range, whose mean is printed without a float
        ("bell", f"[bell]\ncounts_per_setting = {10**400}\n",
         "CHSH outcome Poisson mean 5.41199e+399 exceeds 1e+18 counts"),
        # a film this thick passes validation, but its etalon leaves no pair intensity
        ("run", "[film]\nthickness_nm = 1e300\n", "spectrum has zero total weight"),
    ],
    ids=["tomography_duration", "singles_rate", "bin_width", "bell_counts", "bell_counts_past_float",
         "film_zero_weight"],
)
def test_poisson_mean_past_numpys_range_exit_code(capsys, tmp_path, command, body, message):
    # NumPy's Poisson draw rejects means above about 9.2e18 with a ValueError;
    # these, and a spectrum with no weight, exit as numerical failures
    cfg = tmp_path / "big.cfg"
    cfg.write_text(body)
    code = main([command, "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert code == EXIT_NUMERICAL
    assert capsys.readouterr().err == f"numerical failure: {message}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "body, zero_weight",
    [
        ("[filters]\nedge_width_thz = 0.01\n", False),
        ("[detector_response]\nshape = gaussian\nfwhm_thz = 1e-200\n", True),
        ("[detector_response]\nshape = lorentzian\nfwhm_thz = 1e-200\n", True),
    ],
    ids=["sharp_filter_edge", "gaussian_vanishing_width", "lorentzian_vanishing_width"],
)
def test_overflowing_response_takes_its_limit_silently(capsys, tmp_path, body, zero_weight):
    # a response that overflows is a transmission of 0, with no RuntimeWarning:
    # a sharp filter edge runs, and a vanishing detector width leaves no weight
    cfg = tmp_path / "overflow.cfg"
    cfg.write_text(body)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if zero_weight:
            with pytest.raises(InvalidState, match="^spectrum has zero total weight$"):
                experiment.spectral_section(load_config(cfg))
        code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")])
    if zero_weight:
        assert code == EXIT_NUMERICAL
        assert capsys.readouterr().err == "numerical failure: spectrum has zero total weight\n"
    else:
        assert code == EXIT_OK
        assert (tmp_path / "out" / "report.json").exists()


@pytest.mark.parametrize(
    "command, body, message",
    [
        ("hom", "[hom]\ndelay_start_fs = -1e308\ndelay_stop_fs = 1e308\n",
         "hom delay grid must span a finite range"),
        ("run", "[fringe]\ntheta_start_deg = -1e308\ntheta_stop_deg = 1e308\n",
         "fringe theta grid must span a finite range"),
        ("run", "[delay_line]\nplate_thickness_mm = 1e306\n",
         "[delay_line] delay line delay nan fs is not a finite number"),
        ("run", f"[run]\nbootstrap_samples = {2**32 + 1}\n",
         "run bootstrap_samples must be at most 2**32"),
    ],
    ids=["hom_delays", "fringe_angles", "plate_thickness", "bootstrap_samples"],
)
def test_finite_values_that_overflow_exit_code(capsys, tmp_path, command, body, message):
    # each grid or delay overflowed to NaN or infinity: a JSON encoding error,
    # or NaN rows in fringe.csv
    cfg = tmp_path / "huge.cfg"
    cfg.write_text(body)
    code = main([command, "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert code == EXIT_CONFIG
    assert capsys.readouterr().err == f"configuration error: {message}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "command, body, message",
    [
        ("run", "[histogram]\nn_bins = 500\n", "[histogram] n_bins must be odd and at least 3"),
        ("run", "[histogram]\nn_bins = 1\n", "[histogram] n_bins must be odd and at least 3"),
        ("run", "[histogram]\nbin_width_ns = 0\n",
         "[histogram] bin_width_ns must be positive"),
        ("run", "[histogram]\nexclusion_bins = -1\n",
         "[histogram] exclusion_bins must be nonnegative"),
        ("run", "[histogram]\nexclusion_bins = 300\n",
         "[histogram] only 0 off-peak bins to estimate the floor; need at least 20"),
        ("run", "[noise]\nefficiency = 1.5\n", "[noise] efficiency must be in (0, 1]"),
        ("run", "[noise]\nsingles_a_hz = -1\n", "[noise] rates must be nonnegative"),
        # a finite range whose delays overflowed the HOM kernel's drift correction
        ("run", "[hom]\ndelay_start_fs = -1e307\ndelay_stop_fs = 1e307\n",
         "[hom] delays reach 1e+307 fs, past 6825 fs, half the period of g(tau) on the "
         "[spectrum] grid (250 (points - 1) / span_thz fs)"),
        # a coarse grid whose HOM curve repeats within the delays
        ("hom", "[spectrum]\npoints = 32\n\n[hom]\ndelay_start_fs = -400\n"
         "delay_stop_fs = 400\n",
         "[hom] delays reach 400 fs, past 51.66666667 fs, half the period of g(tau) on the "
         "[spectrum] grid (250 (points - 1) / span_thz fs)"),
        ("run", "[delay_line]\nscan_points = 1\n", "delay_line scan needs at least 2 points"),
        ("run", "[delay_line]\nplate_thickness_mm = 0\n",
         "[delay_line] plate thickness must be positive"),
        ("run", "[delay_line]\nbase_tilt_deg = 60\n",
         "[delay_line] plate tilt 60.0 deg outside the +-60 deg working range"),
        ("run", "[delay_line]\nscan_start_deg = -61\n",
         "[delay_line] plate tilt -61.0 deg outside the +-60 deg working range"),
    ],
    ids=["even_bins", "one_bin", "zero_width", "negative_exclusion", "no_off_peak_bins",
         "efficiency", "negative_singles", "huge_hom_delays", "coarse_hom_grid",
         "one_scan_point", "zero_plate_thickness", "base_tilt_at_limit", "scan_past_limit"],
)
def test_section_rule_exit_code(capsys, tmp_path, command, body, message):
    # each section states its own rules, and a config that breaks one never runs
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(body)
    code = main([command, "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert code == EXIT_CONFIG
    assert capsys.readouterr().err == f"configuration error: {message}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("reach, loads", [(6825.0, True), (6825.001, False)])
def test_hom_delays_may_reach_half_the_grid_period(tmp_path, reach, loads):
    # 250 (4096 - 1) / 150 = 6825 fs on the shipped grid, either end of the range
    for start, stop in ((-reach, 0.0), (0.0, reach)):
        cfg = tmp_path / "edge.cfg"
        cfg.write_text(f"[hom]\ndelay_start_fs = {start}\ndelay_stop_fs = {stop}\n")
        if loads:
            assert load_config(cfg).hom.delay_stop_fs == stop
        else:
            with pytest.raises(ConfigError, match=r"^\[hom\] delays reach 6825.001 fs, past 6825 fs"):
                load_config(cfg)


def test_single_bootstrap_replicate_exit_code(capsys, tmp_path):
    cfg = tmp_path / "one.cfg"
    cfg.write_text("[run]\nbootstrap_samples = 1\n")
    code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert code == EXIT_CONFIG
    assert "must be 0 or at least 2" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_incomplete_records_exit_code(capsys, tmp_path):
    csv_path = tmp_path / "short.csv"
    csv_path.write_text(
        "qwp_a,hwp_a,qwp_b,hwp_b,raw,accidental,duration\n"
        "0,0,0,0,100.0,2.0,1.0\n"
        "0,0,0,45,50.0,2.0,1.0\n"
    )
    code, _ = run_cli(capsys, "tomography", "--records", str(csv_path))
    assert code == EXIT_INCOMPLETE


@pytest.mark.parametrize(
    "row",
    ["0,0,0,0,nan,2.0,1.0\n", "inf,0,0,0,100.0,2.0,1.0\n"],
    ids=["nan_raw", "inf_qwp_a"],
)
def test_non_finite_records_exit_code(capsys, tmp_path, row):
    csv_path = tmp_path / "bad.csv"
    csv_path.write_text("qwp_a,hwp_a,qwp_b,hwp_b,raw,accidental,duration\n" + row)
    code = main(["tomography", "--records", str(csv_path)])
    assert code == EXIT_CONFIG
    assert "must be finite" in capsys.readouterr().err


@pytest.mark.parametrize(
    "rows, message",
    [
        ("", "the file has no records"),
        ("0,0,0,0,100.0,2.0\n", "record 0: duration is missing"),
        ("0,0,0,0,100.0,2.0,1.0\n0,0,0,45,50.0,2.0,1.0,999\n",
         "record 1: more cells than the header has columns"),
        ("0,0,0,0,100.0,2.0,1.0\n0,0,0,45,-50.0,2.0,1.0\n",
         "record 1: raw coincidences must be nonnegative"),
        ("0,0,0,0,100.0,2.0,inf\n", "record 0: duration must be finite"),
        ("0,0,0,0,100.0,2.0,1.0\n0,0,0,45," + "5" * 200_000 + ",2.0,1.0\n",
         "record 1: field larger than field limit (131072)"),
        ("0,0,0,0,100.0,2.0,0\n", "record 0: duration must be positive"),
        ("0,0,0,0,abc,2.0,1.0\n", "record 0: raw 'abc' is not a number"),
    ],
    ids=["header_only", "short_row", "long_row", "negative_raw", "inf_duration", "huge_field",
         "zero_duration", "non_numeric_raw"],
)
def test_malformed_records_exit_code(capsys, tmp_path, rows, message):
    csv_path = tmp_path / "bad.csv"
    csv_path.write_text("qwp_a,hwp_a,qwp_b,hwp_b,raw,accidental,duration\n" + rows)
    code = main(["tomography", "--records", str(csv_path)])
    assert code == EXIT_CONFIG
    assert f"bad records file {csv_path}: {message}" in capsys.readouterr().err


def test_bom_config_and_records_print_the_bytes_of_the_plain_files(capsysbinary, monkeypatch,
                                                                   tmp_path):
    # Excel's "CSV UTF-8" and Windows Notepad start a file with a UTF-8 byte-order mark
    records = (ROOT / "tests" / "data" / "records_seed3.csv").read_bytes()
    config = b"[pump]\nangle_deg = 22.5\n\n[run]\nbootstrap_samples = 20\n"
    assert not records.startswith(codecs.BOM_UTF8)
    commands = (["amplitudes", "--config", "user.cfg"],
                ["tomography", "--config", "user.cfg", "--records", "records.csv"])
    printed = {}
    for name, prefix in (("plain", b""), ("bom", codecs.BOM_UTF8)):
        (tmp_path / name).mkdir()
        (tmp_path / name / "records.csv").write_bytes(prefix + records)
        (tmp_path / name / "user.cfg").write_bytes(prefix + config)
        monkeypatch.chdir(tmp_path / name)  # the same relative path, the records' source
        for argv in commands:
            assert main([*argv, "--seed", "3"]) == EXIT_OK
            printed[name, argv[0]] = capsysbinary.readouterr().out
    assert printed["bom", "amplitudes"] == printed["plain", "amplitudes"]
    assert printed["bom", "tomography"] == printed["plain", "tomography"]
    assert json.loads(printed["bom", "amplitudes"])["pump"]["angle_deg"] == 22.5


def test_records_file_that_is_not_utf8_exit_code(capsys, tmp_path):
    # a UTF-16 file (Excel's "Unicode text") opens with the bytes FF FE
    text = "qwp_a,hwp_a,qwp_b,hwp_b,raw,accidental,duration\n0,0,0,0,100.0,2.0,1.0\n"
    csv_path = tmp_path / "utf16.csv"
    csv_path.write_bytes(text.encode("utf-16"))
    assert main(["tomography", "--records", str(csv_path)]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith(
        f"configuration error: bad records file {csv_path}: 'utf-8' codec can't decode byte 0xff")


def test_detector_response_without_half_width_exit_code(capsys, tmp_path):
    # a 1 THz Gaussian response leaves g(tau) above 1/2 over the whole delay search
    cfg = tmp_path / "narrow.cfg"
    cfg.write_text("[detector_response]\nshape = gaussian\nfwhm_thz = 1\n")
    code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert code == EXIT_NUMERICAL
    assert capsys.readouterr().err == \
        "numerical failure: g(tau) never falls below 1/2 out to 400.0 fs\n"
    assert not (tmp_path / "out").exists()


def test_unfittable_calibration_exit_code(capsys, tmp_path):
    # both pumps' tables ask for |2V> alone, which no orientation emits
    cfg = tmp_path / "unfittable.cfg"
    cfg.write_text("[crystal]\ntilt_deg = auto\n\n[calibration]\nh_pump_weights = 0, 0, 1\n"
                   "v_pump_weights = 0, 0, 1\nfit_threshold = 1e-9\n")
    code = main(["amplitudes", "--config", str(cfg)])
    assert code == EXIT_NUMERICAL
    assert capsys.readouterr().err.startswith(
        "numerical failure: joint orientation fit bottoms out")


def test_out_naming_a_directory_exit_code(capsys, tmp_path):
    code = main(["amplitudes", "--out", str(tmp_path)])
    assert code == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("i/o error: ")


def test_unreadable_header_exit_code(capsys, tmp_path):
    # the csv module cannot read the header, so no record was read
    csv_path = tmp_path / "hdr.csv"
    csv_path.write_text("qwp_a,hwp_a,qwp_b,hwp_b," + "r" * 200_000 + ",accidental,duration\n"
                        "0,0,0,0,100.0,2.0,1.0\n")
    code = main(["tomography", "--records", str(csv_path)])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"bad records file {csv_path}: header: field larger than field limit (131072)" in err


def test_degenerate_orientation_exit_code(capsys, tmp_path):
    # normal incidence drives every pair amplitude to zero
    cfg = tmp_path / "flat.cfg"
    cfg.write_text("[crystal]\ntilt_deg = 0.0\nazimuth_deg = 0.0\n")
    code, _ = run_cli(capsys, "amplitudes", "--config", str(cfg))
    assert code == EXIT_NUMERICAL


def _reject_constant(name):
    raise ValueError(f"non-JSON constant {name}")


def test_bell_without_spread_prints_null(capsys, tmp_path):
    # two pairs per setting: at this seed every correlator's counts fall in
    # one outcome class, so sigma_f is 0 and (F - 1)/sigma_f is undefined
    cfg = tmp_path / "few.cfg"
    cfg.write_text("[bell]\ncounts_per_setting = 2\n")
    code, out = run_cli(capsys, "bell", "--seed", "2", "--config", str(cfg))
    assert code == EXIT_OK
    doc = json.loads(out, parse_constant=_reject_constant)
    assert doc["bell"]["sigma_f"] == 0.0
    assert doc["bell"]["std_devs_above_classical"] is None


def test_run_without_bell_spread_writes_null(capsys, tmp_path):
    cfg = tmp_path / "few.cfg"
    cfg.write_text("[bell]\ncounts_per_setting = 2\n")
    code = main(["run", "--seed", "2", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert code == EXIT_OK
    report = json.loads((tmp_path / "out" / "report.json").read_text(),
                        parse_constant=_reject_constant)
    assert report["bell"]["sigma_f"] == 0.0
    assert report["bell"]["std_devs_above_classical"] is None


@pytest.mark.parametrize("command", ["bell", "run"])
def test_chsh_setting_without_counts_exit_code(capsys, tmp_path, command):
    # one pair per setting: at the default seed some CHSH setting records none
    cfg = tmp_path / "one.cfg"
    cfg.write_text("[bell]\ncounts_per_setting = 1\n")
    code = main([command, "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert code == EXIT_NUMERICAL
    assert "no counts recorded for a CHSH setting" in capsys.readouterr().err


def test_run_and_json_subcommands_write_strict_json(capsys, tmp_path):
    code, _ = run_cli(capsys, "run", "--seed", "3", "--out", str(tmp_path / "run"))
    assert code == EXIT_OK
    text = (tmp_path / "run" / "report.json").read_text()
    # report.json is spliced from cached section texts: it must still be
    # exactly the stdlib's indented, sorted-key rendering of its content
    assert text == json.dumps(json.loads(text, parse_constant=_reject_constant),
                              indent=2, sort_keys=True) + "\n"
    for command in ("amplitudes", "tomography", "bell", "hom"):
        code, out = run_cli(capsys, command, "--seed", "3")
        assert code == EXIT_OK
        json.loads(out, parse_constant=_reject_constant)


def test_json_output_is_strict(capsysbinary, monkeypatch, tmp_path):
    # a section value JSON cannot hold fails in the shared renderer's texts,
    # before a byte is printed or a file is made
    out = tmp_path / "bell.json"
    for value in (float("inf"), float("nan")):
        with pytest.raises(ValueError, match="not JSON compliant"):
            experiment.report_json_bytes({"value": value})
        monkeypatch.setattr(experiment.BellResult, "to_json",
                            lambda self, value=value: {"bell": {"value": value}})
        for argv in (["bell"], ["bell", "--out", str(out)]):
            with pytest.raises(ValueError, match="not JSON compliant"):
                main([*argv, "--seed", "3"])
    assert capsysbinary.readouterr().out == b""
    assert not out.exists()


def test_cold_hom_json_encodes_no_sidecar(capsysbinary, monkeypatch):
    # hom prints the spectral section's text alone: it never encodes hom.csv
    # or spectrum.csv, which SpectralSection.encoded() does
    def encoded(self):
        raise AssertionError("hom encoded the spectral section's sidecars")

    monkeypatch.setattr(experiment.SpectralSection, "encoded", encoded)
    experiment.spectral_section.cache_clear()
    assert main(["hom", "--seed", "3"]) == EXIT_OK
    assert list(json.loads(capsysbinary.readouterr().out)) == ["spectral"]


@pytest.mark.parametrize("command, other_header", [
    ("hom_csv", ["omega_thz", "intensity"]),  # spectrum.csv
    ("histogram", ["theta_deg", "rate"]),  # fringe.csv
])
def test_cold_csv_command_encodes_only_its_sidecar(capsysbinary, monkeypatch, tmp_path,
                                                   command, other_header):
    # a CSV command prints its sidecar alone: it never encodes the section
    # text or the result's other sidecar, which the result's encoded() does
    expected = _runs_output(load_config(), 3, command, tmp_path)
    csv_bytes = experiment._csv_bytes

    def only_the_printed_sidecar(header, rows):
        if header == other_header:
            raise AssertionError(f"{command} encoded a sidecar it does not print")
        return csv_bytes(header, rows)

    def no_text(value):
        raise AssertionError(f"{command} encoded a report section")

    monkeypatch.setattr(experiment, "_csv_bytes", only_the_printed_sidecar)
    monkeypatch.setattr(experiment, "_section_text", no_text)
    experiment.spectral_section.cache_clear()
    assert main([*STAGE_COMMANDS[command][0], "--seed", "3"]) == EXIT_OK
    assert capsysbinary.readouterr().out == expected
