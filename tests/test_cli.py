"""Command-line entry point tests: exit codes and output formats."""

import json
import os
from dataclasses import replace
from pathlib import Path

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
from spdcfilm.errors import ConfigError

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


def test_tomography_from_records(capsys, tmp_path):
    # generate a run, reuse its own records through the CSV entry point
    out_dir = tmp_path / "src"
    assert main(["run", "--seed", "2", "--out", str(out_dir)]) == EXIT_OK
    capsys.readouterr()
    report = json.loads((out_dir / "report.json").read_text())
    settings = [
        ("H", "H"), ("H", "V"), ("V", "V"),
        ("D", "H"), ("D", "V"), ("D", "D"),
        ("R", "H"), ("R", "V"), ("R", "D"),
    ]
    angles = {
        "H": (0.0, 0.0), "V": (0.0, 45.0), "D": (0.0, 22.5), "R": (45.0, 0.0)
    }
    csv_path = tmp_path / "records.csv"
    lines = ["qwp_a,hwp_a,qwp_b,hwp_b,raw,accidental,duration\n"]
    for (name_a, name_b), rec in zip(settings, report["tomography"]["records"]):
        qa, ha = angles[name_a]
        qb, hb = angles[name_b]
        lines.append(
            f"{qa},{ha},{qb},{hb},{rec['raw']},{rec['accidental']},"
            f"{rec['duration_s']}\n"
        )
    csv_path.write_text("".join(lines))
    code, out = run_cli(capsys, "tomography", "--records", str(csv_path))
    assert code == EXIT_OK
    doc = json.loads(out)
    assert list(doc) == ["tomography"]
    fitted = doc["tomography"]
    assert fitted["weights"][1] == pytest.approx(0.96, abs=0.05)
    # the entries the run's section also holds are keyed as it keys them
    assert sorted(fitted["fit"]) == sorted(report["tomography"]["fit"])
    assert set(fitted) - {"source"} <= set(report["tomography"])


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
    "histogram": (*BELL, "spectral_section"),
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
    "body",
    [
        "angle_deg = 5\n",  # no section header
        "[pump]\nangle_deg = 5\nangle_deg = 6\n",  # duplicated key
        "[pump]\nangle_deg = 5%\n",
        "[pump]\nangle_deg = nan\n",
        "[hom]\ndelay_start_fs = nan\n",
        "[film]\nfilm_index = unobtainium\n",
        "[film]\nfilm_index = -1.0\n",
        "[film]\nambient_index = -3.2\n",
        "[delay_line]\nwavelength_um = 10\n",  # outside the calcite data
        "[spectrum]\nspan_thz = 50\n",  # the spectrum grid must cover +-100 THz
        "[film]\nthickness_nm = 0\n",
        "[film]\nthickness_nm = -400\n",
    ],
    ids=[
        "no_header", "duplicate_key", "percent", "nan_angle", "nan_delay", "unknown_material",
        "negative_film_index", "negative_ambient_index", "calcite_wavelength", "narrow_span",
        "zero_thickness", "negative_thickness",
    ],
)
def test_malformed_or_unrunnable_config_exit_code(capsys, tmp_path, body):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(body)
    code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert code == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("configuration error: ")
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
         "CHSH outcome Poisson mean 5.41601e+20 exceeds 1e+18 counts"),
        # a count past the float range, whose mean is printed without a float
        ("bell", f"[bell]\ncounts_per_setting = {10**400}\n",
         "CHSH outcome Poisson mean 5.41601e+399 exceeds 1e+18 counts"),
    ],
    ids=["tomography_duration", "singles_rate", "bin_width", "bell_counts", "bell_counts_past_float"],
)
def test_poisson_mean_past_numpys_range_exit_code(capsys, tmp_path, command, body, message):
    # NumPy's Poisson draw rejects means above about 9.2e18 with a ValueError
    cfg = tmp_path / "big.cfg"
    cfg.write_text(body)
    code = main([command, "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert code == EXIT_NUMERICAL
    assert capsys.readouterr().err == f"numerical failure: {message}\n"
    assert not (tmp_path / "out").exists()


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
    ],
    ids=["even_bins", "one_bin", "zero_width", "negative_exclusion", "no_off_peak_bins",
         "efficiency", "negative_singles", "huge_hom_delays", "coarse_hom_grid"],
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
    ],
    ids=["header_only", "short_row", "long_row", "negative_raw", "inf_duration", "huge_field"],
)
def test_malformed_records_exit_code(capsys, tmp_path, rows, message):
    csv_path = tmp_path / "bad.csv"
    csv_path.write_text("qwp_a,hwp_a,qwp_b,hwp_b,raw,accidental,duration\n" + rows)
    code = main(["tomography", "--records", str(csv_path)])
    assert code == EXIT_CONFIG
    assert f"bad records file {csv_path}: {message}" in capsys.readouterr().err


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
    code, out = run_cli(capsys, "bell", "--seed", "22", "--config", str(cfg))
    assert code == EXIT_OK
    doc = json.loads(out, parse_constant=_reject_constant)
    assert doc["bell"]["sigma_f"] == 0.0
    assert doc["bell"]["std_devs_above_classical"] is None


def test_run_without_bell_spread_writes_null(capsys, tmp_path):
    cfg = tmp_path / "few.cfg"
    cfg.write_text("[bell]\ncounts_per_setting = 2\n")
    code = main(["run", "--seed", "22", "--config", str(cfg), "--out", str(tmp_path / "out")])
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
            experiment._json_bytes({"value": experiment._section_text(value)})
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
