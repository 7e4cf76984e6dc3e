"""Command-line entry point tests: exit codes and output formats."""

import json

import pytest

from spdcfilm.cli import (
    EXIT_CONFIG,
    EXIT_INCOMPLETE,
    EXIT_NUMERICAL,
    EXIT_OK,
    main,
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_amplitudes_json(capsys):
    code, out = run_cli(capsys, "amplitudes")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["h_pump"]["weights"] == pytest.approx(
        [0.7827, 0.0169, 0.2005], abs=5e-4
    )
    assert doc["v_pump"]["weights"][1] == pytest.approx(0.9794, abs=5e-4)


def test_bell_subcommand(capsys):
    code, out = run_cli(capsys, "bell", "--seed", "3")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["f_exact"] <= 2.0**0.5 + 1e-9
    assert doc["std_devs_above_classical"] > 0.0


def test_hom_csv(capsys):
    code, out = run_cli(capsys, "hom", "--format", "csv")
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0] == "tau_fs,r_dip,r_peak"
    mid = lines[1 + (len(lines) - 1) // 2].split(",")
    assert float(mid[0]) == pytest.approx(0.0, abs=1e-9)
    assert float(mid[1]) == pytest.approx(0.0, abs=1e-10)


def test_histogram_csv(capsys):
    code, out = run_cli(capsys, "histogram", "--seed", "5", "--format", "csv")
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0] == "delta_t_ns,counts"
    assert len(lines) == 502


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
    assert doc["weights"][1] == pytest.approx(0.96, abs=0.05)


def test_tomography_runs_only_its_stage(capsys, monkeypatch):
    import spdcfilm.experiment as experiment

    expected = experiment.run_experiment(seed=4).summary["tomography"]

    def not_needed(*args, **kwargs):
        raise AssertionError("the tomography command ran another stage")

    for name in ("spectral_section", "delay_scan", "run_experiment"):
        monkeypatch.setattr(experiment, name, not_needed)
    monkeypatch.setattr("spdcfilm.bell.simulate_chsh", not_needed)
    monkeypatch.setattr("spdcfilm.cli.spectral_section", not_needed)
    monkeypatch.setattr("spdcfilm.cli.run_experiment", not_needed)
    code, out = run_cli(capsys, "tomography", "--seed", "4")
    assert code == EXIT_OK
    assert out == json.dumps(expected, indent=2, sort_keys=True) + "\n"


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
    ],
    ids=["no_header", "duplicate_key", "percent", "nan_angle", "nan_delay", "unknown_material"],
)
def test_malformed_or_unrunnable_config_exit_code(capsys, tmp_path, body):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(body)
    code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert code == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("configuration error: ")
    assert not (tmp_path / "out").exists()


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


def test_degenerate_orientation_exit_code(capsys, tmp_path):
    # normal incidence drives every pair amplitude to zero
    cfg = tmp_path / "flat.cfg"
    cfg.write_text("[crystal]\ntilt_deg = 0.0\nazimuth_deg = 0.0\n")
    code, _ = run_cli(capsys, "amplitudes", "--config", str(cfg))
    assert code == EXIT_NUMERICAL
