"""End-to-end pipeline tests: determinism, report schema, file output."""

import csv
import json

import numpy as np
import pytest

from spdcfilm import load_config, run_experiment, write_report

SEED = 20260819


@pytest.fixture(scope="module")
def report():
    return run_experiment(seed=SEED)


def test_same_seed_same_report(report):
    again = run_experiment(seed=SEED)
    assert again.canonical_json() == report.canonical_json()


def test_different_seed_differs(report):
    other = run_experiment(seed=SEED + 1)
    assert other.canonical_json() != report.canonical_json()
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


def test_run_builds_analyzer_kets_once_per_protocol(monkeypatch):
    import spdcfilm.polarization as polarization
    import spdcfilm.tomography as tomography

    # count from a cold memo: what one run in a fresh process builds
    tomography._protocol_constants.cache_clear()
    tomography._fringe_projectors.cache_clear()
    calls = []
    original = polarization.analyzer_ket

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    for module in (polarization, tomography):
        monkeypatch.setattr(module, "analyzer_ket", counting)
    run_experiment(seed=SEED)
    # 18 protocol kets plus one ket per fringe angle and fixed analyzer on
    # the report's and the bootstrap's theta grids, however many replicates
    assert 0 < len(calls) <= 200
