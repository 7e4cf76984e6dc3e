"""Configuration loading and validation tests."""

import pytest

from spdcfilm.config import load_config
from spdcfilm.errors import ConfigError


def test_packaged_defaults():
    cfg = load_config()
    assert cfg.crystal.tilt_deg == pytest.approx(35.75)
    assert cfg.crystal.azimuth_deg == pytest.approx(138.60)
    assert cfg.pump.wavelength_nm == pytest.approx(638.0)
    assert cfg.spectrum.points == 4096
    assert cfg.tomography.duration_per_setting_s == pytest.approx(10.0)
    assert cfg.bell.counts_per_setting == 140
    assert cfg.noise.depolarization == pytest.approx(0.03)
    assert cfg.run.seed == 20260819


def test_overlay_keeps_unlisted_defaults(tmp_path):
    path = tmp_path / "user.cfg"
    path.write_text("[pump]\nwavelength_nm = 640.0\n")
    cfg = load_config(path)
    assert cfg.pump.wavelength_nm == pytest.approx(640.0)
    assert cfg.crystal.tilt_deg == pytest.approx(35.75)  # untouched


def test_auto_orientation(tmp_path):
    path = tmp_path / "user.cfg"
    path.write_text("[crystal]\ntilt_deg = auto\nazimuth_deg = auto\n")
    cfg = load_config(path)
    assert cfg.crystal.tilt_deg is None
    assert cfg.crystal.azimuth_deg is None


def test_unknown_section_rejected(tmp_path):
    path = tmp_path / "user.cfg"
    path.write_text("[lasers]\npower = 5\n")
    with pytest.raises(ConfigError):
        load_config(path)


def test_unknown_key_rejected(tmp_path):
    path = tmp_path / "user.cfg"
    path.write_text("[pump]\ncolor = red\n")
    with pytest.raises(ConfigError):
        load_config(path)


def test_bad_number_rejected(tmp_path):
    path = tmp_path / "user.cfg"
    path.write_text("[pump]\nwavelength_nm = bright\n")
    with pytest.raises(ConfigError):
        load_config(path)


def test_value_range_checks(tmp_path):
    cases = [
        "[crystal]\ntilt_deg = 95.0\n",
        "[spectrum]\npoints = 4\n",
        "[histogram]\nn_bins = 500\n",  # must be odd
        "[fringe]\ntheta_stop_deg = 90.0\n",  # span under half a turn
        "[fringe]\nfixed_analyzer = Q\n",
        "[noise]\ndepolarization = 1.5\n",
        "[tomography]\nduration_per_setting_s = 0.0\n",
    ]
    for body in cases:
        path = tmp_path / "user.cfg"
        path.write_text(body)
        with pytest.raises(ConfigError):
            load_config(path)


def test_missing_file_rejected(tmp_path):
    with pytest.raises(ConfigError):
        load_config(tmp_path / "nope.cfg")


def test_calibration_weights_must_sum_to_one(tmp_path):
    path = tmp_path / "user.cfg"
    path.write_text("[calibration]\nh_weights = 0.5, 0.1, 0.1\n")
    with pytest.raises(ConfigError):
        load_config(path)


def test_single_bootstrap_replicate_rejected(tmp_path):
    # one replicate has no spread: every sigma would be NaN in report.json
    path = tmp_path / "user.cfg"
    path.write_text("[run]\nbootstrap_samples = 1\n")
    with pytest.raises(ConfigError, match="must be 0 or at least 2"):
        load_config(path)
    for n in (0, 2):
        path.write_text(f"[run]\nbootstrap_samples = {n}\n")
        assert load_config(path).run.bootstrap_samples == n
