"""Configuration loading and validation tests."""

import re
from dataclasses import fields, replace

import numpy as np
import pytest

from spdcfilm.config import ExperimentConfig, load_config
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


def test_loading_draws_no_random_number(monkeypatch):
    # validation checks each section's values; it never simulates a histogram
    import numpy as np

    def no_generator(*args, **kwargs):
        raise AssertionError("load_config made a random number generator")

    monkeypatch.setattr(np.random, "default_rng", no_generator)
    cfg = load_config()
    assert (cfg.histogram.n_bins, cfg.histogram.exclusion_bins) == (501, 5)


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
        "[noise]\nefficiency = 1.5\n",
        "[histogram]\nexclusion_bins = 300\n",  # no off-peak bins left
        "[delay_line]\nscan_stop_deg = 70\n",  # past the +-60 deg plate range
        "[detector_response]\nshape = boxcar\n",
        "[film]\nthickness_nm = 0\n",  # checked by FilmStack
        "[film]\nthickness_nm = -400.0\n",
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
    path.write_text("[calibration]\nh_pump_weights = 0.5, 0.1, 0.1\n")
    with pytest.raises(ConfigError, match="should sum to ~1"):
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


def test_bootstrap_samples_bounded_by_the_child_count(tmp_path):
    # the bound predates the bootstrap's one generator, whose stream limits
    # no replicate count; it stays so that the same configurations load.
    # 2**32 replicates load (they are not run here)
    path = tmp_path / "user.cfg"
    path.write_text(f"[run]\nbootstrap_samples = {2**32}\n")
    assert load_config(path).run.bootstrap_samples == 2**32
    path.write_text(f"[run]\nbootstrap_samples = {2**32 + 1}\n")
    with pytest.raises(ConfigError, match=r"^run bootstrap_samples must be at most 2\*\*32$"):
        load_config(path)


MALFORMED = {
    "no_section_header": b"angle_deg = 5\n",
    "duplicate_key": b"[pump]\nangle_deg = 5\nangle_deg = 6\n",
    "percent_sign": b"[pump]\nangle_deg = 5%\n",
    "undecodable_byte": b"[pump]\nangle_deg = \xff\n",
}


@pytest.mark.parametrize("body", MALFORMED.values(), ids=MALFORMED.keys())
def test_malformed_ini_rejected(tmp_path, body):
    path = tmp_path / "user.cfg"
    path.write_bytes(body)
    with pytest.raises(ConfigError):
        load_config(path)


def _non_integer_fields():
    """(section, key) of every field parsed as a number, list or index model."""
    return [
        (section.name, f.name)
        for section in fields(ExperimentConfig)
        for f in fields(section.type)
        if f.type not in (int, str)
    ]


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_numbers_rejected(tmp_path, value):
    path = tmp_path / "user.cfg"
    checked = _non_integer_fields()
    assert ("pump", "angle_deg") in checked and ("hom", "delay_start_fs") in checked
    for section, key in checked:
        path.write_text(f"[{section}]\n{key} = {value}\n")
        message = re.escape(f"[{section}] {key} must be a finite number")
        with pytest.raises(ConfigError, match=message):
            load_config(path)


@pytest.mark.parametrize("name", ["seed", "bootstrap_samples"])
@pytest.mark.parametrize("value", [2.5, 3.0, "3", None])
def test_run_counts_must_be_integers(name, value):
    # a file's values are parsed as ints; one set through replace is checked too
    run = load_config().run
    with pytest.raises(ConfigError, match=f"^run {name} must be an integer$"):
        replace(run, **{name: value})


def test_run_counts_are_held_as_ints():
    run = replace(load_config().run, seed=np.int64(3), bootstrap_samples=np.uint8(4))
    assert (run.seed, run.bootstrap_samples) == (3, 4)
    assert (type(run.seed), type(run.bootstrap_samples)) == (int, int)
    assert type(replace(run, seed=True).seed) is int


def test_unknown_material_rejected(tmp_path):
    path = tmp_path / "user.cfg"
    path.write_text("[film]\nfilm_index = unobtainium\n")
    with pytest.raises(ConfigError, match="unobtainium.*known.*'gap'"):
        load_config(path)
    path.write_text("[film]\nsubstrate_index = calcite_o\nambient_index = 1.33\n")
    # the calcite o-ray data end at 2.172 um: the default 638 nm pump and
    # +-150 THz grid put the idler at 3.53 um, a 600 nm pump and +-100 THz at 2.0 um
    with pytest.raises(ConfigError, match=r"^\[spectrum\] wavelength outside .* 2\.172\]"):
        load_config(path)
    path.write_text("[film]\nsubstrate_index = calcite_o\nambient_index = 1.33\n"
                    "[pump]\nwavelength_nm = 600\n[spectrum]\nspan_thz = 100\n")
    cfg = load_config(path)
    assert cfg.film.substrate_index == "calcite_o"
    assert cfg.film.ambient_index == 1.33


@pytest.mark.parametrize("body, message", [
    ("[fringe]\nfixed_analyzer = Q\n", "[fringe] unknown analyzer 'Q'; known: ['A', 'D', "),
    ("[fringe]\ntheta_stop_deg = 90.0\n", "[fringe] theta grid must span at least 180 degrees"),
], ids=["unknown_analyzer", "short_span"])
def test_fringe_rules_are_fringe_scans(tmp_path, body, message):
    # [fringe] checks its grid's span, then its analyzer through setting()
    path = tmp_path / "user.cfg"
    path.write_text(body)
    with pytest.raises(ConfigError, match=re.escape(message)):
        load_config(path)


def test_case_of_named_choices_is_normalized(tmp_path):
    path = tmp_path / "user.cfg"
    path.write_text("[detector_response]\nshape = Gaussian \n[fringe]\nfixed_analyzer = v\n")
    cfg = load_config(path)
    assert cfg.detector_response.shape == "gaussian"
    assert cfg.fringe.fixed_analyzer == "V"


@pytest.mark.parametrize("key", ["film_index", "substrate_index", "ambient_index"])
@pytest.mark.parametrize("value", ["-1.0", "0", "-3.2"])
def test_numeric_film_indices_must_be_positive(tmp_path, key, value):
    path = tmp_path / "user.cfg"
    path.write_text(f"[film]\n{key} = {value}\n")
    name = key.removesuffix("_index")
    with pytest.raises(ConfigError, match=rf"^\[film\] {name} index: constant index "
                                          "-?[0-9.]+ must be a finite positive"):
        load_config(path)


