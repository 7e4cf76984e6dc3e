"""Nonlinear-tensor contraction and film-orientation calibration tests.

Frozen numbers below come from an independent brute-force scan of the
orientation space: at tilt 35.75 deg / azimuth 138.60 deg the zinc-blende
tensor reproduces the characterized pump-resolved weights, while no
azimuth at the nominal 15 deg wafer tilt comes close (best residual
0.0169, more than 3x the acceptance threshold).
"""

import numpy as np
import pytest
from scipy.optimize import minimize

from spdcfilm import (
    CrystalOrientation,
    PoorFit,
    ZeroAmplitude,
    calibrate_azimuth,
    calibrate_orientation,
    chi2_zincblende,
    pair_rate_curve,
    pump_ket,
    rotation_matrix,
    spdc_amplitudes,
    weight_residual,
)
from spdcfilm.config import load_config
from spdcfilm.crystal import normal_axis_angles

SEED = 20260819
TARGETS = {"H": (0.78, 0.02, 0.20), "V": (0.02, 0.98, 0.00)}
CALIBRATED = CrystalOrientation(tilt_deg=35.75, azimuth_deg=138.60)


def test_zincblende_tensor_structure():
    chi = chi2_zincblende(d=2.5)
    nonzero = {(i, j, k) for i in range(3) for j in range(3) for k in range(3)
               if chi[i, j, k] != 0.0}
    # exactly the six all-distinct index triples, all equal to d
    assert nonzero == {(0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)}
    assert np.all(chi[chi != 0] == 2.5)


def test_rotation_matrix_identity_and_columns():
    assert np.allclose(rotation_matrix(CrystalOrientation(0.0, 0.0)), np.eye(3))
    rot = rotation_matrix(CrystalOrientation(30.0, 40.0))
    assert np.allclose(rot @ rot.T, np.eye(3), atol=1e-12)
    assert np.linalg.det(rot) == pytest.approx(1.0)


def test_normal_incidence_has_no_amplitude():
    # (001)-cut film at zero tilt: every transverse contraction vanishes
    chi = chi2_zincblende()
    with pytest.raises(ZeroAmplitude):
        spdc_amplitudes(chi, CrystalOrientation(0.0, 0.0), pump_ket(17.0))


def test_small_tilt_selects_single_component():
    # tilting about the lab vertical (azimuth 0) leaves only the yz/xz
    # triple products: an H pump feeds the cross term alone, a V pump the
    # double-H term alone, at any tilt
    chi = chi2_zincblende()
    for tilt in (0.05, 1.0, 5.0):
        res_h = spdc_amplitudes(chi, CrystalOrientation(tilt, 0.0), pump_ket(0.0))
        assert abs(res_h.state[1]) == pytest.approx(1.0, abs=1e-12)
        assert abs(res_h.state[0]) < 1e-12 and abs(res_h.state[2]) < 1e-12
        res_v = spdc_amplitudes(chi, CrystalOrientation(tilt, 0.0), pump_ket(90.0))
        assert abs(res_v.state[0]) == pytest.approx(1.0, abs=1e-12)
    # the pair rate opens up from zero with tilt
    r1 = spdc_amplitudes(chi, CrystalOrientation(1.0, 0.0), pump_ket(0.0)).relative_rate
    r5 = spdc_amplitudes(chi, CrystalOrientation(5.0, 0.0), pump_ket(0.0)).relative_rate
    assert 0.0 < r1 < r5


def test_rate_scales_as_d_squared():
    res1 = spdc_amplitudes(chi2_zincblende(1.0), CALIBRATED, pump_ket(0.0))
    res3 = spdc_amplitudes(chi2_zincblende(3.0), CALIBRATED, pump_ket(0.0))
    assert res3.relative_rate == pytest.approx(9.0 * res1.relative_rate, rel=1e-12)
    assert np.allclose(np.abs(res1.state), np.abs(res3.state), atol=1e-12)


def test_calibrated_orientation_reproduces_weights():
    chi = chi2_zincblende()
    h = spdc_amplitudes(chi, CALIBRATED, pump_ket(0.0))
    v = spdc_amplitudes(chi, CALIBRATED, pump_ket(90.0))
    assert np.allclose(h.weights, [0.7827, 0.0169, 0.2005], atol=5e-4)
    assert np.allclose(v.weights, [0.0206, 0.9794, 0.0000], atol=5e-4)
    # H pumping is the brighter configuration at this orientation
    assert h.relative_rate / v.relative_rate == pytest.approx(2.443, abs=5e-3)


def test_film_normal_far_from_cube_axis():
    # the fitted orientation is no small perturbation of an (001) cut
    angles = normal_axis_angles(CALIBRATED)
    assert angles.min() == pytest.approx(35.75, abs=0.05)


def test_calibrate_azimuth_at_fitted_tilt():
    chi = chi2_zincblende()
    az, residual = calibrate_azimuth(chi, 35.75, TARGETS)
    assert residual < 5e-4
    assert weight_residual(chi, CrystalOrientation(35.75, az), TARGETS) == residual


def test_nominal_wafer_tilt_cannot_fit():
    # no azimuth at the 15 deg nominal tilt reproduces the weight tables
    chi = chi2_zincblende()
    with pytest.raises(PoorFit, match="residual"):
        calibrate_azimuth(chi, 15.0, TARGETS)
    best = min(
        weight_residual(chi, CrystalOrientation(15.0, az), TARGETS)
        for az in np.arange(0.0, 180.0, 0.1)
    )
    assert best == pytest.approx(0.01686, abs=2e-4)


def test_joint_calibration_recovers_weights():
    chi = chi2_zincblende()
    orientation, residual = calibrate_orientation(chi, TARGETS, coarse_step_deg=2.5)
    assert residual < 1e-3
    h = spdc_amplitudes(chi, orientation, pump_ket(0.0))
    assert np.allclose(h.weights, TARGETS["H"], atol=0.02)


def test_amplitudes_invariant_under_pump_index_symmetry():
    # the tensor is symmetric under any index permutation, so swapping the
    # roles of the two down-converted polarization slots changes nothing
    chi = chi2_zincblende()
    rng = np.random.default_rng(SEED)
    from spdcfilm.crystal import _raw_amplitudes

    for _ in range(50):
        tilt, az = rng.uniform(2, 55), rng.uniform(0, 180)
        rot = rotation_matrix(CrystalOrientation(tilt, az))
        pump = rng.normal(size=2) + 1j * rng.normal(size=2)
        pump /= np.linalg.norm(pump)
        e_h, e_v = rot[:, 0], rot[:, 1]
        e_p = pump[0] * e_h + pump[1] * e_v
        a_hv = np.einsum("ijk,i,j,k->", chi, e_h, e_v, e_p)
        a_vh = np.einsum("ijk,i,j,k->", chi, e_v, e_h, e_p)
        assert abs(a_hv - a_vh) < 1e-12
        c = _raw_amplitudes(chi, rot, pump)
        assert abs(c[1] - np.sqrt(2) * a_hv) < 1e-12


def test_pair_rate_curve_preserves_zeros():
    chi = chi2_zincblende()
    curve = pair_rate_curve(chi, CALIBRATED, np.linspace(0, 180, 37))
    rates = np.array([r for _, r in curve])
    assert rates.max() > 0
    assert np.all(rates >= 0)
    with pytest.raises(ValueError):
        pair_rate_curve(chi, CALIBRATED, [])
    with pytest.raises(ZeroAmplitude):
        pair_rate_curve(chi, CrystalOrientation(0.0, 0.0), [0.0, 45.0, 90.0])


def test_zero_threshold_is_best_linear_pump_rate():
    from spdcfilm.crystal import _raw_amplitudes, _zero_threshold

    chi = chi2_zincblende()
    rng = np.random.default_rng(SEED)
    orientations = [CALIBRATED, CrystalOrientation(10.0, 30.0)] + [
        CrystalOrientation(*rng.uniform(0.0, 90.0, 2)) for _ in range(5)
    ]
    angles = np.arange(0.0, 180.0, 0.01)
    for orientation in orientations:
        rot = rotation_matrix(orientation)
        rates = [np.sum(np.abs(_raw_amplitudes(chi, rot, pump_ket(a))) ** 2) for a in angles]
        # the closed form bounds every scanned pump and the fine scan nearly reaches it
        assert max(rates) * 1e-12 <= _zero_threshold(chi, rot) * (1.0 + 1e-12)
        assert _zero_threshold(chi, rot) == pytest.approx(1e-12 * max(rates), rel=1e-8)
    assert _zero_threshold(chi, rotation_matrix(CrystalOrientation(0.0, 0.0))) == 0.0


def test_calibration_needs_targets():
    with pytest.raises(ValueError):
        calibrate_azimuth(chi2_zincblende(), 35.75, {})


def _scalar_weight_residual(chi, orientation, targets):
    """Point-by-point residual through ``_raw_amplitudes``: the reference the
    grid kernel must reproduce bit for bit."""
    from spdcfilm.crystal import _pump_angle, _raw_amplitudes

    rot = rotation_matrix(orientation)
    total = 0.0
    for key, tgt in targets.items():
        c = _raw_amplitudes(chi, rot, pump_ket(_pump_angle(key)))
        rate = float(np.sum(np.abs(c) ** 2))
        if rate == 0.0:
            w = np.zeros(3)
        else:
            w = np.abs(c) ** 2 / rate
        total += float(np.sum((w - np.asarray(tgt, dtype=float)) ** 2))
    return total


def _shipped_targets():
    cal = load_config().calibration
    return {"H": cal.h_pump_weights, "V": cal.v_pump_weights}


def test_residual_grid_equals_scalar_loop_exactly():
    from spdcfilm.crystal import _residual_grid

    chi = chi2_zincblende()
    targets = _shipped_targets()
    # calibrate_orientation's 1 deg coarse grid
    tilts = np.arange(0.0, 55.0 + 1e-9, 1.0)
    azimuths = np.arange(0.0, 180.0, 1.0)
    grid = _residual_grid(chi, tilts[:, None], azimuths[None, :], targets)
    reference = np.array(
        [[_scalar_weight_residual(chi, CrystalOrientation(t, a), targets) for a in azimuths]
         for t in tilts]
    )
    assert grid.shape == reference.shape
    assert np.all(grid == reference)
    # calibrate_azimuth's 0.1 deg grid at the fitted tilt
    azimuths = np.arange(0.0, 180.0, 0.1)
    line = _residual_grid(chi, 35.75, azimuths, targets)
    reference = [_scalar_weight_residual(chi, CrystalOrientation(35.75, a), targets)
                 for a in azimuths]
    assert np.all(line == reference)
    # the vanishing-rate branch: zero weights at normal incidence
    assert weight_residual(chi, CrystalOrientation(0.0, 0.0), targets) == (
        _scalar_weight_residual(chi, CrystalOrientation(0.0, 0.0), targets)
    )


def test_coarse_scan_starts_from_first_tied_minimum(monkeypatch):
    import spdcfilm.crystal as crystal

    chi = chi2_zincblende()
    targets = _shipped_targets()
    tied = [crystal.weight_residual(chi, CrystalOrientation(36.0, az), targets)
            for az in (41.0, 49.0, 139.0)]
    assert tied[0] == tied[1] == tied[2]

    starts = []

    def recording_minimize(fun, x0, **kwargs):
        starts.append(list(x0))
        return minimize(fun, x0, **kwargs)

    monkeypatch.setattr(crystal, "minimize", recording_minimize)
    calibrate_orientation(chi, targets, coarse_step_deg=1.0)
    assert starts == [[36.0, 41.0]]


def test_calibration_call_count(monkeypatch):
    import spdcfilm.crystal as crystal

    calls = []
    original = crystal.weight_residual

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(crystal, "weight_residual", counting)
    calibrate_orientation(chi2_zincblende(), _shipped_targets())
    # the grid is one kernel call; only the Nelder-Mead refinement remains
    assert 0 < len(calls) <= 200
