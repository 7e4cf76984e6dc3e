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

from spdcfilm.config import CalibrationConfig, load_config
from spdcfilm.crystal import (
    CrystalOrientation,
    calibrate_azimuth,
    calibrate_orientation,
    chi2_zincblende,
    normal_axis_angles,
    spdc_amplitudes,
    weight_residual,
)
from spdcfilm.errors import PoorFit, ZeroAmplitude
from spdcfilm.polarization import pump_ket

SEED = 20260819
SHIPPED = load_config()
D = SHIPPED.crystal.d_coefficient  # the shipped tensor scale
THRESHOLD = SHIPPED.calibration.fit_threshold  # the shipped acceptance threshold


def _calibration(h_pump_weights, v_pump_weights):
    """A [calibration] section of two weight triples at the shipped threshold."""
    return CalibrationConfig(tuple(h_pump_weights), tuple(v_pump_weights), THRESHOLD)


TARGETS = _calibration((0.78, 0.02, 0.20), (0.02, 0.98, 0.00))
CALIBRATED = CrystalOrientation(tilt_deg=35.75, azimuth_deg=138.60)


def test_zincblende_tensor_structure():
    chi = chi2_zincblende(d=2.5)
    nonzero = {(i, j, k) for i in range(3) for j in range(3) for k in range(3)
               if chi[i, j, k] != 0.0}
    # exactly the six all-distinct index triples, all equal to d
    assert nonzero == {(0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)}
    assert np.all(chi[chi != 0] == 2.5)


def _rotation(orientation: CrystalOrientation) -> np.ndarray:
    """R = Rz(azimuth) Ry(tilt) as the product of the two matrices: the
    lab-to-crystal map whose columns ``crystal._frame`` writes in closed form."""
    t, a = np.radians(orientation.tilt_deg), np.radians(orientation.azimuth_deg)
    ry = np.array([[np.cos(t), 0.0, np.sin(t)], [0.0, 1.0, 0.0], [-np.sin(t), 0.0, np.cos(t)]])
    rz = np.array([[np.cos(a), -np.sin(a), 0.0], [np.sin(a), np.cos(a), 0.0], [0.0, 0.0, 1.0]])
    return rz @ ry


def test_frame_columns_are_an_orthonormal_right_handed_basis():
    from spdcfilm.crystal import _frame

    assert np.array_equal(_frame(0.0, 0.0), np.eye(3))  # the identity at zero
    rng = np.random.default_rng(SEED)
    for tilt, az in [(30.0, 40.0), *rng.uniform(-200.0, 200.0, (200, 2))]:
        h, v, normal = frame = _frame(tilt, az)
        assert np.allclose(frame @ frame.T, np.eye(3), rtol=0.0, atol=1e-15)
        assert np.allclose(np.cross(h, v), normal, rtol=0.0, atol=1e-15)  # H x V = normal
        # the columns of the matrix product, equal values (zeros of either sign)
        rot = _rotation(CrystalOrientation(tilt, az))
        assert np.array_equal(frame.T, rot)
        # the normal's cube-axis angles are the product's, bit for bit
        normal_crystal = rot @ np.array([0.0, 0.0, 1.0])
        assert _same_bits(normal_axis_angles(CrystalOrientation(tilt, az)),
                          np.degrees(np.arccos(np.clip(np.abs(normal_crystal), -1.0, 1.0))))
    # a broadcast grid: each point's frame, grid axes last
    tilts, azimuths = np.array([0.0, 12.5, 35.75]), np.array([0.0, 90.0, 138.6, 179.0])
    grid = _frame(tilts[:, None], azimuths[None, :])
    assert grid.shape == (3, 3, 3, 4)
    for t, tilt in enumerate(tilts):
        for a, az in enumerate(azimuths):
            assert np.array_equal(grid[:, :, t, a], _frame(tilt, az))


def test_normal_incidence_has_no_amplitude():
    # (001)-cut film at zero tilt: every transverse contraction vanishes
    chi = chi2_zincblende(D)
    with pytest.raises(ZeroAmplitude):
        spdc_amplitudes(chi, CrystalOrientation(0.0, 0.0), pump_ket(17.0))


def test_small_tilt_selects_single_component():
    # tilting about the lab vertical (azimuth 0) leaves only the yz/xz
    # triple products: an H pump feeds the cross term alone, a V pump the
    # double-H term alone, at any tilt
    chi = chi2_zincblende(D)
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


def test_amplitudes_compare_and_hash_by_identity():
    # two results of one call hold equal, distinct state arrays
    chi = chi2_zincblende(D)
    first, second = (spdc_amplitudes(chi, CALIBRATED, pump_ket(0.0)) for _ in range(2))
    assert np.array_equal(first.state, second.state)
    assert first == first and first != second
    assert hash(first) == object.__hash__(first)


def test_calibrated_orientation_reproduces_weights():
    chi = chi2_zincblende(D)
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
    chi = chi2_zincblende(D)
    az, residual = calibrate_azimuth(chi, 35.75, TARGETS)
    assert residual < 5e-4
    assert weight_residual(chi, CrystalOrientation(35.75, az), TARGETS) == residual


def test_nominal_wafer_tilt_cannot_fit():
    # no azimuth at the 15 deg nominal tilt reproduces the weight tables
    chi = chi2_zincblende(D)
    with pytest.raises(PoorFit, match="residual"):
        calibrate_azimuth(chi, 15.0, TARGETS)
    best = min(
        weight_residual(chi, CrystalOrientation(15.0, az), TARGETS)
        for az in np.arange(0.0, 180.0, 0.1)
    )
    assert best == pytest.approx(0.01686, abs=2e-4)


def test_joint_calibration_recovers_weights(monkeypatch):
    import spdcfilm.crystal as crystal

    # a coarser start grid than the shipped 1 deg one still finds the fit
    monkeypatch.setattr(crystal, "_COARSE_STEP_DEG", 2.5)
    chi = chi2_zincblende(D)
    orientation, residual = calibrate_orientation(chi, TARGETS)
    assert residual < 1e-3
    h = spdc_amplitudes(chi, orientation, pump_ket(0.0))
    assert np.allclose(h.weights, TARGETS.h_pump_weights, atol=0.02)


def test_amplitudes_invariant_under_pump_index_symmetry():
    # the tensor is symmetric under any index permutation, so swapping the
    # roles of the two down-converted polarization slots changes nothing
    chi = chi2_zincblende(D)
    rng = np.random.default_rng(SEED)
    for _ in range(50):
        tilt, az = rng.uniform(2, 55), rng.uniform(0, 180)
        rot = _rotation(CrystalOrientation(tilt, az))
        pump = rng.normal(size=2) + 1j * rng.normal(size=2)
        pump /= np.linalg.norm(pump)
        e_h, e_v = rot[:, 0], rot[:, 1]
        e_p = pump[0] * e_h + pump[1] * e_v
        a_hv = np.einsum("ijk,i,j,k->", chi, e_h, e_v, e_p)
        a_vh = np.einsum("ijk,i,j,k->", chi, e_v, e_h, e_p)
        assert abs(a_hv - a_vh) < 1e-12
        c = _raw_amplitudes(chi, rot, pump)
        assert abs(c[1] - np.sqrt(2) * a_hv) < 1e-12


def test_zero_threshold_is_best_linear_pump_rate():
    from spdcfilm.crystal import _amplitude_grid, _zero_threshold

    def threshold(orientation):  # from the H- and V-pump rows, as spdc_amplitudes passes them
        return _zero_threshold(
            _amplitude_grid(chi, orientation.tilt_deg, orientation.azimuth_deg, np.eye(2)))

    chi = chi2_zincblende(D)
    rng = np.random.default_rng(SEED)
    orientations = [CALIBRATED, CrystalOrientation(10.0, 30.0)] + [
        CrystalOrientation(*rng.uniform(0.0, 90.0, 2)) for _ in range(5)
    ]
    angles = np.radians(np.arange(0.0, 180.0, 0.01))
    for orientation in orientations:
        rot = _rotation(orientation)
        e_h, e_v = rot[:, 0], rot[:, 1]
        # every scanned linear pump in crystal components, one row per angle
        e_p = np.cos(angles)[:, None] * e_h + np.sin(angles)[:, None] * e_v
        a_hh, a_hv, a_vh, a_vv = (np.einsum("ijk,i,j,ak->a", chi, a, b, e_p)
                                  for a, b in ((e_h, e_h), (e_h, e_v), (e_v, e_h), (e_v, e_v)))
        rates = a_hh ** 2 + (a_hv + a_vh) ** 2 / 2.0 + a_vv ** 2
        # the closed form bounds every scanned pump and the fine scan nearly reaches it
        assert max(rates) * 1e-12 <= threshold(orientation) * (1.0 + 1e-12)
        assert threshold(orientation) == pytest.approx(1e-12 * max(rates), rel=1e-8, abs=0)
    assert threshold(CrystalOrientation(0.0, 0.0)) == 0.0


def _raw_amplitudes(chi: np.ndarray, rot: np.ndarray, pump) -> np.ndarray:
    """Unnormalized (c1, c2, c3) for a pump Jones vector in the lab frame:
    the full 27-element contraction with the columns of ``rot``, one
    orientation and pump at a time. The scalar reference that
    ``crystal._amplitude_grid`` must reproduce bit for bit."""
    # lab H/V unit vectors and the pump, all expressed in crystal components
    e_h = rot[:, 0].astype(complex)
    e_v = rot[:, 1].astype(complex)
    e_p = pump[0] * e_h + pump[1] * e_v

    def contract(a, b):
        return np.einsum("ijk,i,j,k->", chi, a, b, e_p)

    a_hh = contract(e_h, e_h)
    a_hv = contract(e_h, e_v)
    a_vh = contract(e_v, e_h)
    a_vv = contract(e_v, e_v)
    return np.array([a_hh, (a_hv + a_vh) / np.sqrt(2.0), a_vv])


def _same_bits(a, b) -> bool:
    """Equal dtype, shape and bytes: equal values, signs of zeros included."""
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _random_pump(rng):
    pump = rng.normal(size=2) + 1j * rng.normal(size=2)
    return pump / np.linalg.norm(pump)


def test_amplitude_grid_equals_scalar_reference_bit_for_bit():
    from spdcfilm.crystal import _amplitude_grid

    chi = chi2_zincblende(D)
    rng = np.random.default_rng(SEED)
    # one orientation and pump per call: signed-zero and integer-degree
    # angles, where exact zeros arise, then any angle
    zeros = (0.0, -0.0)
    for n in range(600):
        tilt = (zeros[n % 2], float(rng.integers(90)), rng.uniform(0.0, 90.0))[n % 3]
        az = (zeros[n % 2], float(rng.integers(-180, 180)), rng.uniform(-180.0, 180.0))[n % 3]
        pump = (_random_pump(rng), pump_ket(float(rng.integers(180))))[n % 2]
        c = _raw_amplitudes(chi, _rotation(CrystalOrientation(tilt, az)), pump)
        assert _same_bits(_amplitude_grid(chi, tilt, az, [pump])[0], c)
    # a whole integer-degree grid, several pumps at once
    tilts, azimuths = np.arange(0.0, 56.0, 5.0), np.arange(0.0, 180.0, 7.0)
    pumps = [pump_ket(0.0), pump_ket(90.0), pump_ket(45.0), _random_pump(rng)]
    grid = _amplitude_grid(chi, tilts[:, None], azimuths[None, :], pumps)
    assert grid.shape == (len(pumps), len(tilts), len(azimuths), 3)
    for p, pump in enumerate(pumps):
        for t, tilt in enumerate(tilts):
            for a, az in enumerate(azimuths):
                rot = _rotation(CrystalOrientation(tilt, az))
                assert _same_bits(grid[p, t, a], _raw_amplitudes(chi, rot, pump))


def test_amplitudes_equal_scalar_reference_bit_for_bit(monkeypatch):
    import spdcfilm.crystal as crystal

    thresholded = []  # the amplitude rows spdc_amplitudes sets its zero threshold from
    threshold = crystal._zero_threshold

    def recording_threshold(c_hv):
        thresholded.append(c_hv.copy())
        return threshold(c_hv)

    monkeypatch.setattr(crystal, "_zero_threshold", recording_threshold)
    chi = chi2_zincblende(D)
    rng = np.random.default_rng(SEED)
    for n in range(40):
        orientation = CrystalOrientation(
            float(rng.integers(1, 90)) if n % 2 else rng.uniform(0.5, 90.0),
            float(rng.integers(180)) if n % 2 else rng.uniform(0.0, 180.0),
        )
        rot = _rotation(orientation)
        hv_rows = [_raw_amplitudes(chi, rot, hv_pump) for hv_pump in np.eye(2)]
        for pump in (_random_pump(rng), pump_ket(0.0), pump_ket(90.0)):
            c = _raw_amplitudes(chi, rot, pump)
            rate = float(np.sum(np.abs(c) ** 2))
            res = spdc_amplitudes(chi, orientation, pump)
            assert res.relative_rate == rate
            assert _same_bits(res.state, c / np.sqrt(rate))
            assert _same_bits(thresholded.pop(), hv_rows)


def _scalar_weight_residual(chi, orientation, calibration):
    """Point-by-point residual through ``_raw_amplitudes``: the reference the
    grid kernel must reproduce bit for bit."""
    rot = _rotation(orientation)
    total = 0.0
    for angle, tgt in ((0.0, calibration.h_pump_weights), (90.0, calibration.v_pump_weights)):
        c = _raw_amplitudes(chi, rot, pump_ket(angle))
        rate = float(np.sum(np.abs(c) ** 2))
        if rate == 0.0:
            w = np.zeros(3)
        else:
            w = np.abs(c) ** 2 / rate
        total += float(np.sum((w - np.asarray(tgt, dtype=float)) ** 2))
    return total


def test_residual_grid_equals_scalar_loop_exactly():
    from spdcfilm.crystal import _residual_grid

    chi = chi2_zincblende(D)
    calibration = SHIPPED.calibration
    # calibrate_orientation's 1 deg coarse grid
    tilts = np.arange(0.0, 55.0 + 1e-9, 1.0)
    azimuths = np.arange(0.0, 180.0, 1.0)
    grid = _residual_grid(chi, tilts[:, None], azimuths[None, :], calibration)
    reference = np.array(
        [[_scalar_weight_residual(chi, CrystalOrientation(t, a), calibration)
          for a in azimuths] for t in tilts]
    )
    assert grid.shape == reference.shape
    assert np.all(grid == reference)
    # calibrate_azimuth's 0.1 deg grid at the fitted tilt
    azimuths = np.arange(0.0, 180.0, 0.1)
    line = _residual_grid(chi, 35.75, azimuths, calibration)
    reference = [_scalar_weight_residual(chi, CrystalOrientation(35.75, a), calibration)
                 for a in azimuths]
    assert np.all(line == reference)
    # random target weights on a random grid
    rng = np.random.default_rng(SEED)
    random_calibration = _calibration(rng.dirichlet(np.ones(3)), rng.dirichlet(np.ones(3)))
    tilts, azimuths = rng.uniform(0.0, 90.0, 7), rng.uniform(-180.0, 180.0, 11)
    grid = _residual_grid(chi, tilts[:, None], azimuths[None, :], random_calibration)
    reference = [[_scalar_weight_residual(chi, CrystalOrientation(t, a), random_calibration)
                  for a in azimuths] for t in tilts]
    assert np.all(grid == reference)
    # the vanishing-rate branch: zero weights at normal incidence
    assert weight_residual(chi, CrystalOrientation(0.0, 0.0), calibration) == (
        _scalar_weight_residual(chi, CrystalOrientation(0.0, 0.0), calibration)
    )


def test_coarse_scan_starts_from_first_tied_minimum(monkeypatch):
    import spdcfilm.crystal as crystal

    chi = chi2_zincblende(D)
    calibration = SHIPPED.calibration
    tied = [crystal.weight_residual(chi, CrystalOrientation(36.0, az), calibration)
            for az in (41.0, 49.0, 139.0)]
    assert tied[0] == tied[1] == tied[2]

    starts = []
    search = crystal._nelder_mead

    def recording_search(fun, x0):
        starts.append(list(x0))
        return search(fun, x0)

    monkeypatch.setattr(crystal, "_nelder_mead", recording_search)
    calibrate_orientation(chi, calibration)
    assert starts == [[36.0, 41.0]]


def test_calibration_call_count(monkeypatch):
    import spdcfilm.crystal as crystal

    calls = []
    original = crystal.weight_residual

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(crystal, "weight_residual", counting)
    calibrate_orientation(chi2_zincblende(D), SHIPPED.calibration)
    # the grid is one kernel call; only the Nelder-Mead refinement remains
    assert 0 < len(calls) <= 200


def _assert_same_search(calibration, x0):
    """The in-package Nelder-Mead ends where SciPy's does from x0, after as
    many evaluations, on one target set; returns SciPy's result."""
    from spdcfilm.crystal import _nelder_mead

    chi = chi2_zincblende(D)
    memo = {}
    calls = {"port": 0, "scipy": 0}

    def objective(who):
        def residual(x):
            calls[who] += 1
            key = np.asarray(x).tobytes()
            if key not in memo:  # the same point costs one evaluation for both
                memo[key] = weight_residual(chi, CrystalOrientation(x[0], x[1]), calibration)
            return memo[key]
        return residual

    ref = minimize(objective("scipy"), x0, method="Nelder-Mead",
                   options={"xatol": 1e-4, "fatol": 1e-12})
    x, fun = _nelder_mead(objective("port"), x0)
    assert x.tobytes() == ref.x.tobytes()
    assert fun == ref.fun and np.signbit(fun) == np.signbit(ref.fun)
    assert calls["port"] == calls["scipy"] == ref.nfev
    return ref


def test_nelder_mead_is_scipys_on_shipped_targets():
    ref = _assert_same_search(SHIPPED.calibration, [36.0, 41.0])
    assert ref.nfev < 400
    chi = chi2_zincblende(D)
    orientation, residual = calibrate_orientation(chi, SHIPPED.calibration)
    assert (orientation.tilt_deg, orientation.azimuth_deg) == (ref.x[0], ref.x[1] % 180.0)
    assert residual == ref.fun


def test_nelder_mead_is_scipys_on_random_targets():
    rng = np.random.default_rng(SEED)
    for _ in range(100):
        calibration = _calibration(rng.dirichlet(np.ones(3)), rng.dirichlet(np.ones(3)))
        _assert_same_search(calibration, [float(rng.integers(56)), float(rng.integers(180))])


# searches that the 400-evaluation cap stops part-way through an iteration
CAPPED = [
    # stuck on the tilt-0 plane, where every rate vanishes and the residual is
    # flat in azimuth: tied values, and the cap cuts a shrink after one vertex
    (_calibration((0.02918207377552893, 0.8890613542648487, 0.08175657195962252),
                  (0.10222933412540339, 0.5219221586557791, 0.37584850721881763)), [0.0, 43.0]),
    # the cap falls between a reflection and the expansion or contraction after it
    (_calibration((0.017016331058531824, 0.0980732124392775, 0.8849104565021907),
                  (0.05278348737135649, 0.3033993820468104, 0.6438171305818332)), [23.0, 117.0]),
]


@pytest.mark.parametrize("calibration, x0", CAPPED, ids=["flat_shrink", "after_reflection"])
def test_nelder_mead_stops_at_scipys_evaluation_cap(calibration, x0):
    ref = _assert_same_search(calibration, x0)
    assert ref.nfev == 400 and ref.status == 1
