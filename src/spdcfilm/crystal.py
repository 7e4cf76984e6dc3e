"""Nonlinear-tensor contraction for pair generation in a tilted cubic film.

Geometry convention, fixed here and used everywhere downstream:

* The film normal and the (paraxial, collinear) propagation axis are lab z.
* ``rotation_matrix`` maps lab-frame components to crystal-frame components,
  v_crystal = R v_lab, composed as tilt about lab y followed by azimuth
  about lab z: R = Rz(azimuth) Ry(tilt).
* At (tilt=0, azimuth=0) the crystal cube axes coincide with the lab axes,
  so the zero-tilt film normal is the [001] cube axis and ``tilt`` is the
  angle between the film normal and [001]. The three <100> cube axes are
  equivalent under the zinc-blende tensor symmetry (relabeling cube axes
  leaves every |amplitude| unchanged), so no generality is lost by naming
  [001] rather than [100].

The in-plane azimuth is not a measured quantity; it is calibrated from
pump-resolved weight data (``calibrate_azimuth``). The tilt can be refit
the same way (``calibrate_orientation``) when the nominal cut angle does
not reproduce the measured weights.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from .errors import PoorFit, ZeroAmplitude
from .polarization import check_normalized, pump_ket

_SQRT2 = np.sqrt(2.0)


def chi2_zincblende(d: float = 100.0) -> np.ndarray:
    """Second-order tensor of a zinc-blende (class 43m) crystal.

    chi[i][j][k] = d exactly when (i, j, k) is a permutation of (x, y, z);
    all other elements vanish. d carries pm/V units but only sets an
    overall scale of the (relative) rates.
    """
    chi = np.zeros((3, 3, 3))
    for i, j, k in ((0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)):
        chi[i, j, k] = d
    return chi


@dataclass(frozen=True)
class CrystalOrientation:
    """Film orientation: tilt of the normal from [001], in-plane azimuth."""

    tilt_deg: float
    azimuth_deg: float


def _ry(t: float) -> np.ndarray:
    c, s = np.cos(t), np.sin(t)
    return np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])


def _rz(t: float) -> np.ndarray:
    c, s = np.cos(t), np.sin(t)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def rotation_matrix(orientation: CrystalOrientation) -> np.ndarray:
    """Lab-to-crystal component map; orthogonal with det +1, identity at zero."""
    return _rz(np.radians(orientation.azimuth_deg)) @ _ry(np.radians(orientation.tilt_deg))


@dataclass(frozen=True)
class SpdcResult:
    """Normalized qutrit state (|2H>, |1H 1V>, |2V>) plus the relative rate."""

    state: np.ndarray
    relative_rate: float

    @property
    def weights(self) -> np.ndarray:
        return np.abs(self.state) ** 2


def _raw_amplitudes(chi: np.ndarray, rot: np.ndarray, pump) -> np.ndarray:
    """Unnormalized (c1, c2, c3) for a pump Jones vector in the lab frame."""
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
    return np.array([a_hh, (a_hv + a_vh) / _SQRT2, a_vv])


def _zero_threshold(chi: np.ndarray, rot: np.ndarray) -> float:
    """Epsilon below which a rate counts as zero: 1e-12 of the best rate over
    all linear pumps at the same orientation.

    Amplitudes are linear in the pump, so the rate of the pump (cos t, sin t)
    is a real quadratic form in it; its best value is the top eigenvalue of
    the Gram matrix Re<c_i, c_j> of the H- and V-pump amplitudes.
    """
    c = np.array([_raw_amplitudes(chi, rot, pump) for pump in np.eye(2)])
    return 1e-12 * float(np.linalg.eigvalsh(np.real(c.conj() @ c.T))[-1])


def spdc_amplitudes(chi: np.ndarray, orientation: CrystalOrientation, pump) -> SpdcResult:
    """Qutrit amplitudes for a normalized pump Jones vector.

    Contracts the tensor with crystal-frame polarization vectors:
    A_ab = sum_ijk chi[i,j,k] (R e_a)_i (R e_b)_j (R e_p)_k, then
    c1 = A_HH, c2 = (A_HV + A_VH)/sqrt(2), c3 = A_VV. The returned state
    is normalized; ``relative_rate`` = |c1|^2 + |c2|^2 + |c3|^2 keeps the
    d^2 scaling of the pair rate.

    Raises ZeroAmplitude when the rate vanishes relative to the best rate
    available at this orientation (e.g. exactly at normal incidence on a
    (001)-cut film, where every transverse contraction dies).
    """
    pump = check_normalized(pump)
    rot = rotation_matrix(orientation)
    c = _raw_amplitudes(chi, rot, pump)
    rate = float(np.sum(np.abs(c) ** 2))
    if rate <= _zero_threshold(chi, rot):
        raise ZeroAmplitude(
            f"no pair amplitude for pump {pump} at tilt {orientation.tilt_deg} deg, "
            f"azimuth {orientation.azimuth_deg} deg"
        )
    return SpdcResult(state=c / np.sqrt(rate), relative_rate=rate)


def pair_rate_curve(chi, orientation: CrystalOrientation, pump_angles_deg) -> list:
    """Relative rate versus linear pump angle; list of (angle, rate).

    Individual zero-rate points are returned as 0.0; ZeroAmplitude is
    raised only when the whole scan vanishes (e.g. a null tensor).
    """
    pump_angles_deg = list(pump_angles_deg)
    if not pump_angles_deg:
        raise ValueError("pump angle grid is empty")
    rot = rotation_matrix(orientation)
    curve = []
    for ang in pump_angles_deg:
        c = _raw_amplitudes(chi, rot, pump_ket(ang))
        curve.append((float(ang), float(np.sum(np.abs(c) ** 2))))
    if max(r for _, r in curve) <= 0.0:
        raise ZeroAmplitude("pair rate vanishes over the whole pump scan")
    return curve


def _pump_angle(key) -> float:
    if isinstance(key, str):
        named = {"H": 0.0, "V": 90.0, "D": 45.0, "A": 135.0}
        if key.upper() not in named:
            raise ValueError(f"unknown pump label {key!r}")
        return named[key.upper()]
    return float(key)


def _residual_grid(chi, tilt_deg, azimuth_deg, targets: dict) -> np.ndarray:
    """``weight_residual`` at every point of a broadcast (tilt, azimuth) grid.

    The H and V columns of R = Rz(azimuth) Ry(tilt) are written in closed
    form, and one einsum contracts the tensor with them and with every
    target pump at all grid points at once. Each step repeats the
    arithmetic of ``_raw_amplitudes`` for one orientation in the same dtype
    and order (complex128 products chi a b c, summed over i, j, k in C
    order), so each value is bit-identical to its orientation evaluated
    alone, and a grid scan breaks exact ties as a point-by-point scan does.
    """
    tilt, az = np.broadcast_arrays(np.radians(tilt_deg), np.radians(azimuth_deg))
    ct, st, cz, sz = np.cos(tilt), np.sin(tilt), np.cos(az), np.sin(az)
    # lab H and V unit vectors in crystal components; grid axes last
    hv = np.array([[cz * ct, sz * ct, -st], [-sz, cz, np.zeros_like(az)]], dtype=complex)
    pumps = np.array([pump_ket(_pump_angle(key)) for key in targets], dtype=complex)
    pumps = pumps.reshape((-1, 2) + (1,) * (hv.ndim - 1))
    e_p = pumps[:, 0] * hv[0] + pumps[:, 1] * hv[1]
    # the vanishing tensor elements add only signed zeros: sum the others, in C order
    i, j, k = np.nonzero(chi)
    chi_nz = np.asarray(chi, dtype=complex)[i, j, k]
    amp = np.einsum("n,an...,bn...,pn...->pab...", chi_nz, hv[:, i], hv[:, j], e_p[:, k])
    c = np.stack([amp[:, 0, 0], (amp[:, 0, 1] + amp[:, 1, 0]) / _SQRT2, amp[:, 1, 1]], axis=-1)
    power = np.abs(c) ** 2
    rate = np.sum(power, axis=-1, keepdims=True)
    w = power / np.where(rate == 0.0, 1.0, rate)  # a vanishing rate gives zero weights
    tgt = np.asarray(list(targets.values()), dtype=float)
    tgt = tgt.reshape((len(targets),) + (1,) * tilt.ndim + (3,))
    per_pump = np.sum((w - tgt) ** 2, axis=-1)
    total = np.zeros(tilt.shape)
    for res in per_pump:  # pump by pump, in target order
        total = total + res
    return total


def weight_residual(chi, orientation: CrystalOrientation, targets: dict) -> float:
    """Summed squared deviation of predicted weights from target weights.

    ``targets`` maps a pump setting ('H', 'V', or an angle in degrees) to
    its (|C1|^2, |C2|^2, |C3|^2) triple.
    """
    return float(_residual_grid(chi, orientation.tilt_deg, orientation.azimuth_deg, targets))


def calibrate_azimuth(
    chi,
    tilt_deg: float,
    targets: dict,
    grid_step_deg: float = 0.1,
    threshold: float = 0.005,
) -> tuple[float, float]:
    """Fit the in-plane azimuth to measured pump-resolved weights.

    Scans azimuth over [0, 180) at ``grid_step_deg`` resolution, minimizing
    the summed squared weight deviation over all pump settings at once, and
    returns (azimuth, residual). The azimuth is an output of this fit, never
    an input assumption.

    Raises PoorFit when even the best azimuth leaves a residual above
    ``threshold``: that signals a modeling mismatch (wrong tilt, wrong
    tensor) and must be reported rather than silently ignored.
    """
    if not targets:
        raise ValueError("calibration requires at least one pump-setting target")
    azimuths = np.arange(0.0, 180.0, grid_step_deg)
    residuals = _residual_grid(chi, tilt_deg, azimuths, targets)
    best = int(np.argmin(residuals))  # the first of tied minima, as a strict "<" scan
    best_az, best_res = float(azimuths[best]), float(residuals[best])
    if best_res > threshold:
        raise PoorFit(
            f"azimuth scan at tilt {tilt_deg} deg bottoms out at residual "
            f"{best_res:.4g} (threshold {threshold:g}); the assumed tilt does "
            f"not reproduce the target weights"
        )
    return best_az, best_res


def calibrate_orientation(
    chi,
    targets: dict,
    tilt_range=(0.0, 55.0),
    coarse_step_deg: float = 1.0,
    threshold: float = 0.005,
) -> tuple[CrystalOrientation, float]:
    """Joint (tilt, azimuth) fit to measured pump-resolved weights.

    Coarse grid scan over the tilt range and the [0, 180) azimuth range,
    followed by a Nelder-Mead refinement of the best grid point. Use this
    when ``calibrate_azimuth`` at the nominal tilt raises PoorFit.
    """
    if not targets:
        raise ValueError("calibration requires at least one pump-setting target")
    tilts = np.arange(tilt_range[0], tilt_range[1] + 1e-9, coarse_step_deg)
    azimuths = np.arange(0.0, 180.0, coarse_step_deg)
    residuals = _residual_grid(chi, tilts[:, None], azimuths[None, :], targets)
    # the first of tied minima in (tilt, azimuth) scan order, as a strict "<" scan
    i, j = np.unravel_index(np.argmin(residuals), residuals.shape)

    def objective(x):
        return weight_residual(chi, CrystalOrientation(x[0], x[1]), targets)

    opt = minimize(objective, x0=[float(tilts[i]), float(azimuths[j])], method="Nelder-Mead",
                   options={"xatol": 1e-4, "fatol": 1e-12})
    tilt, az = float(opt.x[0]), float(opt.x[1]) % 180.0
    residual = float(opt.fun)
    if residual > threshold:
        raise PoorFit(
            f"joint orientation fit bottoms out at residual {residual:.4g} "
            f"(threshold {threshold:g})"
        )
    return CrystalOrientation(tilt, az), residual


def normal_axis_angles(orientation: CrystalOrientation) -> np.ndarray:
    """Angles (degrees) between the film normal and the three cube axes."""
    rot = rotation_matrix(orientation)
    normal_crystal = rot @ np.array([0.0, 0.0, 1.0])
    cosines = np.clip(np.abs(normal_crystal), -1.0, 1.0)
    return np.degrees(np.arccos(cosines))
