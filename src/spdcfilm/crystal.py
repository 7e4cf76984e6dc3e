"""Nonlinear-tensor contraction for pair generation in a tilted cubic film.

Geometry convention, fixed here and used everywhere downstream:

* The film normal and the (paraxial, collinear) propagation axis are lab z.
* R maps lab-frame components to crystal-frame components,
  v_crystal = R v_lab, composed as tilt about lab y followed by azimuth
  about lab z: R = Rz(azimuth) Ry(tilt). ``_frame`` writes its columns, the
  lab H, V and normal axes in crystal components, in closed form; the
  amplitudes read the first two, ``normal_axis_angles`` the third.
* At (tilt=0, azimuth=0) the crystal cube axes coincide with the lab axes,
  so the zero-tilt film normal is the [001] cube axis and ``tilt`` is the
  angle between the film normal and [001]. The three <100> cube axes are
  equivalent under the zinc-blende tensor symmetry (relabeling cube axes
  leaves every |amplitude| unchanged), so no generality is lost by naming
  [001] rather than [100].

One kernel, ``_amplitude_grid``, contracts the tensor with the tilted
crystal and the pump polarization; the amplitudes and the weight residuals
of the calibration fits both come from it.

The in-plane azimuth is not a measured quantity; it is calibrated from
pump-resolved weight data (``calibrate_azimuth``). The tilt can be refit
the same way (``calibrate_orientation``) when the nominal cut angle does
not reproduce the measured weights. Both fits, and ``weight_residual``,
take the ``[calibration]`` section (``config.CalibrationConfig``) as it is:
its H- and V-pump weight triples and its ``fit_threshold``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import PoorFit, ZeroAmplitude
from .frozen import Record, Value
from .polarization import pump_ket
from .qutrit import check_state

_SQRT2 = np.sqrt(2.0)


def chi2_zincblende(d: float) -> np.ndarray:
    """Second-order tensor of a zinc-blende (class 43m) crystal.

    chi[i][j][k] = d exactly when (i, j, k) is a permutation of (x, y, z);
    all other elements vanish. d carries pm/V units but only sets an
    overall scale of the (relative) rates.
    """
    chi = np.zeros((3, 3, 3))
    for i, j, k in ((0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)):
        chi[i, j, k] = d
    return chi


@dataclass(eq=False, repr=False)
class CrystalOrientation(Value):
    """Film orientation: tilt of the normal from [001], in-plane azimuth."""

    tilt_deg: float
    azimuth_deg: float


def _frame(tilt_deg, azimuth_deg) -> np.ndarray:
    """The columns R e_x, R e_y, R e_z of R = Rz(azimuth) Ry(tilt), in closed
    form, at every point of a broadcast (tilt, azimuth) grid: the lab H and V
    unit vectors and the film normal in crystal components, shape
    (3, 3, *grid) with the grid axes last."""
    tilt, az = np.broadcast_arrays(np.radians(tilt_deg), np.radians(azimuth_deg))
    ct, st, cz, sz = np.cos(tilt), np.sin(tilt), np.cos(az), np.sin(az)
    return np.array([[cz * ct, sz * ct, -st], [-sz, cz, np.zeros_like(az)],
                     [cz * st, sz * st, ct]])


@dataclass(eq=False, repr=False)
class SpdcResult(Record):
    """Normalized qutrit state (|2H>, |1H 1V>, |2V>) plus the relative rate.
    It compares and hashes by identity: its state is an array."""

    state: np.ndarray
    relative_rate: float

    @property
    def weights(self) -> np.ndarray:
        return np.abs(self.state) ** 2


def _amplitude_grid(chi, tilt_deg, azimuth_deg, pumps) -> np.ndarray:
    """Unnormalized (c1, c2, c3) of every pump Jones vector at every point
    of a broadcast (tilt, azimuth) grid, shape (pumps, *grid, 3): the one
    contraction of the tensor behind every amplitude in this module.

    A_ab = sum_ijk chi[i,j,k] (R e_a)_i (R e_b)_j (R e_p)_k, then
    c1 = A_HH, c2 = (A_HV + A_VH)/sqrt(2), c3 = A_VV. The H and V columns
    of R = Rz(azimuth) Ry(tilt) are ``_frame``'s closed form, and one einsum
    sums the complex128 products chi a b c over the nonzero tensor elements
    in C order (the vanishing ones add only signed zeros), so an
    orientation's amplitudes do not depend on the grid or the pumps they
    are evaluated with, and a grid scan breaks exact ties as a point-by-point
    scan does.
    """
    hv = np.array(_frame(tilt_deg, azimuth_deg)[:2], dtype=complex)
    pumps = np.asarray(pumps, dtype=complex).reshape((-1, 2) + (1,) * (hv.ndim - 1))
    e_p = pumps[:, 0] * hv[0] + pumps[:, 1] * hv[1]
    i, j, k = np.nonzero(chi)
    chi_nz = np.asarray(chi, dtype=complex)[i, j, k]
    amp = np.einsum("n,an...,bn...,pn...->pab...", chi_nz, hv[:, i], hv[:, j], e_p[:, k])
    return np.stack([amp[:, 0, 0], (amp[:, 0, 1] + amp[:, 1, 0]) / _SQRT2, amp[:, 1, 1]], axis=-1)


def _zero_threshold(c_hv: np.ndarray) -> float:
    """Epsilon below which a rate counts as zero: 1e-12 of the best rate over
    all linear pumps at one orientation, from its H- and V-pump rows
    ``c_hv`` of ``_amplitude_grid``.

    Amplitudes are linear in the pump, so the rate of the pump (cos t, sin t)
    is a real quadratic form in it; its best value is the top eigenvalue of
    the Gram matrix Re<c_i, c_j> of the H- and V-pump amplitudes.
    """
    return 1e-12 * float(np.linalg.eigvalsh(np.real(c_hv.conj() @ c_hv.T))[-1])


def spdc_amplitudes(chi: np.ndarray, orientation: CrystalOrientation, pump) -> SpdcResult:
    """Qutrit amplitudes for a normalized pump Jones vector.

    ``_amplitude_grid`` evaluates the pump, H and V in one call: the pump's
    (c1, c2, c3), normalized, is the state; ``relative_rate`` =
    |c1|^2 + |c2|^2 + |c3|^2 keeps the d^2 scaling of the pair rate; the H
    and V rows set ``_zero_threshold``.

    Raises ZeroAmplitude when the rate vanishes relative to the best rate
    available at this orientation (e.g. exactly at normal incidence on a
    (001)-cut film, where every transverse contraction dies).
    """
    pump = check_state(pump, dim=2)
    c = _amplitude_grid(chi, orientation.tilt_deg, orientation.azimuth_deg, [pump, (1, 0), (0, 1)])
    rate = float(np.sum(np.abs(c[0]) ** 2))
    if rate <= _zero_threshold(c[1:]):
        raise ZeroAmplitude(
            f"no pair amplitude for pump {pump} at tilt {orientation.tilt_deg} deg, "
            f"azimuth {orientation.azimuth_deg} deg"
        )
    return SpdcResult(state=c[0] / np.sqrt(rate), relative_rate=rate)


def _residual_grid(chi, tilt_deg, azimuth_deg, calibration) -> np.ndarray:
    """``weight_residual`` at every point of a broadcast (tilt, azimuth) grid,
    from one ``_amplitude_grid`` call over the H and V pumps. Each value is
    bit-identical to its orientation evaluated alone.
    """
    pumps = [pump_ket(0.0), pump_ket(90.0)]
    power = np.abs(_amplitude_grid(chi, tilt_deg, azimuth_deg, pumps)) ** 2
    rate = np.sum(power, axis=-1, keepdims=True)
    w = power / np.where(rate == 0.0, 1.0, rate)  # a vanishing rate gives zero weights
    tgt = np.asarray([calibration.h_pump_weights, calibration.v_pump_weights], dtype=float)
    tgt = tgt.reshape((2,) + (1,) * (w.ndim - 2) + (3,))
    per_pump = np.sum((w - tgt) ** 2, axis=-1)
    total = np.zeros(per_pump.shape[1:])
    for res in per_pump:  # the H pump, then the V pump
        total = total + res
    return total


def weight_residual(chi, orientation: CrystalOrientation, calibration) -> float:
    """Summed squared deviation of the predicted weights from the
    ``[calibration]`` section's: the H pump's from ``h_pump_weights``, the V
    pump's from ``v_pump_weights``, each a (|C1|^2, |C2|^2, |C3|^2) triple.
    """
    return float(_residual_grid(chi, orientation.tilt_deg, orientation.azimuth_deg, calibration))


def calibrate_azimuth(chi, tilt_deg: float, calibration) -> tuple[float, float]:
    """Fit the in-plane azimuth to the ``[calibration]`` section's measured
    pump-resolved weights.

    Scans azimuth over [0, 180) in 0.1 deg steps, minimizing
    the summed squared weight deviation over both pump settings at once, and
    returns (azimuth, residual). The azimuth is an output of this fit, never
    an input assumption.

    Raises PoorFit when even the best azimuth leaves a residual above
    ``fit_threshold``: that signals a modeling mismatch (wrong tilt, wrong
    tensor) and must be reported rather than silently ignored.
    """
    azimuths = np.arange(0.0, 180.0, 0.1)
    residuals = _residual_grid(chi, tilt_deg, azimuths, calibration)
    best = int(np.argmin(residuals))  # the first of tied minima, as a strict "<" scan
    best_az, best_res = float(azimuths[best]), float(residuals[best])
    if best_res > calibration.fit_threshold:
        raise PoorFit(
            f"azimuth scan at tilt {tilt_deg} deg bottoms out at residual "
            f"{best_res:.4g} (threshold {calibration.fit_threshold:g}); the assumed "
            f"tilt does not reproduce the target weights"
        )
    return best_az, best_res


class _EvaluationCap(Exception):
    """The Nelder-Mead search has spent its evaluation budget."""


def _nelder_mead(fun, x0):
    """(x, fun(x)) at the best vertex of a Nelder-Mead search from ``x0``.

    A port of ``_minimize_neldermead`` in SciPy's
    ``scipy/optimize/_optimize.py`` (BSD-3-Clause; Copyright (c) 2001-2002
    Enthought, Inc. 2003, SciPy Developers), kept to what the orientation
    fit uses: the non-adaptive coefficients, the default initial simplex,
    no bounds, SciPy's default cap of 200 evaluations and iterations per
    variable, and ``xatol=1e-4``, ``fatol=1e-12``. The float operations and
    their order are SciPy's, so x and fun equal those of
    ``scipy.optimize.minimize(fun, x0, method="Nelder-Mead",
    options={"xatol": 1e-4, "fatol": 1e-12})`` bit for bit.
    """
    rho, chi, psi, sigma = 1, 2, 0.5, 0.5
    xatol, fatol = 1e-4, 1e-12
    x0 = np.asarray(x0, dtype=float)
    n = len(x0)
    maxiter = maxfev = 200 * n
    nfev = 0

    def func(x):
        nonlocal nfev
        if nfev >= maxfev:
            raise _EvaluationCap
        nfev += 1
        return fun(x)

    sim = np.empty((n + 1, n))
    sim[0] = x0
    for k in range(n):
        y = np.array(x0, copy=True)
        y[k] = (1 + 0.05) * y[k] if y[k] != 0 else 0.00025
        sim[k + 1] = y
    fsim = np.array([func(vertex) for vertex in sim], dtype=float)
    for _ in range(2):  # SciPy sorts twice before the first iteration
        ind = np.argsort(fsim)
        sim, fsim = np.take(sim, ind, 0), np.take(fsim, ind, 0)

    iterations = 1
    while nfev < maxfev and iterations < maxiter:
        try:
            if (np.max(np.ravel(np.abs(sim[1:] - sim[0]))) <= xatol
                    and np.max(np.abs(fsim[0] - fsim[1:])) <= fatol):
                break
            xbar = np.add.reduce(sim[:-1], 0) / n
            xr = (1 + rho) * xbar - rho * sim[-1]
            fxr = func(xr)
            if fxr < fsim[0]:  # expand
                xe = (1 + rho * chi) * xbar - rho * chi * sim[-1]
                fxe = func(xe)
                sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
            elif fxr < fsim[-2]:  # reflect
                sim[-1], fsim[-1] = xr, fxr
            else:
                if fxr < fsim[-1]:  # contract outside
                    xc = (1 + psi * rho) * xbar - psi * rho * sim[-1]
                    fxc = func(xc)
                    shrink = not fxc <= fxr  # so a NaN shrinks, as in SciPy
                    if not shrink:
                        sim[-1], fsim[-1] = xc, fxc
                else:  # contract inside
                    xcc = (1 - psi) * xbar + psi * sim[-1]
                    fxcc = func(xcc)
                    shrink = not fxcc < fsim[-1]
                    if not shrink:
                        sim[-1], fsim[-1] = xcc, fxcc
                if shrink:  # a vertex moved before the cap keeps its old value
                    for j in range(1, n + 1):
                        sim[j] = sim[0] + sigma * (sim[j] - sim[0])
                        fsim[j] = func(sim[j])
            iterations += 1
        except _EvaluationCap:
            pass
        ind = np.argsort(fsim)
        sim, fsim = np.take(sim, ind, 0), np.take(fsim, ind, 0)
    return sim[0], np.min(fsim)


#: step (deg) of calibrate_orientation's coarse tilt and azimuth grid
_COARSE_STEP_DEG = 1.0


def calibrate_orientation(chi, calibration) -> tuple[CrystalOrientation, float]:
    """Joint (tilt, azimuth) fit to the ``[calibration]`` section's measured
    pump-resolved weights.

    Scans a _COARSE_STEP_DEG (1 deg) grid over tilts in [0, 55] deg and
    azimuths in [0, 180) deg and starts from its best point (the first of tied minima
    in scan order). A Nelder-Mead simplex search (Nelder & Mead, Comput. J.
    7, 308, 1965) then refines it: reflection 1, expansion 2, contraction
    and shrink 1/2, an initial simplex stepping each nonzero coordinate by
    5% (a zero one to 0.00025), stopping once every vertex lies within
    1e-4 deg of the best in each angle and every value within 1e-12 of the
    best residual, or after 400 evaluations. Its arithmetic is SciPy's
    (``_nelder_mead``), so the fit equals ``scipy.optimize.minimize`` with
    those tolerances without importing scipy. A search stopped by the cap
    keeps its best vertex, which is judged like any other only by
    ``fit_threshold``. Use this when ``calibrate_azimuth`` at the nominal tilt
    raises PoorFit.
    """
    tilts = np.arange(0.0, 55.0 + 1e-9, _COARSE_STEP_DEG)
    azimuths = np.arange(0.0, 180.0, _COARSE_STEP_DEG)
    residuals = _residual_grid(chi, tilts[:, None], azimuths[None, :], calibration)
    # the first of tied minima in (tilt, azimuth) scan order, as a strict "<" scan
    i, j = np.unravel_index(np.argmin(residuals), residuals.shape)

    def objective(x):
        return weight_residual(chi, CrystalOrientation(x[0], x[1]), calibration)

    x, fun = _nelder_mead(objective, [float(tilts[i]), float(azimuths[j])])
    tilt, az = float(x[0]), float(x[1]) % 180.0
    residual = float(fun)
    if residual > calibration.fit_threshold:
        raise PoorFit(
            f"joint orientation fit bottoms out at residual {residual:.4g} "
            f"(threshold {calibration.fit_threshold:g})"
        )
    return CrystalOrientation(tilt, az), residual


def normal_axis_angles(orientation: CrystalOrientation) -> np.ndarray:
    """Angles (degrees) between the film normal and the three cube axes."""
    normal_crystal = _frame(orientation.tilt_deg, orientation.azimuth_deg)[2]
    cosines = np.clip(np.abs(normal_crystal), -1.0, 1.0)
    return np.degrees(np.arccos(cosines))
