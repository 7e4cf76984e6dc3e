"""Jones calculus for the analyzer optics.

Conventions, fixed once for the whole package:

* Jones vectors are (e_H, e_V) in the lab frame, phase convention
  exp(-i w t), so right circular is (1, -i)/sqrt(2).
* A waveplate with its fast axis at angle theta from horizontal is
  J(theta) = R(theta) diag(1, exp(i phi)) R(-theta) with R the standard
  2D rotation and phi the retardance (pi/2 quarter-wave, pi half-wave).
* Each analyzer consists of a half-wave plate, then a quarter-wave plate,
  then a fixed horizontal polarizer, in that light order. The ket it
  selects is therefore w = J_HWP(h)^dag J_QWP(q)^dag |H>.

With these choices (qwp=0, hwp=0) selects H, (0, 45) selects V,
(0, 22.5) selects D, (0, 67.5) selects A and (45, 0) selects R.
"""

from __future__ import annotations

import numpy as np

H = np.array([1.0, 0.0], dtype=complex)
V = np.array([0.0, 1.0], dtype=complex)
D = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2)
A = np.array([1.0, -1.0], dtype=complex) / np.sqrt(2)
R = np.array([1.0, -1.0j], dtype=complex) / np.sqrt(2)
L = np.array([1.0, 1.0j], dtype=complex) / np.sqrt(2)

#: analyzer waveplate angles (qwp_deg, hwp_deg) selecting the named kets
ANALYZER_ANGLES = {
    "H": (0.0, 0.0),
    "V": (0.0, 45.0),
    "D": (0.0, 22.5),
    "A": (0.0, 67.5),
    "R": (45.0, 0.0),
}


def rot2(theta_rad: float) -> np.ndarray:
    c, s = np.cos(theta_rad), np.sin(theta_rad)
    return np.array([[c, -s], [s, c]])


def waveplate(theta_deg: float, retardance_rad: float) -> np.ndarray:
    """Jones matrix of a waveplate with fast axis at theta from horizontal."""
    th = np.radians(theta_deg)
    ret = np.diag([1.0, np.exp(1j * retardance_rad)])
    return rot2(th) @ ret @ rot2(-th)


def qwp(theta_deg: float) -> np.ndarray:
    return waveplate(theta_deg, np.pi / 2)


def hwp(theta_deg: float) -> np.ndarray:
    return waveplate(theta_deg, np.pi)


def analyzer_ket(qwp_deg: float, hwp_deg: float) -> np.ndarray:
    """Ket selected by the HWP -> QWP -> horizontal-polarizer chain.

    The detection amplitude for a photon in state |psi> is
    <H| J_QWP J_HWP |psi>, so the selected ket is the Hermitian adjoint
    chain applied to |H>.
    """
    w = hwp(hwp_deg).conj().T @ qwp(qwp_deg).conj().T @ H
    return w / np.linalg.norm(w)


def pump_ket(angle_deg: float) -> np.ndarray:
    """Linear pump polarization at angle from horizontal (H = 0, V = 90)."""
    th = np.radians(angle_deg)
    return np.array([np.cos(th), np.sin(th)], dtype=complex)


def two_photon_projector(xi, eta) -> np.ndarray:
    """Qutrit ket selected by analyzers xi (arm A) and eta (arm B).

    In the symmetric two-photon basis (|2H>, |1H 1V>, |2V>), the detection
    amplitude of state C for analyzers xi, eta is <w|C> with

        w = (sqrt(2) xi_H eta_H, xi_H eta_V + xi_V eta_H, sqrt(2) xi_V eta_V)*

    The sqrt(2) factors come from bosonic mode algebra: removing two photons
    from a doubly occupied mode contributes sqrt(2!).
    """
    xi = np.asarray(xi, dtype=complex)
    eta = np.asarray(eta, dtype=complex)
    return np.array(
        [
            np.sqrt(2.0) * xi[0] * eta[0],
            xi[0] * eta[1] + xi[1] * eta[0],
            np.sqrt(2.0) * xi[1] * eta[1],
        ]
    )

