"""Jones-calculus and two-photon-projector tests.

The projector oracle rebuilds <w|psi> from first principles: expand the
two-photon state in Fock space over (H, V) modes and project both photons
onto the analyzer kets, tracking the bosonic sqrt(2) on double occupation.
"""

import numpy as np
import pytest

from spdcfilm.errors import NotNormalized
from spdcfilm.polarization import (
    ANALYZER_ANGLES,
    A,
    D,
    H,
    L,
    R,
    V,
    analyzer_ket,
    hwp,
    pump_ket,
    qwp,
    two_photon_projector,
)
from spdcfilm.qutrit import check_state, pure_density_matrix
from spdcfilm.tomography import forward_rates, named_protocol

SEED = 20260819


def _fock_amplitude(state, xi, eta):
    """Independent amplitude oracle from mode-operator algebra.

    amp = <0| E_eta E_xi |psi> with E_xi = conj(xi_H) a_H + conj(xi_V) a_V;
    the double-occupation terms pick up sqrt(2) from a a† |n> ladder factors:
    <0| a_H a_H (a_H†)^2 |0> / sqrt(2) = sqrt(2).
    """
    c1, c2, c3 = state
    return (
        c1 * np.sqrt(2) * np.conj(xi[0]) * np.conj(eta[0])
        + c2 * (np.conj(xi[0]) * np.conj(eta[1]) + np.conj(xi[1]) * np.conj(eta[0]))
        + c3 * np.sqrt(2) * np.conj(xi[1]) * np.conj(eta[1])
    )


def test_named_analyzer_settings():
    # (qwp, hwp) pairs with the polarizer last in light order
    cases = {
        "H": H,
        "V": V,
        "D": D,
        "A": A,
        "R": R,
    }
    for name, expected in cases.items():
        ket = analyzer_ket(*ANALYZER_ANGLES[name])
        overlap = abs(np.vdot(expected, ket))
        assert overlap == pytest.approx(1.0, abs=1e-12), name


def test_right_circular_phase_convention():
    ket = analyzer_ket(*ANALYZER_ANGLES["R"])
    # global phase removed by comparing the component ratio
    ratio = ket[1] / ket[0]
    assert ratio == pytest.approx(-1j, abs=1e-12)


def test_waveplates_are_unitary():
    rng = np.random.default_rng(SEED)
    for theta in rng.uniform(-90, 90, 25):
        for plate in (qwp(theta), hwp(theta)):
            assert np.allclose(plate @ plate.conj().T, np.eye(2), atol=1e-12)


def test_hwp_reflects_linear_polarization():
    # HWP at theta maps polarization angle phi to 2 theta - phi
    for theta, phi in [(22.5, 0.0), (45.0, 0.0), (10.0, 30.0)]:
        out = hwp(theta) @ pump_ket(phi)
        expected = pump_ket(2 * theta - phi)
        assert abs(abs(np.vdot(expected, out)) - 1.0) < 1e-12


def test_linear_analyzer_angles():
    for theta in (0.0, 45.0, 90.0, 135.0):
        ket = analyzer_ket(0.0, theta / 2)  # HWP at theta / 2 rotates H to linear theta
        assert abs(abs(np.vdot(pump_ket(theta), ket)) - 1.0) < 1e-12


def test_projector_matches_fock_oracle():
    rng = np.random.default_rng(SEED)
    for _ in range(200):
        state = rng.normal(size=3) + 1j * rng.normal(size=3)
        state /= np.linalg.norm(state)
        xi = rng.normal(size=2) + 1j * rng.normal(size=2)
        xi /= np.linalg.norm(xi)
        eta = rng.normal(size=2) + 1j * rng.normal(size=2)
        eta /= np.linalg.norm(eta)

        w = two_photon_projector(xi, eta)
        amp_package = np.vdot(w, state)
        amp_oracle = _fock_amplitude(state, xi, eta)
        assert abs(amp_package - amp_oracle) < 1e-12


def _rates(rho, pairs):
    """Coincidence rates of ``rho`` for the named analyzer pairs."""
    return forward_rates(rho, named_protocol(pairs), 1.0)


def test_projector_rate_on_pure_and_mixed():
    state = np.array([0.0, 1.0, 0.0], dtype=complex)
    # orthogonal diagonal analyzers null the middle component
    assert _rates(pure_density_matrix(state), ["DA"]) == pytest.approx([0.0], abs=1e-14)
    rho_mixed = np.eye(3) / 3.0
    # the isotropic mixture is invariant under any shared basis rotation:
    # parallel analyzers always see the bunched rate 2/3, crossed ones 1/3
    assert _rates(rho_mixed, ["HH", "DD", "RR"]) == pytest.approx([2.0 / 3.0] * 3, abs=1e-12)
    assert _rates(rho_mixed, ["HV", "DA"]) == pytest.approx([1.0 / 3.0] * 2, abs=1e-12)


def test_check_normalized_rejects():
    with pytest.raises(NotNormalized):
        check_state(np.array([1.0, 1.0]), dim=2)


def test_projector_circular_pair():
    # both photons right-circular on |2H>: |w1|^2 = 2 |1/2|^2 = 1/2
    w = two_photon_projector(R, R)
    assert abs(w[0]) ** 2 == pytest.approx(0.5, abs=1e-12)
