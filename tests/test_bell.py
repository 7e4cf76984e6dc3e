"""CHSH tests against an independent Pauli-matrix oracle."""

import numpy as np
import pytest

from spdcfilm import (
    chsh_value,
    correlator_table,
    default_chsh_settings,
    simulate_chsh,
    split_postselect,
    split_postselect_rho,
    werner_state,
)
from spdcfilm.bell import S1, S2, S3
from spdcfilm.errors import InvalidDensityMatrix, InvalidState, NotNormalized
from spdcfilm.qutrit import depolarize

SEED = 20260819

# independent oracle basis: textbook Pauli matrices
PX = np.array([[0, 1], [1, 0]], dtype=complex)
PY = np.array([[0, -1j], [1j, 0]])
PZ = np.array([[1, 0], [0, -1]], dtype=complex)


def test_stokes_operators_match_pauli_oracle():
    assert np.allclose(S1, PZ)
    assert np.allclose(S2, PX)
    # with right circular (1, -i)/sqrt(2), the circular Stokes operator is -Y
    assert np.allclose(S3, -PY)


def test_split_postselect_of_middle_state():
    two = split_postselect(np.array([0.0, 1.0, 0.0]))
    assert two.postselection_probability == 0.5
    # |psi+> = (|HV> + |VH>)/sqrt(2)
    assert np.allclose(two.amplitudes, [0.0, 1 / np.sqrt(2), 1 / np.sqrt(2), 0.0])


def test_postselection_probability_is_state_independent():
    rng = np.random.default_rng(SEED)
    for _ in range(50):
        state = rng.normal(size=3) + 1j * rng.normal(size=3)
        state /= np.linalg.norm(state)
        two = split_postselect(state)
        assert two.postselection_probability == 0.5
        assert np.linalg.norm(two.amplitudes) == pytest.approx(1.0)


def test_split_postselect_rho_matches_pure_path():
    rng = np.random.default_rng(SEED + 1)
    state = rng.normal(size=3) + 1j * rng.normal(size=3)
    state /= np.linalg.norm(state)
    rho4 = split_postselect_rho(np.outer(state, state.conj()))
    amp = split_postselect(state).amplitudes
    assert np.allclose(rho4, np.outer(amp, amp.conj()), atol=1e-12)
    assert np.trace(rho4).real == pytest.approx(1.0, abs=1e-12)


def test_psi_plus_correlators_oracle():
    psi = split_postselect(np.array([0.0, 1.0, 0.0]))
    # oracle: <psi+|si x sj|psi+> = +1, +1, -1 on the diagonal (with S3 = -Y)
    assert correlator_table(psi, 1, 1) == pytest.approx(-1.0, abs=1e-12)
    assert correlator_table(psi, 2, 2) == pytest.approx(1.0, abs=1e-12)
    assert correlator_table(psi, 3, 3) == pytest.approx(1.0, abs=1e-12)
    assert correlator_table(psi, 1, 2) == pytest.approx(0.0, abs=1e-12)


def test_chsh_reaches_tsirelson_for_psi_plus():
    psi = split_postselect(np.array([0.0, 1.0, 0.0]))
    assert chsh_value(psi) == pytest.approx(np.sqrt(2.0), abs=1e-10)


def test_chsh_oracle_from_raw_kron_algebra():
    # rebuild F for |psi+> directly from kron products, no package code
    psi = np.array([0.0, 1.0, 1.0, 0.0]) / np.sqrt(2.0)
    s = default_chsh_settings()
    f = 0.0
    for obs_a, obs_b, sign in [
        (s.a, s.b, 1), (s.a_prime, s.b, 1), (s.a, s.b_prime, 1), (s.a_prime, s.b_prime, -1),
    ]:
        f += sign * np.real(psi.conj() @ np.kron(obs_a, obs_b) @ psi)
    assert abs(f) / 2.0 == pytest.approx(chsh_value(psi), abs=1e-12)


def test_two_qubit_inputs_validated_as_density_matrices():
    psi = split_postselect(np.array([0.0, 1.0, 0.0])).amplitudes
    bad = [
        2.0 * psi,  # unnormalized ket: its dyad has trace 4
        np.diag([1.0, 0.5, 0.0, -0.5]),  # unit trace, not PSD
        np.triu(np.ones((4, 4))) / 4.0,  # not Hermitian
        np.eye(3) / 3.0,  # wrong shape
    ]
    for m in bad:
        with pytest.raises(InvalidDensityMatrix):
            chsh_value(m)
        with pytest.raises(InvalidDensityMatrix):
            simulate_chsh(m, 100, seed=SEED)
    with pytest.raises(NotNormalized):
        split_postselect(np.array([0.0, 2.0, 0.0]))


def test_werner_line():
    assert chsh_value(werner_state(1.0)) == pytest.approx(np.sqrt(2.0), abs=1e-12)
    assert chsh_value(werner_state(0.0)) == pytest.approx(0.0, abs=1e-12)
    # linear in the mixing parameter
    assert chsh_value(werner_state(0.96)) == pytest.approx(0.96 * np.sqrt(2.0), abs=1e-12)
    assert chsh_value(werner_state(0.96)) == pytest.approx(1.3576, abs=1e-3)
    with pytest.raises(InvalidState):
        werner_state(1.2)


def test_random_states_respect_quantum_bound():
    rng = np.random.default_rng(SEED + 2)
    for _ in range(300):
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        rho = a @ a.conj().T
        rho /= np.trace(rho).real
        assert chsh_value(rho) <= np.sqrt(2.0) + 1e-9


def test_chsh_covariant_under_shared_rotation():
    # rotating the state and the analyzer observables together re-labels
    # the Bloch axes and must leave the CHSH value untouched; rotating the
    # state alone does not (the triplet manifold mixes psi+ with phi-)
    from spdcfilm.bell import ChshSettings

    rng = np.random.default_rng(SEED + 3)
    psi = split_postselect(np.array([0.0, 1.0, 0.0])).amplitudes
    base = default_chsh_settings()
    for theta in rng.uniform(0.05, np.pi / 2, 20):
        u = np.array(
            [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]],
            dtype=complex,
        )
        rotated = np.kron(u, u) @ psi
        co = ChshSettings(
            a=u @ base.a @ u.conj().T,
            a_prime=u @ base.a_prime @ u.conj().T,
            b=u @ base.b @ u.conj().T,
            b_prime=u @ base.b_prime @ u.conj().T,
        )
        assert chsh_value(rotated, co) == pytest.approx(np.sqrt(2.0), abs=1e-10)
        # fixed settings degrade as sqrt(2) |cos 4 theta|
        assert chsh_value(rotated) == pytest.approx(
            np.sqrt(2.0) * abs(np.cos(4 * theta)), abs=1e-10
        )


def test_simulated_chsh_converges():
    rho4 = split_postselect_rho(depolarize(np.array([0.0, 1.0, 0.0], dtype=complex), 0.04))
    exact = chsh_value(rho4)
    f, sigma, nsig = simulate_chsh(rho4, 200000, seed=SEED)
    assert sigma < 0.01
    assert f == pytest.approx(exact, abs=4 * sigma)
    assert nsig > 30


def test_simulated_chsh_is_seeded():
    rho4 = split_postselect_rho(depolarize(np.array([0.0, 1.0, 0.0], dtype=complex), 0.04))
    assert simulate_chsh(rho4, 500, seed=42) == simulate_chsh(rho4, 500, seed=42)
    assert simulate_chsh(rho4, 500, seed=42) != simulate_chsh(rho4, 500, seed=43)
