"""CHSH tests against an independent Pauli-matrix oracle."""

import numpy as np
import pytest

from spdcfilm.bell import (
    S1,
    S2,
    S3,
    STOKES,
    chsh_value,
    default_chsh_settings,
    simulate_chsh,
    split_postselect_rho,
)
from spdcfilm.errors import InvalidState
from spdcfilm.qutrit import depolarize

SEED = 20260819

# independent oracle basis: textbook Pauli matrices
PX = np.array([[0, 1], [1, 0]], dtype=complex)
PY = np.array([[0, -1j], [1j, 0]])
PZ = np.array([[1, 0], [0, -1]], dtype=complex)


def _dyad(ket):
    ket = np.asarray(ket, dtype=complex)
    return np.outer(ket, ket.conj())


def _random_ket(rng, dim):
    ket = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return ket / np.linalg.norm(ket)


def _psi_plus():
    """The post-selected orthogonal pair (0, 1, 0) as a 4x4 density matrix."""
    return split_postselect_rho(_dyad([0.0, 1.0, 0.0]))


def _werner(p):
    """p |psi+><psi+| + (1 - p) I/4."""
    return p * _psi_plus() + (1.0 - p) * np.eye(4) / 4.0


def test_stokes_operators_match_pauli_oracle():
    assert np.allclose(S1, PZ)
    assert np.allclose(S2, PX)
    # with right circular (1, -i)/sqrt(2), the circular Stokes operator is -Y
    assert np.allclose(S3, -PY)


def test_split_postselect_of_middle_state():
    # |psi+> = (|HV> + |VH>)/sqrt(2)
    assert np.allclose(_psi_plus(), _dyad([0.0, 1 / np.sqrt(2), 1 / np.sqrt(2), 0.0]))


def test_postselection_probability_is_state_independent():
    rng = np.random.default_rng(SEED)
    for _ in range(50):
        rho4 = split_postselect_rho(_dyad(_random_ket(rng, 3)))
        assert np.trace(rho4).real == pytest.approx(1.0)


def test_split_postselect_rho_matches_pure_path():
    rng = np.random.default_rng(SEED + 1)
    c1, c2, c3 = state = _random_ket(rng, 3)
    rho4 = split_postselect_rho(_dyad(state))
    # one photon per arm: (c1, c2, c3) -> (c1, c2/sqrt2, c2/sqrt2, c3)
    amp = np.array([c1, c2 / np.sqrt(2.0), c2 / np.sqrt(2.0), c3])
    assert np.allclose(rho4, _dyad(amp), atol=1e-12)
    assert np.trace(rho4).real == pytest.approx(1.0, abs=1e-12)


def test_psi_plus_correlators_oracle():
    rho4 = _psi_plus()

    def correlator(i, j):  # <S_i^A x S_j^B>
        return float(np.real(np.trace(rho4 @ np.kron(STOKES[i], STOKES[j]))))

    # oracle: <psi+|si x sj|psi+> = -1, +1, +1 on the diagonal (with S3 = -Y)
    assert correlator(1, 1) == pytest.approx(-1.0, abs=1e-12)
    assert correlator(2, 2) == pytest.approx(1.0, abs=1e-12)
    assert correlator(3, 3) == pytest.approx(1.0, abs=1e-12)
    assert correlator(1, 2) == pytest.approx(0.0, abs=1e-12)


def test_chsh_reaches_tsirelson_for_psi_plus():
    assert chsh_value(_psi_plus(), default_chsh_settings()) == pytest.approx(np.sqrt(2.0), abs=1e-10)


def test_chsh_oracle_from_raw_kron_algebra():
    # rebuild F for |psi+> directly from kron products, no package code
    psi = np.array([0.0, 1.0, 1.0, 0.0]) / np.sqrt(2.0)
    s = default_chsh_settings()
    f = 0.0
    for obs_a, obs_b, sign in [
        (s.a, s.b, 1), (s.a_prime, s.b, 1), (s.a, s.b_prime, 1), (s.a_prime, s.b_prime, -1),
    ]:
        f += sign * np.real(psi.conj() @ np.kron(obs_a, obs_b) @ psi)
    assert abs(f) / 2.0 == pytest.approx(chsh_value(_dyad(psi), s), abs=1e-12)


def test_werner_line():
    s = default_chsh_settings()
    assert chsh_value(_werner(1.0), s) == pytest.approx(np.sqrt(2.0), abs=1e-12)
    assert chsh_value(_werner(0.0), s) == pytest.approx(0.0, abs=1e-12)
    # linear in the mixing parameter
    assert chsh_value(_werner(0.96), s) == pytest.approx(0.96 * np.sqrt(2.0), abs=1e-12)
    assert chsh_value(_werner(0.96), s) == pytest.approx(1.3576, abs=1e-3)


def test_random_states_respect_quantum_bound():
    rng = np.random.default_rng(SEED + 2)
    for _ in range(300):
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        rho = a @ a.conj().T
        rho /= np.trace(rho).real
        assert chsh_value(rho, default_chsh_settings()) <= np.sqrt(2.0) + 1e-9


def test_chsh_covariant_under_shared_rotation():
    # rotating the state and the analyzer observables together re-labels
    # the Bloch axes and must leave the CHSH value untouched; rotating the
    # state alone does not (the triplet manifold mixes psi+ with phi-)
    from spdcfilm.bell import ChshSettings

    rng = np.random.default_rng(SEED + 3)
    psi = np.array([0.0, 1.0, 1.0, 0.0]) / np.sqrt(2.0)
    base = default_chsh_settings()
    for theta in rng.uniform(0.05, np.pi / 2, 20):
        u = np.array(
            [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]],
            dtype=complex,
        )
        rotated = _dyad(np.kron(u, u) @ psi)
        co = ChshSettings(
            a=u @ base.a @ u.conj().T,
            a_prime=u @ base.a_prime @ u.conj().T,
            b=u @ base.b @ u.conj().T,
            b_prime=u @ base.b_prime @ u.conj().T,
        )
        assert chsh_value(rotated, co) == pytest.approx(np.sqrt(2.0), abs=1e-10)
        # fixed settings degrade as sqrt(2) |cos 4 theta|
        assert chsh_value(rotated, base) == pytest.approx(
            np.sqrt(2.0) * abs(np.cos(4 * theta)), abs=1e-10
        )


def test_simulated_chsh_converges():
    rho4 = split_postselect_rho(depolarize(np.array([0.0, 1.0, 0.0], dtype=complex), 0.04))
    exact = chsh_value(rho4, default_chsh_settings())
    f, sigma, nsig = simulate_chsh(rho4, 200000, np.random.default_rng(SEED),
                                default_chsh_settings())
    assert sigma < 0.01
    assert f == pytest.approx(exact, abs=4 * sigma)
    assert nsig > 30


def test_simulated_chsh_is_seeded():
    rho4 = split_postselect_rho(depolarize(np.array([0.0, 1.0, 0.0], dtype=complex), 0.04))
    s = default_chsh_settings()

    def simulated(seed):
        return simulate_chsh(rho4, 500, np.random.default_rng(seed), s)

    assert simulated(42) == simulated(42)
    assert simulated(42) != simulated(43)


def _reference_terms(s):
    return [(s.a, s.b, 1), (s.a_prime, s.b, 1), (s.a, s.b_prime, 1), (s.a_prime, s.b_prime, -1)]


def _reference_correlator(counts):
    """E and its Poisson sigma from a {(sign a, sign b): count} dict; outcomes
    that share a key were added up before."""
    num = sum(sa * sb * n for (sa, sb), n in counts.items())
    den = sum(counts.values())
    if den <= 0:
        raise InvalidState("no counts recorded for a CHSH setting")
    e = num / den
    var = sum(((sa * sb - e) / den) ** 2 * n for (sa, sb), n in counts.items())
    return e, np.sqrt(var)


def _reference_setting_counts(rho, obs_a, obs_b, n_per_setting, rng):
    """The scalar loop the outcome table replaces: one kron projector, one
    trace and one Poisson draw per outcome of one setting pair. Returns the
    draws in outcome order and their counts merged by (sign a, sign b) key."""
    va_vals, va_vecs = np.linalg.eigh(obs_a)
    vb_vals, vb_vecs = np.linalg.eigh(obs_b)
    draws, counts = [], {}
    for ia in range(2):
        for ib in range(2):
            proj = np.kron(np.outer(va_vecs[:, ia], va_vecs[:, ia].conj()),
                           np.outer(vb_vecs[:, ib], vb_vecs[:, ib].conj()))
            prob = max(float(np.real(np.trace(rho @ proj))), 0.0)
            key = (int(np.sign(va_vals[ia])), int(np.sign(vb_vals[ib])))
            draws.append(rng.poisson(prob * n_per_setting))
            counts[key] = counts.get(key, 0.0) + draws[-1]
    return draws, counts


def _reference_simulate_chsh(rho, n_per_setting, seed, settings):
    rng = np.random.default_rng(seed)
    setting_draws, total, var = [], 0.0, 0.0
    for obs_a, obs_b, sign in _reference_terms(settings):
        draws, counts = _reference_setting_counts(rho, obs_a, obs_b, n_per_setting, rng)
        setting_draws.append(draws)
        e, sig = _reference_correlator(counts)
        total += sign * e
        var += sig**2
    sigma_f = np.sqrt(var) / 2.0
    return setting_draws, abs(total) / 2.0, float(sigma_f)


def _rotated_settings(rng):
    from spdcfilm.bell import ChshSettings

    u = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))[0]
    base = default_chsh_settings()
    return ChshSettings(*(u @ m @ u.conj().T for m in (base.a, base.a_prime, base.b, base.b_prime)))


def test_chsh_outcome_table_matches_scalar_reference():
    from spdcfilm.bell import ChshSettings, _outcome_draws

    rng = np.random.default_rng(SEED + 4)
    custom = _rotated_settings(rng)
    base = default_chsh_settings()
    # a = identity: both its outcomes read +1, so the reference merges their counts
    merged = ChshSettings(np.eye(2, dtype=complex), base.a_prime, base.b, base.b_prime)
    for seed in range(200):
        a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        rho4 = split_postselect_rho(a @ a.conj().T / np.trace(a @ a.conj().T).real)
        for settings in (base, custom, merged):
            draws, f, sigma_f = _reference_simulate_chsh(rho4, 500, seed, settings)
            assert _outcome_draws(rho4, 500, np.random.default_rng(seed), settings) == draws
            if settings is merged:
                # the merge only reorders the sums
                f_table, sigma_table = simulate_chsh(rho4, 500, np.random.default_rng(seed),
                                                     settings)[:2]
                assert f_table == pytest.approx(f, rel=1e-12, abs=0.0)
                assert sigma_table == pytest.approx(sigma_f, rel=1e-12, abs=0.0)
            else:
                # bit for bit: the same draws in the same arithmetic
                simulated = simulate_chsh(rho4, 500, np.random.default_rng(seed), settings)
                assert simulated[:2] == (f, sigma_f)
            expected = sum(sign * np.real(np.trace(rho4 @ np.kron(obs_a, obs_b)))
                           for obs_a, obs_b, sign in _reference_terms(settings))
            assert chsh_value(rho4, settings) == pytest.approx(abs(expected) / 2.0, abs=1e-14)


def test_setting_without_counts_raises():
    # one pair per setting: at these seeds some setting records no coincidence
    rho4 = split_postselect_rho(depolarize(np.array([0.0, 1.0, 0.0], dtype=complex), 0.04))
    for seed in range(4):
        with pytest.raises(InvalidState, match="no counts recorded for a CHSH setting"):
            simulate_chsh(rho4, 1, np.random.default_rng(seed), default_chsh_settings())


def test_default_chsh_table_is_built_once_and_read_only():
    table = default_chsh_settings()
    assert default_chsh_settings() is table
    assert table.correlators.shape == (4, 4, 4) and table.projectors.shape == (4, 4, 4, 4)
    for shared in (table.correlators, table.projectors):
        with pytest.raises(ValueError):
            shared[0, 0, 0] = 0.0
