"""Qutrit state checks and entanglement measures."""

import numpy as np
import pytest

from spdcfilm.errors import InvalidDensityMatrix, NotNormalized, OutOfRange
from spdcfilm.qutrit import (
    _check_spectrum,
    _dominant,
    check_density_matrix,
    check_state,
    concurrence,
    concurrence_bounds,
    depolarize,
    pure_density_matrix,
    purity,
    schmidt_number,
)
from spdcfilm.tomography import point_measures

SEED = 20260819


def test_concurrence_anchor_states():
    assert concurrence(np.array([0.0, 1.0, 0.0])) == pytest.approx(1.0, abs=1e-15)
    assert concurrence(np.array([1.0, 0.0, 0.0])) == 0.0
    # equal symmetric superposition of the extreme terms
    plus = np.array([1.0, 0.0, 1.0]) / np.sqrt(2)
    assert concurrence(plus) == pytest.approx(1.0, abs=1e-15)
    # sign matters: the antisymmetric combination is also maximally entangled
    minus = np.array([1.0, 0.0, -1.0]) / np.sqrt(2)
    assert concurrence(minus) == pytest.approx(1.0, abs=1e-15)


def test_schmidt_number_anchors():
    assert schmidt_number(1.0) == pytest.approx(2.0)
    assert schmidt_number(0.0) == pytest.approx(1.0)
    assert schmidt_number(0.98) == pytest.approx(1.9238, abs=1e-4)
    assert schmidt_number(0.40) == pytest.approx(1.0870, abs=1e-4)
    with pytest.raises(OutOfRange):
        schmidt_number(1.2)
    with pytest.raises(OutOfRange):
        schmidt_number(-0.1)


def test_concurrence_range_property():
    rng = np.random.default_rng(SEED)
    for _ in range(300):
        state = rng.normal(size=3) + 1j * rng.normal(size=3)
        state /= np.linalg.norm(state)
        c = concurrence(state)
        assert 0.0 <= c <= 1.0 + 1e-12
        # global phase invariance
        assert concurrence(state * np.exp(1j * rng.uniform(0, 2 * np.pi))) == pytest.approx(c)


def test_depolarize_and_purity():
    state = np.array([0.0, 1.0, 0.0], dtype=complex)
    rho = depolarize(state, 0.03)
    check_density_matrix(rho)
    assert np.trace(rho).real == pytest.approx(1.0)
    assert purity(rho) == pytest.approx(0.9606, abs=1e-4)
    assert purity(pure_density_matrix(state)) == pytest.approx(1.0)
    with pytest.raises(OutOfRange):
        depolarize(state, 1.5)


def test_dominant_eigenstate_recovers_branch():
    state = np.array([0.1, 0.97, 0.22], dtype=complex)
    state /= np.linalg.norm(state)
    rho = depolarize(state, 0.05)
    vals, vecs = np.linalg.eigh(rho)
    (top,), (weight,), (degenerate,) = _dominant(vals[None], vecs[None])
    assert abs(np.vdot(top, state)) == pytest.approx(1.0, abs=1e-10)
    # the phase fix: the largest-magnitude component is real and positive
    lead = top[np.argmax(np.abs(top))]
    assert lead.real > 0.0 and abs(lead.imag) <= 1e-15
    assert weight > 0.9 and not degenerate
    measures = point_measures(vals, vecs, "H")
    assert measures["concurrence"] == pytest.approx(concurrence(state), abs=1e-10)
    assert measures["dominant_weight"] == pytest.approx(weight, abs=1e-15)
    # a degenerate top has no dominant branch: its pure-state measures are undefined
    mixed = point_measures(*np.linalg.eigh(np.eye(3) / 3.0), "H")
    for key in ("concurrence", "schmidt_number", "dominant_weight"):
        assert mixed[key] is None
    assert mixed["purity"] == pytest.approx(1.0 / 3.0)


def test_phase_curve_interpolates_bounds():
    weights = np.array([0.25, 0.40, 0.35])
    deltas = np.linspace(0.0, np.pi, 101)
    # C(delta) = |2 sqrt(w1 w3) - w2 e^{i delta}| of a pure state with these weights
    curve = np.abs(2 * np.sqrt(weights[0] * weights[2]) - weights[1] * np.exp(1j * deltas))
    lo, hi = concurrence_bounds(weights)
    assert curve.max() == pytest.approx(hi, abs=1e-12)
    assert curve.min() == pytest.approx(lo, abs=1e-12)
    # endpoints: delta = 0 adds the middle weight coherently against the
    # geometric-mean term, delta = pi subtracts it
    assert curve[0] == pytest.approx(abs(2 * np.sqrt(0.25 * 0.35) - 0.40), abs=1e-12)
    assert curve[-1] == pytest.approx(2 * np.sqrt(0.25 * 0.35) + 0.40, abs=1e-12)


def test_validation_errors():
    with pytest.raises(NotNormalized):
        check_state(np.array([1.0, 1.0, 0.0]), 3)
    with pytest.raises(InvalidDensityMatrix):
        check_density_matrix(np.diag([0.7, 0.4, -0.1]))
    with pytest.raises(InvalidDensityMatrix):
        check_density_matrix(np.ones((3, 3)))  # hermitian but trace 3


def test_check_state_rejects_nan_and_infinite_components():
    for bad in ([np.nan, 1.0, 0.0], [np.inf, 0.0, 0.0], [1.0, 0.0, np.nan * 1j]):
        with pytest.raises(NotNormalized):
            check_state(np.array(bad), 3)
        with pytest.raises(NotNormalized):
            concurrence(np.array(bad))


def test_purity_rejects_nan_and_infinite_entries():
    for index, value in (((0, 1), np.nan), ((0, 0), np.nan), ((1, 2), np.inf)):
        rho = np.eye(3, dtype=complex) / 3.0
        rho[index] = rho[index[::-1]] = value
        with pytest.raises(InvalidDensityMatrix):
            check_density_matrix(rho)
        with pytest.raises(InvalidDensityMatrix):
            purity(rho)


def test_spectrum_check_rejects_nan_traces_and_eigenvalues():
    vals = np.tile([0.0, 0.25, 0.75], (3, 1))
    _check_spectrum(np.ones(3), vals)
    with pytest.raises(InvalidDensityMatrix, match="trace nan"):
        _check_spectrum(np.array([1.0, np.nan, 1.0]), vals)
    vals[2, 0] = np.nan  # the lowest eigenvalue of the last replicate
    with pytest.raises(InvalidDensityMatrix, match="eigenvalue below"):
        _check_spectrum(np.ones(3), vals)
