"""Entanglement and purity measures for the two-photon polarization qutrit.

Basis order everywhere: (|2>_H |0>_V, |1>_H |1>_V, |0>_H |2>_V).
"""

from __future__ import annotations

import numpy as np

from .errors import (
    DegenerateTop,
    InvalidDensityMatrix,
    NotNormalized,
    OutOfRange,
)


def check_state(state, tol: float = 1e-9, dim: int = 3) -> np.ndarray:
    """Validate shape (dim,) and unit norm (to ``tol``) of a ket."""
    state = np.asarray(state, dtype=complex)
    if state.shape != (dim,):
        raise NotNormalized(f"expected a {dim}-component state, got shape {state.shape}")
    norm = np.linalg.norm(state)
    if abs(norm - 1.0) > tol:
        raise NotNormalized(f"state norm {norm:.6e} differs from 1 beyond {tol:g}")
    return state


def check_density_matrix(rho, eig_tol: float = 1e-9, dim: int = 3) -> np.ndarray:
    """Validate shape (dim x dim), hermiticity (1e-10), unit trace (1e-10), PSD (-1e-9)."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (dim, dim):
        raise InvalidDensityMatrix(f"expected {dim}x{dim}, got {rho.shape}")
    if np.max(np.abs(rho - rho.conj().T)) > 1e-10:
        raise InvalidDensityMatrix("matrix is not Hermitian to 1e-10")
    if abs(np.trace(rho).real - 1.0) > 1e-10:
        raise InvalidDensityMatrix(f"trace {np.trace(rho).real!r} is not 1 to 1e-10")
    if np.min(np.linalg.eigvalsh(rho)) < -eig_tol:
        raise InvalidDensityMatrix("matrix has an eigenvalue below -1e-9")
    return rho


def pure_density_matrix(state) -> np.ndarray:
    state = check_state(state)
    return np.outer(state, state.conj())


def depolarize(state, epsilon: float) -> np.ndarray:
    """(1 - eps)|psi><psi| + eps I/3; eps in [0, 1]."""
    if not 0.0 <= epsilon <= 1.0:
        raise OutOfRange(f"depolarization {epsilon} outside [0, 1]")
    return (1.0 - epsilon) * pure_density_matrix(state) + epsilon * np.eye(3) / 3.0


def concurrence(state) -> float:
    """|2 c1 c3 - c2^2| for a normalized pure qutrit.

    0 for co-polarized pairs (1,0,0); 1 for the orthogonal pair (0,1,0).
    """
    c1, c2, c3 = check_state(state)
    return float(np.abs(2.0 * c1 * c3 - c2**2))


def schmidt_number(concurrence_value: float) -> float:
    """K = 2 / (2 - C^2); maps C in [0,1] onto [1,2] monotonically."""
    c = float(concurrence_value)
    if not 0.0 <= c <= 1.0 + 1e-12:
        raise OutOfRange(f"concurrence {c} outside [0, 1]")
    return 2.0 / (2.0 - min(c, 1.0) ** 2)


def purity(rho) -> float:
    """Tr(rho^2); 1 for pure states, 1/3 for the maximally mixed qutrit."""
    rho = check_density_matrix(rho)
    return float(np.real(np.trace(rho @ rho)))


def dominant_eigenstate(rho, gap_tol: float = 1e-9) -> tuple[np.ndarray, float]:
    """Eigenvector of the largest eigenvalue, with a deterministic phase.

    The largest-magnitude component is rotated to be real and positive.
    Raises DegenerateTop when the top two eigenvalues are closer than
    ``gap_tol``; the dominant direction is then undefined and pure-state
    measures must not be quoted for it.
    """
    rho = check_density_matrix(rho)
    vals, vecs = np.linalg.eigh(rho)
    if vals[-1] - vals[-2] < gap_tol:
        raise DegenerateTop(
            f"top eigenvalues {vals[-1]:.6g} and {vals[-2]:.6g} are degenerate"
        )
    vec = vecs[:, -1]
    k = int(np.argmax(np.abs(vec)))
    phase = vec[k] / np.abs(vec[k])
    vec = vec * phase.conj()
    # keep exact normalization after the phase rotation
    vec = vec / np.linalg.norm(vec)
    return vec, float(vals[-1])


def concurrence_phase_curve(weights, deltas_rad) -> np.ndarray:
    """Concurrence of a pure state with known weights and unknown phases.

    Writing c = (sqrt(w1) e^{i p1}, sqrt(w2) e^{i p2}, sqrt(w3) e^{i p3}),
    the concurrence depends on the phases only through
    delta = 2 p2 - p1 - p3:

        C(delta) = | 2 sqrt(w1 w3) - w2 e^{i delta} |

    A magnitude-only measurement therefore bounds C to the closed interval
    [|2 sqrt(w1 w3) - w2|, 2 sqrt(w1 w3) + w2]; this returns the curve on a
    grid of delta values.
    """
    w1, w2, w3 = (float(w) for w in weights)
    if min(w1, w2, w3) < -1e-12:
        raise OutOfRange("weights must be nonnegative")
    a = 2.0 * np.sqrt(w1 * w3)
    deltas = np.asarray(deltas_rad, dtype=float)
    return np.abs(a - w2 * np.exp(1j * deltas))


def concurrence_bounds(weights) -> tuple[float, float]:
    """(min, max) of concurrence over all phases compatible with the weights."""
    w1, w2, w3 = (float(w) for w in weights)
    a = 2.0 * np.sqrt(w1 * w3)
    return abs(a - w2), a + w2
