"""Entanglement and purity measures for the two-photon polarization qutrit.

Basis order everywhere: (|2>_H |0>_V, |1>_H |1>_V, |0>_H |2>_V).
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidDensityMatrix, NotNormalized, OutOfRange

NORM_TOL = 1e-9  # a valid ket's norm is 1 to within this
EIG_FLOOR = -1e-9  # no eigenvalue of a valid density matrix lies below this
GAP_TOL = 1e-9  # top two eigenvalues closer than this: no dominant eigenstate


def check_state(state, dim: int = 3) -> np.ndarray:
    """Validate shape (dim,) and unit norm (to NORM_TOL, 1e-9) of a ket."""
    state = np.asarray(state, dtype=complex)
    if state.shape != (dim,):
        raise NotNormalized(f"expected a {dim}-component state, got shape {state.shape}")
    norm = np.linalg.norm(state)
    if abs(norm - 1.0) > NORM_TOL:
        raise NotNormalized(f"state norm {norm:.6e} differs from 1 beyond {NORM_TOL:g}")
    return state


def check_density_matrix(rho) -> np.ndarray:
    """Validate shape (3 x 3), hermiticity (1e-10), unit trace (1e-10), PSD (-1e-9)."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (3, 3):
        raise InvalidDensityMatrix(f"expected 3x3, got {rho.shape}")
    _density_eigh(rho[None], None)
    return rho


def _density_eigh(rhos: np.ndarray, spectrum):
    """``check_density_matrix``'s checks on every matrix of a (B, d, d) stack,
    then its stacked ``eigh``. The first failing matrix raises.

    A ``spectrum`` already known for the stack (``_project_psd``'s (vals,
    vecs)), when it is not None, stands in for the ``eigh``: its eigenvalues
    take the PSD check.
    """
    if np.max(np.abs(rhos - np.swapaxes(rhos.conj(), -1, -2))) > 1e-10:
        raise InvalidDensityMatrix("matrix is not Hermitian to 1e-10")
    traces = np.real(np.trace(rhos, axis1=-2, axis2=-1))
    off = np.abs(traces - 1.0) > 1e-10
    if np.any(off):
        raise InvalidDensityMatrix(f"trace {traces[off][0]!r} is not 1 to 1e-10")
    vals, vecs = np.linalg.eigh(rhos) if spectrum is None else spectrum
    if np.min(vals[:, 0]) < EIG_FLOOR:
        raise InvalidDensityMatrix(f"matrix has an eigenvalue below {EIG_FLOOR:g}")
    return vals, vecs


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
    return float(_concurrence(check_state(state)))


def _concurrence(c: np.ndarray) -> np.ndarray:
    """Concurrence of each normalized ket along the last axis."""
    return np.abs(2.0 * c[..., 0] * c[..., 2] - c[..., 1] ** 2)


def schmidt_number(concurrence_value: float) -> float:
    """K = 2 / (2 - C^2); maps C in [0,1] onto [1,2] monotonically."""
    c = float(concurrence_value)
    if not 0.0 <= c <= 1.0 + 1e-12:
        raise OutOfRange(f"concurrence {c} outside [0, 1]")
    return float(_schmidt_number(c))


def _schmidt_number(c):
    """K(C) elementwise, without the range check; NaN stays NaN."""
    return 2.0 / (2.0 - np.minimum(c, 1.0) ** 2)


def purity(rho) -> float:
    """Tr(rho^2); 1 for pure states, 1/3 for the maximally mixed qutrit."""
    return float(_purity(check_density_matrix(rho)))


def _purity(rhos: np.ndarray) -> np.ndarray:
    """Tr(rho^2) of each matrix of a stack (or of one matrix)."""
    return np.real(np.trace(rhos @ rhos, axis1=-2, axis2=-1))


def _dominant(vals: np.ndarray, vecs: np.ndarray):
    """(phase-fixed top eigenvectors, top eigenvalues, degenerate mask) of a
    stacked ``eigh``.

    The largest-magnitude component of each eigenvector is rotated to be real
    and positive. The mask is set where the top two eigenvalues are closer
    than GAP_TOL (1e-9): the dominant direction is then undefined and
    pure-state measures must not be quoted for it.
    """
    vec = vecs[..., -1]
    k = np.argmax(np.abs(vec), axis=-1)[..., None]
    lead = np.take_along_axis(vec, k, axis=-1)
    vec = vec * (lead / np.abs(lead)).conj()
    # keep exact normalization after the phase rotation
    vec = vec / np.linalg.norm(vec, axis=-1, keepdims=True)
    return vec, vals[..., -1], vals[..., -1] - vals[..., -2] < GAP_TOL


def _state_measures(rhos: np.ndarray, spectrum) -> dict:
    """Measures of each state of a (B, 3, 3) stack, as (B, ...) arrays:
    weights, purity, and the dominant branch's concurrence, Schmidt number
    and weight, NaN where the top eigenvalue is degenerate. Validates the
    stack as ``check_density_matrix`` would each state.

    The dominant branch, the degeneracy test and the weight read the stack's
    ``eigh``, or the (vals, vecs) ``spectrum`` the caller already holds for
    it: the bootstrap passes ``_project_psd``'s, so each replicate is
    factorized once. A state of unknown spectrum takes a fresh ``eigh``.
    """
    vals, vecs = _density_eigh(rhos, spectrum=spectrum)
    top, top_weight, degenerate = _dominant(vals, vecs)
    c = np.where(degenerate, np.nan, _concurrence(top))
    return {
        "weights": np.real(np.diagonal(rhos, axis1=-2, axis2=-1)),
        "purity": _purity(rhos),
        "concurrence": c,
        "schmidt_number": _schmidt_number(c),
        "dominant_weight": np.where(degenerate, np.nan, top_weight),
    }


def concurrence_bounds(weights) -> tuple[float, float]:
    """(min, max) of concurrence over all phases compatible with the weights.

    Writing c = (sqrt(w1) e^{i p1}, sqrt(w2) e^{i p2}, sqrt(w3) e^{i p3}),
    the concurrence depends on the phases only through
    delta = 2 p2 - p1 - p3:

        C(delta) = | 2 sqrt(w1 w3) - w2 e^{i delta} |

    A magnitude-only measurement therefore bounds C to the closed interval
    [|2 sqrt(w1 w3) - w2|, 2 sqrt(w1 w3) + w2], reached at delta = 0 and pi.
    """
    w1, w2, w3 = (float(w) for w in weights)
    a = 2.0 * float(np.sqrt(w1 * w3))
    return abs(a - w2), a + w2
