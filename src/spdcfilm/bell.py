"""Beam-splitter post-selection and the CHSH quantity.

Stokes convention (documented once, used everywhere): with right circular
R = (1, -i)/sqrt(2),

    S1 = |H><H| - |V><V|   (Pauli z)
    S2 = |D><D| - |A><A|   (Pauli x)
    S3 = |R><R| - |L><L|   (equals -Pauli y under this phase convention)

The CHSH functional is normalized so that local realism bounds F <= 1 and
quantum mechanics bounds F <= sqrt(2) for the default settings.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidState
from .polarization import A as KET_A
from .polarization import D as KET_D
from .polarization import H as KET_H
from .polarization import L as KET_L
from .polarization import R as KET_R
from .polarization import V as KET_V
from .qutrit import check_density_matrix, check_state

_SQRT2 = np.sqrt(2.0)

# isometry (c1, c2, c3) -> (c1, c2/sqrt2, c2/sqrt2, c3); L^T L = I
_SPLIT_ISOMETRY = np.array(
    [
        [1.0, 0.0, 0.0],
        [0.0, 1.0 / np.sqrt(2.0), 0.0],
        [0.0, 1.0 / np.sqrt(2.0), 0.0],
        [0.0, 0.0, 1.0],
    ]
)


def _dyad(k):
    return np.outer(k, k.conj())


S1 = _dyad(KET_H) - _dyad(KET_V)
S2 = _dyad(KET_D) - _dyad(KET_A)
S3 = _dyad(KET_R) - _dyad(KET_L)
STOKES = {1: S1, 2: S2, 3: S3}


@dataclass(frozen=True)
class TwoQubitState:
    """Post-selected two-qubit state over (HH, HV, VH, VV)."""

    amplitudes: np.ndarray
    postselection_probability: float


def split_postselect(state) -> TwoQubitState:
    """Send the qutrit through a 50/50 splitter, keep one photon per arm.

    Expanding the two-photon state over output modes (A, B) of the
    splitter and keeping the terms with exactly one photon in each arm
    gives amplitudes proportional to (c1, c2/sqrt(2), c2/sqrt(2), c3).
    The total weight of those terms is 1/2 for every input state: each
    of the two photons picks an output independently, so "both split"
    carries probability 1/2 regardless of polarization.
    """
    amp = _SPLIT_ISOMETRY @ check_state(state)
    return TwoQubitState(amplitudes=amp / np.linalg.norm(amp), postselection_probability=0.5)


def split_postselect_rho(rho) -> np.ndarray:
    """Mixed-state splitter post-selection: rho4 = L rho3 L^T.

    L is the isometry taking (c1, c2, c3) to (c1, c2/sqrt2, c2/sqrt2, c3);
    L^T L = I, so the output trace equals the input trace and the mode
    post-selection probability stays 1/2 for every input.
    """
    rho = check_density_matrix(rho)
    return _SPLIT_ISOMETRY @ rho @ _SPLIT_ISOMETRY.T


@dataclass(frozen=True)
class ChshSettings:
    """Four dichotomic +-1 observables as 2x2 Hermitian matrices."""

    a: np.ndarray
    a_prime: np.ndarray
    b: np.ndarray
    b_prime: np.ndarray


def default_chsh_settings() -> ChshSettings:
    """a = S1, a' = -S2, b = (S1+S2)/sqrt(2), b' = (S1-S2)/sqrt(2)."""
    return ChshSettings(
        a=S1,
        a_prime=-S2,
        b=(S1 + S2) / _SQRT2,
        b_prime=(S1 - S2) / _SQRT2,
    )


def _as_rho4(state_or_rho) -> np.ndarray:
    """Validated 4x4 density matrix of a two-qubit state or density matrix."""
    if isinstance(state_or_rho, TwoQubitState):
        state_or_rho = state_or_rho.amplitudes
    m = np.asarray(state_or_rho, dtype=complex)
    if m.ndim == 1:  # a ket
        m = np.outer(m, m.conj())
    return check_density_matrix(m, dim=4)


def expectation(state_or_rho, obs_a, obs_b) -> float:
    rho = _as_rho4(state_or_rho)
    return float(np.real(np.trace(rho @ np.kron(obs_a, obs_b))))


def correlator_table(state_or_rho, i: int, j: int) -> float:
    """<S_i^A x S_j^B> for i, j in {1, 2, 3}."""
    return expectation(state_or_rho, STOKES[i], STOKES[j])


def _chsh_terms(settings: ChshSettings | None) -> list:
    """(obs_a, obs_b, sign) of the four correlators in F, in the order
    <ab>, <a'b>, <ab'>, <a'b'>; the default settings when None."""
    s = default_chsh_settings() if settings is None else settings
    return [
        (s.a, s.b, +1),
        (s.a_prime, s.b, +1),
        (s.a, s.b_prime, +1),
        (s.a_prime, s.b_prime, -1),
    ]


def chsh_value(state_or_rho, settings: ChshSettings | None = None) -> float:
    """F = |<ab> + <a'b> + <ab'> - <a'b'>| / 2.

    Local realism gives F <= 1; the default settings reach F = sqrt(2)
    on the post-selected state of the orthogonal pair.
    """
    rho = _as_rho4(state_or_rho)
    f = sum(sign * expectation(rho, a, b) for a, b, sign in _chsh_terms(settings))
    return abs(f) / 2.0


def werner_state(p: float, base=None) -> np.ndarray:
    """p |psi><psi| + (1 - p) I/4; default base is the post-selected (0,1,0)."""
    if not 0.0 <= p <= 1.0:
        raise InvalidState(f"mixing parameter {p} outside [0, 1]")
    if base is None:
        base = split_postselect(np.array([0.0, 1.0, 0.0])).amplitudes
    base = np.asarray(base, dtype=complex)
    return p * np.outer(base, base.conj()) + (1.0 - p) * np.eye(4) / 4.0


def _setting_counts(rho, obs_a, obs_b, n_per_setting, rng):
    """Poisson-draw the four +-1 x +-1 outcome counts for one setting pair."""
    va_vals, va_vecs = np.linalg.eigh(obs_a)
    vb_vals, vb_vecs = np.linalg.eigh(obs_b)
    counts = {}
    for ia in range(2):
        for ib in range(2):
            proj = np.kron(_dyad(va_vecs[:, ia]), _dyad(vb_vecs[:, ib]))
            prob = max(float(np.real(np.trace(rho @ proj))), 0.0)
            key = (int(np.sign(va_vals[ia])), int(np.sign(vb_vals[ib])))
            counts[key] = counts.get(key, 0.0) + rng.poisson(prob * n_per_setting)
    return counts


def _correlator_from_counts(counts):
    num = sum(sa * sb * n for (sa, sb), n in counts.items())
    den = sum(counts.values())
    if den <= 0:
        raise InvalidState("no counts recorded for a CHSH setting")
    e = num / den
    # Poisson propagation of E = sum(s*n)/sum(n)
    var = sum(((sa * sb - e) / den) ** 2 * n for (sa, sb), n in counts.items())
    return e, np.sqrt(var)


def simulate_chsh(state_or_rho, n_per_setting: float, seed, settings=None):
    """Simulated finite-statistics CHSH measurement.

    Returns (F, sigma_F, std_devs) where std_devs = (F - 1)/sigma_F is the
    number of standard deviations by which the local-realism bound F <= 1
    is exceeded. Counts are Poissonian per outcome, per setting.
    """
    rho = _as_rho4(state_or_rho)
    rng = np.random.default_rng(seed)
    total, var = 0.0, 0.0
    for obs_a, obs_b, sign in _chsh_terms(settings):
        e, sig = _correlator_from_counts(
            _setting_counts(rho, obs_a, obs_b, n_per_setting, rng)
        )
        total += sign * e
        var += sig**2
    f = abs(total) / 2.0
    sigma_f = np.sqrt(var) / 2.0
    return f, float(sigma_f), float((f - 1.0) / sigma_f)
