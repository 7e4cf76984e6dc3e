"""Beam-splitter post-selection and the CHSH quantity.

Stokes convention (documented once, used everywhere): with right circular
R = (1, -i)/sqrt(2),

    S1 = |H><H| - |V><V|   (Pauli z)
    S2 = |D><D| - |A><A|   (Pauli x)
    S3 = |R><R| - |L><L|   (equals -Pauli y under this phase convention)

The CHSH functional is normalized so that local realism bounds F <= 1 and
quantum mechanics bounds F <= sqrt(2) for the default settings.

What F needs of a set of settings, the four correlator operators and each
term's outcome projectors with their sign products sign(a) sign(b), is one
``_ChshTable``: built once per process for the default settings, per call for
custom ``ChshSettings``. A call draws the sixteen outcome counts with one
``poisson`` call, in the stream order of one draw per outcome. The Werner
line (``werner_state``) mixes the post-selected (0, 1, 0) with white noise.
"""

from __future__ import annotations

import functools
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


_CHSH_SIGNS = (+1, +1, +1, -1)


@dataclass(frozen=True)
class _ChshTable:
    """What the CHSH functional needs of a ``ChshSettings``, in the order
    <ab>, <a'b>, <ab'>, <a'b'> of its four terms (signs ``_CHSH_SIGNS``): the
    correlator operators kron(obs_a, obs_b), and each term's four outcome
    projectors kron(|a><a|, |b><b|) over the observables' eigenvectors with
    the sign product sign(a) sign(b) of each outcome."""

    correlators: np.ndarray  # (4, 4, 4)
    projectors: np.ndarray  # (4, 4, 4, 4): term, outcome, matrix
    sign_products: tuple  # per term, the four outcomes' sign(a) sign(b)


def _chsh_table(s: ChshSettings) -> _ChshTable:
    pairs = [(s.a, s.b), (s.a_prime, s.b), (s.a, s.b_prime), (s.a_prime, s.b_prime)]
    projectors, sign_products = [], []
    for obs_a, obs_b in pairs:
        va_vals, va_vecs = np.linalg.eigh(obs_a)
        vb_vals, vb_vecs = np.linalg.eigh(obs_b)
        projectors.append([np.kron(_dyad(va_vecs[:, ia]), _dyad(vb_vecs[:, ib]))
                           for ia in range(2) for ib in range(2)])
        sign_products.append(tuple(int(np.sign(va_vals[ia]) * np.sign(vb_vals[ib]))
                                   for ia in range(2) for ib in range(2)))
    table = _ChshTable(
        correlators=np.array([np.kron(obs_a, obs_b) for obs_a, obs_b in pairs]),
        projectors=np.array(projectors),
        sign_products=tuple(sign_products),
    )
    table.correlators.flags.writeable = table.projectors.flags.writeable = False
    return table


@functools.lru_cache(maxsize=1)
def _default_chsh_table() -> _ChshTable:
    return _chsh_table(default_chsh_settings())


def _table(settings: ChshSettings | None) -> _ChshTable:
    """The default settings' table (built once) when None, else one built now."""
    return _default_chsh_table() if settings is None else _chsh_table(settings)


def chsh_value(state_or_rho, settings: ChshSettings | None = None) -> float:
    """F = |<ab> + <a'b> + <ab'> - <a'b'>| / 2.

    Local realism gives F <= 1; the default settings reach F = sqrt(2)
    on the post-selected state of the orthogonal pair.
    """
    rho = _as_rho4(state_or_rho)
    table = _table(settings)
    terms = np.real(np.trace(rho @ table.correlators, axis1=-2, axis2=-1))
    f = sum(sign * float(e) for sign, e in zip(_CHSH_SIGNS, terms))
    return abs(f) / 2.0


def werner_state(p: float) -> np.ndarray:
    """p |psi+><psi+| + (1 - p) I/4, with |psi+> the post-selected (0, 1, 0)."""
    if not 0.0 <= p <= 1.0:
        raise InvalidState(f"mixing parameter {p} outside [0, 1]")
    base = split_postselect(np.array([0.0, 1.0, 0.0])).amplitudes
    return p * np.outer(base, base.conj()) + (1.0 - p) * np.eye(4) / 4.0


def _correlator_from_counts(sign_products, counts):
    num = sum(s * n for s, n in zip(sign_products, counts))
    den = sum(counts)
    if den <= 0:
        raise InvalidState("no counts recorded for a CHSH setting")
    e = num / den
    # Poisson propagation of E = sum(s*n)/sum(n)
    var = sum(((s - e) / den) ** 2 * n for s, n in zip(sign_products, counts))
    return e, np.sqrt(var)


def _outcome_draws(rho4, n_per_setting, seed, table: _ChshTable) -> list:
    """Per CHSH term, the Poisson-drawn counts of its four outcomes."""
    probs = np.maximum(np.real(np.trace(rho4 @ table.projectors, axis1=-2, axis2=-1)), 0.0)
    # one array draw takes the stream in the order of one scalar draw per outcome
    return np.random.default_rng(seed).poisson(probs * n_per_setting).tolist()


def simulate_chsh(state_or_rho, n_per_setting: float, seed, settings=None):
    """Simulated finite-statistics CHSH measurement.

    Returns (F, sigma_F, std_devs) where std_devs = (F - 1)/sigma_F is the
    number of standard deviations by which the local-realism bound F <= 1
    is exceeded; it is None when sigma_F = 0 (every correlator's counts fell
    in one outcome class). Counts are Poissonian per outcome, per setting.
    """
    rho = _as_rho4(state_or_rho)
    table = _table(settings)
    draws = _outcome_draws(rho, n_per_setting, seed, table)
    total, var = 0.0, 0.0
    for sign, sign_products, counts in zip(_CHSH_SIGNS, table.sign_products, draws):
        e, sig = _correlator_from_counts(sign_products, counts)
        total += sign * e
        var += sig**2
    f = abs(total) / 2.0
    sigma_f = np.sqrt(var) / 2.0
    return f, float(sigma_f), float((f - 1.0) / sigma_f) if sigma_f > 0.0 else None
