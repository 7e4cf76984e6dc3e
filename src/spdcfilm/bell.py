"""Beam-splitter post-selection and the CHSH quantity.

Stokes convention (documented once, used everywhere): with right circular
R = (1, -i)/sqrt(2),

    S1 = |H><H| - |V><V|   (Pauli z)
    S2 = |D><D| - |A><A|   (Pauli x)
    S3 = |R><R| - |L><L|   (equals -Pauli y under this phase convention)

The CHSH functional is normalized so that local realism bounds F <= 1 and
quantum mechanics bounds F <= sqrt(2) for the default settings.

What F needs of a set of settings, the four correlator operators and each
term's outcome projectors with their sign products sign(a) sign(b), a
``ChshSettings`` builds when it is made; every CHSH function takes the
settings, and ``default_chsh_settings()`` is one object per process. A call
draws the sixteen outcome counts from the ``numpy.random.Generator`` it is
given with one ``poisson`` call, in the stream order of one draw per outcome.

The functions take a density matrix the caller has checked: a run checks
each state once, where it enters (``experiment``). The split is an
isometry, so rho4 = L rho L^T is a valid state exactly when rho is.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import InvalidState
from .frozen import Record
from .histogram import check_poisson_mean
from .polarization import A as KET_A
from .polarization import D as KET_D
from .polarization import H as KET_H
from .polarization import L as KET_L
from .polarization import R as KET_R
from .polarization import V as KET_V

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


def split_postselect_rho(rho: np.ndarray) -> np.ndarray:
    """Splitter post-selection of a qutrit density matrix: rho4 = L rho L^T
    over (HH, HV, VH, VV).

    Sending the pair through a 50/50 splitter and keeping the terms with
    exactly one photon in each arm takes the amplitudes (c1, c2, c3) to ones
    proportional to (c1, c2/sqrt2, c2/sqrt2, c3); L is that isometry. Those
    terms weigh 1/2 for every input state (each photon picks an output
    independently), and L^T L = I, so rho4 keeps rho's unit trace.
    """
    return _SPLIT_ISOMETRY @ rho @ _SPLIT_ISOMETRY.T


_CHSH_SIGNS = (+1, +1, +1, -1)


@dataclass(eq=False, repr=False)
class ChshSettings(Record):
    """Four dichotomic +-1 observables as 2x2 Hermitian matrices, and what the
    CHSH functional needs of them, built read-only when they are made: in the
    order <ab>, <a'b>, <ab'>, <a'b'> of its four terms (signs ``_CHSH_SIGNS``),
    the ``correlators`` kron(obs_a, obs_b), and each term's four outcome
    ``projectors`` kron(|a><a|, |b><b|) over the observables' eigenvectors,
    with each outcome's sign(a) sign(b) in ``sign_products``."""

    a: np.ndarray
    a_prime: np.ndarray
    b: np.ndarray
    b_prime: np.ndarray

    def __post_init__(self):
        pairs = [(self.a, self.b), (self.a_prime, self.b), (self.a, self.b_prime),
                 (self.a_prime, self.b_prime)]
        projectors, sign_products = [], []
        for obs_a, obs_b in pairs:
            va_vals, va_vecs = np.linalg.eigh(obs_a)
            vb_vals, vb_vecs = np.linalg.eigh(obs_b)
            projectors.append([np.kron(_dyad(va_vecs[:, ia]), _dyad(vb_vecs[:, ib]))
                               for ia in range(2) for ib in range(2)])
            sign_products.append(tuple(int(np.sign(va_vals[ia]) * np.sign(vb_vals[ib]))
                                       for ia in range(2) for ib in range(2)))
        correlators = np.array([np.kron(obs_a, obs_b) for obs_a, obs_b in pairs])  # (4, 4, 4)
        projectors = np.array(projectors)  # (4, 4, 4, 4): term, outcome, matrix
        correlators.flags.writeable = projectors.flags.writeable = False
        object.__setattr__(self, "correlators", correlators)
        object.__setattr__(self, "projectors", projectors)
        object.__setattr__(self, "sign_products", tuple(sign_products))


@functools.lru_cache(maxsize=1)
def default_chsh_settings() -> ChshSettings:
    """a = S1, a' = -S2, b = (S1+S2)/sqrt(2), b' = (S1-S2)/sqrt(2), one object per process."""
    return ChshSettings(
        a=S1,
        a_prime=-S2,
        b=(S1 + S2) / _SQRT2,
        b_prime=(S1 - S2) / _SQRT2,
    )


def chsh_value(rho4: np.ndarray, settings: ChshSettings) -> float:
    """F = |<ab> + <a'b> + <ab'> - <a'b'>| / 2 of a 4x4 density matrix under
    ``settings``.

    Local realism gives F <= 1; the default settings reach F = sqrt(2)
    on the post-selected state of the orthogonal pair.
    """
    terms = np.real(np.trace(rho4 @ settings.correlators, axis1=-2, axis2=-1))
    f = sum(sign * float(e) for sign, e in zip(_CHSH_SIGNS, terms))
    return abs(f) / 2.0


def _correlator_from_counts(sign_products, counts):
    num = sum(s * n for s, n in zip(sign_products, counts))
    den = sum(counts)
    if den <= 0:
        raise InvalidState("no counts recorded for a CHSH setting")
    e = num / den
    # Poisson propagation of E = sum(s*n)/sum(n)
    var = sum(((s - e) / den) ** 2 * n for s, n in zip(sign_products, counts))
    return e, np.sqrt(var)


def _outcome_draws(rho4, n_per_setting, rng, settings: ChshSettings) -> list:
    """Per CHSH term, the counts of its four outcomes drawn from ``rng``."""
    probs = np.maximum(np.real(np.trace(rho4 @ settings.projectors, axis1=-2, axis2=-1)), 0.0)
    try:
        means = probs * n_per_setting
    except OverflowError:  # an int count past the float range: its mean to six digits
        from decimal import Context, Decimal  # here alone, so a run does not load it

        six_digits = Context(prec=6)
        top = six_digits.multiply(Decimal(probs.max().item()), n_per_setting)
        check_poisson_mean(top.normalize(six_digits), "CHSH outcome")
        raise
    check_poisson_mean(means.max(), "CHSH outcome")
    # one array draw takes the stream in the order of one scalar draw per outcome
    return rng.poisson(means).tolist()


def simulate_chsh(rho4: np.ndarray, n_per_setting, rng, settings: ChshSettings):
    """Simulated finite-statistics CHSH measurement of a 4x4 density matrix
    under ``settings``, drawn from the ``numpy.random.Generator`` ``rng``.

    Returns (F, sigma_F, std_devs) where std_devs = (F - 1)/sigma_F is the
    number of standard deviations by which the local-realism bound F <= 1
    is exceeded; it is None when sigma_F = 0 (every correlator's counts fell
    in one outcome class). Counts are Poissonian per outcome, per setting; an
    outcome mean above ``histogram.MAX_POISSON_MEAN`` raises OutOfRange.
    """
    draws = _outcome_draws(rho4, n_per_setting, rng, settings)
    total, var = 0.0, 0.0
    for sign, sign_products, counts in zip(_CHSH_SIGNS, settings.sign_products, draws):
        e, sig = _correlator_from_counts(sign_products, counts)
        total += sign * e
        var += sig**2
    f = abs(total) / 2.0
    sigma_f = np.sqrt(var) / 2.0
    return f, float(sigma_f), float((f - 1.0) / sigma_f) if sigma_f > 0.0 else None
