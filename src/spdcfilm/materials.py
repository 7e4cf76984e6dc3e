"""Refractive-index models.

Dispersion data ship in ``data/materials.json``; each entry records its
literature source next to the coefficients. All models share one Sellmeier
form, n^2(lam) = A + sum_i B_i lam^2 / (lam^2 - C_i), lam in micrometers.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .errors import OutOfRange
from .frozen import Value

_DB = None


def _database() -> dict:
    global _DB
    if _DB is None:
        data = resources.files("spdcfilm.data").joinpath("materials.json")
        _DB = json.loads(data.read_text(encoding="utf-8"))
    return _DB


@dataclass(eq=False, repr=False)
class Sellmeier(Value):
    """One-material dispersion model.

    Parameters
    ----------
    A : float
        Constant term of n^2.
    terms : tuple of (B, C) pairs
        Resonance terms B*lam^2/(lam^2 - C), C in um^2.
    range_um : (float, float)
        Wavelength validity window. Evaluation outside raises OutOfRange;
        the window is the one quoted by the data source.
    source : str
        Literature reference for the coefficients.
    """

    A: float
    terms: tuple
    range_um: tuple
    source: str

    def index(self, lam_um):
        lam_um = np.asarray(lam_um, dtype=float)
        lo, hi = self.range_um
        if np.any(lam_um < lo) or np.any(lam_um > hi):
            raise OutOfRange(
                f"wavelength outside validity window [{lo}, {hi}] um of: {self.source}"
            )
        lam2 = lam_um**2
        n2 = self.A + sum(b * lam2 / (lam2 - c) for b, c in self.terms)
        if np.any(n2 < 1.0):
            raise OutOfRange("index model evaluates below 1; outside physical band")
        return np.sqrt(n2)


@dataclass(eq=False, repr=False)
class ConstantIndex(Value):
    """Dispersionless stand-in, mostly for tests and limiting cases; ``n``
    must be finite and positive."""

    n: float

    def __post_init__(self):
        if not 0.0 < self.n < np.inf:  # False for NaN
            raise ValueError(
                f"constant index {self.n!r} must be a finite positive refractive index"
            )

    def index(self, lam_um):
        return np.full_like(np.asarray(lam_um, dtype=float), self.n)


def load_material(name: str) -> Sellmeier:
    """Return the named dispersion model from the shipped data file."""
    db = _database()
    if name not in db or name.startswith("_"):
        known = sorted(k for k in db if not k.startswith("_"))
        raise KeyError(f"unknown material {name!r}; known: {known}")
    entry = db[name]
    return Sellmeier(
        A=entry["A"],
        terms=tuple((b, c) for b, c in entry["terms"]),
        range_um=tuple(entry["range_um"]),
        source=entry["source"],
    )


def refractive_index(name: str, lam_um):
    """Shorthand: index of a named material at wavelength(s) in micrometers."""
    return load_material(name).index(lam_um)


def resolve_index_model(spec):
    """The index model of a material name (``load_material``, KeyError if
    unknown) or of a plain number (``ConstantIndex``, ValueError unless finite
    and positive)."""
    if isinstance(spec, str):
        return load_material(spec)
    if isinstance(spec, (int, float, np.floating)):
        return ConstantIndex(float(spec))
    raise TypeError(f"cannot interpret {spec!r} as an index model")
