"""Exception hierarchy for the spdcfilm package.

Every error raised by this package derives from :class:`SpdcFilmError`, so
callers can catch one base class at API boundaries (the CLI does exactly
that to map failures onto exit codes).
"""


class SpdcFilmError(Exception):
    """Base class for all spdcfilm errors."""


class ConfigError(SpdcFilmError):
    """Invalid, missing, or inconsistent configuration input."""


class ZeroAmplitude(SpdcFilmError):
    """The pump/orientation combination produces no pair amplitude."""


class PoorFit(SpdcFilmError):
    """A calibration or curve fit left a residual above its threshold.

    Raised instead of silently returning the argmin so that a modeling
    mismatch is reported, not swallowed.
    """


class NotNormalized(SpdcFilmError):
    """A state vector or polarization ket is not normalized."""


class OutOfRange(SpdcFilmError):
    """A physical parameter lies outside its validated range."""


class InvalidDensityMatrix(SpdcFilmError):
    """Matrix is not an acceptable density operator (shape/hermiticity/trace)."""


class InvalidState(SpdcFilmError):
    """State input is malformed (zero vector, wrong dimension, ...)."""


class IncompleteProtocol(SpdcFilmError):
    """Measurement settings do not span the state space to be reconstructed."""


class SingularFit(SpdcFilmError):
    """Linear inversion is numerically singular."""


class GridTooNarrow(SpdcFilmError):
    """Spectral grid does not cover the required detuning range."""


class AsymmetricSpectrum(SpdcFilmError):
    """Spectrum violates the degenerate (symmetric) assumption."""


class TotalInternalReflection(SpdcFilmError):
    """Refraction geometry has no real solution for the requested tilt."""
