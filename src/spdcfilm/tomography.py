"""Coincidence tomography of the polarization qutrit.

Forward model, informational-completeness check, weighted linear-inversion
reconstruction with a physicality projection, and polarization fringes.
"""

from __future__ import annotations

import csv
import functools
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.optimize import OptimizeWarning, curve_fit

from .errors import (
    FitFailure,
    IncompleteProtocol,
    InvalidDensityMatrix,
    SingularFit,
)
from .polarization import ANALYZER_ANGLES, analyzer_ket, linear_analyzer, two_photon_projector
from .qutrit import check_density_matrix


@dataclass(frozen=True)
class AnalyzerSetting:
    """One arm's wave-plate pair; the polarizer pass axis is fixed to H."""

    qwp_deg: float
    hwp_deg: float

    def ket(self) -> np.ndarray:
        return analyzer_ket(self.qwp_deg, self.hwp_deg)


def setting(name: str) -> AnalyzerSetting:
    """Named analyzer setting (H, V, D, A, R)."""
    return AnalyzerSetting(*ANALYZER_ANGLES[name])


def default_protocol() -> list[tuple[AnalyzerSetting, AnalyzerSetting]]:
    """Nine informationally complete analyzer pairs.

    Three linear basis pairs fix the diagonal, D-settings fix the real
    off-diagonal parts, R-settings the imaginary parts. Completeness is
    asserted by ``completeness_check`` (rank 9).
    """
    pairs = [
        ("H", "H"), ("H", "V"), ("V", "V"),
        ("D", "H"), ("D", "V"), ("D", "D"),
        ("R", "H"), ("R", "V"), ("R", "D"),
    ]
    return [(setting(a), setting(b)) for a, b in pairs]


@dataclass(frozen=True)
class CoincidenceRecord:
    """Background-subtracted coincidence count for one protocol setting."""

    index: int
    raw: float
    accidental: float
    duration_s: float
    net_sigma: float = 0.0

    def __post_init__(self):
        if self.raw < 0:
            raise ValueError("raw coincidences must be nonnegative")
        if self.duration_s <= 0:
            raise ValueError("duration must be positive")

    @property
    def net(self) -> float:
        # may be slightly negative after subtraction; preserved, not clipped
        return self.raw - self.accidental


def _hermitian_basis() -> list[np.ndarray]:
    """Nine-dimensional real parametrization of 3x3 Hermitian matrices."""
    basis = []
    for i in range(3):
        m = np.zeros((3, 3), dtype=complex)
        m[i, i] = 1.0
        basis.append(m)
    for i in range(3):
        for j in range(i + 1, 3):
            m = np.zeros((3, 3), dtype=complex)
            m[i, j] = 1.0
            m[j, i] = 1.0
            basis.append(m)
            m = np.zeros((3, 3), dtype=complex)
            m[i, j] = 1.0j
            m[j, i] = -1.0j
            basis.append(m)
    return basis


_BASIS = _hermitian_basis()


def _design_row(w: np.ndarray) -> np.ndarray:
    return np.array([np.real(np.vdot(w, t @ w)) for t in _BASIS])


@functools.lru_cache(maxsize=64)
def _protocol_constants(pairs: tuple) -> tuple[np.ndarray, np.ndarray, int]:
    """Projector vectors w_m (rate = <w_m|rho|w_m>), the design matrix
    (row m holds <w_m|T|w_m> for each T of ``_BASIS``) and its rank.

    Memoized on the protocol's (frozen, hashable) analyzer pairs; the arrays
    are shared between calls and therefore read-only.
    """
    vectors = np.array([two_photon_projector(a.ket(), b.ket()) for a, b in pairs])
    design = np.array([_design_row(w) for w in vectors])
    rank = int(np.linalg.matrix_rank(design, tol=1e-10))
    vectors.flags.writeable = design.flags.writeable = False
    return vectors, design, rank


def _constants(protocol) -> tuple[np.ndarray, np.ndarray, int]:
    return _protocol_constants(tuple(tuple(pair) for pair in protocol))


def completeness_check(protocol) -> tuple[bool, int]:
    """Rank of the projector set in the 9-dimensional Hermitian space."""
    if not protocol:
        raise ValueError("protocol is empty")
    rank = _constants(protocol)[2]
    return rank == 9, rank


def forward_rates(rho, protocol, scale: float = 1.0) -> np.ndarray:
    """Model coincidence rates r_m = scale * <w_m|rho|w_m>."""
    rho = check_density_matrix(rho)
    if scale < 0:
        raise InvalidDensityMatrix("scale must be nonnegative")
    rates = np.array(
        [scale * np.real(np.vdot(w, rho @ w)) for w in _constants(protocol)[0]]
    )
    # tiny negative values are numerical dust on a PSD matrix
    return np.where(np.abs(rates) < 1e-15, 0.0, rates)


def project_psd(m) -> np.ndarray:
    """Unit-trace PSD matrix from a Hermitian one: clip the negative
    eigenvalues to zero, then renormalize the trace. Idempotent.

    This is not the Frobenius-nearest state (that projects the eigenvalues
    onto the probability simplex): for diag(1.2, 0.1, -0.3) clipping lands
    at distance 0.409, the simplex projection at 0.374."""
    m = np.asarray(m, dtype=complex)
    m = (m + m.conj().T) / 2.0
    vals, vecs = np.linalg.eigh(m)
    vals = np.clip(vals, 0.0, None)
    if vals.sum() <= 0.0:
        raise SingularFit("matrix has no positive spectral weight")
    rho = (vecs * vals) @ vecs.conj().T
    return rho / np.real(np.trace(rho))


@dataclass(frozen=True)
class FitReport:
    scale: float
    weighted_rms_residual: float
    negative_mass_clipped: float
    design_rank: int
    condition_number: float


def reconstruct(records, protocol) -> tuple[np.ndarray, FitReport]:
    """Weighted linear inversion of coincidence counts to a density matrix.

    Fits the unconstrained Hermitian matrix S minimizing
    sum_m (duration_m <w_m|S|w_m> - net_m)^2 / max(net_m, 1); the
    (unit-trace matrix, scale) pair of the rate model is recovered as
    M = S / tr(S), scale = tr(S) — equivalent to fitting both jointly.
    M is then made physical by ``project_psd`` (negative eigenvalues clipped
    to zero, trace renormalized); the report records how much
    negative-eigenvalue mass the clipping removed.
    """
    if len(records) != len(protocol):
        raise IncompleteProtocol(
            f"{len(records)} records for {len(protocol)} settings"
        )
    complete, rank = completeness_check(protocol)
    if not complete:
        raise IncompleteProtocol(f"protocol spans only rank {rank} of 9")

    design = np.array([rec.duration_s for rec in records])[:, None] * _constants(protocol)[1]
    counts = np.array([rec.net for rec in records])
    sqrt_w = np.sqrt(np.array([1.0 / max(rec.net, 1.0) for rec in records]))

    a = design * sqrt_w[:, None]
    b = counts * sqrt_w
    cond = np.linalg.cond(a)
    if not np.isfinite(cond) or cond > 1e8:
        raise SingularFit(f"design matrix condition number {cond:.3g}")
    x, _, lstsq_rank, _ = np.linalg.lstsq(a, b, rcond=None)
    if lstsq_rank < 9:
        raise SingularFit(f"least-squares rank {lstsq_rank} < 9")

    s = sum(coef * t for coef, t in zip(x, _BASIS))
    scale = float(np.real(np.trace(s)))
    if scale <= 0.0:
        raise SingularFit(f"fitted total rate {scale:.3g} is not positive")
    m = s / scale

    vals = np.linalg.eigvalsh(m)
    negative_mass = float(-vals[vals < 0.0].sum())
    rho = project_psd(m)

    residual = float(np.sqrt(np.mean((a @ x - b) ** 2)))
    report = FitReport(
        scale=scale,
        weighted_rms_residual=residual,
        negative_mass_clipped=negative_mass,
        design_rank=int(lstsq_rank),
        condition_number=float(cond),
    )
    return rho, report


def fringe_model(theta_deg, a, b, c, theta0_deg):
    th = np.radians(np.asarray(theta_deg, dtype=float) - theta0_deg)
    return a + b * np.cos(2 * th) + c * np.cos(4 * th)


@functools.lru_cache(maxsize=64)
def _fringe_projectors(fixed_b: str, theta_grid_deg: tuple) -> np.ndarray:
    """Read-only projector vectors of the fringe scan, one row per theta."""
    eta = setting(fixed_b).ket()
    vectors = np.array(
        [
            two_photon_projector(AnalyzerSetting(*linear_analyzer(th)).ket(), eta)
            for th in theta_grid_deg
        ]
    )
    vectors.flags.writeable = False
    return vectors


def fringe_scan(rho, fixed_b: str, theta_grid_deg, scale: float = 1.0):
    """Coincidence fringe: arm A scans linear polarization, arm B is fixed.

    Returns (curve, visibility) where curve is a list of (theta, rate) and
    visibility = (max - min)/(max + min) of the fitted model
    a + b cos 2(theta - theta0) + c cos 4(theta - theta0); the 4th harmonic
    captures the two-photon projector structure.
    """
    theta_grid_deg = np.asarray(list(theta_grid_deg), dtype=float)
    if np.ptp(theta_grid_deg) < 180.0:
        raise ValueError("theta grid must span at least 180 degrees")
    rho = check_density_matrix(rho)
    projectors = _fringe_projectors(fixed_b, tuple(theta_grid_deg.tolist()))
    rates = np.array([scale * float(np.real(np.vdot(w, rho @ w))) for w in projectors])

    # linear 5-harmonic fit seeds the tied-phase nonlinear form
    th = np.radians(theta_grid_deg)
    design = np.column_stack(
        [np.ones_like(th), np.cos(2 * th), np.sin(2 * th), np.cos(4 * th), np.sin(4 * th)]
    )
    coef, *_ = np.linalg.lstsq(design, rates, rcond=None)
    theta0 = 0.5 * np.degrees(np.arctan2(coef[2], coef[1]))
    b0 = float(np.hypot(coef[1], coef[2]))
    p0 = [float(coef[0]), b0, float(coef[3]), theta0]

    try:
        with warnings.catch_warnings():
            # noise-free model rates fit exactly; the covariance warning
            # that triggers on a zero-residual fit is expected, not an error
            warnings.simplefilter("ignore", OptimizeWarning)
            popt, _ = curve_fit(
                fringe_model, theta_grid_deg, rates, p0=p0, maxfev=20000
            )
    except RuntimeError as exc:
        raise FitFailure(f"fringe fit did not converge: {exc}") from exc

    dense = np.linspace(0.0, 360.0, 7201)
    fitted = fringe_model(dense, *popt)
    hi, lo = float(fitted.max()), float(fitted.min())
    if hi + lo <= 0.0:
        raise FitFailure("fitted fringe is nonpositive; visibility undefined")
    visibility = (hi - lo) / (hi + lo)
    curve = [(float(t), float(r)) for t, r in zip(theta_grid_deg, rates)]
    return curve, float(visibility)


def load_records_csv(path):
    """Read (protocol, records) from CSV with columns
    qwp_a, hwp_a, qwp_b, hwp_b, raw, accidental, duration."""
    protocol, records = [], []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        for idx, row in enumerate(reader):
            protocol.append(
                (
                    AnalyzerSetting(float(row["qwp_a"]), float(row["hwp_a"])),
                    AnalyzerSetting(float(row["qwp_b"]), float(row["hwp_b"])),
                )
            )
            records.append(
                CoincidenceRecord(
                    index=idx,
                    raw=float(row["raw"]),
                    accidental=float(row["accidental"]),
                    duration_s=float(row["duration"]),
                )
            )
    return protocol, records
