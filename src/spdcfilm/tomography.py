"""Coincidence tomography of the polarization qutrit.

Forward model, informational-completeness check, weighted linear-inversion
reconstruction with a physicality projection (James et al., PRA 64, 052312,
2001), and polarization fringes with a closed-form visibility. The
inversion, projection and visibility work on stacks of states, so a
parametric bootstrap reconstructs all its replicates in a few array
operations; the single-state functions are their one-replicate case.

``forward_rates`` and ``fringe_curve`` take a density matrix the caller
has checked: a run checks each state once, where it enters (``experiment``).
"""

from __future__ import annotations

import csv
import functools
from dataclasses import dataclass

import numpy as np

from .errors import IncompleteProtocol, SingularFit
from .polarization import (
    ANALYZER_ANGLES,
    H,
    V,
    analyzer_ket,
    two_photon_projector,
)


@dataclass(frozen=True)
class AnalyzerSetting:
    """One arm's wave-plate pair; the polarizer pass axis is fixed to H."""

    qwp_deg: float
    hwp_deg: float

    def ket(self) -> np.ndarray:
        return analyzer_ket(self.qwp_deg, self.hwp_deg)


def setting(name: str) -> AnalyzerSetting:
    """Named analyzer setting (H, V, D, A, R); ValueError for any other name."""
    if name not in ANALYZER_ANGLES:
        raise ValueError(f"unknown analyzer {name!r}; known: {sorted(ANALYZER_ANGLES)}")
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
    """Background-subtracted coincidence count for one protocol setting. Its
    messages call ``duration_s`` ``duration``, the records CSV's column."""

    index: int
    raw: float
    accidental: float
    duration_s: float
    net_sigma: float = 0.0

    def __post_init__(self):
        quantities = {"raw": self.raw, "accidental": self.accidental,
                      "duration": self.duration_s, "net_sigma": self.net_sigma}
        for name, value in quantities.items():
            if not np.isfinite(value):
                raise ValueError(f"record {self.index}: {name} must be finite")
        if self.raw < 0:
            raise ValueError(f"record {self.index}: raw coincidences must be nonnegative")
        if self.duration_s <= 0:
            raise ValueError(f"record {self.index}: duration must be positive")

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


_BASIS = np.array(_hermitian_basis())


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


def forward_rates(rho: np.ndarray, protocol, scale: float) -> np.ndarray:
    """Model coincidence rates r_m = scale * <w_m|rho|w_m> of a density
    matrix and a nonnegative scale."""
    w = _constants(protocol)[0][:, :, None]
    # <w_m|rho|w_m> of every setting as one stacked product, in vdot's order
    rates = scale * np.real(np.swapaxes(w.conj(), 1, 2) @ (rho @ w))[:, 0, 0]
    # tiny negative values are numerical dust on a PSD matrix
    return np.where(np.abs(rates) < 1e-15, 0.0, rates)


def _project_psd(m: np.ndarray):
    """Unit-trace PSD matrices from a (B, 3, 3) stack of Hermitian ones, in
    one ``eigh``: clip the negative eigenvalues to zero, then renormalize the
    trace. Idempotent.

    This is not the Frobenius-nearest state (that projects the eigenvalues
    onto the probability simplex): for diag(1.2, 0.1, -0.3) clipping lands
    at distance 0.409, the simplex projection at 0.374.

    Also returns the negative-eigenvalue mass the clipping removed from each,
    and the (vals, vecs) eigendecomposition of each returned state: the
    ``eigh`` eigenvectors with the clipped eigenvalues over the trace, in
    ascending order, which is ``eigh`` of the returned state up to rounding.
    """
    m = (m + np.swapaxes(m.conj(), -1, -2)) / 2.0
    vals, vecs = np.linalg.eigh(m)
    negative_mass = np.where(vals < 0.0, -vals, 0.0).sum(axis=-1)
    vals = np.clip(vals, 0.0, None)
    if np.any(vals.sum(axis=-1) <= 0.0):
        raise SingularFit("matrix has no positive spectral weight")
    rho = (vecs * vals[:, None, :]) @ np.swapaxes(vecs.conj(), -1, -2)
    traces = np.real(np.trace(rho, axis1=-2, axis2=-1))
    return rho / traces[:, None, None], negative_mass, (vals / traces[:, None], vecs)


@dataclass(frozen=True)
class FitReport:
    """``reconstruct``'s fit: ``scale`` = tr S, the fitted total rate (Hz);
    the RMS of the weighted residuals sqrt(w_m) (duration_m <w_m|S|w_m> - net_m);
    the negative-eigenvalue mass the positivity projection clipped; the
    protocol's rank (``completeness_check``; positive weights cannot lower
    it, so 9 in every returned fit); and the exact condition number of the
    weighted design diag(sqrt w) D."""

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
    M is then made physical by ``_project_psd`` (negative eigenvalues clipped
    to zero, trace renormalized); the report records how much
    negative-eigenvalue mass the clipping removed.

    These are the bootstrap's two steps on one replicate: the checked solve
    (``_solve_stack``) and the positivity step (``_physical``). The report's
    ``condition_number`` comes from one SVD of the weighted design.
    """
    if len(records) != len(protocol):
        raise IncompleteProtocol(
            f"{len(records)} records for {len(protocol)} settings"
        )
    complete, rank = completeness_check(protocol)
    if not complete:
        raise IncompleteProtocol(f"protocol spans only rank {rank} of 9")

    nets = np.array([[rec.net for rec in records]])
    durations = np.array([rec.duration_s for rec in records])
    x = _solve_stack(nets, durations, protocol)
    rhos, scales, negative_mass, _ = _physical(x)
    sqrt_w = np.sqrt(1.0 / np.maximum(nets, 1.0))
    a = durations[:, None] * _constants(protocol)[1] * sqrt_w[:, :, None]
    sv = np.linalg.svd(a, compute_uv=False)[0]
    residual = np.sqrt(np.mean((np.einsum("bmk,bk->bm", a, x) - nets * sqrt_w) ** 2, axis=-1))
    return rhos[0], FitReport(
        scale=scales[0].item(),
        weighted_rms_residual=residual[0].item(),
        negative_mass_clipped=negative_mass[0].item(),
        design_rank=rank,
        condition_number=(sv[0] / sv[-1]).item(),
    )


#: ``SingularFit`` above this condition number of a weighted design
_COND_LIMIT = 1e8
#: a square design's replicate passes the check without its own SVD when its
#: bound cond(D) max(sqrt w) / min(sqrt w) is at most this
_BOUND_MARGIN = 1e6


def _check_conditioning(sv: np.ndarray) -> None:
    """Raise ``SingularFit`` for the first weighted design, of (B, 9)
    singular values ``sv``, whose condition number is above ``_COND_LIMIT``."""
    with np.errstate(divide="ignore", invalid="ignore"):
        cond = sv[:, 0] / sv[:, -1]
    bad = ~(cond <= _COND_LIMIT)
    if np.any(bad):
        raise SingularFit(f"design matrix condition number {cond[bad][0]:.3g}")


def _solve_stack(nets: np.ndarray, durations: np.ndarray, protocol) -> np.ndarray:
    """``reconstruct``'s weighted least-squares solve of a (B, n) stack of net
    counts: the (B, 9) coefficients x of S = sum_k x_k ``_BASIS``[k].

    Each replicate's weighted design diag(sqrt w) D, w = 1 / max(net, 1), is
    checked before any solve (``_check_conditioning``). A condition number of
    at most 1e8 also makes it full rank: a rank test at eps times its largest
    dimension could fail only beyond about 4.5e7 settings.

    A square D (9 settings) then gives D^-1 nets whatever the weights, so
    every replicate is solved with one LU factorization of D. One SVD of D
    bounds each replicate's weighted condition number by
    cond(D) max(sqrt w) / min(sqrt w); only the replicates whose bound
    exceeds ``_BOUND_MARGIN`` (1e6, far below the limit) take the exact check
    from their own SVD. With more settings than parameters the weights set
    the fit: each replicate is solved from its weighted SVD, which also gives
    its check. The caller has checked the protocol's completeness.
    """
    design = durations[:, None] * _constants(protocol)[1]
    sqrt_w = np.sqrt(1.0 / np.maximum(nets, 1.0))
    if design.shape[0] == design.shape[1]:
        with np.errstate(divide="ignore", invalid="ignore"):
            sv = np.linalg.svd(design, compute_uv=False)
            bound = sv[0] / sv[-1] * sqrt_w.max(axis=-1) / sqrt_w.min(axis=-1)
        exact = ~(bound <= _BOUND_MARGIN)
        if np.any(exact):
            _check_conditioning(np.linalg.svd(design * sqrt_w[exact, :, None], compute_uv=False))
        return np.linalg.solve(design, nets.T).T
    u, sv, vh = np.linalg.svd(design * sqrt_w[:, :, None], full_matrices=False)
    _check_conditioning(sv)
    return np.einsum("bji,bj->bi", vh, np.einsum("bmj,bm->bj", u, nets * sqrt_w) / sv)


def _physical(x: np.ndarray):
    """The positivity step of a (B, 9) stack of solutions: the states
    ``_project_psd(S / tr S)``, the scales tr S (``SingularFit`` at the first
    that is not positive), and ``_project_psd``'s negative mass and spectrum."""
    s = np.einsum("bk,kij->bij", x, _BASIS)
    scales = np.real(np.trace(s, axis1=1, axis2=2))
    if np.any(scales <= 0.0):
        raise SingularFit(f"fitted total rate {scales[scales <= 0.0][0]:.3g} is not positive")
    rhos, negative_mass, spectrum = _project_psd(s / scales[:, None, None])
    return rhos, scales, negative_mass, spectrum


@functools.lru_cache(maxsize=8)
def _fringe_basis(fixed_b: str) -> np.ndarray:
    """Read-only W = [w(H, eta), w(V, eta)], shape (3, 2): arm A's linear
    analyzer (cos t, sin t) selects the projector W @ (cos t, sin t)."""
    eta = setting(fixed_b).ket()
    w = np.column_stack([two_photon_projector(H, eta), two_photon_projector(V, eta)])
    w.flags.writeable = False
    return w


def _fringe_form(rhos: np.ndarray, fixed_b: str) -> np.ndarray:
    """The (B, 2, 2) matrices M = Re(W^dag rho W) of a (B, 3, 3) stack."""
    w = _fringe_basis(fixed_b)
    return np.real(w.conj().T @ rhos @ w)


def _fringe_visibility(rhos: np.ndarray, fixed_b: str) -> np.ndarray:
    """Closed-form fringe visibility of each state of a (B, 3, 3) stack.

    The fringe rate is xi^T M xi with M = Re(W^dag rho W), so its extremes
    over theta are the eigenvalues l+ >= l- of M's symmetric part, and
    (l+ - l-)/(l+ + l-) = sqrt((m00 - m11)^2 + (m01 + m10)^2) / tr M.
    NaN where tr M <= 0: no counts at any angle, so no visibility.
    """
    m = _fringe_form(rhos, fixed_b)
    total = m[:, 0, 0] + m[:, 1, 1]
    spread = np.hypot(m[:, 0, 0] - m[:, 1, 1], m[:, 0, 1] + m[:, 1, 0])
    return np.divide(spread, total, out=np.full_like(total, np.nan), where=total > 0.0)


def fringe_curve(rho: np.ndarray, fixed_b: str, theta_grid_deg: np.ndarray) -> list:
    """Coincidence fringe: arm A scans linear polarization, arm B is fixed.

    Returns (theta, rate) pairs on a float grid of angles. Arm A's ket
    xi = (cos theta, sin theta) enters the two-photon projector linearly, so
    the rate is the quadratic form xi^T M xi (``_fringe_form``): a pure second
    harmonic a + b cos 2(theta - theta0). Its visibility (max - min)/(max +
    min) over all angles follows in closed form from the form's 2x2 matrix
    (``_fringe_visibility``); it does not depend on the grid.
    """
    xi = np.stack([np.cos(np.radians(theta_grid_deg)), np.sin(np.radians(theta_grid_deg))])
    rates = np.einsum("it,ij,jt->t", xi, _fringe_form(rho[None], fixed_b)[0], xi)
    return [(float(t), float(r)) for t, r in zip(theta_grid_deg, rates)]


def load_records_csv(path):
    """Read (protocol, records) from CSV with columns
    qwp_a, hwp_a, qwp_b, hwp_b, raw, accidental, duration.

    A file without records, a header or row the csv module cannot read (a
    field over its 131,072-character limit), a row with more cells than the
    header, or a missing or non-numeric cell or non-finite angle, raises
    ValueError. Its message names the ``header``, or the row as ``record N``,
    the index its record carries (data rows count from 0), and the column;
    ``CoincidenceRecord`` rejects non-finite counts in the same words.
    """
    protocol, records = [], []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        try:
            reader.fieldnames  # reads the header
        except csv.Error as err:
            raise ValueError(f"header: {err}") from None
        try:
            for idx, row in enumerate(reader):
                if None in row:  # DictReader files the cells past the header under None
                    raise ValueError(f"record {idx}: more cells than the header has columns")
                cells = []
                for key in ("qwp_a", "hwp_a", "qwp_b", "hwp_b", "raw", "accidental", "duration"):
                    if row.get(key) is None:
                        raise ValueError(f"record {idx}: {key} is missing")
                    try:
                        cells.append(float(row[key]))
                    except ValueError:
                        raise ValueError(
                            f"record {idx}: {key} {row[key]!r} is not a number") from None
                    if len(cells) <= 4 and not np.isfinite(cells[-1]):  # the four angles
                        raise ValueError(f"record {idx}: {key} must be finite")
                protocol.append((AnalyzerSetting(*cells[0:2]), AnalyzerSetting(*cells[2:4])))
                records.append(CoincidenceRecord(idx, *cells[4:]))
        except csv.Error as err:  # raised while reading the row after the last record kept
            raise ValueError(f"record {len(records)}: {err}") from None
    if not records:
        raise ValueError("the file has no records")
    return protocol, records
