"""Coincidence tomography of the polarization qutrit.

A protocol is a ``Protocol``: a table of analyzer wave-plate angles, one
row per setting, that builds its projectors, design matrix and rank once,
when it is made. ``default_protocol()`` is one object per process.

Forward model, weighted linear-inversion reconstruction with a physicality
projection (James et al., PRA 64, 052312, 2001), and polarization fringes
with a closed-form visibility. The inversion, projection and visibility
work on stacks of states, so a parametric bootstrap reconstructs all its
replicates in a few array operations; the single-state functions are their
one-replicate case.

``forward_rates`` and ``fringe_curve`` take a density matrix the caller
has checked: a run checks each state once, where it enters (``experiment``).
The positivity projection returns each state as its spectrum, which
``_measures`` reads: no bootstrap replicate is formed as a matrix. The
estimator is this module's: the fit (``reconstruct``), its report entries
(``point_measures``) and their parametric bootstrap (``bootstrap_sigmas``).
"""

from __future__ import annotations

import csv
import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import IncompleteProtocol, SingularFit
from .frozen import Record, Value
from .polarization import (
    ANALYZER_ANGLES,
    H,
    V,
    analyzer_ket,
    two_photon_projector,
)
from .qutrit import _check_spectrum, _concurrence, _dominant, _schmidt_number


def setting(name: str) -> tuple:
    """(qwp_deg, hwp_deg) of a named analyzer (H, V, D, A, R); ValueError for
    any other name. The polarizer pass axis is fixed to H."""
    if name not in ANALYZER_ANGLES:
        raise ValueError(f"unknown analyzer {name!r}; known: {sorted(ANALYZER_ANGLES)}")
    return ANALYZER_ANGLES[name]


@dataclass(eq=False, repr=False)
class CoincidenceRecord(Value):
    """Background-subtracted coincidence count for one protocol setting, with
    its net count's standard deviation ``net_sigma``. Its messages call
    ``duration_s`` ``duration``, the records CSV's column."""

    index: int
    raw: float
    accidental: float
    duration_s: float
    net_sigma: float

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


@dataclass(eq=False, repr=False)
class Protocol(Record):
    """An (m, 4) table of analyzer ``angles``, a row (qwp_a, hwp_a, qwp_b,
    hwp_b) in degrees per setting, and what the fit needs of it, built
    read-only when it is made: the projector ``vectors`` w_m (rate =
    <w_m|rho|w_m>), the ``design`` matrix (row m holds <w_m|T|w_m> for each
    T of ``_BASIS``) and its ``rank`` in the 9-dimensional Hermitian space."""

    angles: np.ndarray

    def __post_init__(self):
        angles = np.array(self.angles, dtype=float)
        if not angles.size:
            raise ValueError("protocol is empty")
        vectors = np.array([two_photon_projector(analyzer_ket(qa, ha), analyzer_ket(qb, hb))
                            for qa, ha, qb, hb in angles])
        design = np.array([_design_row(w) for w in vectors])
        angles.flags.writeable = vectors.flags.writeable = design.flags.writeable = False
        object.__setattr__(self, "angles", angles)
        object.__setattr__(self, "vectors", vectors)
        object.__setattr__(self, "design", design)
        object.__setattr__(self, "rank", int(np.linalg.matrix_rank(design, tol=1e-10)))

    def __len__(self) -> int:
        return len(self.angles)


def named_protocol(pairs) -> Protocol:
    """The protocol of (arm A, arm B) analyzer name pairs such as ("D", "H")."""
    return Protocol([setting(a) + setting(b) for a, b in pairs])


@functools.lru_cache(maxsize=1)
def default_protocol() -> Protocol:
    """Nine informationally complete analyzer pairs, one object per process.

    Three linear basis pairs fix the diagonal, D-settings fix the real
    off-diagonal parts, R-settings the imaginary parts: rank 9.
    """
    return named_protocol(["HH", "HV", "VV", "DH", "DV", "DD", "RH", "RV", "RD"])


def forward_rates(rho: np.ndarray, protocol, scale: float) -> np.ndarray:
    """Model coincidence rates r_m = scale * <w_m|rho|w_m> of a density
    matrix and a nonnegative scale."""
    w = protocol.vectors[:, :, None]
    # <w_m|rho|w_m> of every setting as one stacked product, in vdot's order
    rates = scale * np.real(np.swapaxes(w.conj(), 1, 2) @ (rho @ w))[:, 0, 0]
    # tiny negative values are numerical dust on a PSD matrix
    return np.where(np.abs(rates) < 1e-15, 0.0, rates)


def _project_psd(m: np.ndarray):
    """The positivity projection of a (B, 3, 3) stack of Hermitian matrices,
    in one ``eigh``: clip the negative eigenvalues to zero, then renormalize
    the trace. Idempotent.

    This is not the Frobenius-nearest state (that projects the eigenvalues
    onto the probability simplex): for diag(1.2, 0.1, -0.3) clipping lands
    at distance 0.409, the simplex projection at 0.374.

    Returns each state as its spectrum, the clipped eigenvalues over their
    sum (ascending) and the ``eigh`` eigenvectors, then the negative-eigenvalue
    mass the clipping removed and the clipped eigenvalues themselves. No state
    is formed: ``reconstruct`` forms its one from the clipped eigenvalues.
    """
    m = (m + np.swapaxes(m.conj(), -1, -2)) / 2.0
    vals, vecs = np.linalg.eigh(m)
    negative_mass = np.where(vals < 0.0, -vals, 0.0).sum(axis=-1)
    clipped = np.clip(vals, 0.0, None)
    if np.any(clipped.sum(axis=-1) <= 0.0):
        raise SingularFit("matrix has no positive spectral weight")
    return clipped / clipped.sum(axis=-1, keepdims=True), vecs, negative_mass, clipped


@dataclass(eq=False, repr=False)
class FitReport(Value):
    """``reconstruct``'s fit: ``scale`` = tr S, the fitted total rate (Hz);
    the RMS of the weighted residuals sqrt(w_m) (duration_m <w_m|S|w_m> - net_m);
    the negative-eigenvalue mass the positivity projection clipped; the
    protocol's rank (positive weights cannot lower it, so 9 in every returned
    fit); and the exact condition number of the weighted design diag(sqrt w) D."""

    scale: float
    weighted_rms_residual: float
    negative_mass_clipped: float
    design_rank: int
    condition_number: float


def reconstruct(records, protocol) -> tuple[np.ndarray, FitReport, tuple]:
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

    Returns the state, the report and the state's (vals, vecs) spectrum, the
    projection's unit-sum eigenvalues (ascending) and eigenvector columns.
    """
    if len(records) != len(protocol):
        raise IncompleteProtocol(
            f"{len(records)} records for {len(protocol)} settings"
        )
    if protocol.rank < 9:
        raise IncompleteProtocol(f"protocol spans only rank {protocol.rank} of 9")

    nets = np.array([[rec.net for rec in records]])
    durations = np.array([rec.duration_s for rec in records])
    x = _solve_stack(nets, durations, protocol)
    vals, vecs, scales, negative_mass, clipped = _physical(x)
    rho = (vecs * clipped[:, None, :]) @ np.swapaxes(vecs.conj(), -1, -2)
    sqrt_w = np.sqrt(1.0 / np.maximum(nets, 1.0))
    a = durations[:, None] * protocol.design * sqrt_w[:, :, None]
    sv = np.linalg.svd(a, compute_uv=False)[0]
    residual = np.sqrt(np.mean((np.einsum("bmk,bk->bm", a, x) - nets * sqrt_w) ** 2, axis=-1))
    return rho[0] / np.real(np.trace(rho[0])), FitReport(
        scale=scales[0].item(),
        weighted_rms_residual=residual[0].item(),
        negative_mass_clipped=negative_mass[0].item(),
        design_rank=protocol.rank,
        condition_number=(sv[0] / sv[-1]).item(),
    ), (vals[0], vecs[0])


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
    its check. The caller has checked the protocol's rank.
    """
    design = durations[:, None] * protocol.design
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
    """The positivity step of a (B, 9) stack of solutions: ``_project_psd(S /
    tr S)`` as (vals, vecs, scales tr S, negative mass, clipped eigenvalues),
    ``SingularFit`` at the first scale that is not positive."""
    s = (x @ _BASIS.reshape(9, 9)).reshape(-1, 3, 3)
    scales = np.real(np.trace(s, axis1=1, axis2=2))
    if np.any(scales <= 0.0):
        raise SingularFit(f"fitted total rate {scales[scales <= 0.0][0]:.3g} is not positive")
    vals, vecs, negative_mass, clipped = _project_psd(s / scales[:, None, None])
    return vals, vecs, scales, negative_mass, clipped


@functools.lru_cache(maxsize=8)
def _fringe_basis(fixed_b: str) -> np.ndarray:
    """Read-only W = [w(H, eta), w(V, eta)], shape (3, 2): arm A's linear
    analyzer (cos t, sin t) selects the projector W @ (cos t, sin t)."""
    eta = analyzer_ket(*setting(fixed_b))
    w = np.column_stack([two_photon_projector(H, eta), two_photon_projector(V, eta)])
    w.flags.writeable = False
    return w


def _fringe_form(rhos: np.ndarray, fixed_b: str) -> np.ndarray:
    """The (B, 2, 2) matrices M = Re(W^dag rho W) of a (B, 3, 3) stack."""
    w = _fringe_basis(fixed_b)
    return np.real(w.conj().T @ rhos @ w)


def _fringe_visibility(m: np.ndarray) -> np.ndarray:
    """Closed-form fringe visibility of each (B, 2, 2) fringe form M.

    The fringe rate is xi^T M xi with M = Re(W^dag rho W), so its extremes
    over theta are the eigenvalues l+ >= l- of M's symmetric part, and
    (l+ - l-)/(l+ + l-) = sqrt((m00 - m11)^2 + (m01 + m10)^2) / tr M.
    NaN where tr M <= 0: no counts at any angle, so no visibility.
    """
    total = m[:, 0, 0] + m[:, 1, 1]
    spread = np.hypot(m[:, 0, 0] - m[:, 1, 1], m[:, 0, 1] + m[:, 1, 0])
    return np.divide(spread, total, out=np.full_like(total, np.nan), where=total > 0.0)


def _measures(vals: np.ndarray, vecs: np.ndarray, fixed_b: str) -> dict:
    """Report measures, as (B, ...) arrays, of the states of (B, 3) unit-sum
    ascending eigenvalues and (B, 3, 3) eigenvectors V, each checked first
    (``_check_spectrum``) and none formed: the weights sum_k |V_ik|^2 vals_k,
    the purity sum vals^2, the dominant branch (NaN where degenerate), and
    the visibility of M = Re(U diag(vals) U^dag), U = W^dag V."""
    _check_spectrum(vals.sum(axis=-1), vals)
    top, top_weight, degenerate = _dominant(vals, vecs)
    c = np.where(degenerate, np.nan, _concurrence(top))
    u = _fringe_basis(fixed_b).conj().T @ vecs.transpose(1, 0, 2).reshape(3, -1)
    u = u.reshape(2, len(vals), 3)
    return {
        "weights": (np.abs(vecs) ** 2 @ vals[:, :, None])[:, :, 0],
        "purity": (vals ** 2).sum(axis=-1),
        "concurrence": c,
        "schmidt_number": _schmidt_number(c),
        "dominant_weight": np.where(degenerate, np.nan, top_weight),
        "visibility": _fringe_visibility(np.real(np.einsum("ibk,jbk->bij", u * vals, u.conj()))),
    }


def _defined(values):
    """JSON form of a measure: floats, with None where it is undefined (NaN)."""
    if np.ndim(values):
        return [_defined(v) for v in values]
    return None if np.isnan(values) else float(values)


def point_measures(vals: np.ndarray, vecs: np.ndarray, fixed_analyzer: str) -> dict:
    """The report entries of one state, given as its (3,) unit-sum ascending
    eigenvalues and (3, 3) eigenvectors (``reconstruct``'s spectrum):
    ``_measures`` of the one-state stack, None where a measure is undefined."""
    measures = _measures(vals[None], vecs[None], fixed_analyzer)
    return {key: _defined(value[0]) for key, value in measures.items()}


def _spread(samples):
    """Bootstrap sigma: the sample standard deviation (ddof 1) of the finite
    replicates (axis 0), None where fewer than two replicates are finite."""
    finite = np.isfinite(samples)
    count = np.count_nonzero(finite, axis=0)
    values = np.where(finite, samples, 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        mean = values.sum(axis=0) / count
        squares = np.where(finite, (values - mean) ** 2, 0.0).sum(axis=0)
        sigma = np.sqrt(squares / (count - 1))
    return _defined(np.where(count >= 2, sigma, np.nan))


#: bootstrap replicates drawn and reconstructed at a time: bounds the
#: working memory of a bootstrap whatever ``[run] bootstrap_samples`` is
_BOOTSTRAP_BLOCK = 1024


def _bootstrap_states(rho_hat, scale_hat, records, protocol, n_boot, seed_seq):
    """The states of a parametric bootstrap: net counts redrawn from the
    fitted model, then reconstructed ``_BOOTSTRAP_BLOCK`` replicates at a
    time by ``reconstruct``'s two steps, ``_solve_stack`` and ``_physical``.
    Yields each block's states as the projection's (vals, vecs) spectrum,
    (B, 3) unit-sum eigenvalues and (B, 3, 3) eigenvectors: no replicate is
    formed as a matrix, and the measures need no second ``eigh``.

    Replicate k draws row k of the (n_boot, len(records)) standard normals
    of one generator, ``np.random.default_rng(seed_seq)``, made only when
    there is a replicate. Each block takes the next rows of its stream, so
    replicate k is the same whatever the replicate count and the block size,
    and ``seed_seq`` spawns no child. A replicate keeps its records'
    accidentals, durations and sigmas, as ``reconstruct`` would see
    ``replace(record, raw=max(draw + accidental, 0))``.
    """
    if not n_boot:
        return
    durations = np.array([r.duration_s for r in records])
    accidental = np.array([r.accidental for r in records])
    sigmas = np.array([r.net_sigma for r in records])
    model_net = durations * forward_rates(rho_hat, protocol, scale_hat)
    rng = np.random.default_rng(seed_seq)
    for start in range(0, n_boot, _BOOTSTRAP_BLOCK):
        count = min(_BOOTSTRAP_BLOCK, n_boot - start)
        # model_net + sigmas * z is bit for bit Generator.normal(model_net, sigmas)
        z = rng.standard_normal((count, len(records)))
        nets = np.maximum(model_net + sigmas * z + accidental, 0.0) - accidental
        yield _physical(_solve_stack(nets, durations, protocol))[:2]


def bootstrap_sigmas(rho_hat, scale, records, protocol, n_boot, fixed_analyzer,
                     seed_seq) -> dict:
    """Parametric bootstrap of the fit (rho_hat, scale) of ``records``: net
    counts of ``n_boot`` replicates redrawn from it (``_bootstrap_states``).

    Returns the report's ``<measure>_sigma`` entries, all None without
    replicates or when any replicate cannot be fitted (``SingularFit``: a
    redraw of a few counts can leave a fitted total rate that is not
    positive). ``_measures`` of the spectra fills one (n_boot, 6) table for
    one ``_spread``: only it grows with the replicate count, as the spectra
    are held one block at a time.
    """
    states = _bootstrap_states(rho_hat, scale, records, protocol, n_boot, seed_seq)
    measures = ("weights", "purity", "concurrence", "visibility")
    try:
        blocks = [_measures(vals, vecs, fixed_analyzer) for vals, vecs in states]
    except SingularFit:
        blocks = []
    if not blocks:
        return {f"{key}_sigma": None for key in measures}
    table = np.concatenate([np.column_stack([b[key] for key in measures]) for b in blocks])
    sigmas = _spread(table)
    return {f"{key}_sigma": s for key, s in zip(measures, (sigmas[:3], *sigmas[3:]))}


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
    """Read (``Protocol``, records) from CSV with columns
    qwp_a, hwp_a, qwp_b, hwp_b, raw, accidental, duration.

    A file has no sigma column: ``net_sigma`` is sqrt(max(raw, 1)), the
    Poisson term of ``subtract_accidentals``' sigma without its floor term.

    A file without records, a header or row the csv module cannot read (a
    field over its 131,072-character limit), a row with more cells than the
    header, or a missing or non-numeric cell or non-finite angle, raises
    ValueError. Its message names the ``header``, or the row as ``record N``,
    the index its record carries (data rows count from 0), and the column;
    ``CoincidenceRecord`` rejects non-finite counts in the same words. The
    file is read as UTF-8, a leading byte-order mark skipped; bytes that are
    not UTF-8 raise ValueError (``UnicodeDecodeError``).
    """
    angles, records = [], []
    with open(path, newline="", encoding="utf-8-sig") as fh:  # a BOM is skipped
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
                angles.append(cells[:4])
                records.append(CoincidenceRecord(idx, *cells[4:], math.sqrt(max(cells[4], 1.0))))
        except csv.Error as err:  # raised while reading the row after the last record kept
            raise ValueError(f"record {len(records)}: {err}") from None
    if not records:
        raise ValueError("the file has no records")
    return Protocol(angles), records
