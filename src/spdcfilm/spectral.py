"""Two-photon spectrum of the film source and Hong-Ou-Mandel curves.

The joint spectral amplitude of the degenerate collinear pair is modeled
single-pass with per-frequency cavity field factors:

    Phi(W) = sinc(dk(W) L / 2) * A(v_p) * A(v0 + W) * A(v0 - W)

where v0 = v_p/2, W is the detuning of the signal from degeneracy in THz
(idler at -W), dk the collinear wavevector mismatch from the film index
model, and A the Airy field-enhancement factor of the film etalon

    A(v) = t / (1 - r1 r2 exp(2 i phi(v))),   phi = 2 pi n_f v L / c,

with r1, r2 the film/ambient and film/substrate Fresnel amplitude
coefficients and t the film/substrate transmission. This reproduces the
Fabry-Perot-limited ~50 THz intensity width; a full multilayer transfer-
matrix emission model is deliberately out of scope.

Frequency unit conventions: frequencies and detunings in THz, delays in
fs, lengths in nm; c = 299792.458 nm THz.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import AsymmetricSpectrum, GridTooNarrow, InvalidState, OutOfRange
from .materials import resolve_index_model

C_NM_THZ = 299792.458  # speed of light in nm*THz


@dataclass(frozen=True)
class FilmStack:
    """The film etalon, and the ``[film]`` section: its fields are the keys.

    Each index model is a material name from the data file or a plain number
    (a constant index). The stack resolves them once, when it is made: a
    thickness that is not positive (NaN included), an unknown material or a
    constant that is not finite and positive raises ValueError, which names
    the index (film, substrate or ambient). The stack does not depend on the
    pump: ``joint_spectrum`` takes the pump wavelength beside it.
    """

    thickness_nm: float
    film_index: object
    substrate_index: object
    ambient_index: object

    def __post_init__(self):
        if not self.thickness_nm > 0:  # False for NaN
            raise ValueError("film thickness must be positive")
        models = []
        for name in ("film", "substrate", "ambient"):
            try:
                models.append(resolve_index_model(getattr(self, f"{name}_index")))
            except (KeyError, ValueError) as exc:  # their messages name the model
                raise ValueError(f"{name} index: {exc.args[0]}") from None
        object.__setattr__(self, "_models", tuple(models))

    def indices(self, nu_thz):
        """(n_film, n_substrate, n_ambient) at frequency nu (THz)."""
        lam_um = C_NM_THZ / np.asarray(nu_thz, dtype=float) * 1e-3
        return tuple(model.index(lam_um) for model in self._models)


@dataclass(frozen=True)
class SpectralAmplitude:
    """Complex pair amplitude on a uniform detuning grid, signal at v0 + W.

    ``response`` is the detector/filter intensity multiplier on the same
    grid, ones for a bare spectrum; ``intensity`` folds it in.
    """

    omega_thz: np.ndarray
    phi: np.ndarray
    pump_nm: float
    response: np.ndarray

    @property
    def intensity(self) -> np.ndarray:
        return np.abs(self.phi) ** 2 * self.response

    @property
    def degenerate_nu_thz(self) -> float:
        return C_NM_THZ / self.pump_nm / 2.0


def default_grid(span_thz: float, points: int) -> np.ndarray:
    """Uniform detuning grid, symmetric about zero."""
    return np.linspace(-span_thz, span_thz, points)


def check_delays(span_thz: float, points: int, delays_fs):
    """OutOfRange unless every delay (fs) lies within half the period of g(tau)
    on ``default_grid(span_thz, points)``: that grid's detunings are spaced
    2 span_thz / (points - 1) THz apart, so g(tau + P) and g(P - tau) are
    both +-g(tau) for P = 500 (points - 1) / span_thz fs. A delay past
    P/2 = 250 (points - 1) / span_thz fs shows an alias of a shorter one.
    """
    half_period = 250.0 * (points - 1) / span_thz
    reach = max(abs(float(d)) for d in delays_fs)
    if not reach <= half_period:
        raise OutOfRange(
            f"delays reach {reach:.10g} fs, past {half_period:.10g} fs, half the period of "
            "g(tau) on the [spectrum] grid (250 (points - 1) / span_thz fs)"
        )


def _airy_factor(indices, nu_thz, thickness_nm: float):
    n_f, n_s, n_a = indices
    r1 = (n_f - n_a) / (n_f + n_a)
    r2 = (n_f - n_s) / (n_f + n_s)
    t = 2.0 * n_f / (n_f + n_s)
    phase = 2.0 * np.pi * n_f * np.asarray(nu_thz) * thickness_nm / C_NM_THZ
    return t / (1.0 - r1 * r2 * np.exp(2j * phase))


def _wavevector(n_f, nu_thz):
    return 2.0 * np.pi * n_f * np.asarray(nu_thz) / C_NM_THZ


def check_grid(grid) -> np.ndarray:
    """The detuning grid (THz) as floats; GridTooNarrow unless it covers +-100 THz."""
    omega = np.asarray(grid, dtype=float)
    if omega.max() < 100.0 or omega.min() > -100.0:
        raise GridTooNarrow(
            f"grid [{omega.min():g}, {omega.max():g}] THz must cover +-100 THz"
        )
    return omega


def joint_spectrum(stack: FilmStack, pump_nm: float, grid) -> SpectralAmplitude:
    """Degenerate-pair spectral amplitude of the film ``stack`` pumped at
    ``pump_nm``, on the detuning grid (THz).

    The grid must cover at least +-100 THz; the packaged ``[spectrum]`` grid,
    +-150 THz in 4096 points, resolves the ~10 fs interference features with margin.
    """
    omega = check_grid(grid)
    nu_p = C_NM_THZ / pump_nm
    nu0 = nu_p / 2.0
    nu_s, nu_i = nu0 + omega, nu0 - omega
    n_p, n_s, n_i = stack.indices(nu_p), stack.indices(nu_s), stack.indices(nu_i)

    dk = _wavevector(n_p[0], nu_p) - _wavevector(n_s[0], nu_s) - _wavevector(n_i[0], nu_i)
    phase_mismatch = dk * stack.thickness_nm / 2.0
    phi = (
        np.sinc(phase_mismatch / np.pi)
        * _airy_factor(n_p, nu_p, stack.thickness_nm)
        * _airy_factor(n_s, nu_s, stack.thickness_nm)
        * _airy_factor(n_i, nu_i, stack.thickness_nm)
    )
    return SpectralAmplitude(omega_thz=omega, phi=phi, pump_nm=pump_nm,
                             response=np.ones_like(omega))


def longpass_pair_response(spectrum: SpectralAmplitude, cuton_nm, edge_thz: float) -> np.ndarray:
    """Detection-band multiplier of the pump-rejection long-pass filters.

    Each filter transmits frequencies below its cut-on frequency
    c/cuton_nm with a logistic edge of width ``edge_thz``; both photons of
    a pair traverse every filter, so the pair response is the product of
    single-photon transmissions at v0 + W and v0 - W.
    """
    nu0 = spectrum.degenerate_nu_thz
    nu_s = nu0 + spectrum.omega_thz
    nu_i = nu0 - spectrum.omega_thz
    resp = np.ones_like(spectrum.omega_thz)
    for cuton in np.atleast_1d(cuton_nm):
        nu_max = C_NM_THZ / float(cuton)
        for nu in (nu_s, nu_i):
            resp = resp / (1.0 + np.exp((nu - nu_max) / edge_thz))
    return resp


def gaussian_response(spectrum: SpectralAmplitude, fwhm_thz: float) -> np.ndarray:
    """Gaussian pair-response multiplier centered on degeneracy."""
    return np.exp(-4.0 * np.log(2.0) * (spectrum.omega_thz / fwhm_thz) ** 2)


def lorentzian_response(spectrum: SpectralAmplitude, fwhm_thz: float) -> np.ndarray:
    """Lorentzian pair-response multiplier centered on degeneracy."""
    return 1.0 / (1.0 + (2.0 * spectrum.omega_thz / fwhm_thz) ** 2)


#: [detector_response] shape -> pair-response multiplier; "none" adds none
DETECTOR_RESPONSES = {"none": None, "gaussian": gaussian_response, "lorentzian": lorentzian_response}


def apply_detector_response(spectrum: SpectralAmplitude, response) -> SpectralAmplitude:
    """Fold a tabulated intensity multiplier into the spectrum.

    Multipliers compose: applying twice multiplies the stored response.
    """
    response = np.asarray(response, dtype=float)
    if response.shape != spectrum.omega_thz.shape:
        raise ValueError("response must be tabulated on the spectrum grid")
    if np.any(response < 0.0):
        raise ValueError("response must be nonnegative")
    return replace(spectrum, response=spectrum.response * response)


def intensity_fwhm(spectrum: SpectralAmplitude) -> float:
    """Full width at half maximum of the intensity lobe containing W = 0.

    The etalon produces side resonances far from degeneracy; the quoted
    spectral width is that of the degenerate lobe, found by hill-climbing
    from the grid center and interpolating the half-maximum crossings.
    """
    s = spectrum.intensity
    omega = spectrum.omega_thz
    i = len(s) // 2
    while 0 < i < len(s) - 1 and (s[i + 1] > s[i] or s[i - 1] > s[i]):
        i = i + 1 if s[i + 1] > s[i] else i - 1
    half = s[i] / 2.0
    lo = i
    while lo > 0 and s[lo] > half:
        lo -= 1
    hi = i
    while hi < len(s) - 1 and s[hi] > half:
        hi += 1
    if s[lo] > half or s[hi] > half:
        raise InvalidState("half-maximum crossing lies outside the grid")
    left = np.interp(half, [s[lo], s[lo + 1]], [omega[lo], omega[lo + 1]])
    right = np.interp(half, [s[hi], s[hi - 1]], [omega[hi], omega[hi - 1]])
    return float(right - left)


def _check_symmetric(spectrum: SpectralAmplitude) -> np.ndarray:
    s = spectrum.intensity
    norm = float(s.sum())
    if norm <= 0.0:
        raise InvalidState("spectrum has zero total weight")
    if np.max(np.abs(s - s[::-1])) > 1e-9 * float(s.max()):
        raise AsymmetricSpectrum(
            "intensity is not symmetric in detuning; degenerate HOM analysis "
            "requires identical signal/idler marginals"
        )
    return s


#: matrix elements in one block of the HOM kernel: 2**19 float64 is 4 MB. A
#: direct block holds at most this many phases (fewer delays on a finer grid);
#: the angle-addition split keeps its shared tables and one block of head rows
#: within twice this, so memory stays O(N + block) for any grid
_BLOCK_ELEMENTS = 2**19


def _progression_step(taus: np.ndarray):
    """The step of ``taus`` as an arithmetic progression, or None if it is none.

    Every delay must lie within 8 eps (|taus[0]| + |taus[-1]|) of
    taus[0] + j * step, which holds for np.linspace and np.arange grids (they
    stay within about 3 eps of it). Fewer than two delays form none.
    """
    if taus.size < 2:
        return None
    step = (taus[-1] - taus[0]) / (taus.size - 1)
    drift = np.max(np.abs(taus - (taus[0] + np.arange(taus.size) * step)))
    tol = 8.0 * np.finfo(float).eps * (abs(taus[0]) + abs(taus[-1]))
    return step if drift <= tol else None  # False for NaN or infinite delays


def _direct_rows(s: np.ndarray, omega: np.ndarray, taus: np.ndarray) -> np.ndarray:
    """sum_n s_n cos(2 pi 1e-3 tau W_n) for each tau, one cosine per element."""
    phases = np.outer(taus, omega)
    phases *= 2.0e-3 * np.pi
    return np.cos(phases, out=phases) @ s


def _angle_sum_rows(s, w, heads, drift, cos_t, sin_t) -> np.ndarray:
    """(len(heads), Q) sums sum_n s_n cos(w_n tau) at tau = heads[p] + t_q + drift[p, q].

    Given the Q-row tables cos(w t) and sin(w t), angle addition gives the sum
    at heads[p] + t_q as two matrix products, and the ulp-sized ``drift`` is
    added to first order with two more, for the slope -sum_n w_n s_n sin(w_n tau).
    """
    phases = np.outer(heads, w)
    cos_h = np.cos(phases)
    cos_h *= s
    sin_h = np.sin(phases, out=phases)
    sin_h *= s
    sums = cos_h @ cos_t.T - sin_h @ sin_t.T
    cos_h *= w
    sin_h *= w
    sums -= drift * (sin_h @ cos_t.T + cos_h @ sin_t.T)
    return sums


def _contrast(s: np.ndarray, omega: np.ndarray, taus: np.ndarray) -> np.ndarray:
    """g(taus), computed in consecutive blocks of delays.

    g(tau) = sum_n s_n cos(w_n tau) / sum(s), w = 2 pi 1e-3 W. Delays that
    form an arithmetic progression (``_progression_step``) are split as
    tau_j = T_p + t_q with j = p Q + q, T_p = taus[p Q] and t_q = q step, and

        cos(w (T_p + t_q)) = cos(w T_p) cos(w t_q) - sin(w T_p) sin(w t_q),

    so a block of head rows costs two matrix products against Q-row tables of
    cos(w t) and sin(w t) that all blocks share: about 2 (Q + M / Q) rows of
    trigonometry for M delays instead of M. A float grid is a progression
    only to a few ulp, and a delay that is off by d shifts g by g'(tau) d,
    up to 2e-14 on the steep unfiltered spectrum; two more products add each
    delay's departure from T_p + t_q to first order. Q = ceil(sqrt(M)),
    capped at half a block of rows, and the tables plus one block of heads
    stay within 2 * _BLOCK_ELEMENTS elements. Other delays, and grids too
    fine for Q >= 2, take the direct sum in blocks of at most
    _BLOCK_ELEMENTS phases (one delay row when the grid alone is larger).
    """
    norm = s.sum()
    g = np.empty(taus.size)
    rows = max(1, _BLOCK_ELEMENTS // omega.size)
    step = _progression_step(taus)
    span = 0 if step is None else min(rows // 2, math.isqrt(taus.size - 1) + 1)
    if span < 2:
        for start in range(0, taus.size, rows):
            g[start:start + rows] = _direct_rows(s, omega, taus[start:start + rows]) / norm
        return g
    w = omega * (2.0e-3 * np.pi)
    offsets = np.arange(span) * step
    phases = np.outer(offsets, w)
    cos_t = np.cos(phases)
    sin_t = np.sin(phases, out=phases)
    heads = taus[::span]
    # each delay's departure from heads[p] + offsets[q]; the padding past the
    # last delay is cut off below
    drift = np.zeros(heads.size * span)
    drift[:taus.size] = taus
    drift = drift.reshape(heads.size, span) - heads[:, None] - offsets
    per_block = rows - span
    for p in range(0, heads.size, per_block):
        stop = p + per_block
        sums = _angle_sum_rows(s, w, heads[p:stop], drift[p:stop], cos_t, sin_t).ravel()
        start = p * span
        g[start:start + sums.size] = sums[:taus.size - start] / norm
    return g


def interference_contrast(spectrum: SpectralAmplitude, delays_fs) -> np.ndarray:
    """g(tau): normalized cosine transform of the spectral intensity.

    g(tau) = sum I(W) cos(2 pi W tau * 1e-3) / sum I(W); the 1e-3 converts
    THz * fs into cycles. Real and even for symmetric spectra, g(0) = 1.
    Delays are flattened. The sum is exact (no FFT, no interpolation):

    - Delays on a uniform grid (an arithmetic progression, ascending or
      descending, as np.linspace makes) are split as tau = T + t by angle
      addition, and each block of delays costs two small matrix products
      against shared cos/sin tables of the offsets t, plus two for the
      first-order correction of the grid's ulp-level unevenness. On the
      16,384-point grid 601 delays take 108 rows of sines and cosines
      instead of 601. It agrees with the one-cosine-per-element sum to
      2.2e-15 on the 4,096- to 16,384-point film spectra, band-filtered or
      not, for linspace grids of up to 4,001 delays within +-400 fs.
    - Any other delays take that direct sum.

    Either way memory is bounded by the grid plus 2 * _BLOCK_ELEMENTS
    (8 MB) of trigonometric tables, however many delays or grid points
    (``_contrast``, after the symmetry check).
    """
    s = _check_symmetric(spectrum)
    return _contrast(s, spectrum.omega_thz, np.asarray(delays_fs, dtype=float).ravel())


#: delays in hom_fwhm's first coarse chunk; each later chunk doubles the prefix
_FIRST_SCAN = 128

#: the longest delay (fs) hom_fwhm's coarse scan reaches
_TAU_MAX_FS = 400.0


#: cap on the root refinement's steps; bisection alone needs about 60 from
#: any bracket of doubles
_ROOT_MAX_STEPS = 100


def _half_crossing(s: np.ndarray, omega: np.ndarray, lo: float, hi: float, tau: float) -> float:
    """The delay in [lo, hi] where g crosses 1/2, given g(lo) >= 1/2 > g(hi).

    Newton steps from ``tau`` on the exact sum, with the closed-form slope
    g'(tau) = -sum w sin(w tau) I / sum I and w = 2 pi 1e-3 W, shrink the
    bracket; a step that leaves the bracket, or a slope g' >= 0, is replaced
    by bisection. It stops when a Newton step is at most 1e-13 tau or the
    bracket is that narrow, and raises InvalidState after _ROOT_MAX_STEPS.
    """
    norm = s.sum()
    w = omega * (2.0e-3 * np.pi)
    ws = w * s
    for _ in range(_ROOT_MAX_STEPS):
        phases = w * tau
        f = (np.cos(phases) @ s) / norm - 0.5
        if f >= 0.0:
            lo = tau
        else:
            hi = tau
        slope = -(np.sin(phases) @ ws) / norm
        step = -f / slope if slope < 0.0 else np.nan
        if lo <= tau + step <= hi:
            if abs(step) <= 1e-13 * tau:
                return float(tau + step)
            tau += step
        else:
            tau = 0.5 * (lo + hi)
            if hi - lo <= 1e-13 * tau:
                return float(tau)
    raise InvalidState(f"half-depth crossing not resolved in {_ROOT_MAX_STEPS} steps")


def hom_fwhm(spectrum: SpectralAmplitude) -> float:
    """Full width of the HOM dip at half its asymptotic depth.

    The dip R(tau) runs from 0 at tau = 0 to 1/2 at large delay; the
    half-depth points are where g crosses 1/2, and the width is twice the
    first crossing (the curve is even in tau). Since dip + peak = 1, this
    is also the width of the peak.

    g is scanned on 4001 delays over [0, _TAU_MAX_FS] (400 fs) by
    interference_contrast's kernel ``_contrast``, in chunks that double the
    scanned prefix (the first _FIRST_SCAN delays, then up to 256, 512, ...),
    and the scan stops at the first chunk in which g < 1/2. The delays are
    uniform, so each chunk takes the angle-addition split: a crossing in the
    first chunk costs 46 rows of sines and cosines, not the 128 of a direct
    scan. The crossing is then refined on the exact sum between the last
    coarse delay with g >= 1/2 and the first with g < 1/2: Newton steps on
    the closed-form slope g'(tau), started from the secant point of that
    bracket, fall back to bisection whenever a step would leave the
    shrinking bracket, and stop once a step is at most 1e-13 tau.
    """
    s = _check_symmetric(spectrum)
    omega = spectrum.omega_thz
    coarse = np.linspace(0.0, _TAU_MAX_FS, 4001)
    start, g_last = 0, np.nan  # g_last: g at the last delay of the previous chunk
    while start < coarse.size:
        stop = max(_FIRST_SCAN, 2 * start)
        g = _contrast(s, omega, coarse[start:stop])
        below = np.flatnonzero(g < 0.5)
        if below.size:
            break
        g_last = g[-1]
        start = stop
    else:
        raise InvalidState(f"g(tau) never falls below 1/2 out to {_TAU_MAX_FS} fs")
    j = int(below[0])
    if start + j == 0:
        raise InvalidState("g(0) < 1/2; spectrum is not normalizable as a HOM kernel")
    lo, hi = float(coarse[start + j - 1]), float(coarse[start + j])
    g_lo, g_hi = (g[j - 1] if j else g_last), g[j]
    tau = lo + (hi - lo) * float((g_lo - 0.5) / (g_lo - g_hi))
    return 2.0 * _half_crossing(s, omega, lo, hi, tau)
