"""Two-photon spectrum and interference tests.

Frozen numbers come from an independent quadrature script run on the same
published index data: with the shipped stack and the long-pass detection
band (cut-ons 850/990 nm, 3 THz edges) the degenerate lobe is 55.81 THz
wide and the interference dip 11.75 fs; the unfiltered spectrum keeps its
far double-resonance lobes and dips at 3.73 fs.
"""

import time
import tracemalloc
from dataclasses import replace
from functools import partial

import numpy as np
import pytest
from scipy.optimize import brentq

from spdcfilm.config import load_config
from spdcfilm.errors import AsymmetricSpectrum, GridTooNarrow, InvalidState
from spdcfilm.spectral import (
    _BLOCK_ELEMENTS,
    FilmStack,
    SpectralAmplitude,
    _progression_step,
    apply_detector_response,
    default_grid,
    gaussian_response,
    hom_fwhm,
    intensity_fwhm,
    interference_contrast,
    joint_spectrum,
    longpass_pair_response,
    lorentzian_response,
)

SEED = 20260819
SHIPPED = load_config()
STACK = SHIPPED.film  # 400 nm of GaP on fused silica
PUMP_NM = SHIPPED.pump.wavelength_nm  # 638 nm
POINTS = SHIPPED.spectrum.points  # 4096


def _grid(points):
    """The shipped [spectrum] span, +-150 THz, on ``points`` points."""
    return default_grid(SHIPPED.spectrum.span_thz, points)


def _band(spec):
    """The shipped [filters] long-pass band (850/990 nm cut-ons, 3 THz edges) on ``spec``."""
    return longpass_pair_response(spec, SHIPPED.filters.longpass_cuton_nm,
                                  SHIPPED.filters.edge_width_thz)


def _banded_default():
    spec = joint_spectrum(STACK, PUMP_NM, _grid(POINTS))
    return apply_detector_response(spec, _band(spec))


def test_default_band_spectral_width():
    assert intensity_fwhm(_banded_default()) == pytest.approx(55.81, abs=0.05)


def test_default_band_dip_width():
    assert hom_fwhm(_banded_default()) == pytest.approx(11.75, abs=0.02)


def test_unfiltered_spectrum_dips_faster():
    # the raw etalon spectrum keeps far side lobes; its correlation time
    # is set by the full emission bandwidth, not the degenerate lobe
    spec = joint_spectrum(STACK, PUMP_NM, _grid(POINTS))
    assert hom_fwhm(spec) == pytest.approx(3.73, abs=0.02)
    assert intensity_fwhm(spec) == pytest.approx(55.8, abs=0.3)


def test_grid_requirements():
    with pytest.raises(GridTooNarrow):
        joint_spectrum(STACK, PUMP_NM, default_grid(80.0, POINTS))
    grid = _grid(POINTS)
    assert np.allclose(grid, -grid[::-1])
    assert np.ptp(np.diff(grid)) < 1e-9


def test_grid_doubling_stability():
    base = _banded_default()
    spec2 = joint_spectrum(STACK, PUMP_NM, _grid(8192))
    spec2 = apply_detector_response(spec2, _band(spec2))
    assert intensity_fwhm(spec2) == pytest.approx(intensity_fwhm(base), rel=5e-3)
    assert hom_fwhm(spec2) == pytest.approx(hom_fwhm(base), rel=5e-3)


def test_gaussian_closed_form():
    # pure Gaussian spectrum: dip FWHM = 4 ln2 / (pi dnu) = 882.5/dnu fs THz
    grid = default_grid(span_thz=150.0, points=8192)
    for fwhm in (30.0, 50.0, 80.0):
        phi = np.exp(-2.0 * np.log(2.0) * (grid / fwhm) ** 2).astype(complex)
        spec = SpectralAmplitude(omega_thz=grid, phi=phi, pump_nm=638.0,
                                 response=np.ones_like(grid))
        assert intensity_fwhm(spec) == pytest.approx(fwhm, rel=1e-3)
        expected = 4.0 * np.log(2.0) / (np.pi * fwhm) * 1e3
        assert hom_fwhm(spec) == pytest.approx(expected, rel=1e-2)


def test_contrast_properties():
    spec = _banded_default()
    taus = np.linspace(-80.0, 80.0, 161)
    g = interference_contrast(spec, taus)
    assert interference_contrast(spec, [0.0])[0] == pytest.approx(1.0, abs=1e-12)
    assert np.all(np.abs(g) <= 1.0 + 1e-12)
    assert np.allclose(g, g[::-1], atol=1e-12)  # even in delay


def test_dip_peak_complementarity():
    # a run's HOM dip and peak are (1 -+ g) / 2
    g = interference_contrast(_banded_default(), np.linspace(-40.0, 40.0, 81))
    dip, peak = (1.0 - g) / 2.0, (1.0 + g) / 2.0
    assert np.allclose(dip + peak, 1.0, atol=1e-12)
    assert dip[40] == pytest.approx(0.0, abs=1e-12)
    assert peak[40] == pytest.approx(1.0, abs=1e-12)
    # both sides approach 1/2 beyond the coherence time
    assert abs(dip[0] - 0.5) < 0.1 and abs(dip[-1] - 0.5) < 0.1


def _dense_contrast(spec, taus):
    # the kernel as one len(taus) x len(grid) cosine matrix
    s = spec.intensity
    return (np.cos(2.0e-3 * np.pi * np.outer(taus, spec.omega_thz)) @ s) / s.sum()


def test_blockwise_contrast_matches_dense_formula():
    spec = _banded_default()
    rows = _BLOCK_ELEMENTS // spec.omega_thz.size  # delays in one direct block
    assert spec.omega_thz.size == 4096 and rows > 1
    # ascending and descending grids; 97 and 601 delays leave a ragged last
    # row of the angle-addition split
    for n in (0, 1, 2, 3, 97, rows - 1, rows, rows + 1, 601):
        for taus in (np.linspace(-200.0, 200.0, n), np.linspace(200.0, -200.0, n)):
            assert (_progression_step(taus) is not None) == (n >= 2)
            g = interference_contrast(spec, taus)
            assert g.shape == (n,)
            np.testing.assert_allclose(g, _dense_contrast(spec, taus), rtol=0.0, atol=1e-14)
    # a sorted random delay set is no progression: it takes the direct sum
    taus = np.sort(np.random.default_rng(SEED).uniform(-200.0, 200.0, 601))
    assert _progression_step(taus) is None
    np.testing.assert_allclose(
        interference_contrast(spec, taus), _dense_contrast(spec, taus), rtol=0.0, atol=1e-14
    )
    # the unfiltered spectrum's steep far lobes: without the first-order term
    # for the grid's ulp-level unevenness, g here is off by 1.6e-14
    raw = joint_spectrum(STACK, PUMP_NM, _grid(POINTS))
    taus = np.linspace(-400.0, 400.0, 601)
    np.testing.assert_allclose(
        interference_contrast(raw, taus), _dense_contrast(raw, taus), rtol=0.0, atol=1e-14
    )
    # the fine_spectrum benchmark case: 601 delays over +-60 fs on 16,384 points
    fine = _fine_lorentzian()
    taus = np.linspace(-60.0, 60.0, 601)
    dense = np.concatenate([_dense_contrast(fine, part) for part in np.array_split(taus, 16)])
    np.testing.assert_allclose(interference_contrast(fine, taus), dense, rtol=0.0, atol=1e-14)


def test_contrast_memory_on_fine_grid():
    # the split's tables and one block of head rows stay within 8 MB
    spec = _fine_lorentzian()
    taus = np.linspace(-60.0, 60.0, 601)
    _, peak_mb = _traced_peak_mb(lambda: interference_contrast(spec, taus))
    assert peak_mb < 12.0


def _gaussian_spectrum(fwhm_thz):
    grid = _grid(POINTS)
    phi = np.exp(-2.0 * np.log(2.0) * (grid / fwhm_thz) ** 2).astype(complex)
    return SpectralAmplitude(omega_thz=grid, phi=phi, pump_nm=638.0,
                             response=np.ones_like(grid))


def _fine_lorentzian():
    # the 16,384-point banded spectrum with the 90 THz Lorentzian detector
    spec = joint_spectrum(STACK, PUMP_NM, _grid(16384))
    spec = apply_detector_response(spec, _band(spec))
    return apply_detector_response(spec, lorentzian_response(spec, 90.0))


def _dense_crossing(spec, tau_max_fs=400.0):
    # (k, root): the first delay k of hom_fwhm's 4001-point coarse grid where
    # the dense kernel falls below 1/2 (scanned 64 delays at a time), and the
    # crossing in [coarse[k - 1], coarse[k]] refined to xtol 1e-14
    coarse = np.linspace(0.0, tau_max_fs, 4001)
    for start in range(0, coarse.size, 64):
        below = np.flatnonzero(_dense_contrast(spec, coarse[start:start + 64]) < 0.5)
        if below.size:
            break
    k = start + int(below[0])
    root = brentq(lambda tau: _dense_contrast(spec, [tau])[0] - 0.5,
                  coarse[k - 1], coarse[k], xtol=1e-14)
    return k, root


@pytest.mark.parametrize(
    "make_spec, first_block",
    # the banded dip crosses 1/2 inside the first block of delays; a 20 THz
    # Gaussian (~44 fs dip) only in the second
    [(_banded_default, True), (lambda: _gaussian_spectrum(20.0), False)],
)
def test_early_exit_fwhm_matches_dense_scan(make_spec, first_block):
    spec = make_spec()
    # the first 1001 delays (0-100 fs) of hom_fwhm's 4001-point coarse grid
    coarse = np.linspace(0.0, 400.0, 4001)[:1001]
    k = np.flatnonzero(_dense_contrast(spec, coarse) < 0.5)[0]
    assert (k < _BLOCK_ELEMENTS // spec.omega_thz.size) == first_block
    crossing = brentq(
        lambda tau: _dense_contrast(spec, [tau])[0] - 0.5,
        coarse[k - 1], coarse[k], xtol=1e-14,
    )
    assert hom_fwhm(spec) == pytest.approx(2.0 * crossing, rel=0.0, abs=1e-12)


@pytest.mark.parametrize(
    "make_spec",
    # the banded default and the 20 THz Gaussian are in the test above
    [_fine_lorentzian, partial(_gaussian_spectrum, 5.0), partial(_gaussian_spectrum, 50.0)],
    ids=["lorentzian_16384", "gaussian_5", "gaussian_50"],
)
def test_fwhm_matches_tight_dense_root(make_spec):
    spec = make_spec()
    _, crossing = _dense_crossing(spec)
    assert hom_fwhm(spec) == pytest.approx(2.0 * crossing, rel=0.0, abs=1e-12)


def test_fwhm_bisects_where_newton_leaves_the_bracket(monkeypatch):
    # 100 fs coarse steps put the 20 THz Gaussian's crossing (~22 fs) in the
    # bracket [0, 100] fs, where g is nearly flat at the far end: a Newton
    # step from the secant point (g(0) = 1, g(100) ~ 0) overshoots the bracket
    spec = _gaussian_spectrum(20.0)
    tau_max_fs = 4.0e5
    monkeypatch.setattr("spdcfilm.spectral._TAU_MAX_FS", tau_max_fs)
    k, crossing = _dense_crossing(spec, tau_max_fs)
    assert k == 1
    lo, hi = 0.0, 100.0
    s, w = spec.intensity, 2.0e-3 * np.pi * spec.omega_thz
    g_lo, g_hi = _dense_contrast(spec, [lo, hi])
    secant = lo + (hi - lo) * (g_lo - 0.5) / (g_lo - g_hi)
    slope = -(np.sin(w * secant) @ (w * s)) / s.sum()
    newton = secant - (_dense_contrast(spec, [secant])[0] - 0.5) / slope
    assert not lo <= newton <= hi
    assert hom_fwhm(spec) == pytest.approx(2.0 * crossing, rel=0.0, abs=1e-12)


def test_fwhm_step_cap_raises(monkeypatch):
    monkeypatch.setattr("spdcfilm.spectral._ROOT_MAX_STEPS", 2)
    monkeypatch.setattr("spdcfilm.spectral._TAU_MAX_FS", 4.0e5)
    with pytest.raises(InvalidState, match="not resolved in 2 steps"):
        hom_fwhm(_gaussian_spectrum(20.0))


def _traced_peak_mb(fn):
    tracemalloc.start()
    try:
        result = fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak / 2**20


def test_fwhm_memory_at_default_grid():
    spec = _banded_default()
    _, peak_mb = _traced_peak_mb(lambda: hom_fwhm(spec))
    assert peak_mb < 20.0


def test_hom_kernel_memory_bounded_on_fine_grid():
    # 16x the default grid: a dense 4001-delay kernel would need 4 GB
    spec = joint_spectrum(STACK, PUMP_NM, _grid(65536))
    spec = apply_detector_response(spec, _band(spec))
    fwhm_thz = SHIPPED.detector_response.fwhm_thz
    spec = apply_detector_response(spec, lorentzian_response(spec, fwhm_thz))
    start = time.perf_counter()
    (width, curve), peak_mb = _traced_peak_mb(
        lambda: (hom_fwhm(spec), interference_contrast(spec, np.linspace(-300.0, 300.0, 601)))
    )
    elapsed = time.perf_counter() - start
    assert curve.shape == (601,)
    assert width == pytest.approx(15.37, abs=0.02)
    assert peak_mb < 32.0
    assert elapsed <= 30.0


def test_responses_compose_multiplicatively():
    spec = _banded_default()
    g1 = apply_detector_response(spec, gaussian_response(spec, 60.0))
    g2 = apply_detector_response(g1, gaussian_response(g1, 60.0))
    direct = apply_detector_response(spec, gaussian_response(spec, 60.0) ** 2)
    assert np.allclose(g2.intensity, direct.intensity, atol=1e-15)
    with pytest.raises(ValueError):
        apply_detector_response(spec, np.ones(7))
    with pytest.raises(ValueError):
        apply_detector_response(spec, -np.ones_like(spec.omega_thz))


def test_asymmetric_spectrum_rejected():
    grid = _grid(POINTS)
    phi = np.exp(-(((grid - 10.0) / 40.0) ** 2)).astype(complex)
    spec = SpectralAmplitude(omega_thz=grid, phi=phi, pump_nm=638.0,
                             response=np.ones_like(grid))
    with pytest.raises(AsymmetricSpectrum):
        interference_contrast(spec, [0.0, 5.0])


def test_detector_narrowing_tradeoff():
    """Multiplicative narrowing cannot shorten the correlation per THz.

    The dip-width x spectral-width product is shape-bound: ~882.5 fs THz
    for Gaussian profiles and 441.3 fs THz for Lorentzian ones. On the
    etalon spectrum, a Lorentzian response of 90 THz FWHM lands at an
    effective width near 44 THz with a 15.4 fs dip - inside the 12-17 fs
    window of slow-detector measurements - while a Lorentzian response
    that squeezes the effective width to ~34 THz pushes the dip to 19.8 fs,
    and a Gaussian one that reaches ~29 THz pushes it past 17 fs, because a
    multiplied-down spectrum lacks the heavy tails a 12-17 fs dip at that
    width would require.
    """
    base = _banded_default()

    lor90 = apply_detector_response(base, lorentzian_response(base, 90.0))
    assert intensity_fwhm(lor90) == pytest.approx(43.97, abs=0.1)
    assert 12.0 <= hom_fwhm(lor90) <= 17.0

    lor50 = apply_detector_response(base, lorentzian_response(base, 50.0))
    assert intensity_fwhm(lor50) == pytest.approx(34.15, abs=0.2)
    assert hom_fwhm(lor50) > 17.0  # 19.8 fs: outside the window

    gauss = apply_detector_response(base, gaussian_response(base, 36.0))
    assert intensity_fwhm(gauss) == pytest.approx(29.3, abs=0.5)
    assert hom_fwhm(gauss) > 17.0


def test_film_stack_rejects_nan_thickness():
    with pytest.raises(ValueError, match="film thickness must be positive"):
        FilmStack(float("nan"), "gap", "fused_silica", 1.0)


def test_film_stack_checks_its_index_models_when_made():
    specs = {"film": "gap", "substrate": "fused_silica", "ambient": 1.0}

    def make(name, spec):
        return FilmStack(400.0, **{f"{key}_index": value
                                   for key, value in {**specs, name: spec}.items()})

    for position, name in enumerate(specs):
        with pytest.raises(ValueError, match=f"^{name} index: unknown material 'unobtainium'"):
            make(name, "unobtainium")
        for bad in (float("nan"), 0.0, -1.0):
            with pytest.raises(ValueError, match=f"^{name} index: constant index .* must be "
                                                 "a finite positive refractive index"):
                make(name, bad)
        assert make(name, 3.5).indices(470.0)[position] == 3.5


def test_constant_index_stack_runs():
    stack = replace(STACK, film_index=3.1, substrate_index=1.45, ambient_index=1.0)
    spec = joint_spectrum(stack, PUMP_NM, _grid(POINTS))
    assert np.all(np.isfinite(spec.intensity))
    assert spec.intensity.max() > 0.0
