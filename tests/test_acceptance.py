"""Acceptance checks for the shipped defaults.

Each function asserts one headline behavior of the package at a fixed
tolerance, so ``pytest -v tests/test_acceptance.py`` prints one pass/fail
line per check.  Timed checks use wall-clock budgets; statistical checks
fix their seeds.  Where a check exercises the full pipeline it goes
through the same public entry points the CLI uses.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from spdcfilm import chi2_zincblende, load_config, pump_ket, spdc_amplitudes
from spdcfilm.bell import chsh_value, default_chsh_settings, split_postselect_rho
from spdcfilm.crystal import CrystalOrientation
from spdcfilm.delayline import plate_delay_fs
from spdcfilm.histogram import simulate_counts, subtract_accidentals
from spdcfilm.materials import load_material
from spdcfilm.experiment import spectral_section
from spdcfilm.qutrit import (
    concurrence,
    depolarize,
    pure_density_matrix,
    purity,
    schmidt_number,
)
from spdcfilm.spectral import (
    default_grid,
    hom_fwhm,
    intensity_fwhm,
    joint_spectrum,
    longpass_pair_response,
    lorentzian_response,
)
from spdcfilm.tomography import (
    CoincidenceRecords,
    _fringe_form,
    _fringe_visibility,
    default_protocol,
    forward_rates,
    fringe_curve,
    named_protocol,
    reconstruct,
)

SEED = 20260819
SQRT2 = float(np.sqrt(2.0))


def _shipped_orientation():
    cfg = load_config()
    return (
        chi2_zincblende(cfg.crystal.d_coefficient),
        CrystalOrientation(cfg.crystal.tilt_deg, cfg.crystal.azimuth_deg),
    )


def _random_rho(rng, dim=3):
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def test_01_qutrit_weights_h_pump():
    start = time.perf_counter()
    chi, orientation = _shipped_orientation()
    weights = spdc_amplitudes(chi, orientation, pump_ket(0.0)).weights
    elapsed = time.perf_counter() - start
    assert np.allclose(weights, [0.79, 0.00, 0.21], atol=0.03)
    assert elapsed < 1.0


def test_02_qutrit_weights_v_pump():
    start = time.perf_counter()
    chi, orientation = _shipped_orientation()
    weights = spdc_amplitudes(chi, orientation, pump_ket(90.0)).weights
    elapsed = time.perf_counter() - start
    assert np.allclose(weights, [0.03, 0.97, 0.00], atol=0.06)
    assert elapsed < 1.0


def test_03_entanglement_measures():
    assert concurrence((0.0, 1.0, 0.0)) == 1.0
    assert abs(schmidt_number(0.98) - 1.92) <= 0.02
    assert abs(schmidt_number(0.4) - 1.087) <= 0.005


def test_04_tomography_roundtrip():
    start = time.perf_counter()
    protocol = default_protocol()
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for _ in range(1000):
        rho = _random_rho(rng)
        rates = forward_rates(rho, protocol, 250.0)
        zeros = np.zeros(len(rates))
        records = CoincidenceRecords(rates, zeros, np.ones(len(rates)), zeros)
        rho_hat, _, _ = reconstruct(records, protocol)
        worst = max(worst, float(np.linalg.norm(rho_hat - rho)))
    elapsed = time.perf_counter() - start
    assert worst <= 1e-6
    assert elapsed < 10.0


def test_05_noisy_tomography_coverage():
    # full sampled pipeline at the shipped count rates: histogram floor,
    # accidental subtraction, least-squares + positivity projection
    cfg = load_config()
    chi, orientation = _shipped_orientation()
    state = spdc_amplitudes(chi, orientation, pump_ket(90.0)).state
    rho_true = depolarize(state, cfg.noise.depolarization)
    protocol = default_protocol()
    rel = forward_rates(rho_true, protocol, 1.0)
    duration = cfg.tomography.duration_per_setting_s
    excl = cfg.histogram.exclusion_bins

    hits = 0
    for seed in range(100):
        # the nine histograms of a run at this seed: one generator of their stream
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(0,)))
        counts = simulate_counts(cfg.noise, cfg.histogram, rel, duration, rng)
        raw, net, sigma = subtract_accidentals(counts, exclusion_bins=excl)
        records = CoincidenceRecords(raw, raw - net, np.full(len(raw), duration), sigma)
        rho_hat, _, _ = reconstruct(records, protocol)
        w2 = float(np.real(rho_hat[1, 1]))
        if abs(w2 - 0.97) <= 0.06 and abs(purity(rho_hat) - 1.0) <= 0.1:
            hits += 1
    assert hits >= 90


def test_06_fringe_visibility_and_nulls():
    cfg = load_config()
    mid = (0.0, 1.0, 0.0)
    # crossed-analyzer nulls of the ideal state are exact
    crossed = named_protocol(["DA", "HH"])
    nulls = forward_rates(pure_density_matrix(mid), crossed, 1.0)
    assert np.allclose(nulls, 0.0, rtol=0.0, atol=1e-14)
    # the shipped depolarization turns those nulls into a 96% fringe
    rho = depolarize(mid, cfg.noise.depolarization)
    theta = np.linspace(0.0, 360.0, 73)
    curve = fringe_curve(rho, "H", theta)
    (vis,) = _fringe_visibility(_fringe_form(rho[None], "H"))
    assert abs(vis - 0.96) <= 0.01
    rates = np.array([r for _, r in curve])
    minima = theta[rates <= rates.min() * (1.0 + 1e-9)] % 180.0
    assert np.all(np.isclose(minima, 0.0) | np.isclose(minima, 180.0))


def test_07_chsh_bound_and_werner():
    settings = default_chsh_settings()
    psi_plus = split_postselect_rho(pure_density_matrix((0.0, 1.0, 0.0)))
    werner = 0.96 * psi_plus + 0.04 * np.eye(4) / 4.0
    assert chsh_value(psi_plus, settings) == pytest.approx(SQRT2, abs=1e-10)
    assert chsh_value(werner, settings) == pytest.approx(1.357, abs=1e-3)
    rng = np.random.default_rng(SEED)
    values = [chsh_value(_random_rho(rng, dim=4), settings) for _ in range(500)]
    assert max(values) <= SQRT2 + 1e-9


def _shipped_band(detector=np.ones_like):
    """(omega, intensity): the shipped film's spectrum on the [spectrum] grid,
    in the [filters] band, times the ``detector`` response of the grid."""
    cfg = load_config()
    omega = default_grid(cfg.spectrum.span_thz, cfg.spectrum.points)
    phi = joint_spectrum(cfg.film, cfg.pump.wavelength_nm, omega)
    band = longpass_pair_response(omega, cfg.pump.wavelength_nm, cfg.filters.longpass_cuton_nm,
                                  cfg.filters.edge_width_thz)
    return omega, np.abs(phi) ** 2 * (band * detector(omega))


def test_08_spectral_width():
    spec = _shipped_band()
    fwhm = intensity_fwhm(*spec)
    assert 40.0 <= fwhm <= 60.0  # 50 THz +- 20%


def test_09_hom_interference():
    """Interference identities, dip width, and slow-detector narrowing.

    The narrowing step folds the shipped slow-detector response (a
    Lorentzian of ``[detector_response] fwhm_thz``, 90 THz) into the
    band-filtered spectrum, and asserts that it narrows the spectrum to
    43.97 THz and widens the dip into the 12-17 fs window of slow-detector
    measurements.  Narrowing to ~35 THz would not do that: the
    pure-Lorentzian law (dip width x spectral width = 441.3 fs THz, so
    12.6 fs at 35 THz) does not hold for a response multiplied onto the
    spectrum, whose tails the long-pass band clips above |W| ~ 68 THz.
    There the product stays at 663-678 fs THz, and ~35 THz means a
    ~20 fs dip (test_detector_narrowing_tradeoff pins 34.15 THz, 19.8 fs).
    """
    # the shipped [detector_response] is none, so the section's curves are
    # those of _shipped_band(), on the [hom] grid, which holds tau = 0
    section = spectral_section(load_config())
    assert section.detector_response == "none"
    (zero,) = np.flatnonzero(section.delays_fs == 0.0)
    assert section.r_dip[zero] <= 1e-10
    assert section.r_peak[zero] >= 1.0 - 1e-10
    assert np.allclose(section.r_dip + section.r_peak, 1.0, atol=1e-12)
    spec = _shipped_band()
    assert abs(hom_fwhm(*spec) - 10.0) <= 2.0

    slow = load_config().detector_response.fwhm_thz
    narrowed = _shipped_band(lambda omega: lorentzian_response(omega, slow))
    assert intensity_fwhm(*narrowed) < intensity_fwhm(*spec)
    assert intensity_fwhm(*narrowed) == pytest.approx(43.97, abs=0.1)
    assert hom_fwhm(*narrowed) > hom_fwhm(*spec)
    assert 12.0 <= hom_fwhm(*narrowed) <= 17.0


def test_10_delay_line_cancellation():
    n_o = float(load_material("calcite_o").index(1.276))
    n_e = float(load_material("calcite_e").index(1.276))

    def pair(v_tilt, h_tilt):  # a vertical-axis then a horizontal-axis 5 mm plate
        return (plate_delay_fs(n_o, n_e, 5.0, "vertical", v_tilt)
                + plate_delay_fs(n_o, n_e, 5.0, "horizontal", h_tilt))

    for tilt in (0.0, 10.0, 17.0):
        assert abs(pair(tilt, tilt)) < 0.01
    fwd = pair(12.0, 5.0)
    rev = pair(5.0, 12.0)  # the axes swapped
    assert abs(fwd) > 1.0  # the pair is genuinely unbalanced
    assert abs(fwd + rev) <= 1e-12


def test_11_histogram_statistics():
    # same singles product, 10x pair rate: backgrounds agree, peaks scale
    cfg = load_config()
    hist = cfg.histogram  # 501 bins of 1 ns, 5 excluded on each side of the peak
    lo = replace(cfg.noise, pair_rate_hz=150.0, efficiency=1.0, singles_a_hz=30_000,
                 singles_b_hz=30_000)
    hi = replace(cfg.noise, pair_rate_hz=1500.0, efficiency=1.0, singles_a_hz=30_000,
                 singles_b_hz=30_000)
    h_lo = simulate_counts(lo, hist, (1.0,), 100.0, np.random.default_rng(SEED))
    h_hi = simulate_counts(hi, hist, (1.0,), 100.0, np.random.default_rng(SEED + 1))

    f_lo = np.delete(h_lo[0], hist.n_bins // 2)
    f_hi = np.delete(h_hi[0], hist.n_bins // 2)
    pooled = np.sqrt(f_lo.mean() / f_lo.size + f_hi.mean() / f_hi.size)
    assert abs(f_lo.mean() - f_hi.mean()) <= 3.0 * pooled

    _, (net_lo,), (sig_lo,) = subtract_accidentals(h_lo, hist.exclusion_bins)
    _, (net_hi,), (sig_hi,) = subtract_accidentals(h_hi, hist.exclusion_bins)
    sigma_ratio = np.sqrt(sig_hi**2 + (10.0 * sig_lo) ** 2)
    assert abs(net_hi - 10.0 * net_lo) <= 3.0 * sigma_ratio
