"""Coincidence-histogram and accidental-subtraction tests."""

import numpy as np
import pytest

from spdcfilm import NoiseModel, simulate_histogram, subtract_accidentals
from spdcfilm.errors import TooFewBins

SEED = 20260819


def test_seeding_determinism():
    noise = NoiseModel()
    a = simulate_histogram(noise, duration_s=2.0, seed=SEED)
    b = simulate_histogram(noise, duration_s=2.0, seed=SEED)
    c = simulate_histogram(noise, duration_s=2.0, seed=SEED + 1)
    assert np.array_equal(a.counts, b.counts)
    assert not np.array_equal(a.counts, c.counts)


def test_floor_matches_singles_product():
    # uncorrelated background per bin: S_a * S_b * bin_width
    noise = NoiseModel(pair_rate_hz=0.0, singles_a_hz=30_000, singles_b_hz=30_000)
    assert noise.accidental_rate_per_ns == pytest.approx(0.9e-3 * 1000, abs=1e-12)
    hist = simulate_histogram(noise, duration_s=200.0, n_bins=501, seed=SEED)
    per_bin = hist.counts / hist.duration_s
    assert per_bin.mean() == pytest.approx(0.9, rel=0.02)


def test_peak_excess_matches_pair_rate():
    noise = NoiseModel(pair_rate_hz=1500.0, efficiency=0.8)
    hist = simulate_histogram(noise, duration_s=50.0, seed=SEED)
    peak = hist.counts[hist.peak_index]
    floor = np.delete(hist.counts, hist.peak_index).mean()
    assert (peak - floor) / hist.duration_s == pytest.approx(1200.0, rel=0.02)
    assert hist.centers_ns[hist.peak_index] == pytest.approx(0.0, abs=1e-12)


def test_floor_independent_of_pair_rate():
    # the background level is set by the singles alone; turning the pair
    # source up tenfold must not move the off-peak mean
    lo = NoiseModel(pair_rate_hz=150.0)
    hi = NoiseModel(pair_rate_hz=1500.0)
    h_lo = simulate_histogram(lo, duration_s=100.0, seed=SEED)
    h_hi = simulate_histogram(hi, duration_s=100.0, seed=SEED + 7)
    f_lo = np.delete(h_lo.counts, h_lo.peak_index)
    f_hi = np.delete(h_hi.counts, h_hi.peak_index)
    pooled = np.sqrt(f_lo.mean() / f_lo.size + f_hi.mean() / f_hi.size)
    assert abs(f_lo.mean() - f_hi.mean()) < 3.0 * pooled


def test_subtraction_recovers_true_rate():
    noise = NoiseModel(pair_rate_hz=1500.0)
    hist = simulate_histogram(noise, duration_s=30.0, seed=SEED)
    raw, net, sigma = subtract_accidentals(hist)
    # the peak region is the 11 bins within 5 of zero delay
    assert raw == hist.counts[hist.peak_index - 5:hist.peak_index + 6].sum()
    assert sigma > 0.0
    assert net == pytest.approx(1500.0 * 30.0, abs=4.0 * sigma)


def test_subtraction_uncertainty_shrinks_with_time():
    noise = NoiseModel(pair_rate_hz=1500.0)
    sigmas = []
    for duration in (5.0, 500.0):
        hist = simulate_histogram(noise, duration_s=duration, seed=SEED)
        _, net, sigma = subtract_accidentals(hist)
        sigmas.append(sigma / net)
    # relative error improves roughly like 1/sqrt(T): 100x time -> ~10x
    assert sigmas[1] < sigmas[0] / 5.0


def test_zero_source_nets_to_zero():
    noise = NoiseModel(pair_rate_hz=0.0)
    hist = simulate_histogram(noise, duration_s=20.0, seed=SEED)
    _, net, sigma = subtract_accidentals(hist)
    assert abs(net) < 4.0 * sigma


def test_validation():
    noise = NoiseModel()
    with pytest.raises(ValueError):
        simulate_histogram(noise, n_bins=500, seed=SEED)  # even
    with pytest.raises(ValueError):
        simulate_histogram(noise, n_bins=1, seed=SEED)
    with pytest.raises(ValueError):
        NoiseModel(pair_rate_hz=-1.0)
    with pytest.raises(ValueError):
        NoiseModel(efficiency=1.5)
    hist = simulate_histogram(noise, n_bins=21, seed=SEED)
    with pytest.raises(TooFewBins):
        subtract_accidentals(hist, exclusion_bins=5)


def test_generator_seed_accepted():
    noise = NoiseModel()
    rng = np.random.default_rng(SEED)
    a = simulate_histogram(noise, seed=rng)
    b = simulate_histogram(noise, seed=np.random.default_rng(SEED))
    assert np.array_equal(a.counts, b.counts)
