"""Coincidence-histogram and accidental-subtraction tests."""

from dataclasses import replace

import numpy as np
import pytest

from spdcfilm.config import load_config
from spdcfilm.errors import OutOfRange, TooFewBins
from spdcfilm.histogram import (
    MAX_POISSON_MEAN,
    NoiseModel,
    simulate_counts,
    simulate_histogram,
    subtract_accidentals,
)

SEED = 20260819
SHIPPED = load_config()
BINS, WIDTH = SHIPPED.histogram.n_bins, SHIPPED.histogram.bin_width_ns  # 501 bins of 1 ns
EXCLUSION = SHIPPED.histogram.exclusion_bins  # 5


def _noise(**changes):
    """The shipped [noise] rates (1500 Hz pairs, 30 kHz singles), with ``changes``."""
    n = SHIPPED.noise
    return replace(NoiseModel(n.pair_rate_hz, n.efficiency, n.singles_a_hz, n.singles_b_hz),
                   **changes)


def test_seeding_determinism():
    noise = _noise()
    a = simulate_histogram(noise, 2.0, BINS, WIDTH, SEED)
    b = simulate_histogram(noise, 2.0, BINS, WIDTH, SEED)
    c = simulate_histogram(noise, 2.0, BINS, WIDTH, SEED + 1)
    assert np.array_equal(a.counts, b.counts)
    assert not np.array_equal(a.counts, c.counts)


def test_floor_matches_singles_product():
    # uncorrelated background per bin: S_a * S_b * bin_width
    noise = _noise(pair_rate_hz=0.0, singles_a_hz=30_000, singles_b_hz=30_000)
    assert noise.accidental_rate_per_ns == pytest.approx(0.9e-3 * 1000, abs=1e-12)
    hist = simulate_histogram(noise, 200.0, 501, WIDTH, SEED)
    per_bin = hist.counts / hist.duration_s
    assert per_bin.mean() == pytest.approx(0.9, rel=0.02)


def test_peak_excess_matches_pair_rate():
    noise = _noise(pair_rate_hz=1500.0, efficiency=0.8)
    hist = simulate_histogram(noise, 50.0, BINS, WIDTH, SEED)
    peak = hist.counts[hist.peak_index]
    floor = np.delete(hist.counts, hist.peak_index).mean()
    assert (peak - floor) / hist.duration_s == pytest.approx(1200.0, rel=0.02)
    assert hist.centers_ns[hist.peak_index] == pytest.approx(0.0, abs=1e-12)


def test_floor_independent_of_pair_rate():
    # the background level is set by the singles alone; turning the pair
    # source up tenfold must not move the off-peak mean
    lo = _noise(pair_rate_hz=150.0)
    hi = _noise(pair_rate_hz=1500.0)
    h_lo = simulate_histogram(lo, 100.0, BINS, WIDTH, SEED)
    h_hi = simulate_histogram(hi, 100.0, BINS, WIDTH, SEED + 7)
    f_lo = np.delete(h_lo.counts, h_lo.peak_index)
    f_hi = np.delete(h_hi.counts, h_hi.peak_index)
    pooled = np.sqrt(f_lo.mean() / f_lo.size + f_hi.mean() / f_hi.size)
    assert abs(f_lo.mean() - f_hi.mean()) < 3.0 * pooled


def test_subtraction_recovers_true_rate():
    noise = _noise(pair_rate_hz=1500.0)
    hist = simulate_histogram(noise, 30.0, BINS, WIDTH, SEED)
    raw, net, sigma = subtract_accidentals(hist, EXCLUSION)
    # the peak region is the 11 bins within 5 of zero delay
    assert raw == hist.counts[hist.peak_index - 5:hist.peak_index + 6].sum()
    assert sigma > 0.0
    assert net == pytest.approx(1500.0 * 30.0, abs=4.0 * sigma)


def test_subtraction_uncertainty_shrinks_with_time():
    noise = _noise(pair_rate_hz=1500.0)
    sigmas = []
    for duration in (5.0, 500.0):
        hist = simulate_histogram(noise, duration, BINS, WIDTH, SEED)
        _, net, sigma = subtract_accidentals(hist, EXCLUSION)
        sigmas.append(sigma / net)
    # relative error improves roughly like 1/sqrt(T): 100x time -> ~10x
    assert sigmas[1] < sigmas[0] / 5.0


def test_zero_source_nets_to_zero():
    noise = _noise(pair_rate_hz=0.0)
    hist = simulate_histogram(noise, 20.0, BINS, WIDTH, SEED)
    _, net, sigma = subtract_accidentals(hist, EXCLUSION)
    assert abs(net) < 4.0 * sigma


def test_validation():
    noise = _noise()
    with pytest.raises(ValueError):
        simulate_histogram(noise, 1.0, 500, WIDTH, SEED)  # even
    with pytest.raises(ValueError):
        simulate_histogram(noise, 1.0, 1, WIDTH, SEED)
    with pytest.raises(ValueError):
        _noise(pair_rate_hz=-1.0)
    with pytest.raises(ValueError):
        _noise(efficiency=1.5)
    hist = simulate_histogram(noise, 1.0, 21, WIDTH, SEED)
    with pytest.raises(TooFewBins):
        subtract_accidentals(hist, exclusion_bins=5)
    with pytest.raises(ValueError, match="^2 pair scales for 3 seeds$"):
        simulate_counts(noise, (1.0, 0.5), 1.0, BINS, WIDTH, (1, 2, 3))


def test_poisson_means_bounded_below_numpys_range():
    # the zero-delay bin adds two draws of at most MAX_POISSON_MEAN: their sum fits an int64
    both = NoiseModel(MAX_POISSON_MEAN, 1.0, MAX_POISSON_MEAN, 0.999e9)  # floor 0.999e18 per ns
    hist = simulate_histogram(both, 1.0, 3, 1.0, SEED)
    assert hist.counts[1] == pytest.approx(1.999 * MAX_POISSON_MEAN, rel=1e-6)
    with pytest.raises(OutOfRange, match="^zero-delay pair Poisson mean 1.1e\\+18 exceeds"):
        simulate_histogram(_noise(pair_rate_hz=1.1e18), 1.0, BINS, WIDTH, SEED)
    with pytest.raises(OutOfRange, match="^accidental floor per bin Poisson mean 1.998e\\+18 "):
        simulate_histogram(both, 1.0, 3, 2.0, SEED)


def test_generator_seed_accepted():
    noise = _noise()
    rng = np.random.default_rng(SEED)
    a = simulate_histogram(noise, 1.0, BINS, WIDTH, rng)
    b = simulate_histogram(noise, 1.0, BINS, WIDTH, np.random.default_rng(SEED))
    assert np.array_equal(a.counts, b.counts)
