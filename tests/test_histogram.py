"""Coincidence-histogram and accidental-subtraction tests."""

from dataclasses import replace

import numpy as np
import pytest

from spdcfilm.config import load_config
from spdcfilm.errors import ConfigError, OutOfRange
from spdcfilm.histogram import (
    MAX_POISSON_MEAN,
    bin_centers,
    simulate_counts,
    subtract_accidentals,
)

SEED = 20260819
SHIPPED = load_config()
GRID = SHIPPED.histogram  # 501 bins of 1 ns
EXCLUSION = GRID.exclusion_bins  # 5


def _noise(**changes):
    """The shipped [noise] rates (1500 Hz pairs, 30 kHz singles), with ``changes``."""
    return replace(SHIPPED.noise, **changes)


def _histogram(noise, duration, seed, grid=GRID):
    """One histogram's counts: the one-row case of ``simulate_counts``, drawn
    from a generator of ``seed``."""
    (counts,) = simulate_counts(noise, grid, (1.0,), duration, np.random.default_rng(seed))
    return counts


def _subtracted(counts, exclusion_bins=EXCLUSION):
    """(raw, net, sigma) of one histogram, as floats."""
    raw, net, sigma = subtract_accidentals(counts[None], exclusion_bins)
    return raw.item(), net.item(), sigma.item()


def test_seeding_determinism():
    noise = _noise()
    a = _histogram(noise, 2.0, SEED)
    b = _histogram(noise, 2.0, SEED)
    c = _histogram(noise, 2.0, SEED + 1)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_floor_matches_singles_product():
    # uncorrelated background per bin: S_a * S_b * bin_width
    noise = _noise(pair_rate_hz=0.0, singles_a_hz=30_000, singles_b_hz=30_000)
    counts = _histogram(noise, 200.0, SEED)
    per_bin = counts / 200.0
    assert per_bin.mean() == pytest.approx(0.9, rel=0.02)


def test_peak_excess_matches_pair_rate():
    noise = _noise(pair_rate_hz=1500.0, efficiency=0.8)
    counts = _histogram(noise, 50.0, SEED)
    peak_index = GRID.n_bins // 2
    peak = counts[peak_index]
    floor = np.delete(counts, peak_index).mean()
    assert (peak - floor) / 50.0 == pytest.approx(1200.0, rel=0.02)
    assert bin_centers(GRID)[peak_index] == pytest.approx(0.0, abs=1e-12)


def test_floor_independent_of_pair_rate():
    # the background level is set by the singles alone; turning the pair
    # source up tenfold must not move the off-peak mean
    lo = _noise(pair_rate_hz=150.0)
    hi = _noise(pair_rate_hz=1500.0)
    peak_index = GRID.n_bins // 2
    f_lo = np.delete(_histogram(lo, 100.0, SEED), peak_index)
    f_hi = np.delete(_histogram(hi, 100.0, SEED + 7), peak_index)
    pooled = np.sqrt(f_lo.mean() / f_lo.size + f_hi.mean() / f_hi.size)
    assert abs(f_lo.mean() - f_hi.mean()) < 3.0 * pooled


def test_subtraction_recovers_true_rate():
    noise = _noise(pair_rate_hz=1500.0)
    counts = _histogram(noise, 30.0, SEED)
    raw, net, sigma = _subtracted(counts)
    # the peak region is the 11 bins within 5 of zero delay
    peak_index = GRID.n_bins // 2
    assert raw == counts[peak_index - 5:peak_index + 6].sum()
    assert sigma > 0.0
    assert net == pytest.approx(1500.0 * 30.0, abs=4.0 * sigma)


def test_subtraction_uncertainty_shrinks_with_time():
    noise = _noise(pair_rate_hz=1500.0)
    sigmas = []
    for duration in (5.0, 500.0):
        _, net, sigma = _subtracted(_histogram(noise, duration, SEED))
        sigmas.append(sigma / net)
    # relative error improves roughly like 1/sqrt(T): 100x time -> ~10x
    assert sigmas[1] < sigmas[0] / 5.0


def test_zero_source_nets_to_zero():
    noise = _noise(pair_rate_hz=0.0)
    _, net, sigma = _subtracted(_histogram(noise, 20.0, SEED))
    assert abs(net) < 4.0 * sigma


#: (section, changed values, the message of the ConfigError the section raises)
RULES = [
    ("histogram", {"n_bins": 500}, "n_bins must be odd and at least 3"),
    ("histogram", {"n_bins": 1}, "n_bins must be odd and at least 3"),
    ("histogram", {"bin_width_ns": 0.0}, "bin_width_ns must be positive"),
    ("histogram", {"exclusion_bins": -1}, "exclusion_bins must be nonnegative"),
    ("histogram", {"n_bins": 21}, "only 10 off-peak bins to estimate the floor; need at least 20"),
    ("histogram", {"n_bins": 41, "exclusion_bins": 11},
     "only 18 off-peak bins to estimate the floor; need at least 20"),
    ("noise", {"pair_rate_hz": -1.0}, "rates must be nonnegative"),
    ("noise", {"efficiency": 1.5}, "efficiency must be in (0, 1]"),
]


def test_validation():
    # each section checks its own values when it is made
    for section, changes, message in RULES:
        with pytest.raises(ConfigError) as exc:
            replace(getattr(SHIPPED, section), **changes)
        assert str(exc.value) == f"[{section}] {message}"


def test_fewest_off_peak_bins_accepted():
    # 41 bins less the 21 of the peak region leave the 20 the floor needs
    grid = replace(GRID, n_bins=41, exclusion_bins=10)
    counts = _histogram(_noise(), 1.0, SEED, grid)
    raw, net, sigma = _subtracted(counts, grid.exclusion_bins)
    assert raw == counts[10:31].sum()
    assert net == pytest.approx(raw - (counts.sum() - raw) / 20 * 21, rel=1e-12)
    assert sigma == pytest.approx(np.sqrt(raw + (21 / 20) ** 2 * (counts.sum() - raw)))


def test_poisson_means_bounded_below_numpys_range():
    # the zero-delay bin adds two draws of at most MAX_POISSON_MEAN: their sum fits an int64
    both = _noise(pair_rate_hz=MAX_POISSON_MEAN, efficiency=1.0, singles_a_hz=MAX_POISSON_MEAN,
                  singles_b_hz=0.999e9)  # floor 0.999e18 per ns
    assert GRID.bin_width_ns == 1.0
    counts = _histogram(both, 1.0, SEED)
    assert counts[GRID.n_bins // 2] == pytest.approx(1.999 * MAX_POISSON_MEAN, rel=1e-6)
    with pytest.raises(OutOfRange, match="^zero-delay pair Poisson mean 1.1e\\+18 exceeds"):
        _histogram(_noise(pair_rate_hz=1.1e18), 1.0, SEED)
    with pytest.raises(OutOfRange, match="^accidental floor per bin Poisson mean 1.998e\\+18 "):
        _histogram(both, 1.0, SEED, replace(GRID, bin_width_ns=2.0))
