"""Coincidence time-tag histograms: simulation and accidental subtraction.

The pair signal lands in the single time bin at zero relative delay; the
accidental floor is flat, set by the product of the detector singles
rates and the bin width. The singles are dominated by broadband
photoluminescence from the film, so the floor does not scale with the
pair rate — raising the pair rate raises the peak but not the background.

The histograms of several settings are one (settings, n_bins) count array
(``simulate_counts``), each row drawn from its own generator, and one
vectorized pass (``_net_counts``) subtracts the accidentals of every row.
``simulate_histogram`` and ``subtract_accidentals`` are the one-row cases:
each is its checks plus that kernel.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import OutOfRange, TooFewBins

#: the largest Poisson mean drawn: NumPy rejects means above about 9.2e18, and
#: the sum of two draws (the zero-delay bin's) stays below 2**63 at this bound
MAX_POISSON_MEAN = 1e18


@dataclass(frozen=True)
class NoiseModel:
    """Detected-rate model for one coincidence measurement.

    ``pair_rate_hz`` is the detected-pair rate at unit analyzer
    transmission; ``efficiency`` multiplies it (heralding and collection
    losses); the singles rates set the accidental floor.
    """

    pair_rate_hz: float
    efficiency: float
    singles_a_hz: float
    singles_b_hz: float

    def __post_init__(self):
        if self.pair_rate_hz < 0 or self.singles_a_hz < 0 or self.singles_b_hz < 0:
            raise ValueError("rates must be nonnegative")
        if not 0.0 < self.efficiency <= 1.0:
            raise ValueError("efficiency must be in (0, 1]")

    @property
    def accidental_rate_per_ns(self) -> float:
        """Accidental coincidences per second per ns of bin width."""
        return self.singles_a_hz * self.singles_b_hz * 1e-9


@dataclass(frozen=True)
class TimeTagHistogram:
    """Relative-delay histogram with its acquisition metadata."""

    centers_ns: np.ndarray
    counts: np.ndarray
    bin_width_ns: float
    duration_s: float

    def __post_init__(self):
        if len(self.centers_ns) != len(self.counts):
            raise ValueError("centers and counts must have equal length")
        if self.bin_width_ns <= 0 or self.duration_s <= 0:
            raise ValueError("bin width and duration must be positive")

    @property
    def peak_index(self) -> int:
        return int(np.argmin(np.abs(self.centers_ns)))


def check_poisson_mean(mean: float, what: str):
    """OutOfRange naming ``what`` unless ``mean`` is at most MAX_POISSON_MEAN."""
    if not mean <= MAX_POISSON_MEAN:  # False for NaN
        raise OutOfRange(f"{what} Poisson mean {mean:g} exceeds {MAX_POISSON_MEAN:g} counts")


def simulate_counts(
    noise: NoiseModel, pair_scales, duration_s: float, n_bins: int, bin_width_ns: float, seeds
) -> np.ndarray:
    """Draw a (settings, n_bins) int64 count array, one histogram per row.

    Row m draws from ``np.random.default_rng(seeds[m])`` (an integer, a
    SeedSequence or a Generator, drawn from as is): every bin receives
    Poisson(singles_a * singles_b * bin_width * duration) accidentals, then
    the central bin Poisson(pair_rate * pair_scales[m] * efficiency *
    duration) true pairs. The floor's mean is checked once, each row's pair
    mean before its draw: a mean above MAX_POISSON_MEAN raises OutOfRange.
    """
    if n_bins < 3 or n_bins % 2 == 0:
        raise ValueError("n_bins must be odd and at least 3")
    if duration_s <= 0:
        raise ValueError("duration must be positive")
    mean_floor = noise.accidental_rate_per_ns * bin_width_ns * duration_s
    check_poisson_mean(mean_floor, "accidental floor per bin")
    pair_means = noise.pair_rate_hz * np.asarray(pair_scales, dtype=float)
    pair_means = pair_means * noise.efficiency * duration_s
    if len(pair_means) != len(seeds):
        raise ValueError(f"{len(pair_means)} pair scales for {len(seeds)} seeds")
    counts = np.empty((len(seeds), n_bins), dtype=np.int64)
    for row, mean_pairs, seed in zip(counts, pair_means.tolist(), seeds):
        check_poisson_mean(mean_pairs, "zero-delay pair")
        rng = np.random.default_rng(seed)
        row[:] = rng.poisson(mean_floor, size=n_bins)
        row[n_bins // 2] += rng.poisson(mean_pairs)
    return counts


def _bin_centers(n_bins: int, bin_width_ns: float) -> np.ndarray:
    """Relative delays of the bins of an odd grid, zero at the central bin."""
    return (np.arange(n_bins) - n_bins // 2) * bin_width_ns


def simulate_histogram(
    noise: NoiseModel, duration_s: float, n_bins: int, bin_width_ns: float, seed
) -> TimeTagHistogram:
    """Draw one histogram: flat Poisson floor plus a zero-delay excess, the
    one-row case of ``simulate_counts``. ``seed`` is an integer, a
    SeedSequence or a Generator (drawn from as is). A mean above
    MAX_POISSON_MEAN raises OutOfRange before any draw.
    """
    (counts,) = simulate_counts(noise, (1.0,), duration_s, n_bins, bin_width_ns, (seed,))
    return TimeTagHistogram(
        centers_ns=_bin_centers(n_bins, bin_width_ns),
        counts=counts,
        bin_width_ns=bin_width_ns,
        duration_s=duration_s,
    )


def subtract_accidentals(hist: TimeTagHistogram, exclusion_bins: int):
    """(raw, net, sigma): a histogram's raw peak count, its net pair count
    and net's one-sigma error; the one-row case of ``_net_counts``."""
    raw, net, sigma = _net_counts(np.asarray(hist.counts)[None], hist.peak_index, exclusion_bins)
    return raw.item(), net.item(), sigma.item()


def _net_counts(counts: np.ndarray, peak: int, exclusion_bins: int):
    """(raw, net, sigma) of each row of a (settings, n_bins) integer count
    array, as float arrays: the raw peak count, the net pair count and net's
    one-sigma error.

    Bins within ``exclusion_bins`` of the ``peak`` bin form the peak region,
    raw their sum; the rest estimate the flat floor. net = raw - floor * peak
    width; sigma combines Poisson error of the peak with the floor-estimate
    error. Requires at least 20 off-peak bins. The off-peak sum is the row
    total less the peak's, which integer counts make exact.
    """
    if exclusion_bins < 0:
        raise ValueError("exclusion_bins must be nonnegative")
    n_bins = counts.shape[-1]
    lo, hi = max(peak - exclusion_bins, 0), min(peak + exclusion_bins + 1, n_bins)
    n_peak = hi - lo
    n_off = n_bins - n_peak
    if n_off < 20:
        raise TooFewBins(
            f"only {n_off} off-peak bins to estimate the floor; need at least 20"
        )
    peak_counts = counts[:, lo:hi].sum(axis=-1)
    off_total = (counts.sum(axis=-1) - peak_counts).astype(float)
    peak_total = peak_counts.astype(float)
    floor_per_bin = off_total / n_off
    net = peak_total - floor_per_bin * n_peak
    variance = peak_total + (n_peak / n_off) ** 2 * off_total
    return peak_total, net, np.sqrt(variance)
