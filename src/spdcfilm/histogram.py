"""Coincidence time-tag histograms: simulation and accidental subtraction.

The pair signal lands in the single time bin at zero relative delay; the
accidental floor is flat, set by the product of the detector singles
rates and the bin width. The singles are dominated by broadband
photoluminescence from the film, so the floor does not scale with the
pair rate — raising the pair rate raises the peak but not the background.
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


def simulate_histogram(
    noise: NoiseModel, duration_s: float, n_bins: int, bin_width_ns: float, seed
) -> TimeTagHistogram:
    """Draw one histogram: flat Poisson floor plus a zero-delay excess.

    Every bin receives Poisson(singles_a * singles_b * bin_width *
    duration) accidentals; the central bin additionally receives
    Poisson(pair_rate * efficiency * duration) true pairs. ``seed`` is an
    integer, a SeedSequence or a Generator (drawn from as is). A mean above
    MAX_POISSON_MEAN raises OutOfRange before any draw.
    """
    if n_bins < 3 or n_bins % 2 == 0:
        raise ValueError("n_bins must be odd and at least 3")
    if duration_s <= 0:
        raise ValueError("duration must be positive")
    rng = np.random.default_rng(seed)
    half = n_bins // 2
    centers = (np.arange(n_bins) - half) * bin_width_ns
    mean_floor = noise.accidental_rate_per_ns * bin_width_ns * duration_s
    mean_pairs = noise.pair_rate_hz * noise.efficiency * duration_s
    check_poisson_mean(mean_floor, "accidental floor per bin")
    check_poisson_mean(mean_pairs, "zero-delay pair")
    counts = rng.poisson(mean_floor, size=n_bins)
    counts[half] += rng.poisson(mean_pairs)
    return TimeTagHistogram(
        centers_ns=centers,
        counts=counts,
        bin_width_ns=bin_width_ns,
        duration_s=duration_s,
    )


def subtract_accidentals(hist: TimeTagHistogram, exclusion_bins: int):
    """(raw, net, sigma): a histogram's raw peak count, its net pair count
    and net's one-sigma error.

    Bins within ``exclusion_bins`` of zero delay form the peak region, raw
    their sum; the rest estimate the flat floor. net = raw - floor * peak width;
    sigma combines Poisson error of the peak with the floor-estimate
    error. Requires at least 20 off-peak bins.
    """
    if exclusion_bins < 0:
        raise ValueError("exclusion_bins must be nonnegative")
    peak = hist.peak_index
    off = np.abs(np.arange(len(hist.counts)) - peak) > exclusion_bins
    n_off = int(off.sum())
    if n_off < 20:
        raise TooFewBins(
            f"only {n_off} off-peak bins to estimate the floor; need at least 20"
        )
    n_peak = len(hist.counts) - n_off
    off_total = float(hist.counts[off].sum())
    peak_total = float(hist.counts[~off].sum())
    floor_per_bin = off_total / n_off
    net = peak_total - floor_per_bin * n_peak
    variance = peak_total + (n_peak / n_off) ** 2 * off_total
    return peak_total, net, float(np.sqrt(variance))
