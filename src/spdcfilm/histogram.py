"""Coincidence time-tag histograms: simulation and accidental subtraction.

The pair signal lands in the single time bin at zero relative delay; the
accidental floor is flat, set by the product of the detector singles
rates and the bin width. The singles are dominated by broadband
photoluminescence from the film, so the floor does not scale with the
pair rate — raising the pair rate raises the peak but not the background.

The histograms of several settings are one (settings, n_bins) int64 count
array (``simulate_counts``) on the bin grid of a ``[histogram]`` section,
whose centre bin is zero delay (``bin_centers``), drawn from one generator
in two ``poisson`` calls, and one vectorized pass (``subtract_accidentals``)
subtracts the accidentals of every row. The ``[noise]`` and
``[histogram]`` sections check their own values when they are made, so
these functions take them as valid.
"""

from __future__ import annotations

import numpy as np

from .errors import OutOfRange

#: the largest Poisson mean drawn: NumPy rejects means above about 9.2e18, and
#: the sum of two draws (the zero-delay bin's) stays below 2**63 at this bound
MAX_POISSON_MEAN = 1e18


def check_poisson_mean(mean: float, what: str):
    """OutOfRange naming ``what`` unless ``mean`` is at most MAX_POISSON_MEAN."""
    if not mean <= MAX_POISSON_MEAN:  # False for NaN
        raise OutOfRange(f"{what} Poisson mean {mean:g} exceeds {MAX_POISSON_MEAN:g} counts")


def simulate_counts(noise, grid, pair_scales, duration_s: float, rng) -> np.ndarray:
    """Draw a (settings, n_bins) int64 count array, one histogram per row,
    for the ``[noise]`` section ``noise`` and the ``[histogram]`` section
    ``grid`` (a ``NoiseConfig`` and a ``HistogramConfig``) from the
    Generator ``rng``: one ``poisson`` call draws Poisson(singles_a *
    singles_b * bin_width * duration) accidentals in every bin, a second one
    Poisson(pair_rate * pair_scales[m] * efficiency * duration) true pairs in
    row m's central bin. The floor's mean and then each row's pair mean are
    checked before anything is drawn: the first above MAX_POISSON_MEAN
    raises OutOfRange.
    """
    mean_floor = noise.singles_a_hz * noise.singles_b_hz * 1e-9 * grid.bin_width_ns * duration_s
    check_poisson_mean(mean_floor, "accidental floor per bin")
    pair_means = noise.pair_rate_hz * np.asarray(pair_scales, float) * noise.efficiency * duration_s
    for mean_pairs in pair_means.tolist():
        check_poisson_mean(mean_pairs, "zero-delay pair")
    counts = rng.poisson(mean_floor, size=(len(pair_means), grid.n_bins))
    counts[:, grid.n_bins // 2] += rng.poisson(pair_means)
    return counts


def bin_centers(grid) -> np.ndarray:
    """Relative delays (ns) of the bins of a ``[histogram]`` section, zero at
    the central bin."""
    return (np.arange(grid.n_bins) - grid.n_bins // 2) * grid.bin_width_ns


def subtract_accidentals(counts: np.ndarray, exclusion_bins: int):
    """(raw, net, sigma) of each row of a (settings, n_bins) integer count
    array, as float arrays: the raw peak count, the net pair count and net's
    one-sigma error.

    Bins within ``exclusion_bins`` of the peak bin ``n_bins // 2`` form the
    peak region, raw their sum; the rest estimate the flat floor. net = raw -
    floor * peak width; sigma combines Poisson error of the peak with the
    floor-estimate error. The grid is a valid ``[histogram]`` section's, so
    the peak region lies inside it with at least 20 bins outside it. The
    off-peak sum is the row total less the peak's, which integer counts
    make exact.
    """
    n_bins = counts.shape[-1]
    lo, hi = n_bins // 2 - exclusion_bins, n_bins // 2 + exclusion_bins + 1
    n_peak = hi - lo
    n_off = n_bins - n_peak
    peak_counts = counts[:, lo:hi].sum(axis=-1)
    off_total = (counts.sum(axis=-1) - peak_counts).astype(float)
    peak_total = peak_counts.astype(float)
    floor_per_bin = off_total / n_off
    net = peak_total - floor_per_bin * n_peak
    variance = peak_total + (n_peak / n_off) ** 2 * off_total
    return peak_total, net, np.sqrt(variance)
