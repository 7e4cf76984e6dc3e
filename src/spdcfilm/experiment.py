"""End-to-end simulated run: generation, tomography, Bell test, spectra.

``run_experiment`` wires the physics modules into one reproducible
pipeline: orient the film, generate the pump-dependent qutrit, mix in the
documented noise, simulate per-setting coincidence histograms, subtract
accidentals, reconstruct the state, derive entanglement measures with
parametric-bootstrap errors, run the finite-statistics CHSH test on the
reconstructed state, and evaluate the pair spectrum, HOM curves, and the
calcite delay-line scan. All randomness derives from one master seed via
numpy SeedSequence spawning, in a fixed order (the bootstrap computes its
replicates' generators as spawning would, without spawning), so a given
(config, seed) pair always produces byte-identical canonical output.

The run has five stages. Each returns a frozen result whose ``to_json()``
builds fresh dicts and lists of the ``report.json`` sections it owns, and
whose ``encoded()`` returns their indented text and its CSV sidecars' bytes.
An ``ExperimentReport`` holds the seed and the five results; its ``summary``
and ``write_report`` read nothing else.

Three stages do not depend on the seed. Each takes the ``ExperimentConfig``
and is memoized on the sections it reads for the last ``_MEMO_CONFIGS``
configurations, so a seed sweep or a CLI command after a run pays for it once:

* ``source_model`` -> ``SourceModel`` (orientation, H/V and configured-pump
  amplitudes, depolarized qutrit, its CHSH value): ``[crystal]``,
  ``[calibration]``, ``[pump]``, the ``[noise]`` depolarization. The
  orientation alone is memoized on the first two.
* ``spectral_section`` -> ``SpectralSection`` (pair spectrum, HOM curves and
  widths): ``[spectrum]``, ``[film]``, the ``[pump]`` wavelength,
  ``[filters]``, ``[detector_response]``, ``[hom]``.
* ``delay_line_scan`` -> ``DelayScan`` (calcite delay scan): ``[delay_line]``.

Their arrays are read-only copies, shared by every run of the configuration,
and each kind caches ``encoded()`` by identity for the last ``_MEMO_CONFIGS``
results, however many reports hold them.

The two seeded stages run once per run, in this order, on one
``SeedSequence(seed)``: ``simulate_tomography(cfg, seed_seq)`` measures the
model state and spawns its children, then ``simulate_bell(cfg, tomography,
seed_seq)`` tests the reconstructed state on the next one. A caller that
passes one sequence to both in that order draws the run's numbers.

A state enters a run at two places, and each checks it once:
``source_model`` checks the model state (``purity``, through
``check_density_matrix``), and ``reconstruct``'s point measures check the
reconstructed one (``_density_eigh``). The functions that take a state after
that (``forward_rates``, ``fringe_curve``, ``split_postselect_rho``,
``chsh_value``, ``simulate_chsh``) check nothing again. The nine settings'
coincidence histograms are one ``simulate_counts`` count array, which one
``subtract_accidentals`` pass reduces to the records and which
``TomographyResult`` holds as it was drawn, with the bin grid's delays.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import stat
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from . import bell as bell_mod
from .config import ExperimentConfig, PumpConfig
from .crystal import (
    CrystalOrientation,
    SpdcResult,
    calibrate_azimuth,
    calibrate_orientation,
    chi2_zincblende,
    normal_axis_angles,
    spdc_amplitudes,
    weight_residual,
)
from .delayline import calcite_delay, default_delay_line, delay_scan
from .histogram import bin_centers, simulate_counts, subtract_accidentals
from .polarization import pump_ket
from .qutrit import (
    _state_measures,
    concurrence,
    concurrence_bounds,
    depolarize,
    purity,
    schmidt_number,
)
from .spectral import (
    DETECTOR_RESPONSES,
    apply_detector_response,
    default_grid,
    hom_fwhm,
    intensity_fwhm,
    interference_contrast,
    joint_spectrum,
    longpass_pair_response,
)
from .tomography import (
    CoincidenceRecord,
    FitReport,
    _fringe_visibility,
    _physical,
    _solve_stack,
    default_protocol,
    forward_rates,
    fringe_curve,
    reconstruct,
)

SCHEMA_VERSION = 1

#: configurations each seed-free stage's memo, and each encoding cache, holds
_MEMO_CONFIGS = 4


def _memoized(sections):
    """Decorator: the stage computed from, and memoized on, ``sections(*args)``
    (frozen, hashable config sections) for the last ``_MEMO_CONFIGS`` distinct
    ones. The body takes the sections alone, so it cannot read one its key
    misses. The key holds their repr beside them: sections compare equal when
    they differ only in the sign of a zero, which a stage may print.
    """

    def decorate(stage):
        cached = functools.lru_cache(maxsize=_MEMO_CONFIGS)(lambda _repr, *key: stage(*key))

        def memo(*args):
            key = sections(*args)
            return cached(repr(key), *key)

        memo.__name__, memo.__qualname__, memo.__doc__ = (
            stage.__name__, stage.__qualname__, stage.__doc__)
        memo.cache_clear = cached.cache_clear
        return memo

    return decorate


def _read_only_copy(a) -> np.ndarray:
    """A read-only copy of ``a``, whose memory no other array shares."""
    a = np.array(a)
    a.flags.writeable = False
    return a


def _set_read_only_copies(result, *names):
    """Make each named field of a frozen result a read-only copy of its array."""
    for name in names:
        object.__setattr__(result, name, _read_only_copy(getattr(result, name)))


def _section_text(value) -> str:
    """``value`` as ``report.json`` holds it one level in: its ``indent=2``,
    sorted-key, strict JSON text with every line after the first indented two
    more spaces (JSON text has raw newlines only from indentation)."""
    return json.dumps(value, indent=2, sort_keys=True, allow_nan=False).replace("\n", "\n  ")


def _json_bytes(texts: dict) -> bytes:
    """``json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"`` of
    a non-empty ``obj``, from the ``_section_text`` of each of its values."""
    body = ",\n".join(f"  {json.dumps(key)}: {texts[key]}" for key in sorted(texts))
    return ("{\n" + body + "\n}\n").encode()


def _encoded(sections: dict, *sidecars) -> tuple:
    """A result's ``encoded()``: the ``_section_text`` of each of its
    ``report.json`` sections, and its sidecars' (name, bytes) pairs."""
    return {key: _section_text(value) for key, value in sections.items()}, sidecars


def complex_json(a) -> list:
    """A complex array as nested lists with one [re, im] pair per element."""
    a = np.asarray(a)
    return np.stack([np.real(a), np.imag(a)], axis=-1).tolist()


def fit_json(rho, fit: FitReport) -> dict:
    """A fitted state's report entries: ``rho``, ``scale_hz`` and ``fit``."""
    diagnostics = asdict(fit)
    return {"rho": complex_json(rho), "scale_hz": diagnostics.pop("scale"), "fit": diagnostics}


def amplitudes_json(res) -> dict:
    """JSON form of one pump's ``SpdcResult``."""
    return {
        "state": complex_json(res.state),
        "weights": res.weights.tolist(),
        "relative_rate": res.relative_rate,
    }


@dataclass(frozen=True, eq=False)
class SourceModel:
    """``source_model``'s result: the amplitudes under an H, a V and the
    configured pump, ``rho`` the last one's qutrit after the depolarization,
    ``concurrence`` the pumped ket's and ``purity`` rho's, and ``f_model``
    rho's CHSH value (reported by the run's ``BellResult``). The arrays are
    read-only copies."""

    orientation: CrystalOrientation
    calibration_residual: float
    pump: PumpConfig
    depolarization: float
    h_pump: SpdcResult
    v_pump: SpdcResult
    pumped: SpdcResult
    rho: np.ndarray
    concurrence: float
    purity: float
    f_model: float

    def __post_init__(self):
        for name in ("h_pump", "v_pump", "pumped"):
            res = getattr(self, name)
            object.__setattr__(self, name, replace(res, state=_read_only_copy(res.state)))
        _set_read_only_copies(self, "rho")

    def to_json(self) -> dict:
        """The report's orientation, amplitudes, pump and model_state sections."""
        pumped = self.pumped
        return {
            "orientation": {
                **asdict(self.orientation),
                "calibration_residual": self.calibration_residual,
                "normal_axis_angles_deg": normal_axis_angles(self.orientation).tolist(),
            },
            "amplitudes": {
                "h_pump": amplitudes_json(self.h_pump),
                "v_pump": amplitudes_json(self.v_pump),
                "rate_ratio_h_over_v": self.h_pump.relative_rate / self.v_pump.relative_rate,
            },
            "pump": asdict(self.pump),
            "model_state": {
                "weights": pumped.weights.tolist(),
                "concurrence": self.concurrence,
                "schmidt_number": schmidt_number(self.concurrence),
                "depolarization": self.depolarization,
                "purity": self.purity,
                "concurrence_bounds": list(concurrence_bounds(pumped.weights)),
            },
        }

    @functools.lru_cache(maxsize=_MEMO_CONFIGS)
    def encoded(self) -> tuple:
        """``_encoded`` of the four sections, cached by identity."""
        return _encoded(self.to_json())


@_memoized(lambda crystal, calibration: (crystal, calibration))
def _orientation(crystal, calibration):
    """(chi, orientation, calibration residual) of the crystal sections: the
    configured angles, or a fit of the ``auto`` ones to the calibration weights.
    An ``auto`` tilt fits both angles jointly and ignores ``azimuth_deg``; an
    ``auto`` azimuth alone is fitted at the configured tilt."""
    chi = _read_only_copy(chi2_zincblende(crystal.d_coefficient))
    targets = {"H": calibration.h_pump_weights, "V": calibration.v_pump_weights}
    tilt, az = crystal.tilt_deg, crystal.azimuth_deg
    if tilt is None:
        orientation, residual = calibrate_orientation(
            chi, targets, threshold=calibration.fit_threshold
        )
    elif az is None:
        fitted_az, residual = calibrate_azimuth(
            chi, tilt, targets, threshold=calibration.fit_threshold
        )
        orientation = CrystalOrientation(tilt, fitted_az)
    else:
        orientation = CrystalOrientation(tilt, az)
        residual = weight_residual(chi, orientation, targets)
    return chi, orientation, residual


@_memoized(lambda cfg: (cfg.crystal, cfg.calibration, cfg.pump, cfg.noise.depolarization))
def source_model(crystal, calibration, pump, depolarization) -> SourceModel:
    """``source_model(cfg)``: the configuration's ``SourceModel``."""
    chi, orientation, residual = _orientation(crystal, calibration)
    h_pump = spdc_amplitudes(chi, orientation, pump_ket(0.0))
    v_pump = spdc_amplitudes(chi, orientation, pump_ket(90.0))
    pumped = spdc_amplitudes(chi, orientation, pump_ket(pump.angle_deg))
    rho = depolarize(pumped.state, depolarization)
    return SourceModel(
        orientation=orientation,
        calibration_residual=residual,
        pump=pump,
        depolarization=depolarization,
        h_pump=h_pump,
        v_pump=v_pump,
        pumped=pumped,
        rho=rho,
        concurrence=concurrence(pumped.state),
        purity=purity(rho),  # the model state's one check
        f_model=bell_mod.chsh_value(bell_mod.split_postselect_rho(rho),
                                    bell_mod.default_chsh_settings()),
    )


@dataclass(frozen=True, eq=False)
class SpectralSection:
    """``spectral_section``'s result: the filtered pair spectrum ``intensity``
    at the detunings ``omega_thz``, and the HOM dip and peak at ``delays_fs``:
    the normalized coincidence rates (1 -+ g) / 2 of the orthogonal (D-A) and
    parallel (D-D) analyzers, 0 and 1 at zero delay, so dip + peak = 1. The
    arrays are read-only copies, so the bytes ``encoded()`` caches stay
    theirs."""

    omega_thz: np.ndarray
    intensity: np.ndarray
    delays_fs: np.ndarray
    r_dip: np.ndarray
    r_peak: np.ndarray
    intensity_fwhm_thz: float
    hom_dip_fwhm_fs: float
    detector_response: str

    def __post_init__(self):
        _set_read_only_copies(self, "omega_thz", "intensity", "delays_fs", "r_dip", "r_peak")

    def _curve_rows(self):
        return zip(self.delays_fs.tolist(), self.r_dip.tolist(), self.r_peak.tolist())

    def hom_csv(self) -> bytes:
        """``hom.csv``: the dip and peak rate at each delay."""
        return _csv_bytes(["tau_fs", "r_dip", "r_peak"], self._curve_rows())

    def to_json(self) -> dict:
        """The report's ``spectral`` section."""
        return {
            "spectral": {
                "intensity_fwhm_thz": self.intensity_fwhm_thz,
                "hom_dip_fwhm_fs": self.hom_dip_fwhm_fs,
                "detector_response": self.detector_response,
                "hom_curve": [
                    {"tau_fs": t, "r_dip": d, "r_peak": p} for t, d, p in self._curve_rows()
                ],
            }
        }

    @functools.lru_cache(maxsize=_MEMO_CONFIGS)
    def encoded(self) -> tuple:
        """``_encoded`` of the section, ``hom.csv`` and ``spectrum.csv``, cached by identity."""
        spectrum_rows = zip(self.omega_thz.tolist(), self.intensity.tolist())
        return _encoded(
            self.to_json(),
            ("hom.csv", self.hom_csv()),
            ("spectrum.csv", _csv_bytes(["omega_thz", "intensity"], spectrum_rows)),
        )


@_memoized(lambda cfg: (cfg.spectrum, cfg.film, cfg.pump.wavelength_nm, cfg.filters,
                        cfg.detector_response, cfg.hom))
def spectral_section(spectrum, film, pump_nm, filters, detector_response, hom) -> SpectralSection:
    """``spectral_section(cfg)``: the configured film's ``SpectralSection``."""
    grid = default_grid(spectrum.span_thz, spectrum.points)
    spec = joint_spectrum(film, pump_nm, grid)
    spec = apply_detector_response(
        spec,
        longpass_pair_response(spec, filters.longpass_cuton_nm, filters.edge_width_thz),
    )
    response = DETECTOR_RESPONSES[detector_response.shape]
    if response is not None:
        spec = apply_detector_response(spec, response(spec, detector_response.fwhm_thz))

    delays = np.linspace(hom.delay_start_fs, hom.delay_stop_fs, hom.delay_points)
    g = interference_contrast(spec, delays)  # the dip and peak curves share one kernel
    return SpectralSection(
        omega_thz=spec.omega_thz,
        intensity=spec.intensity,
        delays_fs=delays,
        r_dip=(1.0 - g) / 2.0,
        r_peak=(1.0 + g) / 2.0,
        intensity_fwhm_thz=intensity_fwhm(spec),
        hom_dip_fwhm_fs=hom_fwhm(spec),
        detector_response=detector_response.shape,
    )


@dataclass(frozen=True, eq=False)
class DelayScan:
    """``delay_line_scan``'s result: ``scan`` holds a (tilt_deg, delay_fs)
    float pair per tilt of the inner plate pair, as a tuple whatever sequence
    it is given; ``delay_at_base_fs`` is the delay with every plate at
    ``base_tilt_deg``."""

    base_tilt_deg: float
    delay_at_base_fs: float
    scan: tuple

    def __post_init__(self):
        object.__setattr__(self, "scan", tuple((float(t), float(d)) for t, d in self.scan))

    def to_json(self) -> dict:
        """The report's ``delay_line`` section."""
        return {
            "delay_line": {
                "base_tilt_deg": self.base_tilt_deg,
                "delay_at_base_fs": self.delay_at_base_fs,
                "scan": [{"tilt_deg": t, "delay_fs": d} for t, d in self.scan],
            }
        }

    @functools.lru_cache(maxsize=_MEMO_CONFIGS)
    def encoded(self) -> tuple:
        """``_encoded`` of the section and ``delay_scan.csv``, cached by identity."""
        return _encoded(self.to_json(),
                        ("delay_scan.csv", _csv_bytes(["tilt_deg", "delay_fs"], self.scan)))


@_memoized(lambda cfg: (cfg.delay_line,))
def delay_line_scan(delay_line) -> DelayScan:
    """``delay_line_scan(cfg)``: the inner plate pair's ``DelayScan``."""
    line = default_delay_line(
        base_tilt_deg=delay_line.base_tilt_deg,
        thickness_mm=delay_line.plate_thickness_mm,
        wavelength_um=delay_line.wavelength_um,
    )
    tilt_grid = np.linspace(
        delay_line.scan_start_deg, delay_line.scan_stop_deg, delay_line.scan_points
    )
    return DelayScan(
        base_tilt_deg=delay_line.base_tilt_deg,
        delay_at_base_fs=calcite_delay(line),
        scan=delay_scan(line, tilt_grid),
    )


def _simulate_records(cfg, rel_rates, seeds):
    """The (settings, n_bins) count array of the configured coincidence
    histograms, each setting's pair rate scaled by its relative rate, and the
    record of each setting's net counts: one ``simulate_counts`` array,
    reduced by one ``subtract_accidentals`` pass."""
    duration = cfg.tomography.duration_per_setting_s
    counts = simulate_counts(cfg.noise, cfg.histogram, rel_rates, duration, seeds)
    raw, net, sigma = subtract_accidentals(counts, cfg.histogram.exclusion_bins)
    records = [
        CoincidenceRecord(index=m, raw=r, accidental=r - n, duration_s=duration, net_sigma=s)
        for m, (r, n, s) in enumerate(zip(raw.tolist(), net.tolist(), sigma.tolist()))
    ]
    return counts, records


def _measures(rhos, fixed_analyzer, spectrum) -> dict:
    """Report measures of each state of a (B, 3, 3) stack, as (B, ...) arrays:
    ``_state_measures`` (given the stack's ``spectrum``, or None if unknown)
    plus the fringe visibility (NaN where the fringe has no counts)."""
    return {
        **_state_measures(rhos, spectrum),
        "visibility": _fringe_visibility(rhos, fixed_analyzer),
    }


def _defined(values):
    """JSON form of a measure: floats, with None where it is undefined (NaN)."""
    if np.ndim(values):
        return [_defined(v) for v in values]
    return None if np.isnan(values) else float(values)


def _point_measures(rho, fixed_analyzer) -> dict:
    """The report entries of one state: the one-state case of ``_measures``."""
    measures = _measures(rho[None], fixed_analyzer, None)
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

# NumPy's SeedSequence hash (numpy/random/bit_generator.pyx) and PCG64 seeding
# (pcg64.h), which _child_normals reproduces
_MASK32, _MASK128 = 2**32 - 1, 2**128 - 1
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _uint32_words(value) -> list:
    """The uint32 words SeedSequence makes of an entropy or a spawn key: a
    non-negative int's, least significant first (one word for 0), or those
    of each item of a sequence in turn."""
    if not isinstance(value, (int, np.integer)):
        return [word for item in value for word in _uint32_words(item)]
    value = int(value)
    words = [value & _MASK32]
    while value := value >> 32:
        words.append(value & _MASK32)
    return words


def _hash_constants(const, mult):
    """A SeedSequence hash's constants, as (xor, multiplier) pairs whose
    multiplier is the next pair's xor: the same whatever the data hashed."""
    while True:
        following = const * mult & _MASK32
        yield const, following
        const = following


def _hashmix(value, constants):
    """SeedSequence's ``hashmix`` of a uint32 word with the next of
    ``constants``. ``value`` is an int or a uint32 array, hashed elementwise."""
    xor, mult = next(constants)
    value = (value ^ xor) * mult & _MASK32
    return value ^ value >> 16


def _mix(x, y):
    """SeedSequence's ``mix`` of two uint32 words (ints or uint32 arrays)."""
    result = (_MIX_MULT_L * x & _MASK32) - (_MIX_MULT_R * y & _MASK32) & _MASK32
    return result ^ result >> 16


def _child_normals(seq, first, count, size) -> np.ndarray:
    """The (count, size) standard normals that
    ``np.random.default_rng(child).standard_normal(size)`` draws for the
    children ``first`` ... ``first + count - 1`` of the SeedSequence ``seq``
    (child k is the one ``spawn`` makes with spawn key ``seq.spawn_key +
    (k,)``), bit for bit, without a SeedSequence or a Generator per child.

    Child k's entropy is ``seq``'s words zero-padded to the pool, its spawn
    key, then k. The pool of every word before k is mixed once, with ints;
    k is mixed in, and ``generate_state(4, np.uint64)`` derived, for all
    children at once in uint32 arrays. Those wrap mod 2**32 as the hash
    does, and stay uint32 beside an int below 2**32 under NumPy 1's and
    NumPy 2's promotion rules alike. Each child's PCG64 state is then set on
    one scratch generator in turn.
    """
    if first + count > 2**32:
        raise ValueError("a child index of 2**32 or more hashes as two words")
    words = _uint32_words(seq.entropy)
    words += [0] * (seq.pool_size - len(words)) + _uint32_words(seq.spawn_key)
    constants = _hash_constants(_INIT_A, _MULT_A)
    pool = [_hashmix(word, constants) for word in words[:seq.pool_size]]
    for i_src in range(seq.pool_size):
        for i_dst in range(seq.pool_size):
            if i_src != i_dst:
                pool[i_dst] = _mix(pool[i_dst], _hashmix(pool[i_src], constants))
    for word in [*words[seq.pool_size:], np.arange(first, first + count, dtype=np.uint32)]:
        pool = [_mix(p, _hashmix(word, constants)) for p in pool]
    constants = _hash_constants(_INIT_B, _MULT_B)
    state = np.array([_hashmix(pool[i % seq.pool_size], constants) for i in range(8)])

    bit_generator = np.random.PCG64(0)  # a fixed seed: PCG64() reads OS entropy
    generator = np.random.Generator(bit_generator)
    normals = np.empty((count, size))
    # the state's uint64 word j is its uint32 words 2j (low) and 2j + 1
    for row, (s0, s1, s2, s3, s4, s5, s6, s7) in zip(normals, state.T.tolist()):
        seed = (s1 << 32 | s0) << 64 | s3 << 32 | s2
        inc = ((s5 << 32 | s4) << 64 | s7 << 32 | s6) << 1 & _MASK128 | 1
        bit_generator.state = {
            "bit_generator": "PCG64",
            "state": {"state": ((inc + seed) * _PCG64_MULT + inc) & _MASK128, "inc": inc},
            "has_uint32": 0,
            "uinteger": 0,
        }
        generator.standard_normal(out=row)
    return normals


def _bootstrap_states(rho_hat, scale_hat, records, protocol, n_boot, seed_seq):
    """The states of a parametric bootstrap: net counts redrawn from the
    fitted model, then reconstructed ``_BOOTSTRAP_BLOCK`` replicates at a
    time by ``reconstruct``'s two steps, ``_solve_stack`` and ``_physical``.
    Yields each block's (B, 3, 3) states with their (vals, vecs) spectrum,
    the projection's eigendecomposition, so the measures need no second ``eigh``.

    Replicate k draws from the generator ``np.random.default_rng`` makes of
    the k-th child ``seed_seq.spawn`` would make next, computed by
    ``_child_normals`` without spawning, so ``seed_seq`` is not advanced and
    replicate k is the same whatever the block size. It keeps its records'
    accidentals, durations and sigmas, as ``reconstruct`` would see
    ``replace(record, raw=max(draw + accidental, 0))``.
    """
    durations = np.array([r.duration_s for r in records])
    accidental = np.array([r.accidental for r in records])
    sigmas = np.array([r.net_sigma for r in records])
    model_net = durations * forward_rates(rho_hat, protocol, scale_hat)
    for start in range(0, n_boot, _BOOTSTRAP_BLOCK):
        count = min(_BOOTSTRAP_BLOCK, n_boot - start)
        first = seed_seq.n_children_spawned + start
        # model_net + sigmas * z is bit for bit Generator.normal(model_net, sigmas)
        z = _child_normals(seed_seq, first, count, len(records))
        nets = np.maximum(model_net + sigmas * z + accidental, 0.0) - accidental
        rhos, _, _, spectrum = _physical(_solve_stack(nets, durations, protocol))
        yield rhos, spectrum


def _bootstrap_sigmas(cfg, rho_hat, scale_hat, records, protocol, seed_seq):
    """Parametric bootstrap: redraw net counts from the fitted model.

    Returns the report's ``<measure>_sigma`` entries, all None without
    replicates. Only the (n_boot, measures) sample table grows with the
    replicate count; the states are held one block at a time.
    """
    n_boot = cfg.run.bootstrap_samples
    measures = ("weights", "purity", "concurrence", "visibility")
    if n_boot == 0:
        return {f"{key}_sigma": None for key in measures}
    blocks = _bootstrap_states(rho_hat, scale_hat, records, protocol, n_boot, seed_seq)
    samples = {key: [] for key in measures}
    for rhos, spectrum in blocks:
        block = _measures(rhos, cfg.fringe.fixed_analyzer, spectrum)
        for key in measures:
            samples[key].append(block[key])
    return {f"{key}_sigma": _spread(np.concatenate(samples[key])) for key in measures}


@dataclass(frozen=True, eq=False)
class TomographyResult:
    """``simulate_tomography``'s result. ``measures`` and ``sigmas`` hold the
    report's JSON values (None where undefined); ``counts`` is the
    (settings, n_bins) int64 array of the coincidence histograms, their bins
    at the delays ``centers_ns``; ``fringe_curve`` holds (theta_deg, rate)
    pairs, none when the fringe has no counts."""

    records: list
    rho: np.ndarray
    fit: FitReport
    measures: dict
    sigmas: dict
    fixed_analyzer: str
    counts: np.ndarray
    centers_ns: np.ndarray
    fringe_curve: list

    def to_json(self) -> dict:
        """The report's ``tomography`` section."""
        entries = {**self.measures, **self.sigmas}
        return {
            "tomography": {
                "records": [{**asdict(r), "net": r.net} for r in self.records],
                **fit_json(self.rho, self.fit),
                # a copy of each list, so editing the section leaves the result alone
                **{key: list(v) if isinstance(v, list) else v for key, v in entries.items()},
                "fringe_fixed_analyzer": self.fixed_analyzer,
            }
        }

    def histogram_csv(self) -> bytes:
        """``histogram.csv``: the cached row templates filled with str() of each count."""
        encoded = bytearray(b"setting_index,delta_t_ns,counts\r\n")
        centers = self.centers_ns
        templates = _histogram_row_templates(centers.dtype.str, centers.tobytes())
        for m, counts in enumerate(self.counts.tolist()):
            for start, template in zip(range(0, len(counts), _CSV_BLOCK_ROWS), templates[m]):
                encoded += (template % tuple(counts[start:start + _CSV_BLOCK_ROWS])).encode()
        return bytes(encoded)

    def encoded(self) -> tuple:
        """``_encoded`` of the section, ``histogram.csv`` and ``fringe.csv``."""
        return _encoded(
            self.to_json(),
            ("histogram.csv", self.histogram_csv()),
            ("fringe.csv", _csv_bytes(["theta_deg", "rate"], self.fringe_curve)),
        )


def simulate_tomography(cfg: ExperimentConfig, seed_seq) -> TomographyResult:
    """Simulated tomography of ``source_model(cfg).rho``. Spawns one child of
    ``seed_seq`` per protocol setting, then one for the bootstrap."""
    protocol = default_protocol()
    rel_rates = forward_rates(source_model(cfg).rho, protocol, 1.0)
    counts, records = _simulate_records(cfg, rel_rates, seed_seq.spawn(len(protocol)))
    rho_hat, fit = reconstruct(records, protocol)

    measures = _point_measures(rho_hat, cfg.fringe.fixed_analyzer)
    curve = []  # no counts at any angle: a null visibility and no curve
    if measures["visibility"] is not None:
        theta_grid = np.linspace(
            cfg.fringe.theta_start_deg, cfg.fringe.theta_stop_deg, cfg.fringe.theta_points
        )
        curve = fringe_curve(rho_hat, cfg.fringe.fixed_analyzer, theta_grid)
    boot_seq = seed_seq.spawn(1)[0]
    return TomographyResult(
        records=records,
        rho=rho_hat,
        fit=fit,
        measures=measures,
        sigmas=_bootstrap_sigmas(cfg, rho_hat, fit.scale, records, protocol, boot_seq),
        fixed_analyzer=cfg.fringe.fixed_analyzer,
        counts=counts,
        centers_ns=bin_centers(cfg.histogram),
        fringe_curve=curve,
    )


@dataclass(frozen=True)
class BellResult:
    """``simulate_bell``'s result: the report's ``bell`` section, the model
    state's ``f_model`` included."""

    f_model: float
    f_reconstructed: float
    f_simulated: float
    sigma_f: float
    std_devs_above_classical: float | None
    counts_per_setting: int

    def to_json(self) -> dict:
        """The report's ``bell`` section."""
        return {"bell": asdict(self)}

    def encoded(self) -> tuple:
        """``_encoded`` of the section; it has no sidecar."""
        return _encoded(self.to_json())


def simulate_bell(cfg: ExperimentConfig, tomography: TomographyResult, seed_seq) -> BellResult:
    """The CHSH test of the reconstructed ``tomography.rho`` at
    ``default_chsh_settings()``, beside the model state's
    ``source_model(cfg).f_model``: ``[bell] counts_per_setting`` pairs per
    setting, drawn from the next spawned child of ``seed_seq``. The state is
    taken as checked, as ``simulate_tomography`` returns it."""
    rho4 = bell_mod.split_postselect_rho(tomography.rho)
    settings = bell_mod.default_chsh_settings()
    f_sim, sigma_f, std_devs = bell_mod.simulate_chsh(
        rho4, cfg.bell.counts_per_setting, seed_seq.spawn(1)[0], settings)
    return BellResult(
        f_model=source_model(cfg).f_model,
        f_reconstructed=bell_mod.chsh_value(rho4, settings),
        f_simulated=f_sim,
        sigma_f=sigma_f,
        std_devs_above_classical=std_devs,
        counts_per_setting=cfg.bell.counts_per_setting,
    )


@dataclass(frozen=True)
class ExperimentReport:
    """Everything one simulated run produced: its master ``seed`` and its five
    stage results (the seed-free ones shared by every run of the configuration).
    ``summary`` is rebuilt from them on each access, so editing it changes
    neither the report nor its files: edit the results with ``replace``."""

    seed: int
    source: SourceModel
    tomography: TomographyResult
    bell: BellResult
    spectral: SpectralSection
    delay_scan: DelayScan

    @property
    def results(self) -> tuple:
        """The five stage results, in the order their sidecars are written."""
        return self.source, self.tomography, self.bell, self.spectral, self.delay_scan

    @property
    def summary(self) -> dict:
        """``report.json``'s content, as a fresh JSON-safe dictionary."""
        summary = {"schema_version": SCHEMA_VERSION, "seed": self.seed}
        for result in self.results:
            summary.update(result.to_json())
        return summary

    def canonical_json(self) -> str:
        """Stable serialization used for reproducibility comparisons."""
        return json.dumps(self.summary, sort_keys=True, separators=(",", ":"), allow_nan=False)


def run_experiment(cfg: ExperimentConfig, seed=None) -> ExperimentReport:
    """Simulate one full characterization run of the film pair source."""
    master_seed = cfg.run.seed if seed is None else int(seed)
    seed_seq = np.random.SeedSequence(master_seed)
    tomography = simulate_tomography(cfg, seed_seq)
    return ExperimentReport(
        seed=master_seed,
        source=source_model(cfg),
        tomography=tomography,
        bell=simulate_bell(cfg, tomography, seed_seq),
        spectral=spectral_section(cfg),
        delay_scan=delay_line_scan(cfg),
    )


#: rows a sidecar encodes at a time: bounds the text held while encoding
_CSV_BLOCK_ROWS = 1024


def _csv_bytes(header, rows) -> bytes:
    """The bytes ``csv.writer`` writes for a header and rows of numbers: str()
    of each cell, CRLF line ends. Encoded ``_CSV_BLOCK_ROWS`` rows at a time
    into one bytes object, so no list of every row's text is held."""
    rows = iter(rows)
    encoded = bytearray((",".join(header) + "\r\n").encode())
    while block := list(itertools.islice(rows, _CSV_BLOCK_ROWS)):
        encoded += "".join([",".join(map(str, row)) + "\r\n" for row in block]).encode()
    return bytes(encoded)


class _RowTemplates(dict):
    """setting index -> the ``histogram.csv`` rows of one bin grid, with a
    ``%s`` for each count: ``setting_index,delta_t_ns,%s`` lines joined
    ``_CSV_BLOCK_ROWS`` to a template. Made on first use."""

    def __init__(self, delta_t):
        super().__init__()
        self.delta_t = delta_t

    def __missing__(self, m):
        self[m] = templates = [
            "".join([f"{m},{t},%s\r\n" for t in self.delta_t[start:start + _CSV_BLOCK_ROWS]])
            for start in range(0, len(self.delta_t), _CSV_BLOCK_ROWS)
        ]
        return templates


@functools.lru_cache(maxsize=_MEMO_CONFIGS)
def _histogram_row_templates(dtype: str, centers: bytes) -> _RowTemplates:
    """The row templates of the bin grid with these centers: keyed on their
    dtype and bytes, so -0.0 and 0.0 are different grids."""
    return _RowTemplates(np.frombuffer(centers, dtype=dtype).tolist())


def write_report(report: ExperimentReport, out_dir) -> list:
    """Write report.json plus CSV sidecars; returns the written paths.

    ``report.json`` is ``_json_bytes`` of ``schema_version``, ``seed`` and each
    stage result's ``encoded()`` sections, so it holds ``report.summary``. The
    sidecars follow in the order of ``report.results``.

    Each sidecar holds the bytes ``csv.writer`` writes for its rows: str() of
    each number, CRLF line ends. The seed-free results encode theirs once.
    ``histogram.csv`` fills row templates made once per bin grid (matched by
    its dtype and bytes) with the counts.

    Every file is encoded before the first one is opened, so a report that
    fails to encode (a NaN seed, say) leaves the directory as it was. Existing
    files are overwritten in place and cut to the new length: like a
    truncating write, this is not atomic, and a reader that looks while the
    report is written can see a mix of the old and the new bytes.
    """
    texts, sidecars = _encoded({"schema_version": SCHEMA_VERSION, "seed": report.seed})
    for result in report.results:
        result_texts, result_sidecars = result.encoded()
        texts.update(result_texts)
        sidecars += result_sidecars
    files = [("report.json", _json_bytes(texts)), *sidecars]
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = []
    for name, data in files:
        paths.append(out / name)
        _write_bytes(paths[-1], data)
    return paths


def _write_bytes(path, data: bytes) -> None:
    """Write ``data`` to ``path``, created with mode 0o666 less the umask.

    An existing file is opened without ``O_TRUNC``, overwritten and then cut
    to ``len(data)``: truncating a file that holds data on open costs ext4 a
    flush (``auto_da_alloc``) that a same-size rewrite never pays. Only a
    regular file is cut; ``ftruncate`` fails on ``/dev/null`` or a pipe.
    """
    # O_BINARY (Windows only) keeps the CRLF sidecars' bytes as they are
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0), 0o666)
    with open(fd, "wb") as fh:
        fh.write(data)
        if stat.S_ISREG(os.fstat(fd).st_mode):
            fh.truncate()
