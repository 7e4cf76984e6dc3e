"""Tomography protocol, reconstruction, and fringe-fit tests."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spdcfilm.config import FringeConfig
from spdcfilm.errors import ConfigError, IncompleteProtocol, InvalidDensityMatrix, SingularFit
from spdcfilm.polarization import analyzer_ket
from spdcfilm.qutrit import (
    _concurrence,
    _dominant,
    _schmidt_number,
    depolarize,
    pure_density_matrix,
)
from spdcfilm.tomography import (
    CoincidenceRecords,
    Protocol,
    _fringe_form,
    _fringe_visibility,
    _measures,
    _project_psd,
    default_protocol,
    forward_rates,
    fringe_curve,
    load_records_csv,
    named_protocol,
    reconstruct,
    setting,
)

SEED = 20260819


def _random_rho(rng):
    a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def _formed(vals, vecs):
    """The (B, 3, 3) states V diag(vals) V^dag of a stack of spectra."""
    return (vecs * vals[:, None, :]) @ np.swapaxes(vecs.conj(), -1, -2)


def _psd(m):
    """``_project_psd`` of one matrix, formed from its spectrum."""
    vals, vecs, _, _ = _project_psd(np.asarray(m, dtype=complex)[None])
    return _formed(vals, vecs)[0]


def _visibility(rho, fixed):
    """The closed-form fringe visibility of one state."""
    return _fringe_visibility(_fringe_form(rho[None], fixed))[0]


def _extended(extra):
    """The default protocol followed by the named analyzer pairs ``extra``."""
    return Protocol([*default_protocol().angles, *(setting(a) + setting(b) for a, b in extra)])


def _table(raw, accidental, duration=2.0, net_sigma=0.0):
    """The records table of these columns, a scalar standing for a column of it."""
    return CoincidenceRecords(*np.broadcast_arrays(raw, accidental, duration, net_sigma))


def _noiseless_records(rho, protocol, scale=1000.0, duration=2.0):
    return _table(duration * forward_rates(rho, protocol, scale), 0.0, duration)


def test_protocol_is_informationally_complete():
    assert default_protocol().rank == 9
    assert default_protocol() is default_protocol()


def test_linear_only_settings_are_incomplete():
    # without circular analyzers the imaginary parts are invisible
    linear = named_protocol([a + b for a in "HVDA" for b in "HVD"])
    assert len(linear) == 12 and linear.rank < 9


@pytest.mark.parametrize("protocol, rank", [
    (default_protocol(), 9),
    (named_protocol([a + b for a in "HVDA" for b in "HVD"]), 6),
    (named_protocol([a + b for a in "HVDAR" for b in "HVDAR"]), 9),
], ids=["default", "linear_12", "all_25"])
def test_protocol_rank_and_condition_number_come_from_one_svd(protocol, rank):
    # the rank is matrix_rank's at 1e-10, and cond the ratio of the design's
    # extreme singular values: inf-free, though past 1e17 where the rank is short
    sv = np.linalg.svd(protocol.design, compute_uv=False)
    assert protocol.rank == rank == np.linalg.matrix_rank(protocol.design, tol=1e-10)
    assert type(protocol.cond) is float and protocol.cond == sv[0] / sv[-1]
    assert (protocol.cond < 1e8) == (rank == 9)


def test_empty_protocol_raises():
    for empty in ([], np.zeros((0, 4))):
        with pytest.raises(ValueError, match="^protocol is empty$"):
            Protocol(empty)
    with pytest.raises(ValueError, match="^protocol is empty$"):
        named_protocol([])


def test_roundtrip_single_state():
    rng = np.random.default_rng(SEED)
    rho = _random_rho(rng)
    rho_hat, report, _ = reconstruct(_noiseless_records(rho, default_protocol()),
                                     default_protocol())
    assert np.linalg.norm(rho_hat - rho) < 1e-9
    assert report.scale == pytest.approx(1000.0, rel=1e-9)
    assert report.negative_mass_clipped < 1e-10


def test_rectilinear_rates_sum_to_twice_scale():
    # rate(HH) + rate(HV) + rate(VH) + rate(VV) = 2 scale tr(rho); the
    # projector is symmetric under analyzer swap, so rate(VH) = rate(HV)
    # and the protocol's first three settings carry the whole identity
    rng = np.random.default_rng(SEED + 1)
    for _ in range(20):
        rho = _random_rho(rng)
        rates = forward_rates(rho, default_protocol(), scale=10.0)
        total = rates[0] + 2.0 * rates[1] + rates[2]
        assert total == pytest.approx(20.0, rel=1e-12)


def test_psd_projection_is_idempotent():
    rng = np.random.default_rng(SEED + 2)
    for _ in range(50):
        m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        m = (m + m.conj().T) / 2
        m /= np.trace(m).real if abs(np.trace(m).real) > 0.1 else 1.0
        p = _psd(m)
        assert np.all(np.linalg.eigvalsh(p) > -1e-12)
        assert np.trace(p).real == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.norm(_psd(p) - p) < 1e-12


def test_incomplete_protocol_raises():
    protocol = Protocol(default_protocol().angles[:5])
    rho = np.eye(3) / 3
    with pytest.raises(IncompleteProtocol):
        reconstruct(_noiseless_records(rho, protocol), protocol)


def test_rank_deficient_protocol_raises():
    linear = named_protocol([a + b for a in "HVDA" for b in "HVD"])
    records = _noiseless_records(np.eye(3) / 3, linear)
    for _ in range(2):  # the rank is the protocol's own: each call reads it
        with pytest.raises(IncompleteProtocol, match=f"^protocol spans only rank {linear.rank} of 9$"):
            reconstruct(records, linear)


def test_protocol_arrays_are_read_only():
    from spdcfilm.tomography import _fringe_basis

    angles = np.array([setting(a) + setting(b) for a, b in ("HH", "HV", "VV")])
    protocol = Protocol(angles)
    assert protocol.angles.shape == (3, 4) and protocol.vectors.shape == (3, 3)
    assert protocol.design.shape == (3, 9) and protocol.rank == 3
    angles[0, 0] = 45.0  # the protocol holds its own copy of the table
    assert protocol.angles[0, 0] == 0.0
    fringe = _fringe_basis("H")
    assert fringe.shape == (3, 2)
    for shared in (protocol.angles, protocol.vectors, protocol.design, fringe):
        with pytest.raises(ValueError):
            shared[0, 0] = 0.0


def test_record_count_mismatch_raises():
    protocol = default_protocol()
    records = _noiseless_records(np.eye(3) / 3, Protocol(protocol.angles[:-1]))
    with pytest.raises(IncompleteProtocol, match="^8 records for 9 settings$"):
        reconstruct(records, protocol)


def test_duplicate_settings_singular():
    protocol = Protocol(np.repeat(default_protocol().angles[:1], 9, axis=0))
    records = _noiseless_records(np.eye(3) / 3, protocol)
    with pytest.raises((SingularFit, IncompleteProtocol)):
        reconstruct(records, protocol)


def test_negative_nets_still_reconstruct():
    # subtraction can leave small negative nets on dark settings; the fit
    # must absorb them rather than crash, and the PSD step clips the rest
    rng = np.random.default_rng(SEED + 3)
    state = np.array([0.0, 1.0, 0.0], dtype=complex)
    rho = depolarize(state, 0.02)
    protocol = default_protocol()
    rates = forward_rates(rho, protocol, scale=500.0)
    nets = np.array([r * 2.0 + rng.normal(0.0, 3.0) for r in rates])
    raw = np.maximum(nets, 0.0) + 40.0
    rho_hat, report, _ = reconstruct(_table(raw, raw - nets), protocol)
    assert np.all(np.linalg.eigvalsh(rho_hat) > -1e-12)
    assert rho_hat[1, 1].real > 0.9


def test_fringe_visibility_of_depolarized_state():
    state = np.array([0.0, 1.0, 0.0], dtype=complex)
    assert _visibility(pure_density_matrix(state), "H") == pytest.approx(1.0, abs=1e-9)
    assert _visibility(depolarize(state, 0.03), "H") == pytest.approx(0.96, abs=1e-6)


def test_fringe_grid_span_validation():
    # [fringe] checks its grid: half a turn shows both extremes of the fringe
    FringeConfig(0.0, 180.0, 19, "H")
    with pytest.raises(ConfigError, match="span at least 180 degrees"):
        FringeConfig(0.0, 90.0, 19, "H")
    with pytest.raises(ConfigError, match="span at least 180 degrees"):
        FringeConfig(0.0, np.nextafter(180.0, 0.0), 19, "H")


def test_records_csv_roundtrip(tmp_path):
    path = tmp_path / "records.csv"
    protocol = default_protocol()
    rho = depolarize(np.array([0.0, 1.0, 0.0], dtype=complex), 0.05)
    records = _noiseless_records(rho, protocol, scale=200.0)
    rows = ["qwp_a,hwp_a,qwp_b,hwp_b,raw,accidental,duration"]
    counts = zip(records.raw.tolist(), records.accidental.tolist(), records.duration_s.tolist())
    for (qa, ha, qb, hb), (raw, accidental, duration) in zip(protocol.angles.tolist(), counts):
        rows.append(f"{qa},{ha},{qb},{hb},{raw},{accidental},{duration}")
    path.write_text("\n".join(rows) + "\n")
    loaded_protocol, loaded_records = load_records_csv(path)
    assert np.array_equal(loaded_protocol.angles, protocol.angles)
    rho_hat, _, _ = reconstruct(loaded_records, loaded_protocol)
    assert np.linalg.norm(rho_hat - rho) < 1e-9


def test_records_csv_sigma_is_the_raw_counts_poisson_error(tmp_path):
    path = tmp_path / "records.csv"
    path.write_text("qwp_a,hwp_a,qwp_b,hwp_b,raw,accidental,duration\n"
                    "0,0,0,0,0,-3.5,1.0\n0,0,0,45,400,2.0,1.0\n0,45,0,45,0.25,0.0,1.0\n")
    _, records = load_records_csv(path)
    assert records.net_sigma.tolist() == [1.0, 20.0, 1.0]


def _first_record_error(raw, accidental, duration_s, net_sigma):
    """The message of the first record that fails, checked one record at a
    time in the order and words of the per-record checks the table replaced;
    None when every record passes."""
    for index, values in enumerate(zip(raw, accidental, duration_s, net_sigma)):
        raw_m, _, duration_m, _ = values
        for name, value in zip(("raw", "accidental", "duration", "net_sigma"), values):
            if not math.isfinite(value):
                return f"record {index}: {name} must be finite"
        if raw_m < 0:
            return f"record {index}: raw coincidences must be nonnegative"
        if duration_m <= 0:
            return f"record {index}: duration must be positive"
    return None


_ENTRIES = st.sampled_from([0.0, -0.0, 1.0, 2.5e3, -1.0, -1e-300, 1e300, np.nan, np.inf, -np.inf])


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(_ENTRIES, _ENTRIES, _ENTRIES, _ENTRIES), min_size=1, max_size=12))
def test_records_table_names_the_error_the_per_record_checks_name(rows):
    columns = [list(column) for column in zip(*rows)]
    expected = _first_record_error(*columns)
    if expected is None:
        records = CoincidenceRecords(*map(np.array, columns))
        assert len(records) == len(rows)
        assert records.net.tolist() == [r - a for r, a in zip(columns[0], columns[1])]
        return
    with pytest.raises(ValueError) as error:
        CoincidenceRecords(*map(np.array, columns))
    assert str(error.value) == expected


def test_records_table_holds_read_only_float_columns():
    raw = np.array([3, 0, 5])  # integers: the columns are floats
    records = CoincidenceRecords(raw, [1.0, 0.5, 0.0], np.full(3, 2.0), [1.0, 1.0, 2.0])
    raw[0] = 9
    assert records.raw.tolist() == [3.0, 0.0, 5.0] and records.raw.dtype == float
    assert records.net.tolist() == [2.0, -0.5, 5.0]
    for column in (records.raw, records.accidental, records.duration_s, records.net_sigma,
                   records.net):
        with pytest.raises(ValueError):
            column[0] = 1.0


def test_protocol_rejects_an_angle_that_is_not_finite():
    # named by its row and the records CSV's column, before any projector is built
    angles = default_protocol().angles.copy()
    for (m, k), value, column in (((0, 0), np.nan, "qwp_a"), ((4, 3), np.inf, "hwp_b"),
                                  ((8, 1), -np.inf, "hwp_a")):
        bad = angles.copy()
        bad[m, k] = value
        bad[m + 1:, 2] = np.nan  # a later row's failure is not the one named
        with warnings.catch_warnings(), pytest.raises(
                ValueError, match=f"^record {m}: {column} must be finite$"):
            warnings.simplefilter("error")  # no projector or SVD of the bad row is tried
            Protocol(bad)


def test_unknown_analyzer_raises_value_error():
    known = r"\['A', 'D', 'H', 'R', 'V'\]"
    with pytest.raises(ValueError, match=rf"unknown analyzer 'Q'; known: {known}"):
        setting("Q")


@pytest.mark.parametrize(
    "field, value",
    [("raw", np.nan), ("accidental", np.inf), ("duration_s", np.nan), ("net_sigma", -np.inf)],
)
def test_record_rejects_non_finite_counts(field, value):
    columns = {"raw": 100.0, "accidental": 2.0, "duration_s": 1.0, "net_sigma": 10.0}
    columns = {name: np.full(3, v) for name, v in columns.items()}
    CoincidenceRecords(**columns)
    columns[field][1] = value
    column = "duration" if field == "duration_s" else field  # the records CSV's name
    with pytest.raises(ValueError, match=f"^record 1: {column} must be finite$"):
        CoincidenceRecords(**columns)


# spacing of the dense reference grid; the rate is a second harmonic in
# theta, so a grid extreme lies within this phase of the true one and the
# grid visibility is biased low by at most 1 - cos(spacing)
DENSE_POINTS = 10**6
DENSE_BIAS = 1.0 - np.cos(np.radians(360.0 / DENSE_POINTS))


@pytest.mark.parametrize("fixed", ["H", "D", "R"])
def test_closed_form_visibility_matches_dense_fringe(fixed):
    from spdcfilm.polarization import two_photon_projector

    rng = np.random.default_rng(SEED + 4)
    eta = analyzer_ket(*setting(fixed))
    basis = [two_photon_projector(e, eta) for e in np.eye(2)]
    theta = np.radians(np.linspace(0.0, 360.0, DENSE_POINTS, endpoint=False))
    cos, sin = np.cos(theta), np.sin(theta)
    coarse = np.linspace(0.0, 360.0, 37)
    for _ in range(15):
        rho = _random_rho(rng)
        m = np.real([[np.vdot(wi, rho @ wj) for wj in basis] for wi in basis])
        curve, vis = fringe_curve(rho, fixed, coarse), _visibility(rho, fixed)
        # the quadratic form is the fringe: it reproduces the projector rates
        th = np.radians(coarse)
        form = m[0, 0] * np.cos(th) ** 2 + (m[0, 1] + m[1, 0]) * np.cos(th) * np.sin(th) \
            + m[1, 1] * np.sin(th) ** 2
        assert np.allclose(form, [r for _, r in curve], rtol=0.0, atol=1e-14)
        rates = m[0, 0] * cos**2 + (m[0, 1] + m[1, 0]) * cos * sin + m[1, 1] * sin**2
        hi, lo = rates.max(), rates.min()
        dense = (hi - lo) / (hi + lo)
        assert dense <= vis + 1e-12
        assert vis - dense <= DENSE_BIAS + 1e-12


@pytest.mark.parametrize("fixed", ["H", "V", "D", "A", "R"])
def test_fringe_curve_matches_per_angle_projector_rates(fixed):
    from spdcfilm.polarization import two_photon_projector

    # reference: arm A's ket built through the waveplates at every angle, the
    # half-wave plate at t / 2 passing linear t
    rng = np.random.default_rng(SEED + 6)
    eta = analyzer_ket(*setting(fixed))
    grid = np.linspace(-30.0, 330.0, 73)
    for _ in range(5):
        rho = _random_rho(rng)
        curve = fringe_curve(rho, fixed, grid)
        expected = [
            np.real(np.vdot(w, rho @ w))
            for w in (two_photon_projector(analyzer_ket(0.0, t / 2), eta) for t in grid)
        ]
        assert [t for t, _ in curve] == grid.tolist()
        assert np.allclose([r for _, r in curve], expected, rtol=0.0, atol=1e-12)


def test_fringe_without_counts_has_no_visibility():
    # |2V> never fires an H analyzer in arm B, whatever arm A passes
    two_v = np.diag([0.0, 0.0, 1.0]).astype(complex)
    assert [r for _, r in fringe_curve(two_v, "H", np.linspace(0.0, 360.0, 37))] == [0.0] * 37
    assert np.isnan(_visibility(two_v, "H"))


def test_batched_fit_matches_scalar_reconstruct_per_replicate():
    from spdcfilm.tomography import _physical, _solve_stack

    rng = np.random.default_rng(SEED + 5)
    protocol = default_protocol()
    rho = depolarize(np.array([0.1, 0.99, 0.1]) / np.linalg.norm([0.1, 0.99, 0.1]), 0.05)
    rates = forward_rates(rho, protocol, scale=300.0)
    draws = 2.0 * rates + rng.normal(0.0, 4.0, size=(6, len(protocol)))
    replicates = [_table(np.maximum(draw, 0.0) + 10.0, np.maximum(draw, 0.0) + 10.0 - draw)
                  for draw in draws]
    nets = np.array([records.net for records in replicates])
    vals, vecs, scales, negative_mass, _ = _physical(
        _solve_stack(nets, np.full(len(protocol), 2.0), protocol))
    rhos = _formed(vals, vecs)
    for k, records in enumerate(replicates):
        rho_k, report, _ = reconstruct(records, protocol)
        assert np.max(np.abs(rhos[k] - rho_k)) < 1e-12
        assert scales[k] == pytest.approx(report.scale, rel=1e-12)
        assert negative_mass[k] == pytest.approx(report.negative_mass_clipped, abs=1e-12)
        assert report.design_rank == 9


def test_replicate_with_nonpositive_trace_raises():
    from spdcfilm.tomography import _physical, _solve_stack

    protocol = default_protocol()
    good = 2.0 * forward_rates(depolarize(np.array([0.0, 1.0, 0.0]), 0.03), protocol, 300.0)
    durations = np.full(len(protocol), 2.0)
    nets = np.array([good, good, -good])
    with pytest.raises(SingularFit, match="fitted total rate .* is not positive"):
        _physical(_solve_stack(nets, durations, protocol))
    _physical(_solve_stack(nets[:2], durations, protocol))
    # the one-replicate case is reconstruct's own check
    with pytest.raises(SingularFit, match="not positive"):
        reconstruct(_table(0.0, good), protocol)


def _coefficients(rng, count, exponents):
    """A (count, 9) stack of coefficients x of S = sum_k x_k ``_BASIS``[k]:
    random signs and magnitudes 10 ** ``exponents``, a third of them +0.0
    or -0.0, in C order and, as ``_solve_stack``'s square solve returns
    them, in Fortran order."""
    x = rng.choice([-1.0, 1.0], (count, 9)) * 10.0 ** rng.uniform(*exponents, (count, 9))
    zero = rng.random((count, 9)) < 1.0 / 3.0
    x[zero] = rng.choice([0.0, -0.0], np.count_nonzero(zero))
    return x, np.asfortranarray(x)


def test_physical_reads_the_trace_from_the_coefficients_bit_for_bit(monkeypatch):
    from spdcfilm import tomography
    from spdcfilm.tomography import _BASIS, _physical

    # the scales alone: the projection of these extreme stacks is not looked at
    monkeypatch.setattr(tomography, "_project_psd", lambda m: (m, m, m, m))
    rng = np.random.default_rng(SEED + 12)
    for x in _coefficients(rng, 4000, (-300.0, 300.0)):
        traces = np.real(np.trace((x @ _BASIS.reshape(9, 9)).reshape(-1, 3, 3), axis1=1, axis2=2))
        positive = traces > 0.0
        assert 1000 < np.count_nonzero(positive) < 3000
        assert np.any((traces == 0.0) & ~positive)
        with np.errstate(over="ignore", invalid="ignore"):  # S / tr S of extreme magnitudes
            scales = _physical(x[positive])[2]
        assert scales.tobytes() == traces[positive].tobytes()
        # the first trace that is not positive is the error's, a zero one read as +0.0
        for k in [*np.flatnonzero(traces == 0.0), *np.flatnonzero(traces < 0.0)[:100]]:
            with pytest.raises(SingularFit) as error:
                _physical(x[k:k + 1])
            assert str(error.value) == f"fitted total rate {traces[k]:.3g} is not positive"
            assert str(error.value) != "fitted total rate -0 is not positive"


def test_projection_of_the_formed_s_needs_no_symmetrizing():
    # S is Hermitian bit for bit: the projection's eigh, which reads one
    # triangle, sees what it saw of (S + S^dag) / 2
    from spdcfilm import tomography
    from spdcfilm.tomography import _physical, _project_psd, _solve_stack

    def symmetrized(m):
        return _project_psd((m + np.swapaxes(m.conj(), -1, -2)) / 2.0)

    rng = np.random.default_rng(SEED + 13)
    stacks = list(_coefficients(rng, 2000, (-6.0, 6.0)))
    for stack in stacks:
        stack[:, :3] = np.abs(stack[:, :3]) + 1e-3  # a positive trace
    for extra in ((), ("AH", "AD", "VR", "RR")):
        protocol = _extended(extra)
        durations = rng.uniform(1.0, 20.0, len(protocol))
        rho = depolarize(np.array([0.1, 0.99, 0.1]) / np.linalg.norm([0.1, 0.99, 0.1]), 0.05)
        nets = durations * forward_rates(rho, protocol, 40.0) \
            + rng.normal(0.0, 3.0, (2000, len(protocol)))
        stacks.append(_solve_stack(nets, durations, protocol))
    for x in stacks:
        seen = []

        def recording(m, _original=_project_psd):
            seen.append(m)
            return _original(m)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(tomography, "_project_psd", recording)
            vals, vecs, _, negative_mass, clipped = _physical(x)
        (m,) = seen
        expected = symmetrized(m)
        for got, want in zip((vals, vecs, negative_mass, clipped), expected):
            assert got.tobytes() == want.tobytes()


def test_overcomplete_protocol_roundtrip():
    # more settings than parameters: the weighted least-squares fit is
    # overdetermined and must still recover a noiseless state exactly
    protocol = _extended(("AH", "AD", "VR"))
    rho = _random_rho(np.random.default_rng(SEED + 6))
    rho_hat, report, _ = reconstruct(_noiseless_records(rho, protocol), protocol)
    assert np.linalg.norm(rho_hat - rho) < 1e-9
    assert report.design_rank == 9 and report.scale == pytest.approx(1000.0, rel=1e-9)


def _svd_reference_fit(nets, durations, protocol):
    """Per replicate, ``reconstruct``'s weighted least-squares solution from
    that replicate's own weighted SVD: a reference for any protocol shape."""
    from spdcfilm.tomography import _BASIS

    design = durations[:, None] * protocol.design
    states, scales = [], []
    for net in nets:
        sqrt_w = np.sqrt(1.0 / np.maximum(net, 1.0))
        u, sv, vh = np.linalg.svd(design * sqrt_w[:, None], full_matrices=False)
        x = vh.T @ ((u.T @ (net * sqrt_w)) / sv)
        s = np.einsum("k,kij->ij", x, _BASIS)
        scales.append(np.trace(s).real)
        states.append(_psd(s / scales[-1]))
    return np.array(states), np.array(scales)


@pytest.mark.parametrize("extra", [(), ("AH", "AD", "VR", "RR")], ids=["square", "overcomplete"])
def test_stacked_fit_matches_per_replicate_svd_reference(extra):
    from spdcfilm.tomography import _physical, _solve_stack

    rng = np.random.default_rng(SEED + 7)
    protocol = _extended(extra)
    rho = depolarize(np.array([0.0, 1.0, 0.0]), 0.02)
    durations = rng.uniform(1.0, 3.0, len(protocol))
    # dark settings: nets below 1, where the weights clip at 1, and below 0
    nets = durations * forward_rates(rho, protocol, 40.0) + rng.normal(0.0, 1.5, (20, len(protocol)))
    assert np.any(nets < 1.0) and np.any(nets < 0.0)
    x = _solve_stack(nets, durations, protocol)
    vals, vecs, fitted_scales, _, _ = _physical(x)
    rhos = _formed(vals, vecs)
    states, scales = _svd_reference_fit(nets, durations, protocol)
    assert np.max(np.abs(rhos - states)) < 1e-12
    assert np.allclose(fitted_scales, scales, rtol=1e-12, atol=0.0)
    # reconstruct's weighted_rms_residual of each replicate
    weighted = (x @ (durations[:, None] * protocol.design).T - nets) / np.sqrt(
        np.maximum(nets, 1.0))
    residual = np.sqrt(np.mean(weighted ** 2, axis=-1))
    if not extra:  # exactly determined: every count is reproduced
        assert np.all(residual < 1e-12)
    else:
        assert np.all(residual > 1e-3)


def test_named_overcomplete_protocol_takes_the_svd_solve(monkeypatch):
    from spdcfilm.tomography import _physical, _solve_stack

    protocol = named_protocol([a + b for a in "HVDAR" for b in "HVDAR"])
    assert len(protocol) == 25 and protocol.rank == 9
    rng = np.random.default_rng(SEED + 11)
    durations = np.full(25, 2.0)
    nets = durations * forward_rates(_random_rho(rng), protocol, 300.0) \
        + rng.normal(0.0, 2.0, (3, 25))
    calls = []
    for name in ("svd", "solve"):
        def recording(a, *args, _name=name, _original=getattr(np.linalg, name), **kwargs):
            calls.append((_name, np.shape(a)))
            return _original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, recording)
    x = _solve_stack(nets, durations, protocol)
    # one weighted SVD of every replicate, and no LU solve of a square design
    assert calls == [("svd", (3, 25, 9))]
    monkeypatch.undo()
    states, _ = _svd_reference_fit(nets, durations, protocol)
    assert np.max(np.abs(_formed(*_physical(x)[:2]) - states)) < 1e-12


def test_ill_weighted_replicate_raises_singular_fit_before_solving():
    from spdcfilm.tomography import _solve_stack

    protocol = default_protocol()
    durations = np.full(len(protocol), 2.0)
    good = 2.0 * forward_rates(depolarize(np.array([0.0, 1.0, 0.0]), 0.03), protocol, 300.0)
    huge = good.copy()
    huge[0] = 1e17  # its weight 1e-8.5 pushes the weighted condition number past 1e8
    with pytest.raises(SingularFit, match="condition number"):
        _solve_stack(np.array([good, huge, good]), durations, protocol)
    _solve_stack(np.array([good, good]), durations, protocol)


def _weighted_conditions(nets, durations, protocol):
    """Per replicate, the exact condition number of ``reconstruct``'s weighted
    design, from that design's own singular values (as in
    ``_svd_reference_fit``), and the bound the solve clears it by:
    cond(D) max(d) / min(d) max(sqrt w) / min(sqrt w), with the protocol's
    own cond(D) and the durations d."""
    design = durations[:, None] * protocol.design
    sqrt_w = np.sqrt(1.0 / np.maximum(nets, 1.0))
    exact = []
    for w in sqrt_w:
        sv = np.linalg.svd(design * w[:, None], compute_uv=False)
        exact.append(sv[0] / sv[-1])
    return np.array(exact), (protocol.cond * (durations.max() / durations.min())
                             * sqrt_w.max(axis=-1) / sqrt_w.min(axis=-1))


_MODEL_NETS = 2.0 * forward_rates(depolarize(np.array([0.0, 1.0, 0.0]), 0.03),
                                  default_protocol(), 300.0)


@st.composite
def _replicate_nets(draw):
    """The default protocol's nets of one replicate: the model's, with dark
    settings (below 1, where the weights clip, and below 0) and up to two
    bright ones (up to 1e17, where the weighted condition number passes 1e8)."""
    nets = _MODEL_NETS.copy()
    for m in draw(st.lists(st.integers(0, 8), max_size=3)):
        nets[m] = draw(st.floats(-5.0, 1.0))
    for m in draw(st.lists(st.integers(0, 8), max_size=2, unique=True)):
        nets[m] = 10.0 ** draw(st.floats(0.0, 17.0))
    return nets


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(replicates=st.lists(_replicate_nets(), min_size=1, max_size=4),
       durations=st.lists(st.floats(-3.0, 3.0).map(lambda e: 10.0 ** e), min_size=9,
                          max_size=9))
def test_conditioning_bound_never_clears_what_the_svd_rejects(replicates, durations):
    from spdcfilm.tomography import _physical, _solve_stack

    protocol = default_protocol()
    durations = np.array(durations)  # one per setting, in [1e-3, 1e3] s
    nets = np.array(replicates)
    exact, bound = _weighted_conditions(nets, durations, protocol)
    # the bound the solve clears replicates by is never below the exact value
    assert np.all(bound >= exact * (1.0 - 1e-12))
    # the solve raises exactly when a replicate's own SVD fails the check
    bad = exact[~(exact <= 1e8)]
    try:
        x = _solve_stack(nets, durations, protocol)
    except SingularFit as error:
        assert bad.size and str(error) == f"design matrix condition number {bad[0]:.3g}"
        return
    assert not bad.size
    try:
        rhos = _formed(*_physical(x)[:2])
    except SingularFit as error:  # the trace check, made after the solve
        assert str(error).endswith("is not positive")
        return
    # one bright setting at most: with two, the reference's own solve loses
    # digits to eps times the weighted condition number (up to 1e8), so only
    # the checks above are compared. The durations' spread scales that
    # condition number too: equal durations are compared to 1e-12
    single = np.count_nonzero(nets > np.max(_MODEL_NETS), axis=-1) <= 1
    if np.any(single):
        states, _ = _svd_reference_fit(nets[single], durations, protocol)
        spread = durations.max() / durations.min()
        assert np.max(np.abs(rhos[single] - states)) < 1e-12 * spread


def test_replicate_the_bound_cannot_clear_takes_the_exact_checks(monkeypatch):
    from spdcfilm.tomography import _BOUND_MARGIN, _physical, _solve_stack

    protocol = default_protocol()
    durations = np.full(len(protocol), 2.0)
    bright = _MODEL_NETS.copy()
    bright[0] = 1e12
    nets = np.array([_MODEL_NETS, bright])
    exact, bound = _weighted_conditions(nets, durations, protocol)
    assert bound[0] <= _BOUND_MARGIN < bound[1] and exact[1] < 1e8

    design = durations[:, None] * protocol.design
    svd, inputs = np.linalg.svd, []

    def counting_svd(a, *args, **kwargs):
        inputs.append(np.array(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    x = _solve_stack(nets, durations, protocol)
    # the exact SVD of the bright replicate only: the protocol's condition
    # number, made with it, bounds the other, and the shared design takes none
    assert len(inputs) == 1
    assert np.array_equal(inputs[0], design[None] * np.sqrt(1.0 / np.maximum(bright, 1.0))[:, None])
    rhos = _formed(*_physical(x)[:2])
    assert np.max(np.abs(rhos - _svd_reference_fit(nets, durations, protocol)[0])) < 1e-12
    # the point fit reports the exact value, though the bound clears its solve
    del inputs[:]
    records = _table(np.maximum(_MODEL_NETS, 0.0), np.maximum(_MODEL_NETS, 0.0) - _MODEL_NETS)
    assert reconstruct(records, protocol)[1].condition_number == pytest.approx(exact[0],
                                                                               rel=1e-12)
    assert [a.shape for a in inputs] == [(1, 9, 9)]


def test_spectrum_measures_match_the_formed_state_formulas():
    rng = np.random.default_rng(SEED + 10)

    def unitary(n):
        return np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))[0]

    def rotated(eigenvalues):
        q = unitary(3)
        return (q * np.asarray(eigenvalues)) @ q.conj().T

    def clipped_to_2v(negative):
        # negative eigenvalues in the |2H>, |1H 1V> plane: the clipped state is
        # |2V>, which an H-fixed fringe never counts
        m = np.zeros((3, 3), dtype=complex)
        q = unitary(2)
        m[:2, :2] = (q * np.asarray(negative)) @ q.conj().T
        m[2, 2] = 1.0 - sum(negative)
        return m

    stack = np.array(
        [_random_rho(rng) for _ in range(4)]
        + [
            rotated([1.3, -0.1, -0.2]),  # clipped to rank 1
            rotated([0.45, 0.45, 0.1]),  # degenerate top pair
            rotated([0.6, 0.6, -0.2]),  # degenerate top pair after clipping
            rotated([0.7, 0.4, -0.1]),  # clipped, top pair apart
            np.diag([0.0, 0.0, 1.0]),  # |2V>: a dark fringe
            clipped_to_2v([-0.1, -0.2]),  # a dark fringe after clipping
        ]
    )
    vals, vecs, _, _ = _project_psd(stack)
    measures = _measures(vals, vecs, "H")
    # the formed states' own formulas, and a fresh eigh for the dominant branch
    rhos = _formed(vals, vecs)
    top, top_weight, degenerate = _dominant(*np.linalg.eigh(rhos))
    concurrence = np.where(degenerate, np.nan, _concurrence(top))
    expected = {
        "weights": np.real(np.diagonal(rhos, axis1=-2, axis2=-1)),
        "purity": np.real(np.trace(rhos @ rhos, axis1=-2, axis2=-1)),
        "concurrence": concurrence,
        "schmidt_number": _schmidt_number(concurrence),
        "dominant_weight": np.where(degenerate, np.nan, top_weight),
        "visibility": _fringe_visibility(_fringe_form(rhos, "H")),
    }
    assert degenerate.tolist() == [False] * 5 + [True, True] + [False] * 3
    assert np.isnan(expected["visibility"]).tolist() == [False] * 8 + [True, True]
    assert measures.keys() == expected.keys()
    for key, values in expected.items():
        assert np.array_equal(np.isnan(measures[key]), np.isnan(values)), key
        assert np.allclose(measures[key], values, rtol=0.0, atol=1e-12, equal_nan=True), key


def test_spectrum_measures_check_each_spectrum():
    # as check_density_matrix checks a matrix: the eigenvalues' sum is its
    # trace, 1 to 1e-10, and none may lie below EIG_FLOOR (-1e-9)
    vecs = np.broadcast_to(np.eye(3, dtype=complex), (2, 3, 3))
    good = [0.2, 0.3, 0.5]
    _measures(np.array([good, [-0.9e-9, 0.3, 0.7000000009]]), vecs, "H")
    with pytest.raises(InvalidDensityMatrix, match="is not 1 to 1e-10"):
        _measures(np.array([good, [0.2, 0.3, 0.5000000002]]), vecs, "H")
    with pytest.raises(InvalidDensityMatrix, match="eigenvalue below -1e-09"):
        _measures(np.array([good, [-2e-9, 0.3, 0.700000002]]), vecs, "H")


def test_nothing_clipped_reports_positive_zero():
    rho = _random_rho(np.random.default_rng(SEED + 8))
    _, report, _ = reconstruct(_noiseless_records(rho, default_protocol()), default_protocol())
    assert report.negative_mass_clipped == 0.0
    assert np.copysign(1.0, report.negative_mass_clipped) == 1.0


def test_forward_rates_match_vdot_loop():
    from spdcfilm.polarization import two_photon_projector

    rng = np.random.default_rng(SEED + 9)
    protocol = _extended(("AH", "AD", "VR"))
    vectors = [two_photon_projector(analyzer_ket(qa, ha), analyzer_ket(qb, hb))
               for qa, ha, qb, hb in protocol.angles]
    for _ in range(50):
        rho = _random_rho(rng)
        expected = np.array([2.5 * np.real(np.vdot(w, rho @ w)) for w in vectors])
        assert np.allclose(forward_rates(rho, protocol, 2.5), expected, rtol=1e-15, atol=1e-15)
