"""Tomography protocol, reconstruction, and fringe-fit tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spdcfilm.config import FringeConfig
from spdcfilm.errors import ConfigError, IncompleteProtocol, SingularFit
from spdcfilm.qutrit import depolarize, pure_density_matrix
from spdcfilm.tomography import (
    AnalyzerSetting,
    CoincidenceRecord,
    _fringe_visibility,
    _project_psd,
    completeness_check,
    default_protocol,
    forward_rates,
    fringe_curve,
    load_records_csv,
    reconstruct,
    setting,
)

SEED = 20260819


def _random_rho(rng):
    a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def _psd(m):
    """``_project_psd`` of one matrix."""
    return _project_psd(np.asarray(m, dtype=complex)[None])[0][0]


def _visibility(rho, fixed):
    """The closed-form fringe visibility of one state."""
    return _fringe_visibility(rho[None], fixed)[0]


def _noiseless_records(rho, protocol, scale=1000.0, duration=2.0):
    rates = forward_rates(rho, protocol, scale)
    return [
        CoincidenceRecord(index=m, raw=duration * r, accidental=0.0, duration_s=duration)
        for m, r in enumerate(rates)
    ]


def test_protocol_is_informationally_complete():
    complete, rank = completeness_check(default_protocol())
    assert complete and rank == 9


def test_linear_only_settings_are_incomplete():
    # without circular analyzers the imaginary parts are invisible
    linear = [
        (setting(a), setting(b))
        for a in ("H", "V", "D", "A")
        for b in ("H", "V", "D")
    ]
    complete, rank = completeness_check(linear)
    assert not complete and rank < 9


def test_roundtrip_single_state():
    rng = np.random.default_rng(SEED)
    rho = _random_rho(rng)
    rho_hat, report = reconstruct(_noiseless_records(rho, default_protocol()), default_protocol())
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
    protocol = default_protocol()[:5]
    rho = np.eye(3) / 3
    with pytest.raises(IncompleteProtocol):
        reconstruct(_noiseless_records(rho, protocol), protocol)


def test_rank_deficient_protocol_raises_with_warm_memo():
    from spdcfilm.tomography import _protocol_constants

    linear = [(setting(a), setting(b)) for a in ("H", "V", "D", "A") for b in ("H", "V", "D")]
    records = _noiseless_records(np.eye(3) / 3, linear)
    with pytest.raises(IncompleteProtocol):
        reconstruct(records, linear)
    hits = _protocol_constants.cache_info().hits
    with pytest.raises(IncompleteProtocol, match="rank"):
        reconstruct(records, linear)
    assert _protocol_constants.cache_info().hits > hits


def test_memoized_projectors_are_read_only():
    from spdcfilm.tomography import _constants, _fringe_basis

    vectors, design, rank = _constants(default_protocol())
    assert vectors.shape == (9, 3) and design.shape == (9, 9) and rank == 9
    fringe = _fringe_basis("H")
    assert fringe.shape == (3, 2)
    for shared in (vectors, design, fringe):
        with pytest.raises(ValueError):
            shared[0, 0] = 0.0


def test_record_count_mismatch_raises():
    protocol = default_protocol()
    records = _noiseless_records(np.eye(3) / 3, protocol)[:-1]
    with pytest.raises(IncompleteProtocol):
        reconstruct(records, protocol)


def test_duplicate_settings_singular():
    one = default_protocol()[0]
    protocol = [one] * 9
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
    records = []
    for m, r in enumerate(rates):
        net = r * 2.0 + rng.normal(0.0, 3.0)
        records.append(
            CoincidenceRecord(index=m, raw=max(net, 0.0) + 40.0, accidental=max(net, 0.0) + 40.0 - net, duration_s=2.0)
        )
    rho_hat, report = reconstruct(records, protocol)
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
    for (a, b), rec in zip(protocol, records):
        rows.append(
            f"{a.qwp_deg},{a.hwp_deg},{b.qwp_deg},{b.hwp_deg},"
            f"{rec.raw},{rec.accidental},{rec.duration_s}"
        )
    path.write_text("\n".join(rows) + "\n")
    loaded_protocol, loaded_records = load_records_csv(path)
    rho_hat, _ = reconstruct(loaded_records, loaded_protocol)
    assert np.linalg.norm(rho_hat - rho) < 1e-9


def test_unknown_analyzer_raises_value_error():
    known = r"\['A', 'D', 'H', 'R', 'V'\]"
    with pytest.raises(ValueError, match=rf"unknown analyzer 'Q'; known: {known}"):
        setting("Q")


@pytest.mark.parametrize(
    "field, value",
    [("raw", np.nan), ("accidental", np.inf), ("duration_s", np.nan), ("net_sigma", -np.inf)],
)
def test_record_rejects_non_finite_counts(field, value):
    fields = {"index": 0, "raw": 100.0, "accidental": 2.0, "duration_s": 1.0, "net_sigma": 10.0}
    CoincidenceRecord(**fields)
    column = "duration" if field == "duration_s" else field  # the records CSV's name
    with pytest.raises(ValueError, match=f"^record 0: {column} must be finite"):
        CoincidenceRecord(**{**fields, field: value})


# spacing of the dense reference grid; the rate is a second harmonic in
# theta, so a grid extreme lies within this phase of the true one and the
# grid visibility is biased low by at most 1 - cos(spacing)
DENSE_POINTS = 10**6
DENSE_BIAS = 1.0 - np.cos(np.radians(360.0 / DENSE_POINTS))


@pytest.mark.parametrize("fixed", ["H", "D", "R"])
def test_closed_form_visibility_matches_dense_fringe(fixed):
    from spdcfilm.polarization import two_photon_projector

    rng = np.random.default_rng(SEED + 4)
    eta = setting(fixed).ket()
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
    eta = setting(fixed).ket()
    grid = np.linspace(-30.0, 330.0, 73)
    for _ in range(5):
        rho = _random_rho(rng)
        curve = fringe_curve(rho, fixed, grid)
        expected = [
            np.real(np.vdot(w, rho @ w))
            for w in (two_photon_projector(AnalyzerSetting(0.0, t / 2).ket(), eta)
                      for t in grid)
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
    replicates = [
        [
            CoincidenceRecord(index=m, raw=max(n, 0.0) + 10.0, accidental=max(n, 0.0) + 10.0 - n,
                              duration_s=2.0)
            for m, n in enumerate(draw)
        ]
        for draw in draws
    ]
    nets = np.array([[rec.net for rec in records] for records in replicates])
    rhos, scales, negative_mass, _ = _physical(
        _solve_stack(nets, np.full(len(protocol), 2.0), protocol))
    for k, records in enumerate(replicates):
        rho_k, report = reconstruct(records, protocol)
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
    records = [
        CoincidenceRecord(index=m, raw=0.0, accidental=n, duration_s=2.0)
        for m, n in enumerate(good)
    ]
    with pytest.raises(SingularFit, match="not positive"):
        reconstruct(records, protocol)


def test_overcomplete_protocol_roundtrip():
    # more settings than parameters: the weighted least-squares fit is
    # overdetermined and must still recover a noiseless state exactly
    protocol = default_protocol() + [(setting(a), setting(b)) for a, b in ("AH", "AD", "VR")]
    rho = _random_rho(np.random.default_rng(SEED + 6))
    rho_hat, report = reconstruct(_noiseless_records(rho, protocol), protocol)
    assert np.linalg.norm(rho_hat - rho) < 1e-9
    assert report.design_rank == 9 and report.scale == pytest.approx(1000.0, rel=1e-9)


def _svd_reference_fit(nets, durations, protocol):
    """Per replicate, ``reconstruct``'s weighted least-squares solution from
    that replicate's own weighted SVD: a reference for any protocol shape."""
    from spdcfilm.tomography import _BASIS, _constants

    design = durations[:, None] * _constants(protocol)[1]
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
    from spdcfilm.tomography import _constants, _physical, _solve_stack

    rng = np.random.default_rng(SEED + 7)
    protocol = default_protocol() + [(setting(a), setting(b)) for a, b in extra]
    rho = depolarize(np.array([0.0, 1.0, 0.0]), 0.02)
    durations = rng.uniform(1.0, 3.0, len(protocol))
    # dark settings: nets below 1, where the weights clip at 1, and below 0
    nets = durations * forward_rates(rho, protocol, 40.0) + rng.normal(0.0, 1.5, (20, len(protocol)))
    assert np.any(nets < 1.0) and np.any(nets < 0.0)
    x = _solve_stack(nets, durations, protocol)
    rhos, fitted_scales, _, _ = _physical(x)
    states, scales = _svd_reference_fit(nets, durations, protocol)
    assert np.max(np.abs(rhos - states)) < 1e-12
    assert np.allclose(fitted_scales, scales, rtol=1e-12, atol=0.0)
    # reconstruct's weighted_rms_residual of each replicate
    weighted = (x @ (durations[:, None] * _constants(protocol)[1]).T - nets) / np.sqrt(
        np.maximum(nets, 1.0))
    residual = np.sqrt(np.mean(weighted ** 2, axis=-1))
    if not extra:  # exactly determined: every count is reproduced
        assert np.all(residual < 1e-12)
    else:
        assert np.all(residual > 1e-3)


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
    ``_svd_reference_fit``), and the bound cond(D) max(sqrt w) / min(sqrt w)
    that one SVD of the shared design gives."""
    from spdcfilm.tomography import _constants

    design = durations[:, None] * _constants(protocol)[1]
    sqrt_w = np.sqrt(1.0 / np.maximum(nets, 1.0))
    exact = []
    for w in sqrt_w:
        sv = np.linalg.svd(design * w[:, None], compute_uv=False)
        exact.append(sv[0] / sv[-1])
    sv = np.linalg.svd(design, compute_uv=False)
    return np.array(exact), sv[0] / sv[-1] * sqrt_w.max(axis=-1) / sqrt_w.min(axis=-1)


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
@given(replicates=st.lists(_replicate_nets(), min_size=1, max_size=4))
def test_conditioning_bound_never_clears_what_the_svd_rejects(replicates):
    from spdcfilm.tomography import _physical, _solve_stack

    protocol = default_protocol()
    durations = np.full(len(protocol), 2.0)
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
        rhos = _physical(x)[0]
    except SingularFit as error:  # the trace check, made after the solve
        assert str(error).endswith("is not positive")
        return
    # one bright setting at most: with two, the reference's own solve loses
    # digits to eps times the weighted condition number (up to 1e8), so only
    # the checks above are compared
    single = np.count_nonzero(nets > np.max(_MODEL_NETS), axis=-1) <= 1
    if np.any(single):
        states, _ = _svd_reference_fit(nets[single], durations, protocol)
        assert np.max(np.abs(rhos[single] - states)) < 1e-12


def test_replicate_the_bound_cannot_clear_takes_the_exact_checks(monkeypatch):
    from spdcfilm.tomography import _BOUND_MARGIN, _constants, _physical, _solve_stack

    protocol = default_protocol()
    durations = np.full(len(protocol), 2.0)
    bright = _MODEL_NETS.copy()
    bright[0] = 1e12
    nets = np.array([_MODEL_NETS, bright])
    exact, bound = _weighted_conditions(nets, durations, protocol)
    assert bound[0] <= _BOUND_MARGIN < bound[1] and exact[1] < 1e8

    design = durations[:, None] * _constants(protocol)[1]
    svd, inputs = np.linalg.svd, []

    def counting_svd(a, *args, **kwargs):
        inputs.append(np.array(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    x = _solve_stack(nets, durations, protocol)
    # one SVD of the shared design, then the exact SVD of the bright replicate only
    assert len(inputs) == 2 and np.array_equal(inputs[0], design)
    assert np.array_equal(inputs[1], design[None] * np.sqrt(1.0 / np.maximum(bright, 1.0))[:, None])
    assert np.max(np.abs(_physical(x)[0] - _svd_reference_fit(nets, durations, protocol)[0])) < 1e-12
    # the point fit reports the exact value, though the bound clears its solve
    del inputs[:]
    records = [CoincidenceRecord(index=m, raw=max(n, 0.0), accidental=max(n, 0.0) - n,
                                 duration_s=2.0) for m, n in enumerate(_MODEL_NETS)]
    assert reconstruct(records, protocol)[1].condition_number == pytest.approx(exact[0],
                                                                               rel=1e-12)
    assert [a.shape for a in inputs] == [(9, 9), (1, 9, 9)]


def test_measures_from_the_projection_spectrum_match_a_fresh_eigh():
    from spdcfilm.qutrit import _state_measures
    from spdcfilm.tomography import _project_psd

    rng = np.random.default_rng(SEED + 10)

    def rotated(eigenvalues):
        q, _ = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
        return (q * np.asarray(eigenvalues)) @ q.conj().T

    stack = np.array(
        [_random_rho(rng) for _ in range(4)]
        + [
            rotated([1.3, -0.1, -0.2]),  # clipped to rank 1
            rotated([0.45, 0.45, 0.1]),  # degenerate top pair
            rotated([0.6, 0.6, -0.2]),  # degenerate top pair after clipping
            rotated([0.7, 0.4, -0.1]),  # clipped, top pair apart
        ]
    )
    rhos, _, spectrum = _project_psd(stack)
    measures = _state_measures(rhos, spectrum)
    fresh = _state_measures(rhos, None)
    assert np.isnan(fresh["concurrence"]).tolist() == [False] * 5 + [True, True, False]
    for key, values in fresh.items():
        assert np.array_equal(np.isnan(measures[key]), np.isnan(values)), key
        assert np.allclose(measures[key], values, rtol=0.0, atol=1e-12, equal_nan=True), key


def test_nothing_clipped_reports_positive_zero():
    rho = _random_rho(np.random.default_rng(SEED + 8))
    _, report = reconstruct(_noiseless_records(rho, default_protocol()), default_protocol())
    assert report.negative_mass_clipped == 0.0
    assert np.copysign(1.0, report.negative_mass_clipped) == 1.0


def test_forward_rates_match_vdot_loop():
    from spdcfilm.polarization import two_photon_projector

    rng = np.random.default_rng(SEED + 9)
    protocol = default_protocol() + [(setting(a), setting(b)) for a, b in ("AH", "AD", "VR")]
    vectors = [two_photon_projector(a.ket(), b.ket()) for a, b in protocol]
    for _ in range(50):
        rho = _random_rho(rng)
        expected = np.array([2.5 * np.real(np.vdot(w, rho @ w)) for w in vectors])
        assert np.allclose(forward_rates(rho, protocol, 2.5), expected, rtol=1e-15, atol=1e-15)
