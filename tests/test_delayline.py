"""Birefringent delay-line tests.

A tilted uniaxial plate whose optic axis lies along the tilt axis keeps
the e-ray index fixed at n_e, so the H-V group delay per calcite plate is
d (n_o cos(theta_o) - n_e cos(theta_e)) / c.  The frozen numbers come
from evaluating that expression with published calcite indices at
1.276 um (n_o = 1.6385, n_e = 1.4786).
"""

from dataclasses import replace

import numpy as np
import pytest

from spdcfilm.config import load_config
from spdcfilm.delayline import DelayLine, delay_scan, plate_delay_fs
from spdcfilm.errors import OutOfRange
from spdcfilm.materials import load_material

N_O = float(load_material("calcite_o").index(1.276))
N_E = float(load_material("calcite_e").index(1.276))
SHIPPED = load_config().delay_line  # 5 mm plates at 1.276 um, base 10 deg, 0..20 deg in 41 points


def _line(base_tilt_deg):
    """The shipped [delay_line] compensator at a base tilt."""
    return replace(SHIPPED, base_tilt_deg=base_tilt_deg)


def test_section_resolves_calcite_indices():
    assert (SHIPPED.n_o, SHIPPED.n_e) == (N_O, N_E)
    assert isinstance(SHIPPED.n_o, float) and isinstance(SHIPPED.n_e, float)


def test_single_plate_zero_tilt():
    assert plate_delay_fs(N_O, N_E, 5.0, "vertical", 0.0) == pytest.approx(2666.72, abs=0.02)


def test_axis_sign_convention():
    assert plate_delay_fs(N_O, N_E, 5.0, "vertical", 7.0) == pytest.approx(
        -plate_delay_fs(N_O, N_E, 5.0, "horizontal", 7.0), abs=1e-12
    )


def test_balanced_line_cancels():
    assert _line(10.0).delay_fs(10.0) == pytest.approx(0.0, abs=1e-12)
    # cancellation holds at any common tilt, not just the default
    for tilt in (0.0, 4.0, 17.5):
        assert _line(tilt).delay_fs(tilt) == pytest.approx(0.0, abs=1e-12)


def test_inner_pair_scan_values():
    line = _line(10.0)
    tilts = [0.0, 8.0, 10.0, 12.0, 20.0]
    expected = [33.5044, 12.0556, 0.0, -14.7246, -100.1303]
    for tilt, want in zip(tilts, expected):
        assert line.delay_fs(tilt) == pytest.approx(want, abs=2e-3)


def test_scan_monotone_through_zero():
    scan = delay_scan(SHIPPED)
    tilts = np.array([t for t, _ in scan])
    delays = np.array([d for _, d in scan])
    assert np.array_equal(tilts, np.linspace(0.0, 20.0, 41))
    assert np.all(np.diff(delays) < 0.0)
    assert delays[20] == pytest.approx(0.0, abs=1e-12)  # tilt == base tilt


def test_inner_outer_antisymmetry():
    # tilting the outer pair from base to u adds exactly the negative of
    # tilting the inner pair by the same amount: the plates are identical
    # and their fast axes alternate
    line = _line(10.0)
    for u in (4.0, 12.0, 19.0):
        inner = line.delay_fs(u)
        outer_tilted = _line(u).delay_fs(10.0)
        assert inner + outer_tilted == pytest.approx(0.0, abs=1e-12)
    assert line.delay_fs(12.0) == pytest.approx(-14.724583736872773, abs=1e-9)


def test_delays_add_per_plate():
    # V at base, H at the inner tilt twice, V at base
    line = replace(SHIPPED, plate_thickness_mm=2.0, base_tilt_deg=3.0)
    outer = plate_delay_fs(N_O, N_E, 2.0, "vertical", 3.0)
    inner = plate_delay_fs(N_O, N_E, 2.0, "horizontal", 11.0)
    assert line.delay_fs(11.0) == pytest.approx(outer + inner + inner + outer, abs=1e-12)


def test_validation():
    with pytest.raises(OutOfRange, match=r"^plate tilt 60.0 deg outside"):
        _line(60.0)
    with pytest.raises(ValueError, match="plate thickness must be positive"):
        replace(SHIPPED, plate_thickness_mm=-1.0)
    with pytest.raises(ValueError, match="^scan needs at least 2 points$"):
        replace(SHIPPED, scan_points=1)
