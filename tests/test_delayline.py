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
from spdcfilm.delayline import (
    DelayLine,
    Plate,
    calcite_delay,
    default_delay_line,
    delay_scan,
    optical_path_mm,
    plate_delay_fs,
)
from spdcfilm.errors import OutOfRange, TotalInternalReflection
from spdcfilm.materials import load_material

N_O = float(load_material("calcite_o").index(1.276))
N_E = float(load_material("calcite_e").index(1.276))
SHIPPED = load_config().delay_line


def _line(base_tilt_deg):
    """The shipped [delay_line] compensator (5 mm plates, 1.276 um) at a base tilt."""
    return default_delay_line(base_tilt_deg, SHIPPED.plate_thickness_mm, SHIPPED.wavelength_um)


def test_single_plate_zero_tilt():
    plate = Plate(thickness_mm=5.0, axis="vertical", tilt_deg=0.0)
    assert plate_delay_fs(plate, N_O, N_E) == pytest.approx(2666.72, abs=0.02)


def test_axis_sign_convention():
    v = Plate(thickness_mm=5.0, axis="vertical", tilt_deg=7.0)
    h = Plate(thickness_mm=5.0, axis="horizontal", tilt_deg=7.0)
    assert plate_delay_fs(v, N_O, N_E) == pytest.approx(
        -plate_delay_fs(h, N_O, N_E), abs=1e-12
    )


def test_balanced_line_cancels():
    line = _line(10.0)
    assert [p.axis for p in line.plates] == [
        "vertical",
        "horizontal",
        "horizontal",
        "vertical",
    ]
    assert calcite_delay(line) == pytest.approx(0.0, abs=1e-12)
    # cancellation holds at any common tilt, not just the default
    for tilt in (0.0, 4.0, 17.5):
        assert calcite_delay(_line(tilt)) == pytest.approx(
            0.0, abs=1e-12
        )


def test_inner_pair_scan_values():
    line = _line(10.0)
    tilts = np.array([0.0, 8.0, 10.0, 12.0, 20.0])
    got = delay_scan(line, tilts)
    expected = [33.5044, 12.0556, 0.0, -14.7246, -100.1303]
    for (tilt, delay), want in zip(got, expected):
        assert delay == pytest.approx(want, abs=2e-3)


def test_scan_monotone_through_zero():
    line = _line(10.0)
    tilts = np.linspace(0.0, 20.0, 41)
    delays = np.array([d for _, d in delay_scan(line, tilts)])
    assert np.all(np.diff(delays) < 0.0)
    assert delays[20] == pytest.approx(0.0, abs=1e-12)  # tilt == base tilt


def test_inner_outer_antisymmetry():
    # tilting the outer pair from base to u adds exactly the negative of
    # tilting the inner pair by the same amount: the plates are identical
    # and their fast axes alternate
    line = _line(10.0)
    for u in (4.0, 12.0, 19.0):
        (_, inner), = delay_scan(line, [u])
        first, *middle, last = line.plates
        outer_tilted = replace(line, plates=(replace(first, tilt_deg=u), *middle,
                                             replace(last, tilt_deg=u)))
        assert inner + calcite_delay(outer_tilted) == pytest.approx(0.0, abs=1e-12)
    (_, d12), = delay_scan(line, [12.0])
    assert d12 == pytest.approx(-14.724583736872773, abs=1e-9)


def test_delays_add_per_plate():
    plates = [
        Plate(thickness_mm=5.0, axis="vertical", tilt_deg=3.0),
        Plate(thickness_mm=2.0, axis="horizontal", tilt_deg=11.0),
    ]
    line = DelayLine(plates=plates, n_o=N_O, n_e=N_E)
    total = sum(plate_delay_fs(p, N_O, N_E) for p in plates)
    assert calcite_delay(line) == pytest.approx(total, abs=1e-12)


def test_validation():
    with pytest.raises(OutOfRange):
        Plate(thickness_mm=5.0, axis="vertical", tilt_deg=60.0)
    with pytest.raises(ValueError):
        Plate(thickness_mm=-1.0, axis="vertical", tilt_deg=0.0)
    with pytest.raises(ValueError):
        Plate(thickness_mm=5.0, axis="diagonal", tilt_deg=0.0)
    with pytest.raises(ValueError):
        DelayLine(plates=[], n_o=N_O, n_e=N_E)
    with pytest.raises(TotalInternalReflection):
        optical_path_mm(0.5, 5.0, 45.0)
    two_plates = DelayLine(plates=_line(SHIPPED.base_tilt_deg).plates[:2], n_o=N_O, n_e=N_E)
    with pytest.raises(ValueError, match="no inner plates"):
        delay_scan(two_plates, [5.0])
