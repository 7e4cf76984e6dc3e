"""Birefringent delay line: the four-plate calcite compensator of ``[delay_line]``.

Each plate is cut with its optic axis in the plate face, oriented either
horizontal or vertical in the lab. The plates tilt about the optic axis,
so the refracted wavevector stays perpendicular to the axis and the
extraordinary ray sees exactly n_e at every tilt; only the ordinary and
extraordinary path lengths change. For a plate of thickness d at external
tilt theta, a ray with internal index n refracts to sin(theta_int) =
sin(theta)/n and accumulates, relative to the untilted parallel beam,

    OPL(n, theta) = n d / cos(theta_int) - d tan(theta_int) sin(theta)
                  = n d cos(theta_int),

the second term crediting the lateral walk-off against the common
external path. Calcite's index stays above 1.47 over its data windows, so
within the +-60 deg working range sin(theta_int) < 0.59 and every tilt
refracts. A vertical-axis plate delays H (ordinary) against V
(extraordinary); a horizontal-axis plate does the opposite, so plates in
crossed pairs cancel at equal tilts and tilting one pair scans the
relative delay through zero.

``DelayLine`` is the ``[delay_line]`` section: four equal plates, axes
vertical, horizontal, horizontal, vertical, the outer pair at the base
tilt and the inner pair scanned. The module has no ``from __future__
import annotations``: ``load_config`` parses each key by its field's
annotation object.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import OutOfRange
from .frozen import Value
from .materials import refractive_index

C_MM_FS = 2.99792458e-4  # speed of light in mm/fs


def plate_delay_fs(n_o: float, n_e: float, thickness_mm: float, axis: str,
                   tilt_deg: float) -> float:
    """H-minus-V group delay of one plate, in fs: the OPL difference of its
    ordinary (index ``n_o``) and extraordinary (``n_e``) rays over c.

    With the optic ``axis`` "vertical", V is the extraordinary ray;
    "horizontal" swaps the roles.
    """
    sin_tilt = math.sin(math.radians(tilt_deg))
    opl_o = n_o * thickness_mm * math.cos(math.asin(sin_tilt / n_o))
    opl_e = n_e * thickness_mm * math.cos(math.asin(sin_tilt / n_e))
    if axis == "vertical":
        return (opl_o - opl_e) / C_MM_FS
    return (opl_e - opl_o) / C_MM_FS


def _check_tilt(tilt_deg: float):
    if not abs(tilt_deg) < 60.0:
        raise OutOfRange(f"plate tilt {tilt_deg} deg outside the +-60 deg working range")


@dataclass(eq=False, repr=False)
class DelayLine(Value):
    """The ``[delay_line]`` section: plate thickness (mm), the outer pair's
    base tilt (deg), the wavelength (um) of the calcite indices ``n_o`` and
    ``n_e``, and the inner pair's scan grid. Every tilt lies within the
    +-60 deg working range and the line's delay is finite at both ends of
    the scan."""

    plate_thickness_mm: float
    base_tilt_deg: float
    wavelength_um: float
    scan_start_deg: float
    scan_stop_deg: float
    scan_points: int

    def __post_init__(self):
        if self.scan_points < 2:
            raise ValueError("scan needs at least 2 points")
        # Python floats: a path that overflows is infinite, not a NumPy warning
        object.__setattr__(self, "n_o", float(refractive_index("calcite_o", self.wavelength_um)))
        object.__setattr__(self, "n_e", float(refractive_index("calcite_e", self.wavelength_um)))
        if self.plate_thickness_mm <= 0:
            raise ValueError("plate thickness must be positive")
        _check_tilt(self.base_tilt_deg)
        for tilt in (float(self.scan_start_deg), float(self.scan_stop_deg)):
            _check_tilt(tilt)
            self.delay_fs(tilt)

    def delay_fs(self, inner_tilt_deg: float) -> float:
        """Total H-minus-V delay in fs with the inner pair at ``inner_tilt_deg``,
        summed plate by plate; OutOfRange unless it is finite (plates so thick
        that a path or the sum overflows)."""
        outer = plate_delay_fs(self.n_o, self.n_e, self.plate_thickness_mm, "vertical",
                               self.base_tilt_deg)
        inner = plate_delay_fs(self.n_o, self.n_e, self.plate_thickness_mm, "horizontal",
                               inner_tilt_deg)
        delay = float(sum((outer, inner, inner, outer)))
        if not math.isfinite(delay):
            raise OutOfRange(f"delay line delay {delay} fs is not a finite number")
        return delay


def delay_scan(line: DelayLine) -> list:
    """(tilt_deg, delay_fs) at each of the ``scan_points`` inner-pair tilts
    from ``scan_start_deg`` to ``scan_stop_deg``, the outer pair at base."""
    grid = np.linspace(line.scan_start_deg, line.scan_stop_deg, line.scan_points)
    return [(float(tilt), line.delay_fs(float(tilt))) for tilt in grid]
