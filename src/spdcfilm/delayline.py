"""Birefringent delay line: tiltable calcite plates in series.

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
external path. A vertical-axis plate delays H (ordinary) against V
(extraordinary); a horizontal-axis plate does the opposite, so plates in
crossed pairs cancel at equal tilts and tilting one pair scans the
relative delay through zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .errors import OutOfRange, TotalInternalReflection
from .materials import refractive_index

C_MM_FS = 2.99792458e-4  # speed of light in mm/fs


@dataclass(frozen=True)
class Plate:
    """One calcite plate: thickness (mm), optic-axis orientation, tilt."""

    thickness_mm: float
    axis: str
    tilt_deg: float

    def __post_init__(self):
        if self.thickness_mm <= 0:
            raise ValueError("plate thickness must be positive")
        if self.axis not in ("horizontal", "vertical"):
            raise ValueError(f"axis must be 'horizontal' or 'vertical', got {self.axis!r}")
        if not abs(self.tilt_deg) < 60.0:
            raise OutOfRange(
                f"plate tilt {self.tilt_deg} deg outside the +-60 deg working range"
            )


@dataclass(frozen=True)
class DelayLine:
    """Plate sequence with the ordinary/extraordinary indices to use."""

    plates: tuple
    n_o: float
    n_e: float

    def __post_init__(self):
        if len(self.plates) == 0:
            raise ValueError("delay line needs at least one plate")
        if self.n_o < 1.0 or self.n_e < 1.0:
            raise ValueError("indices must be at least 1")


def optical_path_mm(n: float, thickness_mm: float, tilt_deg: float) -> float:
    """OPL through one tilted plate relative to the untilted parallel beam."""
    sin_int = math.sin(math.radians(tilt_deg)) / n
    if abs(sin_int) >= 1.0:
        raise TotalInternalReflection(
            f"internal angle undefined for index {n} at tilt {tilt_deg} deg"
        )
    theta_int = math.asin(sin_int)
    return n * thickness_mm * math.cos(theta_int)


def plate_delay_fs(plate: Plate, n_o: float, n_e: float) -> float:
    """H-minus-V group delay of one plate, in fs.

    With the optic axis vertical, V is the extraordinary ray; axis
    horizontal swaps the roles.
    """
    opl_o = optical_path_mm(n_o, plate.thickness_mm, plate.tilt_deg)
    opl_e = optical_path_mm(n_e, plate.thickness_mm, plate.tilt_deg)
    if plate.axis == "vertical":
        return (opl_o - opl_e) / C_MM_FS
    return (opl_e - opl_o) / C_MM_FS


def calcite_delay(line: DelayLine) -> float:
    """Total H-minus-V delay of the line, in fs; OutOfRange unless it is finite
    (plates so thick that a path or the sum overflows)."""
    delay = float(sum(plate_delay_fs(p, line.n_o, line.n_e) for p in line.plates))
    if not math.isfinite(delay):
        raise OutOfRange(f"delay line delay {delay} fs is not a finite number")
    return delay


def default_delay_line(base_tilt_deg: float, thickness_mm: float,
                       wavelength_um: float) -> DelayLine:
    """Four-plate compensator: crossed outer/inner pairs, zero net delay.

    Layout [vertical, horizontal, horizontal, vertical], all plates
    ``thickness_mm`` thick at the base tilt, with the calcite indices at
    ``wavelength_um`` (``[delay_line]`` sets all three); tilting the inner
    (horizontal-axis) pair away from the base scans the delay through zero.
    """
    # Python floats: a path that overflows is infinite, not a NumPy warning
    n_o = float(refractive_index("calcite_o", wavelength_um))
    n_e = float(refractive_index("calcite_e", wavelength_um))
    axes = ("vertical", "horizontal", "horizontal", "vertical")
    plates = tuple(
        Plate(thickness_mm=thickness_mm, axis=a, tilt_deg=base_tilt_deg) for a in axes
    )
    return DelayLine(plates=plates, n_o=n_o, n_e=n_e)


def delay_scan(line: DelayLine, tilt_grid_deg):
    """Delay versus tilt of the inner plate pair, plates[1:-1].

    Every inner plate is set to each grid tilt in turn while the outer
    plates stay fixed. Returns a list of (tilt_deg, delay_fs).
    """
    idx = range(1, len(line.plates) - 1)
    if not idx:
        raise ValueError("line has no inner plates to scan")
    out = []
    for tilt in tilt_grid_deg:
        plates = tuple(
            replace(p, tilt_deg=float(tilt)) if i in idx else p
            for i, p in enumerate(line.plates)
        )
        out.append((float(tilt), calcite_delay(DelayLine(plates, line.n_o, line.n_e))))
    return out
