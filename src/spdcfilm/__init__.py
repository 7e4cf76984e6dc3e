"""Polarization-entangled photon-pair generation in an ultrathin film.

Simulates and analyzes a transmission-geometry pair source: a 400 nm
zinc-blende film on glass pumped at 638 nm, emitting degenerate
polarization-entangled pairs into a single spatial mode. The package
covers the emission amplitudes from the nonlinear tensor, the two-photon
polarization state and its entanglement measures, coincidence tomography,
CHSH tests, the etalon-shaped pair spectrum with Hong-Ou-Mandel
interference, birefringent delay-line scans, and a full simulated
characterization run.

The top level holds the library API that README's "Library use" imports;
every other name is imported from its own module.
"""

from .config import load_config
from .crystal import CrystalOrientation, chi2_zincblende, spdc_amplitudes
from .experiment import (
    delay_line_scan,
    run_experiment,
    source_model,
    spectral_section,
    write_report,
)
from .polarization import pump_ket

__version__ = "0.1.0"
