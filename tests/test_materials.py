"""Dispersion-model tests against published index values."""

import numpy as np
import pytest

from spdcfilm.errors import OutOfRange
from spdcfilm.materials import ConstantIndex, load_material, refractive_index, resolve_index_model


def test_fused_silica_at_sodium_line():
    # Malitson's three-term fit evaluates to 1.458404 at 589.29 nm
    assert refractive_index("fused_silica", 0.58929) == pytest.approx(1.458404, abs=2e-5)


def test_gap_near_band_edge_and_infrared():
    # transparent-side values of the single-oscillator fit
    assert refractive_index("gap", 0.638) == pytest.approx(3.302, abs=5e-3)
    assert refractive_index("gap", 1.276) == pytest.approx(3.05, abs=3e-2)
    # dispersion must be normal: shorter wavelength, larger index
    assert refractive_index("gap", 0.638) > refractive_index("gap", 1.276)


def test_calcite_birefringence_at_telecom():
    n_o = refractive_index("calcite_o", 1.276)
    n_e = refractive_index("calcite_e", 1.276)
    assert n_o == pytest.approx(1.6385, abs=2e-3)
    assert n_e == pytest.approx(1.4786, abs=2e-3)
    assert n_o > n_e  # negative uniaxial


def test_out_of_range_raises():
    with pytest.raises(OutOfRange):
        refractive_index("gap", 0.30)
    with pytest.raises(OutOfRange):
        refractive_index("fused_silica", 5.0)


def test_unknown_material():
    with pytest.raises(KeyError):
        load_material("unobtainium")


def test_vectorized_evaluation():
    lam = np.linspace(1.0, 2.0, 7)
    n = refractive_index("fused_silica", lam)
    assert n.shape == lam.shape
    assert np.all(np.diff(n) < 0)


def test_resolve_index_model_dispatch():
    assert resolve_index_model("gap").index(1.276) > 3.0
    assert resolve_index_model(1.5).index(0.638) == pytest.approx(1.5)
    with pytest.raises(TypeError):
        resolve_index_model(["not", "a", "model"])


@pytest.mark.parametrize("n", [float("nan"), float("inf"), 0.0, -1.5])
def test_constant_index_must_be_finite_and_positive(n):
    with pytest.raises(ValueError, match="must be a finite positive refractive index"):
        ConstantIndex(n)
