"""Property test of the validated config space: every sampled overlay either
runs to a strict-JSON report that meets the benchmark's physical invariants,
or fails with a typed error and its exit code."""

import contextlib
import importlib.util
import io
import json
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from spdcfilm.cli import EXIT_CONFIG, EXIT_INCOMPLETE, EXIT_NUMERICAL, EXIT_OK, main

# perfbench/check.py is a script, not a package module: load its invariants by path
_CHECK = importlib.util.spec_from_file_location(
    "perfbench_check", Path(__file__).resolve().parents[1] / "perfbench" / "check.py")
check = importlib.util.module_from_spec(_CHECK)
_CHECK.loader.exec_module(check)


def _reject_constant(name):
    raise ValueError(f"report.json holds the non-JSON constant {name}")


def _section(**keys):
    """A config section in which every key is optional (its default if left out)."""
    return st.fixed_dictionaries({}, optional=keys)


# Keys are optional, so a sample mixes defaults with sampled values. The
# Bell, delay-line and spectrum ranges straddle the limits their consumers
# enforce: counts down to one pair per setting, the calcite o-ray data
# [0.204, 2.172] um, the +-60 deg plate tilts, the +-100 THz grid coverage,
# and the substrate and film data that spans past ~154 and ~205 THz leave at
# the idler. The other ranges stay valid, so about half the samples run.
OVERLAYS = st.fixed_dictionaries({
    "bell": _section(counts_per_setting=st.integers(1, 300)),
    "delay_line": _section(
        wavelength_um=st.floats(0.15, 2.4),
        base_tilt_deg=st.floats(-62.0, 62.0),
        scan_stop_deg=st.floats(-62.0, 62.0),
    ),
    "spectrum": _section(span_thz=st.floats(80.0, 230.0), points=st.integers(16, 4096)),
    "detector_response": _section(
        shape=st.sampled_from(["none", "gaussian", "lorentzian"]),
        fwhm_thz=st.floats(1.0, 200.0),
    ),
    "noise": _section(
        pair_rate_hz=st.floats(0.0, 5000.0),
        efficiency=st.floats(0.01, 1.0),
        singles_a_hz=st.floats(0.0, 1e5),
        depolarization=st.floats(0.0, 1.0),
    ),
    "histogram": _section(n_bins=st.integers(20, 50).map(lambda k: 2 * k + 1),
                          exclusion_bins=st.integers(0, 10)),
    "fringe": _section(fixed_analyzer=st.sampled_from("HVDAR")),
    "run": st.fixed_dictionaries({"bootstrap_samples": st.sampled_from([0, 2])}),
})


@settings(derandomize=True, max_examples=40, deadline=None, database=None)
@given(overlay=OVERLAYS, seed=st.integers(0, 2**16))
def test_validated_configs_run_or_fail_typed(overlay, seed):
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "fuzz.cfg"
        cfg.write_text("".join(
            f"[{section}]\n" + "".join(f"{key} = {value}\n" for key, value in keys.items())
            for section, keys in overlay.items()
        ))
        out = Path(tmp) / "out"
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main(["run", "--seed", str(seed), "--config", str(cfg), "--out", str(out)])
        assert code in (EXIT_OK, EXIT_CONFIG, EXIT_NUMERICAL, EXIT_INCOMPLETE)
        if code == EXIT_OK:
            summary = json.loads((out / "report.json").read_text(), parse_constant=_reject_constant)
            # rho Hermitian, PSD, unit trace; weights sum to 1; Tsirelson and
            # algebraic CHSH bounds; sigmas finite exactly when bootstrapping
            assert check.invariants(summary, seed, overlay["run"]["bootstrap_samples"]) == []
        else:
            assert not out.exists()
