"""Known defects, each as a strict expected failure asserting the correct
behaviour.

Every test here fails today and names the ROADMAP item that fixes it.
`strict=True` makes a fix turn the test into an unexpected pass, which
fails the suite, so the fixing change must make it a plain test (and
change in the open any test that pins the old behaviour).
"""

from dataclasses import fields

import numpy as np
import pytest

from tempmem.crossbar import ArrayConfig
from tempmem.device import DeviceParams
from tempmem.recording import SweepSettings
from tempmem.variability import TrialReport, VariationSpec, monte_carlo
from tempmem.wavefront import fidelity

P = DeviceParams()


def known_defect(reason):
    """Expected to fail on its assertion, not on an error of the test."""
    return pytest.mark.xfail(strict=True, raises=AssertionError, reason=reason)


@known_defect(
    "ROADMAP item 2: recalled ties break by channel index, so two inputs "
    "that recall as the same tied times score tau 1.0 and 0.333")
def test_recalled_ties_score_alike():
    inputs = np.array([[0.0, 5.2, 5.7], [0.0, 5.7, 5.2]])
    recalled = np.array([[15.234, 20.934, 20.934]] * 2)
    tau = fidelity(inputs, recalled)[0]
    assert tau[0] == tau[1]


@known_defect(
    "ROADMAP item 2: an input of zero span scores EFFECTIVE_BITS_CAP (8 bits) "
    "whatever its timing error; its bits should be undefined (nan)")
def test_zero_span_input_has_undefined_bits():
    _, rms, _, bits = fidelity(np.array([[3.0, 3.0, 3.0]]),
                               np.array([[3.0, 3.4, 3.0]]))
    assert rms[0] > 0
    assert np.isnan(bits[0])


@known_defect(
    "ROADMAP item 3: the digital route's defaults (1 ns step, tol 1e-3, "
    "500 iterations) converge in 0 of 10 noiseless trials on 8x1")
def test_digital_defaults_converge_without_variation():
    _, rows = monte_carlo(ArrayConfig(8, 1), P, VariationSpec(0.0, 0.0, seed=1),
                          10, SweepSettings(path="digital"))
    assert all(r.converged for r in rows)


@known_defect(
    "ROADMAP item 11: TrialReport has no fixed-scale figures beside the "
    "matched ones (rms_timing_fixed_ns, effective_bits_fixed_mean, "
    "timing_success_fixed_rate)")
def test_report_has_fixed_scale_figures():
    names = {f.name for f in fields(TrialReport)}
    assert {"rms_timing_fixed_ns", "effective_bits_fixed_mean",
            "timing_success_fixed_rate"} <= names
