"""Behavioral simulator of a memristive temporal memory.

Multi-channel single-event-per-wire wavefronts are stored as analog
resistances in a 1T1R crossbar column and recalled as timed digital
edges through per-line RC charging.  Capture works natively (timing-
difference reverse pulses) or digitally (counter/vernier quantizer plus
closed-loop programming); a Monte Carlo harness quantifies how exact-
timing and rank-order codes degrade under device variability.
"""

from .device import AMP_A_DEFAULT, DeviceParams, calibrate_amp, programming_rate
from .wavefront import (Wavefront, effective_bits, kendall_tau, normalize,
                        rank_of, read_wavefront_csv, timing_error,
                        write_wavefront_csv)
from .crossbar import (ArrayConfig, EnergyReport, ln_factor, new_array,
                       read_grid_csv, recall, write_grid_csv)
from .recording import (CaptureResult, QuantizedWavefront, QuantizerSpec,
                        RoundTripResult, SweepSettings, capture, capture_native,
                        matched_capacitance, program_closed_loop, quantize,
                        round_trip)
from .variability import (TrialReport, TrialRow, VariationSpec, monte_carlo,
                          perturb_pulse, random_wavefront, sample_array)
from .scenario import (CalibrateSettings, Scenario, ScenarioError,
                       load_scenario, parse_scenario_text)

__version__ = "0.1.0"

__all__ = [
    "AMP_A_DEFAULT", "ArrayConfig", "CalibrateSettings", "CaptureResult",
    "DeviceParams", "EnergyReport", "QuantizedWavefront", "QuantizerSpec",
    "RoundTripResult", "Scenario", "ScenarioError", "SweepSettings",
    "TrialReport", "TrialRow", "VariationSpec", "Wavefront", "calibrate_amp",
    "capture", "capture_native", "effective_bits", "kendall_tau", "ln_factor",
    "load_scenario", "matched_capacitance", "monte_carlo", "new_array",
    "normalize", "parse_scenario_text", "program_closed_loop",
    "programming_rate", "quantize", "random_wavefront", "rank_of",
    "read_grid_csv", "read_wavefront_csv", "recall", "round_trip",
    "sample_array", "timing_error", "perturb_pulse", "write_grid_csv",
    "write_wavefront_csv",
]
