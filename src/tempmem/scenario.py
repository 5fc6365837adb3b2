"""Flat key = value scenario files.

A scenario collects every knob a CLI run needs: array geometry, device
constants, variation spreads, quantizer choice and the run parameters.
The file format is one dotted key per line (`array.c_line_pf = 1.0`),
`#` comments, all keys optional.  Times are ns, resistances ohm,
voltages V; capacitance keys carry an explicit _pf suffix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .crossbar import ArrayConfig
from .device import DeviceParams
from .recording import SweepSettings
from .variability import VariationSpec


class ScenarioError(ValueError):
    """Scenario file problem; message carries file and line context."""


@dataclass(frozen=True)
class CalibrateSettings:
    """Targets for the calibrate command."""

    span_ns: float = 40.0      # wanted recall span over the window
    r_span_ohm: float = 30e3   # resistance window above r_on
    energy_fj: float = 600.0   # wanted per-line recall energy

    def __post_init__(self):
        # Signs are checked where the targets are used (exit status 1).
        if not all(map(math.isfinite, (self.span_ns, self.r_span_ohm,
                                       self.energy_fj))):
            raise ValueError("calibrate targets must be finite")


@dataclass(frozen=True)
class Scenario:
    array: ArrayConfig = ArrayConfig(rows=4, cols=4)
    device: DeviceParams = DeviceParams()
    variation: VariationSpec = VariationSpec()
    run: SweepSettings = SweepSettings()   # run.* and quantizer.* keys
    calibrate: CalibrateSettings = CalibrateSettings()

    def sweep_settings(self) -> SweepSettings:
        """`run` under the name the benchmark's traced runner calls; it
        goes with the next change to the benchmark."""
        return self.run


def _parse_scale_cap(text: str):
    if text in ("matched", "none"):
        return text
    try:
        return float(text) * 1e-12  # pF in the file, F internally
    except ValueError:
        raise ValueError("expected 'matched', 'none' or a capacitance in pF") from None


# key -> (converter, section, field); capacitance/time suffixes name units.
_KEYS = {
    "array.rows": (int, "array", "rows"),
    "array.cols": (int, "array", "cols"),
    "array.c_line_pf": (lambda s: float(s) * 1e-12, "array", "c_line"),
    "array.v_read": (float, "array", "v_read"),
    "array.v_dd": (float, "array", "v_dd"),
    "array.theta": (float, "array", "theta"),
    "array.t_shifter_ns": (float, "array", "t_shifter"),
    "device.r_on": (float, "device", "r_on"),
    "device.r_off_max": (float, "device", "r_off_max"),
    "device.amp_a": (float, "device", "amp_a"),
    "device.tau_w_ns": (float, "device", "tau_w"),
    "device.v_prog_threshold": (float, "device", "v_prog_threshold"),
    "device.v_zero": (float, "device", "v_zero"),
    "device.v_write_nominal": (float, "device", "v_write_nominal"),
    "variation.d2d_sigma": (float, "variation", "d2d_sigma"),
    "variation.c2c_sigma": (float, "variation", "c2c_sigma"),
    "variation.seed": (int, "variation", "seed"),
    "quantizer.kind": (str, "quantizer", "kind"),
    "quantizer.t_clk_ns": (float, "quantizer", "t_clk"),
    "quantizer.t_fine_ns": (float, "quantizer", "t_fine"),
    "run.path": (str, "run", "path"),
    "run.column": (int, "run", "column"),
    "run.scale_cap": (_parse_scale_cap, "run", "scale_cap"),
    "run.trials": (int, "run", "trials"),
    "run.channels": (int, "run", "channels"),
    "run.span_ns": (float, "run", "span_ns"),
    "run.tol": (float, "run", "tol"),
    "run.step_ns": (float, "run", "step_ns"),
    "run.max_iters": (int, "run", "max_iters"),
    "run.v_write": (float, "run", "v_write"),
    "run.window_ns": (float, "run", "window_ns"),
    "run.workers": (int, "run", "workers"),
    "calibrate.span_ns": (float, "calibrate", "span_ns"),
    "calibrate.r_span_ohm": (float, "calibrate", "r_span_ohm"),
    "calibrate.energy_fj": (float, "calibrate", "energy_fj"),
}


def parse_scenario_text(text: str, source: str = "<scenario>") -> Scenario:
    """Parse scenario text; raises ScenarioError with line numbers."""
    overrides: dict[str, dict] = {"array": {}, "device": {}, "variation": {},
                                  "quantizer": {}, "run": {}, "calibrate": {}}
    seen: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ScenarioError(f"{source}: line {lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _KEYS:
            raise ScenarioError(f"{source}: line {lineno}: unknown key '{key}'")
        if key in seen:
            raise ScenarioError(f"{source}: line {lineno}: duplicate key '{key}' "
                                f"(first set on line {seen[key]})")
        seen[key] = lineno
        convert, section, field = _KEYS[key]
        try:
            overrides[section][field] = convert(value)
        except ValueError as exc:
            raise ScenarioError(f"{source}: line {lineno}: bad value for "
                                f"'{key}': {exc}") from None
    scenario = Scenario()
    try:
        return Scenario(
            array=replace(scenario.array, **overrides["array"]),
            device=replace(scenario.device, **overrides["device"]),
            variation=replace(scenario.variation, **overrides["variation"]),
            run=replace(scenario.run, **overrides["run"], quantizer=replace(
                scenario.run.quantizer, **overrides["quantizer"])),
            calibrate=replace(scenario.calibrate, **overrides["calibrate"]),
        )
    except ValueError as exc:
        raise ScenarioError(f"{source}: invalid scenario: {exc}") from None


def load_scenario(path) -> Scenario:
    with open(path) as f:
        return parse_scenario_text(f.read(), source=str(path))
