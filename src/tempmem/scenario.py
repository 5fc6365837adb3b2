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
from .recording import QuantizerSpec
from .variability import SweepSettings, VariationSpec


class ScenarioError(ValueError):
    """Scenario file problem; message carries file and line context."""


@dataclass(frozen=True)
class RunSettings:
    """Command parameters: capture path, column, recall scaling, sweep size."""

    path: str = "native"
    column: int = 0
    scale_cap: str | float = "matched"   # "matched" | "none" | pF value
    trials: int = 100
    channels: int = 8
    span_ns: float = 40.0
    tol: float = 1e-3
    step_ns: float = 1.0
    max_iters: int = 500
    v_write: float | None = None
    window_ns: float = 40.0
    workers: int = 1

    def __post_init__(self):
        # Checks are written so that nan fails them.
        if self.path not in ("native", "digital"):
            raise ValueError("run.path must be native or digital")
        if not self.column >= 0:
            raise ValueError("run.column must be non-negative")
        if self.scale_cap not in ("matched", "none") and not 0 < self.scale_cap < math.inf:
            raise ValueError("run.scale_cap capacitance must be positive and finite")
        if self.trials < 1:
            raise ValueError("run.trials must be at least 1")
        if self.channels < 1:
            raise ValueError("run.channels must be at least 1")
        if not 0 <= self.span_ns < math.inf:
            raise ValueError("run.span_ns must be non-negative and finite")
        if not 0 < self.tol < math.inf:
            raise ValueError("run.tol must be positive and finite")
        if not 0 < self.step_ns < math.inf:
            raise ValueError("run.step_ns must be positive and finite")
        if not self.max_iters >= 0:
            raise ValueError("run.max_iters must be non-negative")
        if self.v_write is not None and not 0 < self.v_write < math.inf:
            raise ValueError("run.v_write must be positive and finite")
        if not 0 <= self.window_ns < math.inf:
            raise ValueError("run.window_ns must be non-negative and finite")
        if self.workers < 1:
            raise ValueError("run.workers must be at least 1")


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
    quantizer: QuantizerSpec = QuantizerSpec()
    run: RunSettings = RunSettings()
    calibrate: CalibrateSettings = CalibrateSettings()

    def sweep_settings(self) -> SweepSettings:
        scale = self.run.scale_cap
        if isinstance(scale, float):
            scale = scale * 1e-12  # pF in the file, F internally
        return SweepSettings(
            n_channels=self.run.channels, span_ns=self.run.span_ns,
            path=self.run.path, quantizer=self.quantizer,
            tol=self.run.tol, step_ns=self.run.step_ns,
            max_iters=self.run.max_iters, v_write=self.run.v_write,
            scale_cap=scale, window_ns=self.run.window_ns,
            column=self.run.column)


def _parse_scale_cap(text: str):
    if text in ("matched", "none"):
        return text
    try:
        return float(text)
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
            quantizer=replace(scenario.quantizer, **overrides["quantizer"]),
            run=replace(scenario.run, **overrides["run"]),
            calibrate=replace(scenario.calibrate, **overrides["calibrate"]),
        )
    except ValueError as exc:
        raise ScenarioError(f"{source}: invalid scenario: {exc}") from None


def load_scenario(path) -> Scenario:
    with open(path) as f:
        return parse_scenario_text(f.read(), source=str(path))
