"""Flat key = value scenario files.

A scenario collects every knob a CLI run needs: array geometry, device
constants, variation spreads, quantizer choice and the run parameters.
The file format is one dotted key per line (`array.c_line_pf = 1.0`),
`#` comments, all keys optional.  Times are ns, resistances ohm,
voltages V; capacitance keys carry an explicit _pf suffix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

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


def _keys() -> dict:
    """key -> (converter, section, field).  Each field of a section is a key
    but run.quantizer (whose fields are the quantizer.* keys) and run.slope;
    a suffix gives the unit that a field's name leaves out."""
    suffix = {"c_line": "_pf", "t_shifter": "_ns", "tau_w": "_ns",
              "t_clk": "_ns", "t_fine": "_ns"}
    special = {"c_line": lambda s: float(s) * 1e-12, "scale_cap": _parse_scale_cap}
    keys = {}
    for section in ("array", "device", "variation", "quantizer", "run", "calibrate"):
        value = getattr(Scenario.run if section == "quantizer" else Scenario, section)
        for name in (f.name for f in fields(value) if f.name not in ("quantizer", "slope")):
            kind = type(getattr(value, name))  # None defaults take floats
            keys[f"{section}.{name}{suffix.get(name, '')}"] = (special.get(
                name, kind if kind in (int, str) else float), section, name)
    return keys


_KEYS = _keys()


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
