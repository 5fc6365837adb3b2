"""Crossbar array state and the RC time-to-threshold recall engine.

Recall drives an enabled source-line column with a rising edge; each
bit line charges its line capacitor through the cross-point device and
fires a digital edge when the capacitor crosses the comparator
threshold.  A single RC stage crossing a fixed fraction theta of the
read voltage has the closed-form edge time

    t = R * C * ln(1 / (1 - theta)) + t_shifter

so recall is computed exactly, with no integration error.  The supply
energy per line is C * v_read^2 regardless of the device state, half
stored on the capacitor and half dissipated in the device.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from numbers import Integral

import numpy as np

from .device import DeviceParams
from .wavefront import Wavefront, read_csv, write_csv


@dataclass(frozen=True)
class ArrayConfig:
    """Crossbar geometry, line capacitance, rails and threshold."""

    rows: int                 # bit lines / channels
    cols: int                 # source lines / stored wavefronts
    c_line: float = 1e-12     # F per bit line
    v_read: float = 0.7746    # V
    v_dd: float = 1.8         # V, digital rail
    theta: float = 0.7364     # threshold fraction V_th / v_read
    t_shifter: float = 0.0    # ns, fixed level-shifter delay per edge

    def __post_init__(self):
        # Checks are written so that nan fails them.
        for name in ("rows", "cols"):
            if not isinstance(getattr(self, name), Integral):
                raise ValueError(f"array.{name} must be an integer")
        if not (self.rows >= 1 and self.cols >= 1):
            raise ValueError("array needs at least 1 row and 1 column")
        if not 0 < self.theta < 1:
            raise ValueError("theta must lie strictly between 0 and 1")
        if not 0 < self.c_line < math.inf:
            raise ValueError("c_line must be positive and finite")
        if not 0 < self.v_read < self.v_dd < math.inf:
            raise ValueError("need 0 < v_read < v_dd < inf")
        if not 0 <= self.t_shifter < math.inf:
            raise ValueError("t_shifter must be non-negative and finite")


@dataclass(frozen=True)
class EnergyReport:
    """Supply energy bookkeeping for one recall."""

    per_line: float    # J drawn from the supply per bit line
    stored: float      # J left on the line capacitors, all lines
    dissipated: float  # J joule heating in the devices, all lines


@dataclass(frozen=True)
class ArrayState:
    """Stress (ns) and resistance (ohm) of every device, each rows x cols,
    and whether a capture has left the bit lines charged."""

    stress: np.ndarray
    resistance: np.ndarray
    lines_charged: bool = False

    @property
    def rows(self) -> int:
        return self.stress.shape[0]

    @property
    def cols(self) -> int:
        return self.stress.shape[1]


def base_params(params: DeviceParams) -> DeviceParams:
    """Scalar params of device (0, 0)."""
    if np.ndim(params.r_on):
        return replace(params, r_on=float(params.r_on[0, 0]))
    return params


def r_on_grid(params: DeviceParams, cfg: ArrayConfig) -> np.ndarray:
    """Every device's ON resistance as a rows x cols array: the params' own
    array when they hold one, so callers must not write to it."""
    shape = (cfg.rows, cfg.cols)
    if np.ndim(params.r_on):
        if np.shape(params.r_on) != shape:
            raise ValueError("r_on grid does not match the array dimensions")
        return params.r_on
    return np.full(shape, params.r_on, dtype=float)


def new_array(cfg: ArrayConfig, params: DeviceParams) -> ArrayState:
    """Fresh array: every device in its ON state, all lines discharged."""
    resistance = np.array(r_on_grid(params, cfg), dtype=float)
    return ArrayState(stress=np.zeros(resistance.shape), resistance=resistance)


def ln_factor(theta: float) -> float:
    """Threshold-crossing factor ln(1/(1-theta)) of a charging RC stage."""
    return math.log(1.0 / (1.0 - theta))


def _check_col(state: ArrayState, cfg: ArrayConfig, col: int) -> None:
    if state.rows != cfg.rows or state.cols != cfg.cols:
        raise ValueError("array state dimensions do not match config")
    if not 0 <= col < cfg.cols:
        raise ValueError(f"column {col} out of range 0..{cfg.cols - 1}")


def recall(state: ArrayState, cfg: ArrayConfig, col: int) -> tuple[Wavefront, EnergyReport]:
    """Read one stored column back out as a wavefront of edge times.

    Edge times are absolute ns from the input trigger edge (not
    normalized).  Device states are untouched: the read voltage sits
    below the programming threshold.  Bit lines must be discharged
    first; reset_lines clears them after a capture.
    """
    _check_col(state, cfg, col)
    if state.lines_charged:
        raise ValueError("bit lines are charged; call reset_lines before recall")
    times = edge_times(state.resistance[:, col], cfg.c_line, cfg)
    per_line = cfg.c_line * cfg.v_read ** 2
    half = cfg.rows * per_line / 2.0
    return Wavefront(tuple(times)), EnergyReport(per_line=per_line, stored=half,
                                                 dissipated=half)


def edge_times(r: np.ndarray, c_line, cfg: ArrayConfig) -> np.ndarray:
    """Recall edge times (ns) of devices of resistance r (ohm) on bit lines
    of capacitance c_line (F), with cfg's threshold and shifter delay;
    c_line is a float or an array broadcasting against r."""
    return r * (c_line * ln_factor(cfg.theta) * 1e9) + cfg.t_shifter


def reset_lines(state: ArrayState) -> ArrayState:
    """Discharge every bit line; device states are returned bit-identical."""
    return replace(state, lines_charged=False)


def dynamic_range(cfg: ArrayConfig, params: DeviceParams, r_max: float) -> float:
    """Recall time span (ns) covered by resistances in [r_on, r_max]."""
    if r_max < params.r_on:
        raise ValueError("r_max must be at least r_on")
    return (r_max - params.r_on) * cfg.c_line * ln_factor(cfg.theta) * 1e9


def write_grid_csv(path, state: ArrayState) -> None:
    """Export the resistance grid as `row,col,resistance_ohm`."""
    write_csv(path, ["row", "col", "resistance_ohm"],
              ([i, j, repr(r)] for i, row in enumerate(state.resistance.tolist())
               for j, r in enumerate(row)))


def read_grid_csv(path, cfg: ArrayConfig, params: DeviceParams) -> ArrayState:
    """Load a `row,col,resistance_ohm` grid into a fresh array state.

    Stress is back-solved from each resistance so the grid is coherent
    with the device law; resistances outside [r_on, r_off_max] are
    rejected.
    """
    r_on = r_on_grid(params, cfg).tolist()
    stress = np.empty((cfg.rows, cfg.cols))
    resistance = np.empty_like(stress)
    cells = set()
    for lineno, fields in read_csv(path, ["row", "col", "resistance_ohm"]):
        try:
            i, j, r = int(fields[0]), int(fields[1]), float(fields[2])
            if not 0 <= i < cfg.rows or not 0 <= j < cfg.cols:
                raise ValueError(f"cell ({i},{j}) outside {cfg.rows}x{cfg.cols} array")
            if (i, j) in cells:
                raise ValueError(f"duplicate cell ({i},{j})")
            if not r_on[i][j] <= r <= params.r_off_max:
                raise ValueError(f"cell ({i},{j}): resistance {r} outside "
                                 f"[r_on, r_off_max]")
        except ValueError as exc:
            raise ValueError(f"{path}: line {lineno}: {exc}") from None
        cells.add((i, j))
        stress[i, j] = params.tau_w * math.expm1((r - r_on[i][j]) / params.amp_a)
        resistance[i, j] = r
    missing = cfg.rows * cfg.cols - len(cells)
    if missing:
        raise ValueError(f"{path}: {missing} cells missing from the grid")
    return ArrayState(stress=stress, resistance=resistance)
