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


V_DD = 1.8  # V, the digital rail; the read voltage stays below it


@dataclass(frozen=True)
class ArrayConfig:
    """Crossbar geometry, line capacitance, threshold and v_read < V_DD."""

    rows: int                 # bit lines / channels
    cols: int                 # source lines / stored wavefronts
    c_line: float = 1e-12     # F per bit line
    v_read: float = 0.7746    # V
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
        if not 0 < self.v_read < V_DD:
            raise ValueError(f"need 0 < v_read < {V_DD} V, the digital rail")
        if not 0 <= self.t_shifter < math.inf:
            raise ValueError("t_shifter must be non-negative and finite")


@dataclass(frozen=True)
class EnergyReport:
    """Supply energy bookkeeping for one recall of `rows` bit lines."""

    per_line: float  # J drawn from the supply per bit line
    rows: int

    @property
    def stored(self) -> float:
        """J left on the line capacitors, all lines."""
        return self.rows * self.per_line / 2.0

    dissipated = stored  # J of joule heating in the devices, all lines


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


def new_array(cfg: ArrayConfig, params: DeviceParams) -> np.ndarray:
    """Fresh array state, every device ON: a rows x cols grid of ohms."""
    return np.array(r_on_grid(params, cfg), dtype=float)


def ln_factor(theta: float) -> float:
    """Threshold-crossing factor ln(1/(1-theta)) of a charging RC stage."""
    return math.log(1.0 / (1.0 - theta))


def _check_col(state: np.ndarray, cfg: ArrayConfig, col: int) -> None:
    if state.shape != (cfg.rows, cfg.cols):
        raise ValueError("array state dimensions do not match config")
    if not 0 <= col < cfg.cols:
        raise ValueError(f"column {col} out of range 0..{cfg.cols - 1}")


def recall(state: np.ndarray, cfg: ArrayConfig, col: int) -> tuple[Wavefront, EnergyReport]:
    """Read one stored column back out as a wavefront of edge times.

    Edge times are absolute ns from the input trigger edge (not
    normalized).  Device states are untouched: the read voltage sits
    below the programming threshold.  Each bit line charges from a
    discharged capacitor.
    """
    _check_col(state, cfg, col)
    times = edge_times(state[:, col], cfg.c_line, cfg)
    return Wavefront(tuple(times)), EnergyReport(cfg.c_line * cfg.v_read ** 2,
                                                 cfg.rows)


def edge_times(r: np.ndarray, c_line, cfg: ArrayConfig) -> np.ndarray:
    """Recall edge times (ns) of devices of resistance r (ohm) on bit lines
    of capacitance c_line (F, a float or an array broadcasting against r),
    with cfg's threshold and shifter delay; inf where they overflow."""
    with np.errstate(over="ignore"):
        return r * (c_line * ln_factor(cfg.theta) * 1e9) + cfg.t_shifter


def reset_lines(state: np.ndarray) -> np.ndarray:
    """`state` itself, under the name the benchmark's runners call between
    capture and recall; it goes with the next change to the benchmark, as
    `Scenario.sweep_settings` does."""
    return state


def write_grid_csv(path, state: np.ndarray) -> None:
    """Export the resistance grid as `row,col,resistance_ohm`."""
    write_csv(path, ["row", "col", "resistance_ohm"],
              ([i, j, r] for i, row in enumerate(state)
               for j, r in enumerate(row.tolist())))


def read_grid_csv(path, cfg: ArrayConfig, params: DeviceParams) -> np.ndarray:
    """Load a `row,col,resistance_ohm` grid into a fresh array state.

    Resistances outside [r_on, r_off_max] are rejected; a column whose
    resistances are all its devices' r_on is ON and can be written.  The
    grid is built only once the file has given every cell, so an array far
    larger than the file allocates nothing.
    """
    r_on = r_on_grid(params, cfg) if np.ndim(params.r_on) else None
    cells = {}

    def row(fields):
        i, j, r = int(fields[0]), int(fields[1]), float(fields[2])
        if not 0 <= i < cfg.rows or not 0 <= j < cfg.cols:
            raise ValueError(f"cell ({i},{j}) outside {cfg.rows}x{cfg.cols} array")
        if (i, j) in cells:
            raise ValueError(f"duplicate cell ({i},{j})")
        if not (params.r_on if r_on is None else r_on[i, j]) <= r <= params.r_off_max:
            raise ValueError(f"cell ({i},{j}): resistance {r} outside "
                             f"[r_on, r_off_max]")
        cells[i, j] = r

    read_csv(path, ["row", "col", "resistance_ohm"], row)
    missing = cfg.rows * cfg.cols - len(cells)
    if missing:
        raise ValueError(f"{path}: {missing} cells missing from the grid")
    state = np.empty((cfg.rows, cfg.cols))
    state[tuple(zip(*cells))] = list(cells.values())
    return state
