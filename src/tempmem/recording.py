"""Wavefront capture into a crossbar column, by either route.

Native capture mimics timing-difference plasticity: the first arriving
edge raises the source line, and every later channel sees a reverse
write voltage for exactly the interval between its own edge and the
first one, so its device accumulates stress proportional to its delay.
The first channel's device never sees a net voltage and stays put.

Digital capture measures the wavefront with a counter (optionally
refined by a vernier stage), converts counts to resistance targets on a
fixed slope, and drives each device to its target with an iterative
program/verify loop.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence, Union

import numpy as np

from . import device
from .crossbar import (ArrayConfig, ArrayState, EnergyReport, base_params,
                       new_array, ln_factor, r_on_grid, recall, reset_lines,
                       _check_col)
from .device import DeviceParams
from .wavefront import (Wavefront, effective_bits, kendall_tau, normalize,
                        rank_of, timing_error, EFFECTIVE_BITS_CAP)

DEFAULT_WINDOW_NS = device.T_SPAN_DEFAULT  # calibrated near-linear pulse window

PulseNoise = Optional[Callable[[float], float]]


@dataclass(frozen=True)
class CaptureResult:
    """Outcome of programming one column with one wavefront."""

    pulses: tuple[float, ...]             # ns of reverse bias applied per channel
    final_resistances: tuple[float, ...]  # ohm per channel after capture
    write_energy: float                   # J dissipated across all write pulses
    iterations: tuple[int, ...]           # program/verify cycles per channel
    converged: tuple[bool, ...]           # closed-loop success per channel
    window_exceeded: bool = False         # input span beyond the linear window


@dataclass(frozen=True)
class QuantizerSpec:
    """Digital timing front end: plain up-counter or counter + vernier."""

    kind: str = "counter"        # "counter" | "vernier"
    t_clk: float = 1.0           # ns, counter period
    t_fine: float | None = None  # ns, vernier resolution

    def __post_init__(self):
        # Checks are written so that nan fails them.
        if self.kind not in ("counter", "vernier"):
            raise ValueError("quantizer kind must be 'counter' or 'vernier'")
        if not 0 < self.t_clk < math.inf:
            raise ValueError("t_clk must be positive and finite")
        if self.t_fine is not None and not 0 < self.t_fine < math.inf:
            raise ValueError("t_fine must be positive and finite")
        if self.kind == "vernier" and (self.t_fine is None
                                       or not self.t_fine < self.t_clk):
            raise ValueError("vernier needs 0 < t_fine < t_clk")


@dataclass(frozen=True)
class QuantizedWavefront:
    """Counter codes per channel; `fine` present only for vernier."""

    coarse: tuple[int, ...]
    fine: tuple[int, ...] | None = None

    def effective_counts(self, q: QuantizerSpec) -> tuple[float, ...]:
        """Counts in units of t_clk, fractional when a vernier refines them."""
        if self.fine is None:
            return tuple(float(c) for c in self.coarse)
        scale = q.t_fine / q.t_clk
        return tuple(c + f * scale for c, f in zip(self.coarse, self.fine))


def _grid_index(x: float, q: float) -> int:
    """floor(x/q), snapping to the nearest bin edge within FP noise.

    Event times that sit mathematically on a bin boundary (e.g. a 0.7 ns
    residue against a 0.1 ns vernier) land a few ulp below it after float
    subtraction; a raw floor would then undercount by one.
    """
    ratio = x / q
    nearest = round(ratio)
    if abs(ratio - nearest) <= 1e-9:
        return int(nearest)
    return math.floor(ratio)


def quantize(w: Wavefront, q: QuantizerSpec) -> QuantizedWavefront:
    """Measure a wavefront's per-channel delays from its first edge."""
    t0 = min(w.times)
    rel = [t - t0 for t in w.times]
    coarse = [_grid_index(r, q.t_clk) for r in rel]
    if q.kind == "counter":
        return QuantizedWavefront(coarse=tuple(coarse))
    fine = [_grid_index(r - c * q.t_clk, q.t_fine) for r, c in zip(rel, coarse)]
    return QuantizedWavefront(coarse=tuple(coarse), fine=tuple(fine))


def _read_on_column(state: ArrayState, col: int) -> list[float]:
    """The resistances of column `col`, whose devices must all be in the
    ON state."""
    if np.any(state.stress[:, col] != 0.0):
        raise ValueError(f"column {col} is not initialized to the ON state")
    return state.resistance[:, col].tolist()


def _write_column(state: ArrayState, col: int, stress, resistance) -> ArrayState:
    new_stress = state.stress.copy()
    new_resistance = state.resistance.copy()
    new_stress[:, col] = stress
    new_resistance[:, col] = resistance
    # Capture leaves the bit lines driven high; reset_lines discharges them.
    return ArrayState(stress=new_stress, resistance=new_resistance,
                      lines_charged=True)


def _reset_rate(params: DeviceParams, v_write: float | None) -> tuple[float, float]:
    """The write level (nominal by default) and the stress rate it gives."""
    if v_write is None:
        v_write = params.v_write_nominal
    # Written so that nan fails it.
    if not params.v_prog_threshold <= v_write < math.inf:
        raise ValueError("v_write must be finite and at least the programming "
                         "threshold")
    return v_write, device.programming_rate(-v_write, params)


def _add(total: float, energies: np.ndarray) -> float:
    """total plus each energy in turn: the order of a pulse-by-pulse running
    sum, which np.sum or math.fsum would not reproduce bit for bit."""
    for e in energies.tolist():
        total += e
    return total


def capture_native(state: ArrayState, cfg: ArrayConfig, params: DeviceParams,
                   col: int, w: Wavefront, v_write: float | None = None, *,
                   window_ns: float = DEFAULT_WINDOW_NS,
                   pulse_noise: PulseNoise = None) -> tuple[ArrayState, CaptureResult]:
    """Record a wavefront into column `col` by timing-difference writes.

    Channel i receives a reverse pulse lasting t_i - min(t); the first
    arriving channel gets none and its device stays exactly at r_on.  A
    span beyond the calibrated linear window is flagged, not rejected.
    The noise is drawn once per row, in row order; the device law then
    runs on the whole column at once.
    """
    _check_col(state, cfg, col)
    if len(w) != cfg.rows:
        raise ValueError(f"wavefront has {len(w)} channels, array has {cfg.rows} rows")
    start = _read_on_column(state, col)
    v_write, rate = _reset_rate(params, v_write)
    r_on = r_on_grid(params, cfg)[:, col]
    t0 = min(w.times)
    pulses = [t - t0 for t in w.times]
    if pulse_noise is not None:
        pulses = [pulse_noise(d) for d in pulses]
    if any(d < 0 for d in pulses):
        raise ValueError("pulse duration must be non-negative")
    dur = np.array(pulses)
    stress = dur * rate
    log_term = np.array([math.log1p(x) for x in (stress / params.tau_w).tolist()])
    law = np.minimum(r_on + params.amp_a * log_term, params.r_off_max)
    # A zero-length pulse leaves its device as it was.
    resistance = np.where(dur == 0.0, start, law)
    energies = device.reset_energy(np.zeros(cfg.rows), stress, r_on, law,
                                   -v_write, rate, r_on, params)
    result = CaptureResult(
        pulses=tuple(pulses),
        final_resistances=tuple(resistance.tolist()),
        write_energy=_add(0.0, energies),
        iterations=(1,) * cfg.rows,
        converged=(True,) * cfg.rows,
        window_exceeded=w.span > window_ns,
    )
    return _write_column(state, col, stress, resistance), result


def program_closed_loop(state: ArrayState, cfg: ArrayConfig, params: DeviceParams,
                        col: int, targets: Sequence[float], *,
                        tol: float = 0.01, v_write: float | None = None,
                        step: float = 1.0, max_iters: int = 500,
                        pulse_noise: PulseNoise = None) -> tuple[ArrayState, CaptureResult]:
    """Drive each device in a column to a resistance target by repeated
    fixed-step reverse pulses with a verify read after each one.

    The loop only moves resistance upward, so a target already below the
    verify band is flagged unreachable immediately; targets beyond what
    max_iters steps can reach are flagged after the budget runs out.

    Each device's verify loop is plain float arithmetic on its stress and
    resistance, with its constants read once; it records the trajectory,
    and `device.reset_energy` integrates the device's write energy over it
    after the loop.  Results are bit-identical to pulsing with
    `device.apply_pulse` and summing `device.pulse_energy` pulse by pulse.
    """
    _check_col(state, cfg, col)
    if len(targets) != cfg.rows:
        raise ValueError(f"{len(targets)} targets for {cfg.rows} rows")
    if any(not math.isfinite(t) or t <= 0 for t in targets):
        raise ValueError("targets must be positive and finite")
    start = _read_on_column(state, col)
    # Written so that nan fails them.
    if not 0 < tol < math.inf:
        raise ValueError("tol must be positive and finite")
    if not 0 < step < math.inf:
        raise ValueError("step must be positive and finite")
    if not max_iters >= 0:
        raise ValueError("max_iters must be non-negative")
    v_write, rate = _reset_rate(params, v_write)
    a, tau, r_off = params.amp_a, params.tau_w, params.r_off_max
    log1p = math.log1p
    pulses = []
    stresses = []
    resistances = []
    iterations = []
    converged = []
    energy = 0.0
    for r_on, r, target in zip(r_on_grid(params, cfg)[:, col].tolist(), start,
                               targets):
        target = float(target)
        band_top = target * (1.0 + tol)
        s = 0.0
        trajectory_s, trajectory_r = [s], [r_on]
        applied = 0.0
        iters = 0
        while abs(r - target) / target > tol:
            if r > band_top:
                break  # overshot (or started above): a reverse pulse can't come back
            if iters >= max_iters:
                break
            dur = pulse_noise(step) if pulse_noise is not None else step
            if dur < 0:
                raise ValueError("pulse duration must be non-negative")
            # A zero-length pulse leaves the device as it is and costs nothing.
            if dur != 0.0:
                s += dur * rate
                r = min(r_on + a * log1p(s / tau), r_off)
                trajectory_s.append(s)
                trajectory_r.append(r)
            applied += dur
            iters += 1
        if len(trajectory_s) > 1:
            ts, tr = np.array(trajectory_s), np.array(trajectory_r)
            energy = _add(energy, device.reset_energy(
                ts[:-1], ts[1:], tr[:-1], tr[1:], -v_write, rate, r_on, params))
        pulses.append(applied)
        stresses.append(s)
        resistances.append(r)
        iterations.append(iters)
        converged.append(abs(r - target) / target <= tol)
    result = CaptureResult(
        pulses=tuple(pulses),
        final_resistances=tuple(resistances),
        write_energy=energy,
        iterations=tuple(iterations),
        converged=tuple(converged),
    )
    return _write_column(state, col, stresses, resistances), result


def default_slope(t_clk: float) -> float:
    """Ohm per count aligning counter codes to the calibrated window."""
    return device.R_SPAN_DEFAULT / (device.T_SPAN_DEFAULT / t_clk)


def capture_digital(state: ArrayState, cfg: ArrayConfig, params: DeviceParams,
                    col: int, w: Wavefront, q: QuantizerSpec, *,
                    slope: float | None = None, tol: float = 0.01,
                    v_write: float | None = None, step: float = 1.0,
                    max_iters: int = 500, window_ns: float = DEFAULT_WINDOW_NS,
                    pulse_noise: PulseNoise = None) -> tuple[ArrayState, CaptureResult]:
    """Quantize a wavefront and program the counts into column `col` as
    resistance targets r_on + slope * count via the closed loop."""
    if slope is None:
        slope = default_slope(q.t_clk)
    if slope <= 0:
        raise ValueError("slope must be positive")
    counts = quantize(w, q).effective_counts(q)
    r_on = base_params(params).r_on
    targets = [r_on + slope * c for c in counts]
    new_state, result = program_closed_loop(
        state, cfg, params, col, targets, tol=tol, v_write=v_write,
        step=step, max_iters=max_iters, pulse_noise=pulse_noise)
    if w.span > window_ns:
        result = replace(result, window_exceeded=True)
    return new_state, result


@dataclass(frozen=True)
class RoundTripResult:
    """Capture-then-recall outcome with fidelity and energy bookkeeping."""

    recalled: Wavefront            # absolute recall edge times
    recalled_normalized: Wavefront
    input_normalized: Wavefront
    tau: float
    rms_ns: float
    max_abs_ns: float
    bits: float
    capture: CaptureResult
    recall_energy: EnergyReport
    c_used: float                  # F, line capacitance used for the recall


def matched_capacitance(span_ns: float, delta_r: float, cfg: ArrayConfig) -> float:
    """Line capacitance mapping a captured resistance spread back onto the
    recorded span; falls back to the configured value for a flat column."""
    if delta_r <= 0 or span_ns <= 0:
        return cfg.c_line
    return span_ns * 1e-9 / (delta_r * ln_factor(cfg.theta))


def capture(state: ArrayState, cfg: ArrayConfig, params: DeviceParams,
            col: int, w: Wavefront, *, path: str = "native",
            v_write: float | None = None,
            quantizer: QuantizerSpec | None = None,
            slope: float | None = None, tol: float = 1e-3,
            step: float = 1.0, max_iters: int = 500,
            window_ns: float = DEFAULT_WINDOW_NS,
            pulse_noise: PulseNoise = None) -> tuple[ArrayState, CaptureResult]:
    """Record a wavefront into column `col` by the native or the digital
    route; the digital route defaults to a 1 ns counter."""
    if path == "native":
        return capture_native(state, cfg, params, col, w, v_write,
                              window_ns=window_ns, pulse_noise=pulse_noise)
    if path == "digital":
        q = quantizer if quantizer is not None else QuantizerSpec()
        return capture_digital(state, cfg, params, col, w, q, slope=slope,
                               tol=tol, v_write=v_write, step=step,
                               max_iters=max_iters, window_ns=window_ns,
                               pulse_noise=pulse_noise)
    raise ValueError("path must be 'native' or 'digital'")


def round_trip(w: Wavefront, cfg: ArrayConfig, params: DeviceParams, *,
               path: str = "native", col: int = 0,
               v_write: float | None = None,
               quantizer: QuantizerSpec | None = None,
               slope: float | None = None, tol: float = 1e-3,
               step: float = 1.0, max_iters: int = 500,
               scale_cap: Union[str, float, None] = "matched",
               window_ns: float = DEFAULT_WINDOW_NS,
               pulse_noise: PulseNoise = None) -> RoundTripResult:
    """Record a wavefront into a fresh array, reset, recall, and score it.

    scale_cap chooses the recall line capacitance: "matched" derives it
    from the captured resistance spread so the recalled span equals the
    recorded one, None (or "none") keeps the configured c_line, and a
    float is used directly (F).
    """
    state, cap = capture(new_array(cfg, params), cfg, params, col, w,
                         path=path, v_write=v_write, quantizer=quantizer,
                         slope=slope, tol=tol, step=step, max_iters=max_iters,
                         window_ns=window_ns, pulse_noise=pulse_noise)
    state = reset_lines(state)
    if scale_cap == "matched":
        delta_r = max(cap.final_resistances) - min(cap.final_resistances)
        c_used = matched_capacitance(w.span, delta_r, cfg)
    elif scale_cap is None or scale_cap == "none":
        c_used = cfg.c_line
    else:
        c_used = float(scale_cap)
    recalled, energy = recall(state, replace(cfg, c_line=c_used), col)
    in_n = normalize(w)
    out_n = normalize(recalled)
    tau = kendall_tau(rank_of(in_n), rank_of(out_n))
    rms, max_abs = timing_error(in_n, out_n)
    bits = effective_bits(w.span, rms) if w.span > 0 else EFFECTIVE_BITS_CAP
    return RoundTripResult(
        recalled=recalled, recalled_normalized=out_n, input_normalized=in_n,
        tau=tau, rms_ns=rms, max_abs_ns=max_abs, bits=bits,
        capture=cap, recall_energy=energy, c_used=c_used)


def write_capture_csv(path, result: CaptureResult) -> None:
    """Export per-channel capture data as
    `channel,pulse_ns,resistance_ohm,iterations`."""
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["channel", "pulse_ns", "resistance_ohm", "iterations"])
        for ch in range(len(result.pulses)):
            writer.writerow([ch, repr(result.pulses[ch]),
                             repr(result.final_resistances[ch]),
                             result.iterations[ch]])
