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

Cycle-to-cycle noise enters as a `PulseNoise`: a function from an array
of nominal pulse durations to as many effective durations, one draw per
element in order.  Native capture calls it once per column; the closed
loop calls it once per block of pulses and may read ahead of the pulses
it applies (see `program_closed_loop`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from numbers import Integral
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from . import device
from .crossbar import (ArrayConfig, ArrayState, EnergyReport, base_params,
                       edge_times, new_array, ln_factor, r_on_grid, _check_col)
from .device import DeviceParams
from .wavefront import Wavefront, fidelity, normalize, write_csv

DEFAULT_WINDOW_NS = device.T_SPAN_DEFAULT  # calibrated near-linear pulse window

PulseNoise = Optional[Callable[[np.ndarray], np.ndarray]]

# Most pulses one closed-loop block evaluates at once: a memory bound for
# targets the loop cannot reach before max_iters.
_BLOCK_MAX = 1 << 16


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
class SweepSettings:
    """How to run a capture, a round trip or a sweep: a scenario's `run.*`
    and `quantizer.*` values, checked the same way whether parsed from a
    file or built in code.  scale_cap is "matched", "none" or a line
    capacitance in F (see `round_trip`); slope is ohm per count on the
    digital route, None for `default_slope`."""

    path: str = "native"                 # "native" | "digital"
    column: int = 0
    scale_cap: str | float = "matched"   # "matched" | "none" | F
    trials: int = 100
    channels: int = 8
    span_ns: float = 40.0
    tol: float = 1e-3
    step_ns: float = 1.0
    max_iters: int = 500
    v_write: float | None = None
    window_ns: float = DEFAULT_WINDOW_NS
    workers: int = 1
    quantizer: QuantizerSpec = QuantizerSpec()
    slope: float | None = None

    def __post_init__(self):
        # Checks are written so that nan fails them.
        if self.path not in ("native", "digital"):
            raise ValueError("run.path must be native or digital")
        for name in ("column", "trials", "channels", "max_iters", "workers"):
            if not isinstance(getattr(self, name), Integral):
                raise ValueError(f"run.{name} must be an integer")
        if not self.column >= 0:
            raise ValueError("run.column must be non-negative")
        if self.scale_cap not in ("matched", "none") and not (
                isinstance(self.scale_cap, (int, float))
                and 0 < self.scale_cap < math.inf):
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
        if self.slope is not None and not 0 < self.slope < math.inf:
            raise ValueError("slope must be positive and finite")

    @property
    def n_channels(self) -> int:
        """`channels` under the name the benchmark's traced runner reads;
        it goes with the next change to the benchmark."""
        return self.channels


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


def _add(total: float, energies: np.ndarray) -> np.ndarray:
    """total plus each energy along the last axis in turn: the left fold of
    a pulse-by-pulse running sum, as `np.cumsum` computes it; np.sum
    (pairwise) or math.fsum would not reproduce it bit for bit."""
    run = np.empty(energies.shape[:-1] + (energies.shape[-1] + 1,))
    run[..., 0] = total
    run[..., 1:] = energies
    return run.cumsum(axis=-1)[..., -1]


def _effective(nominal: np.ndarray, pulse_noise: PulseNoise) -> np.ndarray:
    """The effective durations of pulses of the given nominal durations
    after the noise, checked: one per pulse and none negative."""
    if pulse_noise is None:
        return nominal
    dur = np.asarray(pulse_noise(nominal), dtype=float)
    if dur.shape != nominal.shape:
        raise ValueError("pulse noise must give one duration per pulse")
    if dur.min(initial=0.0) < 0:
        raise ValueError("pulse duration must be non-negative")
    return dur


def _native_write(dur: np.ndarray, start, r_on: np.ndarray, v_write: float,
                  rate: float, params: DeviceParams):
    """The native law on whole columns: each device, ON at r_on and now at
    resistance `start`, takes one reverse pulse of effective duration dur
    (ns) at v_write, whose stress rate is `rate`.  dur, start and r_on are
    arrays of one shape, rows along the last axis and any leading axes
    (trials); returns the devices' stress and resistance, and each
    column's write energy (J) summed in row order."""
    stress = dur * rate
    log_term = device.per_element(math.log1p, stress / params.tau_w)
    law = np.minimum(r_on + params.amp_a * log_term, params.r_off_max)
    # A zero-length pulse leaves its device as it was.
    resistance = np.where(dur == 0.0, start, law)
    # Each row's trajectory is its two points, from ON to the end of its pulse.
    energies = device.reset_energy(np.stack((np.zeros(stress.shape), stress), -1),
                                   np.stack((r_on, law), -1), -v_write, rate,
                                   r_on, params)
    return stress, resistance, _add(0.0, energies[..., 0])


def capture_native(state: ArrayState, cfg: ArrayConfig, params: DeviceParams,
                   col: int, w: Wavefront, v_write: float | None = None, *,
                   window_ns: float = DEFAULT_WINDOW_NS,
                   pulse_noise: PulseNoise = None) -> tuple[ArrayState, CaptureResult]:
    """Record a wavefront into column `col` by timing-difference writes.

    Channel i receives a reverse pulse lasting t_i - min(t); the first
    arriving channel gets none and its device stays exactly at r_on.  A
    span beyond the calibrated linear window is flagged, not rejected.
    The noise is one call on the column's nominal durations, drawing in
    row order; the device law then runs on the whole column at once
    (`_native_write`, which the batched Monte Carlo engine shares).
    """
    _check_col(state, cfg, col)
    if len(w) != cfg.rows:
        raise ValueError(f"wavefront has {len(w)} channels, array has {cfg.rows} rows")
    start = _read_on_column(state, col)
    v_write, rate = _reset_rate(params, v_write)
    r_on = r_on_grid(params, cfg)[:, col]
    t0 = min(w.times)
    dur = _effective(np.array([t - t0 for t in w.times]), pulse_noise)
    stress, resistance, energy = _native_write(dur, np.array(start), r_on,
                                               v_write, rate, params)
    result = CaptureResult(
        pulses=tuple(dur.tolist()),
        final_resistances=tuple(resistance.tolist()),
        write_energy=float(energy),
        iterations=(1,) * cfg.rows,
        converged=(True,) * cfg.rows,
        window_exceeded=w.span > window_ns,
    )
    return _write_column(state, col, stress, resistance), result


def _block_size(gap: float, left: int) -> int:
    """Pulses to evaluate in one block for a device `gap` noiseless pulses
    short of its band, with `left` pulses of its budget left: the gap plus
    a small margin for the noise, capped at `left` and at _BLOCK_MAX."""
    if not gap < _BLOCK_MAX:
        return min(left, _BLOCK_MAX)
    want = max(0, math.ceil(gap))
    return min(want + 8 + want // 64, left, _BLOCK_MAX)


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

    The loop runs in blocks of pulses.  For each block it takes that many
    effective durations in one `pulse_noise` call, evaluates the whole
    block (stress as a running sum from the device's current stress, then
    resistance from each stress) and applies its pulses up to the first
    one that lands in the band or beyond it, or that uses up max_iters;
    the block size is the noiseless pulse count to the band plus a small
    margin.  Durations drawn but not applied go to the next device of the
    column, so each device gets the draws one call per pulse would give
    it.  Read-ahead: when the function returns, the noise may have drawn
    up to one block more than the pulses applied, and those draws are
    discarded; a caller that draws from the same stream afterwards sees
    it further on than pulse-by-pulse calls would leave it.  After the
    loop, `device.reset_energy` integrates each device's write energy over
    its trajectory.  Results are bit-identical to pulsing with the scalar
    reference law's `apply_pulse` and summing its `pulse_energy` pulse by
    pulse (`tests/reference_law.py`).
    A negative duration anywhere in a drawn block raises ValueError.
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
    if not (isinstance(max_iters, Integral) and max_iters >= 0):
        raise ValueError("max_iters must be a non-negative integer")
    v_write, rate = _reset_rate(params, v_write)
    a, tau, r_off = params.amp_a, params.tau_w, params.r_off_max
    step_stress = step * rate
    spare = np.empty(0)  # durations drawn and not applied yet, in draw order
    pulses = []
    stresses = []
    resistances = []
    iterations = []
    converged = []
    energy = 0.0
    for r_on, r, target in zip(r_on_grid(params, cfg)[:, col].tolist(), start,
                               targets):
        target = float(target)
        band_low, band_top = target * (1.0 - tol), target * (1.0 + tol)
        x = (band_low - r_on) / a
        # expm1 would overflow beyond 700; the band is then out of reach
        s_low = tau * math.expm1(x) if x <= 700.0 and band_low < r_off else math.inf
        s = 0.0
        trajectory_s, trajectory_r = [np.zeros(1)], [np.array([r_on])]
        applied = 0.0
        iters = 0
        # Stop in the band, above it (overshot, or started there: a reverse
        # pulse can't come back) or when the budget is spent.
        while (abs(r - target) / target > tol and not r > band_top
               and iters < max_iters):
            gap = (s_low - s) / step_stress if step_stress > 0 else math.inf
            n = _block_size(gap, max_iters - iters)
            if spare.size < n:
                more = _effective(np.full(n - spare.size, step), pulse_noise)
                spare = np.concatenate((spare, more))
            dur = spare[:n]
            stress = np.cumsum(np.concatenate(([s], dur * rate)))[1:]
            law = np.minimum(
                r_on + a * device.per_element(math.log1p, stress / tau), r_off)
            res = law
            if not dur.all():
                # A zero-length pulse leaves the device as it is: carry the
                # resistance of the last pulse that moved it (or the start).
                moved = np.maximum.accumulate(
                    np.where(dur != 0.0, np.arange(n), -1))
                res = np.where(moved >= 0, law[moved], r)
            done = ~(np.abs(res - target) / target > tol) | (res > band_top)
            m = int(done.argmax()) + 1 if done.any() else n
            # Zero-length pulses repeat a point, adding exactly 0.0 J.
            trajectory_s.append(stress[:m])
            trajectory_r.append(law[:m])
            applied = float(_add(applied, dur[:m]))
            s, r = float(stress[m - 1]), float(res[m - 1])
            iters += m
            spare = spare[m:]
        if iters:
            energy = float(_add(energy, device.reset_energy(
                np.concatenate(trajectory_s), np.concatenate(trajectory_r),
                -v_write, rate, r_on, params)))
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


def matched_capacitance(span_ns, delta_r, cfg: ArrayConfig):
    """Line capacitance mapping a captured resistance spread back onto the
    recorded span; falls back to the configured value for a flat column.
    Floats give a float; arrays give an array of their broadcast shape."""
    span_ns, delta_r = np.asarray(span_ns, dtype=float), np.asarray(delta_r, dtype=float)
    # Written so that nan does not fall back.
    spread = ~((delta_r <= 0) | (span_ns <= 0))
    c = np.divide(span_ns * 1e-9, delta_r * ln_factor(cfg.theta),
                  out=np.full(spread.shape, cfg.c_line), where=spread)
    return c if c.ndim else float(c)


class Recalled(NamedTuple):
    """Recall and scores of captured columns, one element (or row) per
    trial."""

    c_used: np.ndarray    # F, line capacitance of each recall
    recalled: np.ndarray  # absolute recall edge times, trials x channels
    per_line: np.ndarray  # J drawn from the supply per bit line
    tau: np.ndarray
    rms_ns: np.ndarray
    max_abs_ns: np.ndarray
    bits: np.ndarray


def recall_and_score(times: np.ndarray, resistances: np.ndarray,
                     cfg: ArrayConfig, scale_cap: str | float) -> Recalled:
    """Reset lines, recall and score, batched over trials: row k of `times`
    is trial k's input wavefront and row k of `resistances` the column it
    was captured into.  The line capacitance follows `scale_cap` as in
    `round_trip`, with the checks `ArrayConfig` and `Wavefront` make."""
    # Python float arithmetic overflows to inf without a warning; so does this.
    with np.errstate(over="ignore"):
        if scale_cap == "matched":
            c_used = matched_capacitance(
                times.max(axis=-1) - times.min(axis=-1),
                resistances.max(axis=-1) - resistances.min(axis=-1), cfg)
        else:
            c_used = np.full(len(times), cfg.c_line if scale_cap == "none"
                             else float(scale_cap))
        if not ((0 < c_used) & (c_used < math.inf)).all():
            raise ValueError("c_line must be positive and finite")
        recalled = edge_times(resistances, c_used[:, None], cfg)
        if not np.isfinite(recalled).all():
            raise ValueError("wavefront times must be finite and non-negative")
        return Recalled(c_used, recalled, c_used * cfg.v_read ** 2,
                        *fidelity(times, recalled))


def capture(state: ArrayState, cfg: ArrayConfig, params: DeviceParams,
            w: Wavefront, settings: SweepSettings, *,
            pulse_noise: PulseNoise = None) -> tuple[ArrayState, CaptureResult]:
    """Record a wavefront into column `settings.column` by the route
    `settings.path` names: native timing-difference writes, or the
    digital route (`settings.quantizer`, then the closed loop)."""
    s = settings
    if s.path == "native":
        return capture_native(state, cfg, params, s.column, w, s.v_write,
                              window_ns=s.window_ns, pulse_noise=pulse_noise)
    return capture_digital(state, cfg, params, s.column, w, s.quantizer,
                           slope=s.slope, tol=s.tol, v_write=s.v_write,
                           step=s.step_ns, max_iters=s.max_iters,
                           window_ns=s.window_ns, pulse_noise=pulse_noise)


def round_trip(w: Wavefront, cfg: ArrayConfig, params: DeviceParams,
               settings: SweepSettings = SweepSettings(), *,
               pulse_noise: PulseNoise = None) -> RoundTripResult:
    """Record a wavefront into column `settings.column` of a fresh array
    by `capture`, reset, recall, and score it.

    `settings.scale_cap` chooses the recall line capacitance: "matched"
    derives it from the captured resistance spread so the recalled span
    equals the recorded one, "none" keeps the configured c_line, and a
    float is used directly (F).  Recall and scoring are the one-trial case
    of `recall_and_score`, the batched engine of `variability.monte_carlo`.
    """
    _, cap = capture(new_array(cfg, params), cfg, params, w, settings,
                     pulse_noise=pulse_noise)
    rt = recall_and_score(np.array([w.times]), np.array([cap.final_resistances]),
                          cfg, settings.scale_cap)
    c_used, per_line, tau, rms, max_abs, bits = (
        float(x[0]) for x in (rt.c_used, rt.per_line, rt.tau, rt.rms_ns,
                              rt.max_abs_ns, rt.bits))
    recalled = Wavefront(tuple(rt.recalled[0].tolist()))
    half = cfg.rows * per_line / 2.0
    return RoundTripResult(
        recalled=recalled, recalled_normalized=normalize(recalled),
        input_normalized=normalize(w), tau=tau, rms_ns=rms, max_abs_ns=max_abs,
        bits=bits, capture=cap, c_used=c_used,
        recall_energy=EnergyReport(per_line=per_line, stored=half, dissipated=half))


def write_capture_csv(path, result: CaptureResult) -> None:
    """Export per-channel capture data as
    `channel,pulse_ns,resistance_ohm,iterations`."""
    write_csv(path, ["channel", "pulse_ns", "resistance_ohm", "iterations"],
              ([ch, repr(p), repr(r), n] for ch, (p, r, n) in enumerate(zip(
                  result.pulses, result.final_resistances, result.iterations))))
