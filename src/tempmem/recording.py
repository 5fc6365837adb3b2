"""Wavefront capture into a crossbar column, by either route.

`capture` records a wavefront into a column of ON devices by the route a
`SweepSettings` names and flags `window_exceeded`; `capture_native` and
`program_closed_loop` are its two routes, set by keywords.  The one
route switch is `_capture_rows`, on rows of input times (trials x
channels), each route with its `PulseNoise`: `capture` passes one row,
the Monte Carlo engine a block of trials.  Both routes take the law from
`device.resistance` and `device.stress_at`, and integrate each device's
write energy once from ON (`device.write_energy`).

Native capture mimics timing-difference plasticity: the first arriving edge
raises the source line, and every later channel sees a reverse write
voltage for exactly the interval between its own edge and the first one,
so its device accumulates stress proportional to its delay.  The first
channel's device never sees a net voltage and stays put.

Digital capture measures the wavefront with a counter (optionally
refined by a vernier stage), converts counts to resistance targets on a
fixed slope, and drives each device to its target with an iterative
program/verify loop (`_closed_loop`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Integral
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from . import device
from .crossbar import (ArrayConfig, EnergyReport, base_params, edge_times,
                       new_array, ln_factor, r_on_grid, _check_col)
from .device import DeviceParams
from .wavefront import Wavefront, fidelity, write_csv

# Cycle-to-cycle noise: effective pulse durations for an array of nominal
# ones, of its shape, one draw per element in order.  The native route
# calls it once on trials x channels (1 x channels for `capture`); the
# closed loop once per block of pulses, reading ahead (see `_closed_loop`).
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
        if self.kind == "counter" and self.t_fine is not None:
            raise ValueError("a counter quantizer takes no t_fine")
        if self.kind == "vernier" and (self.t_fine is None
                                       or not self.t_fine < self.t_clk):
            raise ValueError("vernier needs 0 < t_fine < t_clk")


@dataclass(frozen=True)
class SweepSettings:
    """How to run a capture, a round trip or a sweep: a scenario's `run.*`
    and `quantizer.*` values, checked the same way whether parsed from a
    file or built in code.  scale_cap is "matched" or "none" (see
    `round_trip`); the digital route's ohm per count is `slope`."""

    path: str = "native"                 # "native" | "digital"
    column: int = 0
    scale_cap: str = "matched"           # "matched" | "none"
    trials: int = 100
    channels: int = 8
    span_ns: float = 40.0
    tol: float = 1e-3
    step_ns: float = 1.0
    max_iters: int = 500
    v_write: float | None = None
    window_ns: float = device.T_SPAN_DEFAULT  # calibrated near-linear window
    workers: int = 1
    quantizer: QuantizerSpec = QuantizerSpec()

    def __post_init__(self):
        # Checks are written so that nan fails them.
        if self.path not in ("native", "digital"):
            raise ValueError("run.path must be native or digital")
        for name in ("column", "trials", "channels", "max_iters", "workers"):
            if not isinstance(getattr(self, name), Integral):
                raise ValueError(f"run.{name} must be an integer")
        if not self.column >= 0:
            raise ValueError("run.column must be non-negative")
        if self.scale_cap not in ("matched", "none"):
            raise ValueError("run.scale_cap must be matched or none "
                             "(array.c_line_pf sets a fixed recall capacitance)")
        if not 1 <= self.trials < 1 << 32:  # one 32-bit word per spawn key
            raise ValueError("run.trials must be at least 1 and below 2**32")
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

    @property
    def slope(self) -> float:
        """Ohm per count on the digital route, from the quantizer's t_clk."""
        return default_slope(self.quantizer.t_clk)

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
    subtraction; a raw floor would then undercount by one.  A count too
    large for a float raises ValueError.
    """
    ratio = x / q
    if not math.isfinite(ratio):
        raise ValueError(f"a delay of {x!r} ns overflows the quantizer's "
                         f"count at {q!r} ns per count")
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


def _on_column(state: np.ndarray, cfg: ArrayConfig, params: DeviceParams,
               col: int) -> np.ndarray:
    """The ON resistances of column `col` (not to be written to), which its
    devices must hold exactly for the column to be written."""
    _check_col(state, cfg, col)
    r_on = r_on_grid(params, cfg)[:, col]
    if not np.array_equal(state[:, col], r_on):
        raise ValueError(f"column {col} is not initialized to the ON state")
    return r_on


def _write_column(state: np.ndarray, col: int, resistance) -> np.ndarray:
    new = state.astype(float)  # a copy: the caller's grid stays as it was
    new[:, col] = resistance
    return new


def _reset_rate(params: DeviceParams, v_write: float | None) -> tuple[float, float]:
    """The write level (nominal by default) and the stress rate it gives; a
    `SweepSettings` has checked v_write finite, and nan fails this check."""
    if v_write is None:
        v_write = params.v_write_nominal
    if not params.v_prog_threshold <= v_write:
        raise ValueError("v_write must be at least the programming threshold")
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
    after the noise, checked: one per pulse, each finite and none negative."""
    if pulse_noise is None:
        return nominal
    dur = np.asarray(pulse_noise(nominal), dtype=float)
    if dur.shape != nominal.shape:
        raise ValueError("pulse noise must give one duration per pulse")
    # Written so that nan fails it.
    if not (dur.min(initial=0.0) >= 0 and dur.max(initial=0.0) < math.inf):
        raise ValueError("pulse duration must be non-negative and finite")
    return dur


def _block_size(gap: float, left: int) -> int:
    """Pulses to evaluate in one block for a device `gap` noiseless pulses
    short of its band, with `left` pulses of its budget left: the gap plus
    a small margin for the noise, capped at `left` and at _BLOCK_MAX."""
    if not gap < _BLOCK_MAX:
        return min(left, _BLOCK_MAX)
    want = max(0, math.ceil(gap))
    return min(want + 8 + want // 64, left, _BLOCK_MAX)


def _short(r: float, target: float, tol: float, band_top: float) -> bool:
    """Whether a device at r takes another pulse: outside its band and not
    above it (overshot, or started there: a reverse pulse can't come back)."""
    return abs(r - target) / target > tol and not r > band_top


def _closed_loop(r_ons: np.ndarray, targets: Sequence[float], params: DeviceParams,
                 settings: SweepSettings, pulse_noise: PulseNoise) -> tuple:
    """Drive each device of a column, ON at r_ons, to its target within a
    relative settings.tol by reverse pulses of settings.step_ns at
    settings.v_write, each followed by a verify read.  Returns the first
    five `CaptureResult` fields, as a tuple.

    The loop only moves resistance upward, so a target already below the
    verify band is flagged unreachable immediately; targets beyond what
    max_iters steps can reach are flagged after the budget runs out.

    The loop runs in blocks of pulses, each the noiseless pulse count to the
    band plus a small margin.  For a block it takes that many effective
    durations in one `pulse_noise` call, folds their stresses once from the
    device's current stress, evaluates the law from its guard stress on (no
    pulse below it can reach the band) and applies the pulses up to the first
    that the loop condition's own test, `_short`, stops (in the band or beyond
    it), or that uses up max_iters.  The pulse total is the stress fold at
    rate 1 (the nominal level), `_add` of the applied durations at others.
    Durations drawn but not applied go to the next device of the column, so
    each device gets the draws one call per pulse would give it.  Read-ahead:
    the noise may have drawn up to one block more than the pulses applied,
    and those draws are discarded; a caller that draws from the same stream
    afterwards sees it further on than pulse-by-pulse calls would leave it.
    Pulses, resistances, iterations and convergence are those of the scalar
    reference law's `apply_pulse` (`tests/reference_law.py`), bit for bit;
    the write energy, one integral per device from ON summed in row order, is
    the sum of its `pulse_energy` up to rounding.  A zero-length pulse adds
    exactly 0.0 stress and still counts as an iteration.  A negative,
    infinite or nan duration anywhere in a drawn block raises ValueError.
    """
    if len(targets) != len(r_ons):
        raise ValueError(f"{len(targets)} targets for {len(r_ons)} rows")
    if any(not math.isfinite(t) or t <= 0 for t in targets):
        raise ValueError("targets must be positive and finite")
    tol, step, max_iters = settings.tol, settings.step_ns, settings.max_iters
    v_write, rate = _reset_rate(params, settings.v_write)
    # Each band's bottom as a stress; inf at or beyond the clamp.
    band_low = np.array(targets, dtype=float) * (1.0 - tol)
    s_lows = np.where(band_low < params.r_off_max,
                      device.stress_at(band_low, r_ons, params), math.inf)
    # Each guard stress sits a relative 1e-9 under its band (or the clamp):
    # about 10^6 times the few ulps by which the law and its inverse round,
    # so no pulse below it can land in or above the band; -inf at r_on.
    guard_r = np.minimum(band_low, params.r_off_max) * (1.0 - 1e-9)
    guards = np.where(guard_r > r_ons, device.stress_at(guard_r, r_ons, params),
                      -math.inf)
    step_stress = step * rate
    spare = np.empty(0)  # durations drawn and not applied yet, in draw order
    pulses, stresses, resistances, iterations, converged = [], [], [], [], []
    for r_on, target, s_low, guard in zip(r_ons.tolist(), targets,
                                          s_lows.tolist(), guards.tolist()):
        target = float(target)
        band_top = target * (1.0 + tol)
        s, r, applied, iters = 0.0, r_on, 0.0, 0
        while _short(r, target, tol, band_top) and iters < max_iters:
            gap = (s_low - s) / step_stress if step_stress > 0 else math.inf
            n = _block_size(gap, max_iters - iters)
            if spare.size < n:
                more = _effective(np.full(n - spare.size, step), pulse_noise)
                spare = np.concatenate((spare, more))
            dur = spare[:n]
            stress = dur * rate  # a new array, folded in place from s on
            stress[0] += s
            np.cumsum(stress, out=stress)
            # Stress only rises; the last pulse always gets a resistance.
            lo = min(int(np.searchsorted(stress, guard)), n - 1)
            res = device.resistance(stress[lo:], r_on, params).tolist()
            m = next((k for k, x in enumerate(res, lo + 1)
                      if not _short(x, target, tol, band_top)), n)
            s, r = float(stress[m - 1]), res[m - 1 - lo]
            applied = s if rate == 1.0 else float(_add(applied, dur[:m]))
            iters += m
            spare = spare[m:]
        pulses.append(applied)
        stresses.append(s)
        resistances.append(r)
        iterations.append(iters)
        converged.append(abs(r - target) / target <= tol)
    energy = _add(0.0, device.write_energy(np.array(stresses), np.array(resistances),
                                           r_ons, -v_write, rate, params))
    return (tuple(pulses), tuple(resistances), float(energy), tuple(iterations),
            tuple(converged))


def default_slope(t_clk: float) -> float:
    """Ohm per count aligning counter codes to the calibrated window."""
    return device.R_SPAN_DEFAULT / (device.T_SPAN_DEFAULT / t_clk)


def _capture_rows(times: np.ndarray, r_on: np.ndarray, r_base: Sequence[float],
                  params: DeviceParams, s: SweepSettings,
                  noise: PulseNoise | Sequence[PulseNoise]) -> tuple:
    """Capture row k of `times` (trial k's input edge times, ns) into the
    ON devices r_on[k] by the route s.path names.  Native: each device
    takes one reverse pulse at s.v_write (nominal by default) lasting its
    channel's delay behind its row's first edge, after one `noise` call on
    all the nominal durations; the first channel's pulse has zero length
    and leaves its device exactly at r_on.  Digital: row k runs
    `_closed_loop` with noise[k] to the targets r_base[k] + s.slope *
    count of s.quantizer's counts.  Returns `CaptureResult`'s fields as
    arrays with one row per trial (one element for the write energy, in J
    summed in row order, and for window_exceeded)."""
    if s.path == "native":
        v_write, rate = _reset_rate(params, s.v_write)
        dur = _effective(times - times.min(axis=-1, keepdims=True), noise)
        stress = dur * rate
        resistance = device.resistance(stress, r_on, params)
        energy = _add(0.0, device.write_energy(stress, resistance, r_on, -v_write,
                                               rate, params))
        ones = np.ones(times.shape, dtype=int)
        rows = dur, resistance, energy, ones, ones.astype(bool)
    else:
        q = s.quantizer
        caps = [_closed_loop(column, [r0 + s.slope * c for c in quantize(
                    Wavefront(tuple(t)), q).effective_counts(q)], params, s, row_noise)
                for t, column, r0, row_noise in zip(times.tolist(), r_on, r_base, noise)]
        rows = tuple(np.array(x) for x in zip(*caps))
    return (*rows, times.max(axis=-1) - times.min(axis=-1) > s.window_ns)


def capture(state: np.ndarray, cfg: ArrayConfig, params: DeviceParams,
            w: Wavefront, settings: SweepSettings, *,
            pulse_noise: PulseNoise = None) -> tuple[np.ndarray, CaptureResult]:
    """Record a wavefront into the ON column `settings.column` by
    `_capture_rows` on one row, digital targets starting from device
    (0, 0)'s r_on.  A span beyond settings.window_ns is flagged in
    window_exceeded, not rejected."""
    col = settings.column
    r_on = _on_column(state, cfg, params, col)
    if len(w) != cfg.rows:
        raise ValueError(f"wavefront has {len(w)} channels, array has {cfg.rows} rows")
    noise = pulse_noise if settings.path == "native" else [pulse_noise]
    pulses, resistances, energy, iterations, converged, exceeded = (
        x[0].tolist() for x in _capture_rows(
            np.array([w.times]), r_on[None], [base_params(params).r_on], params,
            settings, noise))
    result = CaptureResult(tuple(pulses), tuple(resistances), energy,
                           tuple(iterations), tuple(converged), exceeded)
    return _write_column(state, col, result.final_resistances), result


def capture_native(state: np.ndarray, cfg: ArrayConfig, params: DeviceParams,
                   col: int, w: Wavefront, v_write: float | None = None, *,
                   window_ns: float = SweepSettings.window_ns,
                   pulse_noise: PulseNoise = None) -> tuple[np.ndarray, CaptureResult]:
    """Record a wavefront into column `col` by timing-difference writes:
    `capture` on the native route, its arguments checked as the
    `SweepSettings` fields they fill.  Channel i receives a reverse pulse
    lasting t_i - min(t); the first arriving channel gets none and its
    device stays exactly at r_on."""
    return capture(state, cfg, params, w, SweepSettings(
        column=col, v_write=v_write, window_ns=window_ns), pulse_noise=pulse_noise)


def program_closed_loop(state: np.ndarray, cfg: ArrayConfig, params: DeviceParams,
                        col: int, targets: Sequence[float], *,
                        tol: float = SweepSettings.tol, v_write: float | None = None,
                        step: float = SweepSettings.step_ns,
                        max_iters: int = SweepSettings.max_iters,
                        pulse_noise: PulseNoise = None) -> tuple[np.ndarray, CaptureResult]:
    """Drive each device in the ON column `col` to a resistance target by
    `_closed_loop`, the digital route's program/verify loop, its arguments
    checked as the `SweepSettings` fields they fill and defaulting to them
    (run.step_ns for step)."""
    r_ons = _on_column(state, cfg, params, col)
    result = CaptureResult(*_closed_loop(r_ons, targets, params, SweepSettings(
        path="digital", column=col, tol=tol, step_ns=step, max_iters=max_iters,
        v_write=v_write), pulse_noise))
    return _write_column(state, col, result.final_resistances), result


@dataclass(frozen=True)
class RoundTripResult:
    """Capture-then-recall outcome with fidelity and energy bookkeeping."""

    recalled: Wavefront            # absolute recall edge times
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
    Floats give a float; arrays give an array of their broadcast shape;
    an overflow gives inf without a warning, as Python floats do."""
    span_ns, delta_r = np.asarray(span_ns, dtype=float), np.asarray(delta_r, dtype=float)
    # Written so that nan does not fall back.
    spread = ~((delta_r <= 0) | (span_ns <= 0))
    with np.errstate(over="ignore"):
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
                     cfg: ArrayConfig, scale_cap: str) -> Recalled:
    """Recall and score, batched over trials: row k of `times` is trial k's
    input wavefront and row k of `resistances` the column it was captured
    into.  The line capacitance follows `scale_cap` as in `round_trip`:
    each trial's matched value, or cfg.c_line for "none"; the checks are
    those `ArrayConfig` and `Wavefront` make."""
    if scale_cap == "matched":
        c_used = matched_capacitance(
            times.max(axis=-1) - times.min(axis=-1),
            resistances.max(axis=-1) - resistances.min(axis=-1), cfg)
    else:
        c_used = np.full(len(times), cfg.c_line)
    if not ((0 < c_used) & (c_used < math.inf)).all():
        raise ValueError("c_line must be positive and finite")
    recalled = edge_times(resistances, c_used[:, None], cfg)
    if not np.isfinite(recalled).all():
        raise ValueError("wavefront times must be finite and non-negative")
    return Recalled(c_used, recalled, c_used * cfg.v_read ** 2,
                    *fidelity(times, recalled))


def round_trip(w: Wavefront, cfg: ArrayConfig, params: DeviceParams,
               settings: SweepSettings = SweepSettings()) -> RoundTripResult:
    """Record a wavefront into column `settings.column` of a fresh array
    by `capture`, recall, and score it.

    `settings.scale_cap` chooses the recall line capacitance: "matched"
    derives it from the captured resistance spread so the recalled span
    equals the recorded one, and "none" keeps cfg.c_line (a scenario's
    array.c_line_pf).  Recall and scoring are the one-trial case of
    `recall_and_score`, the batched engine of `variability.monte_carlo`.
    The recalled edges are absolute; `normalize` starts them at 0 ns.
    """
    _, cap = capture(new_array(cfg, params), cfg, params, w, settings)
    rt = recall_and_score(np.array([w.times]), np.array([cap.final_resistances]),
                          cfg, settings.scale_cap)
    c_used, per_line, tau, rms, max_abs, bits = (
        float(x[0]) for x in (rt.c_used, rt.per_line, rt.tau, rt.rms_ns,
                              rt.max_abs_ns, rt.bits))
    return RoundTripResult(
        recalled=Wavefront(tuple(rt.recalled[0].tolist())), tau=tau, rms_ns=rms,
        max_abs_ns=max_abs, bits=bits, capture=cap, c_used=c_used,
        recall_energy=EnergyReport(per_line, cfg.rows))


def write_capture_csv(path, result: CaptureResult) -> None:
    """Export per-channel capture data as
    `channel,pulse_ns,resistance_ohm,iterations`."""
    write_csv(path, ["channel", "pulse_ns", "resistance_ohm", "iterations"],
              ([ch, p, r, n] for ch, (p, r, n) in enumerate(zip(
                  result.pulses, result.final_resistances, result.iterations))))
