"""The device law stated one pulse at a time: the reference the array
kernels of `tempmem.device` and `tempmem.recording` are tested against.

`resistance_of`, `apply_pulse` and `pulse_energy` apply the law of the
`tempmem.device` module docstring to one device's scalar state, and
`stress_of` inverts it.  `reset_energy` integrates the energy of every
pulse along trajectories of any number of points; the simulator only
needs one integral from ON per device (`device.write_energy`).  The
simulator runs the same law on arrays, bit for bit; these functions are
kept here, outside the package, as the tests' oracle.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import expi

from tempmem.device import (R_ON_DEFAULT, DeviceParams, _reset_constants,
                            programming_rate)


@dataclass(frozen=True)
class DeviceState:
    """One memristor's state: stress in ns and the resistance derived from it.

    The device law passes this scalar value around; an array keeps its
    devices' resistances only, as a rows x cols grid (see crossbar).
    """

    stress: float = 0.0
    resistance: float = R_ON_DEFAULT


def resistance_of(stress: float, params: DeviceParams) -> float:
    """Resistance (ohm) at the given accumulated stress (ns)."""
    if stress < 0:
        raise ValueError("stress must be non-negative")
    return min(params.r_on + params.amp_a * math.log1p(stress / params.tau_w),
               params.r_off_max)


def stress_of(resistance: float, params: DeviceParams) -> float:
    """Stress (ns) at which the law reaches `resistance` (ohm) below the
    clamp; inf where expm1's argument passes 700 (out of reach)."""
    x = (resistance - params.r_on) / params.amp_a
    return math.inf if x > 700.0 else params.tau_w * math.expm1(x)


def apply_pulse(state: DeviceState, v: float, duration: float,
                params: DeviceParams) -> DeviceState:
    """Apply a rectangular voltage pulse of `duration` ns at `v` volts.

    Sub-threshold and zero-duration pulses return the input state
    unchanged (same object).  Negative voltage at or above threshold is
    RESET: stress grows by duration times the voltage rate.  Positive
    voltage at or above threshold is an ideal SET back to stress 0.
    """
    if duration < 0:
        raise ValueError("pulse duration must be non-negative")
    if duration == 0.0 or abs(v) < params.v_prog_threshold:
        return state
    if v > 0:
        return DeviceState(stress=0.0, resistance=params.r_on)
    stress = state.stress + duration * programming_rate(v, params)
    return DeviceState(stress=stress, resistance=resistance_of(stress, params))


def pulse_energy(state: DeviceState, v: float, duration: float,
                 params: DeviceParams) -> float:
    """Energy (J) dissipated in the device by one pulse of `duration` ns.

    Covers read-level and reverse (RESET) pulses; the resistance
    trajectory during the pulse is integrated in closed form.  SET
    polarity is an ideal jump with no dissipation model and is rejected.
    """
    if duration < 0:
        raise ValueError("pulse duration must be non-negative")
    if duration == 0.0:
        return 0.0
    rate = programming_rate(v, params)
    if v > 0 and rate > 0:
        raise ValueError("energy model covers read and reverse pulses only")
    if rate == 0.0:
        return v * v * duration / resistance_of(state.stress, params) * 1e-9
    s0 = state.stress
    s1 = s0 + duration * rate
    r0, r1 = resistance_of(s0, params), resistance_of(s1, params)
    # float() keeps numpy's float64 out of downstream serialization
    return float(reset_energy(np.array([s0, s1]), np.array([r0, r1]), v, rate,
                              params.r_on, params)[0])


def reset_energy(s: np.ndarray, r: np.ndarray, v: float, rate: float,
                 r_on: float | np.ndarray, params: DeviceParams) -> np.ndarray:
    """Energy (J) of each RESET pulse along stress trajectories at voltage v.

    s and r hold the points of one or more trajectories along their last
    axis: s[..., k] is a stress (ns), r[..., k] the law's resistance at it,
    and pulse k takes its device from point k to point k + 1 at stress
    rate `rate`.  The result has one element per pulse, so one point
    fewer along the last axis.  r_on is the devices' ON resistance, one
    float for all trajectories or one per trajectory (an array of the
    leading shape of s).

    The integral of ds / R(s) has the antiderivative
    (tau/A) e^(-r_on/A) Ei(R(s)/A) below the clamp, evaluated once per
    point; above it R is r_off_max.  The pulses crossing the clamp are
    split there.
    """
    s_clamp, r_clamp, pref = _reset_constants(r_on, params)
    if np.ndim(r_on):  # one set per trajectory, alike along its points
        s_clamp, r_clamp, pref = s_clamp[..., None], r_clamp[..., None], pref[..., None]
    # Ei of each point's resistance, taken at the clamp beyond it
    ei = expi(np.where(s <= s_clamp, r, r_clamp) / params.amp_a)
    s0, s1 = s[..., :-1], s[..., 1:]
    below = np.minimum(s1, s_clamp) > s0
    # Subtracted only below the clamp, so that no inf - inf is ever formed
    total = pref * np.subtract(ei[..., 1:], ei[..., :-1], out=np.zeros(s1.shape),
                               where=below)
    above = s1 > s_clamp
    if above.any():
        total[above] += (s1 - np.maximum(s0, s_clamp))[above] / params.r_off_max
    return (v * v / rate) * total * 1e-9
