"""The device law stated one pulse at a time: the reference the array
kernels of `tempmem.device` and `tempmem.recording` are tested against.

`resistance_of`, `apply_pulse` and `pulse_energy` apply the law of the
`tempmem.device` module docstring to one device's scalar state.  The
simulator runs the same law on arrays, bit for bit; these functions are
kept here, outside the package, as the tests' oracle.
"""

import math
from dataclasses import dataclass

import numpy as np

from tempmem.device import (R_ON_DEFAULT, DeviceParams, programming_rate,
                            reset_energy)


@dataclass(frozen=True)
class DeviceState:
    """One memristor's state: stress in ns and the resistance derived from it.

    The device law passes this scalar value around; an array keeps its
    devices' states as stress and resistance arrays (crossbar.ArrayState).
    """

    stress: float = 0.0
    resistance: float = R_ON_DEFAULT


def resistance_of(stress: float, params: DeviceParams) -> float:
    """Resistance (ohm) at the given accumulated stress (ns)."""
    if stress < 0:
        raise ValueError("stress must be non-negative")
    return min(params.r_on + params.amp_a * math.log1p(stress / params.tau_w),
               params.r_off_max)


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
