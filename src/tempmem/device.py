"""Compact behavioral model of a single 1T1R memristor.

Device state is the accumulated programming stress ``s`` in ns of
reverse bias at the nominal write voltage.  Resistance follows a
linear-then-logarithmic law

    R(s) = r_on + amp_a * ln(1 + s / tau_w),   clamped at r_off_max

which is near-linear for s much smaller than tau_w and compresses
logarithmically beyond the knee.  Pulses below the programming
threshold never move the state, so reads are non-disturbing; a
positive pulse at or above the threshold is an ideal SET (full erase
back to the ON state); a negative one accumulates stress at a
sinh-shaped, voltage-dependent rate normalized to 1 at the nominal
write voltage.

The scalar functions (`resistance_of`, `apply_pulse`, `pulse_energy`)
state the law one pulse at a time and are the reference.  Captures run
it faster but bit for bit the same: their per-pulse loop is plain float
arithmetic on stress and resistance, and `reset_energy` integrates a
whole stress/resistance trajectory's write energy at once afterwards.
Only `+ - * /`, `min`/`max` and `scipy.special.expi` are vectorised, as
numpy gives the same bits for them; `exp`, `expm1` and `log1p` stay
per-element `math.*`, because numpy's SIMD versions differ in the last
bit for some inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.special import expi

R_ON_DEFAULT = 10e3       # ohm, ON state
R_OFF_MAX_DEFAULT = 1e6   # ohm, hard ceiling of the state
TAU_W_DEFAULT = 200.0     # ns, knee of the log law
R_SPAN_DEFAULT = 30e3     # ohm, programming window above r_on
T_SPAN_DEFAULT = 40.0     # ns, pulse span calibrated onto r_span
V_PROG_THRESHOLD_DEFAULT = 1.0   # V, minimum |v| that changes state
V_ZERO_DEFAULT = 0.35     # V, sinh rate shape (~4x rate change per 0.5 V)
V_WRITE_DEFAULT = 1.4     # V, write level at which the rate is calibrated

# Default amplitude maps a T_SPAN pulse at the nominal write voltage onto
# exactly R_SPAN of resistance change above r_on.
AMP_A_DEFAULT = R_SPAN_DEFAULT / math.log1p(T_SPAN_DEFAULT / TAU_W_DEFAULT)


@dataclass(frozen=True)
class DeviceParams:
    """Programming-dynamics constants of one memristor, or of a whole array
    whose devices differ only in r_on, given then as a rows x cols array."""

    r_on: float | np.ndarray = R_ON_DEFAULT
    r_off_max: float = R_OFF_MAX_DEFAULT
    amp_a: float = AMP_A_DEFAULT
    tau_w: float = TAU_W_DEFAULT
    v_prog_threshold: float = V_PROG_THRESHOLD_DEFAULT
    v_zero: float = V_ZERO_DEFAULT
    v_write_nominal: float = V_WRITE_DEFAULT

    def __post_init__(self):
        # Checks are written so that nan fails them.
        r_on = self.r_on
        if isinstance(r_on, np.ndarray):
            if r_on.ndim != 2:
                raise ValueError("an r_on array must be rows x cols")
            lo, hi = r_on.min(), r_on.max()
        else:
            lo = hi = r_on
        if not (0 < lo and hi < self.r_off_max < math.inf):
            raise ValueError("need 0 < r_on < r_off_max < inf")
        if not 0 < self.amp_a < math.inf:
            raise ValueError("amp_a must be positive and finite")
        if not 0 < self.tau_w < math.inf:
            raise ValueError("tau_w must be positive and finite")
        if not 0 < self.v_prog_threshold < self.v_write_nominal < math.inf:
            raise ValueError("need 0 < v_prog_threshold < v_write_nominal < inf")
        if not 0 < self.v_zero < math.inf:
            raise ValueError("v_zero must be positive and finite")

    def at(self, row: int, col: int) -> DeviceParams:
        """The scalar params of device (row, col)."""
        if not isinstance(self.r_on, np.ndarray):
            return self
        return replace(self, r_on=float(self.r_on[row, col]))


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


def programming_rate(v: float, params: DeviceParams) -> float:
    """Stress accumulation rate multiplier at device voltage v.

    Zero below the programming threshold, exactly 1 at the nominal write
    voltage, sinh-shaped in between and beyond.
    """
    if abs(v) < params.v_prog_threshold:
        return 0.0
    return math.sinh(abs(v) / params.v_zero) / math.sinh(params.v_write_nominal / params.v_zero)


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


def calibrate_amp(r_span: float, t_span: float, params: DeviceParams) -> DeviceParams:
    """Return params with amp_a set so a t_span pulse at the nominal write
    voltage moves the resistance from r_on to r_on + r_span."""
    if r_span <= 0:
        raise ValueError("r_span must be positive")
    if t_span <= 0:
        raise ValueError("t_span must be positive")
    return replace(params, amp_a=r_span / math.log1p(t_span / params.tau_w))


def _reset_constants(r_on: float, params: DeviceParams) -> tuple[float, float, float]:
    """Of a device whose ON resistance is r_on: the stress at which its
    resistance reaches r_off_max, the resistance the law gives there, and
    the prefactor (tau/A) e^(-r_on/A) of the Ei antiderivative."""
    a, tau = params.amp_a, params.tau_w
    x = (params.r_off_max - r_on) / a
    # expm1 would overflow beyond 700; the clamp is then unreachable
    s_clamp = math.inf if x > 700.0 else tau * math.expm1(x)
    r_clamp = min(r_on + a * math.log1p(s_clamp / tau), params.r_off_max)
    return s_clamp, r_clamp, (tau / a) * math.exp(-r_on / a)


def reset_energy(s0: np.ndarray, s1: np.ndarray, r0: np.ndarray, r1: np.ndarray,
                 v: float, rate: float, r_on: float | np.ndarray,
                 params: DeviceParams) -> np.ndarray:
    """Energy (J) of each of a set of RESET pulses at voltage v.

    Pulse k moves a device from stress s0[k] to s1[k] (ns) at stress rate
    `rate`; r0[k] and r1[k] are the law's resistances at those stresses,
    and r_on is the devices' ON resistance, one float for all pulses or
    one per pulse.  Consecutive points of one device's trajectory give
    the energies of its pulses in one call.

    The integral of ds / R(s) has the antiderivative
    (tau/A) e^(-r_on/A) Ei(R(s)/A) below the clamp; above it R is
    r_off_max.  The pulses crossing the clamp are split there.
    """
    if np.ndim(r_on):
        s_clamp, r_clamp, pref = (np.array(c) for c in zip(
            *(_reset_constants(r, params) for r in r_on.tolist())))
    else:
        s_clamp, r_clamp, pref = _reset_constants(r_on, params)
    a = params.amp_a
    total = np.zeros(np.shape(s1))
    below = np.minimum(s1, s_clamp) > s0
    if below.any():
        r_hi = np.where(s1 <= s_clamp, r1, r_clamp)[below]
        total[below] += (pref[below] if np.ndim(pref) else pref) * (
            expi(r_hi / a) - expi(r0[below] / a))
    above = s1 > s_clamp
    if above.any():
        start = np.maximum(s0, s_clamp)[above]
        total[above] += (s1[above] - start) / params.r_off_max
    return (v * v / rate) * total * 1e-9


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
    return float(reset_energy(np.array([s0]), np.array([s1]), np.array([r0]),
                              np.array([r1]), v, rate, params.r_on, params)[0])
