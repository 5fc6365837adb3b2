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

The tests state the law one pulse at a time (`resistance_of`,
`apply_pulse` and `pulse_energy` in `tests/reference_law.py`) as their
reference.  Captures run it on arrays but bit for bit the same.  The
closed loop takes a block of one device's pulses at a time: stress is
the running sum of the block's stress increments (`np.cumsum`, a left
fold like the scalar `s += d * rate`), resistance follows from each
stress, and the loop stops at the first pulse that ends it.  The block's
noise is drawn in one call; draws a device leaves unused pass to the
next device, so each pulse gets the draw it would get pulse by pulse,
and only the column's last spare draws are thrown away: the noise stream
is read ahead past the last applied pulse, which changes nothing as long
as nothing draws from it after the capture.  `reset_energy` then
integrates a whole stress/resistance trajectory's write energy at once.

The batched Monte Carlo engine runs the native law and `reset_energy`
on trials x rows arrays (`_reset_constants` too, one set of clamp
constants per device), so one call covers every device of every trial
in a block.  Only `+ - * /`, `min`/`max`, comparisons, `cumsum` along
the last axis and `scipy.special.expi` are vectorised, as numpy gives the
same bits for them; `exp`, `expm1` and `log1p` stay `math.*`, applied per
element by `per_element`, because numpy's SIMD versions differ in the
last bit for some inputs.
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
        if isinstance(self.r_on, np.ndarray) and self.r_on.ndim != 2:
            raise ValueError("an r_on array must be rows x cols")
        check_r_on(self.r_on, self.r_off_max)
        if not 0 < self.amp_a < math.inf:
            raise ValueError("amp_a must be positive and finite")
        if not 0 < self.tau_w < math.inf:
            raise ValueError("tau_w must be positive and finite")
        if not 0 < self.v_prog_threshold < self.v_write_nominal < math.inf:
            raise ValueError("need 0 < v_prog_threshold < v_write_nominal < inf")
        if not 0 < self.v_zero < math.inf:
            raise ValueError("v_zero must be positive and finite")


def check_r_on(r_on: float | np.ndarray, r_off_max: float) -> None:
    """Raise ValueError unless 0 < r_on < r_off_max < inf, for one ON
    resistance or every element of an array of them."""
    lo, hi = (r_on.min(), r_on.max()) if isinstance(r_on, np.ndarray) else (r_on, r_on)
    # Written so that nan fails it.
    if not (0 < lo and hi < r_off_max < math.inf):
        raise ValueError("need 0 < r_on < r_off_max < inf")


def per_element(f, x: np.ndarray) -> np.ndarray:
    """f applied to each element of x, as a float array of x's shape: the
    way to apply the `math.*` functions whose numpy versions differ from
    them in the last bit."""
    return np.fromiter(map(f, x.ravel().tolist()), float, x.size).reshape(x.shape)


def programming_rate(v: float, params: DeviceParams) -> float:
    """Stress accumulation rate multiplier at device voltage v.

    Zero below the programming threshold, exactly 1 at the nominal write
    voltage, sinh-shaped in between and beyond.
    """
    if abs(v) < params.v_prog_threshold:
        return 0.0
    return math.sinh(abs(v) / params.v_zero) / math.sinh(params.v_write_nominal / params.v_zero)


def calibrate_amp(r_span: float, t_span: float, params: DeviceParams) -> DeviceParams:
    """Return params with amp_a set so a t_span pulse at the nominal write
    voltage moves the resistance from r_on to r_on + r_span."""
    if r_span <= 0:
        raise ValueError("r_span must be positive")
    if t_span <= 0:
        raise ValueError("t_span must be positive")
    return replace(params, amp_a=r_span / math.log1p(t_span / params.tau_w))


def _reset_constants(r_on: float | np.ndarray, params: DeviceParams):
    """Of devices whose ON resistances are r_on: the stress at which
    resistance reaches r_off_max, the resistance the law gives there, and
    the prefactor (tau/A) e^(-r_on/A) of the Ei antiderivative.  A float
    gives floats; an array gives arrays of its shape, computed as array
    expressions with `math.*` per element.  (Each array expression costs
    microseconds, so one float stays on plain floats: the closed loop
    asks for one device at a time.)"""
    a, tau = params.amp_a, params.tau_w
    x = (params.r_off_max - r_on) / a
    # expm1 would overflow beyond 700; the clamp is then unreachable
    if not np.ndim(r_on):
        s_clamp = math.inf if x > 700.0 else tau * math.expm1(x)
        return (s_clamp, min(r_on + a * math.log1p(s_clamp / tau), params.r_off_max),
                (tau / a) * math.exp(-r_on / a))
    s_clamp = np.where(x > 700.0, math.inf,
                       tau * per_element(math.expm1, np.minimum(x, 700.0)))
    r_clamp = np.minimum(r_on + a * per_element(math.log1p, s_clamp / tau),
                         params.r_off_max)
    return s_clamp, r_clamp, (tau / a) * per_element(math.exp, -r_on / a)


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
