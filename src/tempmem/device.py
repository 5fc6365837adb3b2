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

The law is stated in stress, but an array stores resistance only (its
rows x cols grid, see `crossbar`): every write starts from the ON state,
exactly r_on at stress 0, so a grid is read without the law.

The law is written once, here: `resistance` is R(s) and `stress_at` its
inverse below the clamp.  Native capture, the closed loop and
`write_energy`'s clamp constants (`_reset_constants`) call them, and no
other code restates them.  The tests state the law one device at a time
(`resistance_of`, `stress_of`, `apply_pulse` and `pulse_energy` in
`tests/reference_law.py`) as their reference.

`resistance`, `stress_at` and `write_energy` work on arrays of any shape
(trials x rows for the batched Monte Carlo engine, a block of pulses for
the closed loop's law, a column of devices for either capture's write
energy) and give the scalar reference's bits.  numpy gives those bits for
`+ - * /`, `min`/`max`, comparisons and `cumsum` along the last axis, but
its SIMD exp, expm1 and log1p differ from libm's, which `math` calls, in
the last bit for some inputs.  So the law, like `variability._spread`,
calls libm's through scipy's Box-Cox ufuncs at lambda 0 (`inv_boxcox` is
exp, `boxcox1p` log1p, `inv_boxcox1p` expm1), in their float64 loop for
any input dtype.  Unlike `math.exp` they give inf without an error where
the result overflows, at inputs the law never reaches: `stress_at` caps
its expm1 argument at 700, `_reset_constants`' exponent is never
positive, `_spread`'s passes 709 only for a normal draw beyond 37, and
`check_r_on` rejects an inf r_on.  `Generator.lognormal` calls the same
libm `exp`, and `expi` is scipy's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.special import boxcox1p, expi, inv_boxcox, inv_boxcox1p

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
        if not 0 < _sinh(self.v_write_nominal / self.v_zero) < math.inf:
            raise ValueError("sinh(v_write_nominal / v_zero) must be positive and finite")


def _sinh(x: float) -> float:
    """math.sinh, but inf where it overflows."""
    try:
        return math.sinh(x)
    except OverflowError:
        return math.inf


def check_r_on(r_on: float | np.ndarray, r_off_max: float) -> None:
    """Raise ValueError unless 0 < r_on < r_off_max < inf, for one ON
    resistance or every element of an array of them."""
    lo, hi = (r_on.min(), r_on.max()) if isinstance(r_on, np.ndarray) else (r_on, r_on)
    # Written so that nan fails it.
    if not (0 < lo and hi < r_off_max < math.inf):
        raise ValueError("need 0 < r_on < r_off_max < inf")


def resistance(stress, r_on, params: DeviceParams) -> np.ndarray:
    """The device law: resistance (ohm) at each stress (ns) of devices ON
    at r_on, R = r_on + amp_a ln(1 + s / tau_w) clamped at r_off_max.
    stress and r_on are floats or arrays that broadcast together."""
    log_term = boxcox1p(stress / params.tau_w, 0.0, dtype=float)
    return np.minimum(r_on + params.amp_a * log_term, params.r_off_max)


def stress_at(r, r_on, params: DeviceParams) -> np.ndarray:
    """The law's inverse: the stress (ns) at which devices ON at r_on reach
    resistance r, below the clamp.  Where expm1 would overflow (its
    argument beyond 700) the stress is inf: out of reach."""
    x = (r - r_on) / params.amp_a
    return np.where(x > 700.0, math.inf,
                    params.tau_w * inv_boxcox1p(np.minimum(x, 700.0), 0.0, dtype=float))


def programming_rate(v: float, params: DeviceParams) -> float:
    """Stress accumulation rate multiplier at device voltage v.

    Zero below the programming threshold, exactly 1 at the nominal write
    voltage, sinh-shaped in between and beyond; ValueError where it
    overflows (DeviceParams keeps the nominal sinh positive and finite).
    """
    if abs(v) < params.v_prog_threshold:
        return 0.0
    rate = _sinh(abs(v) / params.v_zero) / math.sinh(params.v_write_nominal / params.v_zero)
    if not rate < math.inf:
        raise ValueError(f"write level {abs(v)!r} V is beyond the sinh rate's range")
    return rate


def calibrate_amp(r_span: float, t_span: float, params: DeviceParams) -> DeviceParams:
    """Return params with amp_a set so a t_span pulse at the nominal write
    voltage moves the resistance from r_on to r_on + r_span."""
    if r_span <= 0:
        raise ValueError("r_span must be positive")
    if t_span <= 0:
        raise ValueError("t_span must be positive")
    return replace(params, amp_a=r_span / math.log1p(t_span / params.tau_w))


def _reset_constants(r_on: float | np.ndarray, params: DeviceParams, near=True):
    """Of devices whose ON resistances are r_on: the stress at which
    resistance reaches r_off_max, the resistance the law gives there, and
    the prefactor (tau/A) e^(-r_on/A) of the Ei antiderivative, as arrays
    of r_on's shape (0-d for a float).  The first two are computed only
    where `near` (a mask of r_on's shape) holds, and are inf and 0 elsewhere."""
    a, tau = params.amp_a, params.tau_w
    r_on = np.asarray(r_on)
    near = np.broadcast_to(near, r_on.shape)
    s_clamp, r_clamp = np.full(r_on.shape, math.inf), np.zeros(r_on.shape)
    s_clamp[near] = stress_at(params.r_off_max, r_on[near], params)
    r_clamp[near] = resistance(s_clamp[near], r_on[near], params)
    return s_clamp, r_clamp, (tau / a) * inv_boxcox(-r_on / a, 0.0, dtype=float)


def ei_on(r_on, params: DeviceParams, moved=True) -> np.ndarray:
    """Ei(r_on / amp_a), the lower term of the write energy's integral, at
    each r_on; ValueError where it overflows (r_on / amp_a beyond about
    709.78) on a device that `moved` flags, as the energy would be nan."""
    ei = expi(r_on / params.amp_a)
    if not ((ei < math.inf) | ~np.asarray(moved)).all():
        raise ValueError("amp_a must be above r_on / 709.78: the write "
                         "energy's Ei(r_on / amp_a) overflows")
    return ei


def write_energy(s, r, r_on, v: float, rate: float,
                 params: DeviceParams) -> np.ndarray:
    """Energy (J) of RESET writes at voltage v and stress rate `rate` from
    ON (stress 0, r_on) to stress s (ns) at the law's resistance r, floats
    or arrays of one shape: v^2 / rate times the integral of ds / R(s),
    (tau/A) e^(-r_on/A) Ei(R(s)/A) below the clamp, s / r_off_max beyond.
    ValueError where an energy is not finite: Ei(R/A) overflows for R/A
    beyond about 709.78, and so may the product for a vast stress."""
    a, shape = params.amp_a, np.broadcast(s, r_on).shape
    r_on = np.broadcast_to(r_on, shape)
    # The clamp stress falls as r_on rises, so a device whose stress is
    # below the largest r_on's, less a relative 1e-9 for the few ulps the
    # law rounds by, is short of its own clamp: only the others need it.
    near = s >= stress_at(params.r_off_max, r_on.max(), params) * (1 - 1e-9)
    s_clamp, r_clamp, pref = _reset_constants(r_on, params, near)
    moved = np.minimum(s, s_clamp) > 0
    # Subtracted only where the write moves below the clamp, so that no
    # inf - inf is ever formed
    total = pref * np.subtract(expi(np.where(s <= s_clamp, r, r_clamp) / a),
                               ei_on(r_on, params, moved), out=np.zeros(shape),
                               where=moved)
    beyond = np.subtract(s, s_clamp, out=np.zeros(shape), where=s > s_clamp)
    with np.errstate(over="ignore"):
        energy = (v * v / rate) * (total + beyond / params.r_off_max) * 1e-9
    # Written so that nan fails it.
    if not (energy < math.inf).all():
        raise ValueError("the write energy is not finite: a write reaches R above "
                         "709.78 amp_a, where Ei(R / amp_a) overflows, or a vast stress")
    return energy


def _fj(joules: float) -> float:
    """joules in fJ, the unit reports use; ValueError where it overflows."""
    fj = float(joules) / 1e-15
    if not math.isfinite(fj):
        raise ValueError(f"an energy of {joules!r} J overflows in fJ")
    return fj
