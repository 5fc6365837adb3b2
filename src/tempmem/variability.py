"""Stochastic device spreads and the Monte Carlo round-trip harness.

Device-to-device variation multiplies each device's ON resistance by a
mean-one lognormal factor; cycle-to-cycle variation multiplies each
programming pulse's effective duration the same way.  Both are positive
quantities, so multiplicative lognormal noise is the natural choice for
percentage-level spreads.

Trial k of a sweep draws from the PCG64 stream of
`SeedSequence(seed).spawn(n)[k]`, in this order: the input wavefront
(`random_wavefront`'s draws), the rows x cols r_on grid (`sample_array`'s),
then the cycle-to-cycle noise of its capture (`c2c_noise`'s: one draw per
row for a native capture, the closed loop's blocks for a digital one).
Its block derives the generator's state from (seed, k) as numpy would
and loads it into one reused generator.  So a sweep gives bit-identical
results whether trials run serially or across worker processes, and
whatever blocks they run in.

`monte_carlo` runs trials in blocks of at most _BLOCK_CELLS devices
(trials x rows x cols).  Within a block only the draws loop over trials;
everything else works on arrays with a leading trials axis: the r_on
grids and noise factors, native capture (`recording._native_write`),
recall and scoring (`recording.recall_and_score`).  A digital capture
runs its closed loop per trial, on that trial's stream.  Each trial's row
is bit-identical to a `round_trip` of the same draws.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from functools import cache
from itertools import chain
from typing import Callable

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .crossbar import ArrayConfig, new_array
from .device import DeviceParams, check_r_on, per_element
from .recording import (SweepSettings, capture, recall_and_score, _native_write,
                        _reset_rate)
from .wavefront import Wavefront, write_csv

# Success threshold for exact-timing codes: rms no worse than half an LSB
# of a 5-bit code across the span, i.e. rms <= span / 64.
TIMING_SUCCESS_LEVELS = 64.0

# Most devices (trials x rows x cols) one block of a sweep holds at once:
# the memory bound of the batched engine.
_BLOCK_CELLS = 1 << 16

# numpy's SeedSequence hash constants (NEP 19 keeps its algorithm stable)
# and PCG64's LCG multiplier.
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43b0d7e5, 0x931e8875, 0x8b51f9dd, 0x58f38ded
_MIX_L, _MIX_R, _PCG_MULT = 0xca01f9dd, 0x4973f715, 0x2360ed051fc65da44385df649fccf645
_M32, _M128 = (1 << 32) - 1, (1 << 128) - 1


class _Unseeded(ISeedSequence):
    """Zero seed words: the cheapest PCG64 to build, to set states into."""

    def generate_state(self, n_words, dtype=np.uint32):
        return np.zeros(n_words, dtype)


def _words(n: int) -> list[int]:
    """n's 32-bit words as SeedSequence reads an int: low first, at least one."""
    words = [n & _M32]
    while n := n >> 32:
        words.append(n & _M32)
    return words


@cache
def _hash_steps(h: int, mult: int, skip: int, n: int) -> tuple:
    """(xor, multiplier) of n SeedSequence hash steps after `skip` steps from
    constant h, times mult at each step (cached: few arguments ever occur)."""
    h = h * pow(mult, skip, 1 << 32) & _M32
    return tuple((h, h := h * mult & _M32) for _ in range(n))


def _trial_states(seed: int, first: int, count: int):
    """The PCG64 states of `default_rng(SeedSequence(seed).spawn(n)[k])`
    for k = first .. first + count - 1, derived with no object per trial.
    Every child shares the root's entropy pool; child k mixes in its spawn
    key k (numpy's `hashmix` and `mix`), hashes the pool into 4 64-bit
    words (`generate_state`) and PCG64 takes two LCG steps from them."""
    pool = np.random.SeedSequence(seed).pool.tolist()
    # The root's pool took 16 hash steps, 4 more per seed word beyond 4.
    keyed = _hash_steps(_INIT_A, _MULT_A, 4 * max(4, len(_words(int(seed)))),
                        4 * len(_words(first + count - 1)))
    hashed = _hash_steps(_INIT_B, _MULT_B, 0, 8)
    for k in range(first, first + count):
        p, steps = pool[:], iter(keyed)
        for word in _words(k):
            for i, (x, m) in zip(range(4), steps):
                v = (word ^ x) * m & _M32
                v = (_MIX_L * p[i] - _MIX_R * (v ^ v >> 16)) & _M32
                p[i] = v ^ v >> 16
        o = [(v := (p[i & 3] ^ x) * m & _M32) ^ v >> 16
             for i, (x, m) in enumerate(hashed)]
        # Little-endian word pairs; PCG64 reads each 128-bit value high first.
        init_state = (o[0] | o[1] << 32) << 64 | o[2] | o[3] << 32
        inc = ((o[4] | o[5] << 32) << 65 | (o[6] | o[7] << 32) << 1 | 1) & _M128
        yield {"bit_generator": "PCG64", "has_uint32": 0, "uinteger": 0, "state": {
            "state": ((inc + init_state) * _PCG_MULT + inc) & _M128, "inc": inc}}


@dataclass(frozen=True)
class VariationSpec:
    """Relative spreads and the seed of the deterministic random stream."""

    d2d_sigma: float = 0.01    # device-to-device, on r_on
    c2c_sigma: float = 0.042   # cycle-to-cycle, on pulse duration
    seed: int = 0

    def __post_init__(self):
        # Written so that nan fails it.
        if not (0 <= self.d2d_sigma < math.inf and 0 <= self.c2c_sigma < math.inf):
            raise ValueError("sigmas must be non-negative and finite")
        if not (isinstance(self.seed, (int, np.integer)) and self.seed >= 0):
            raise ValueError("variation.seed must be a non-negative integer")


@dataclass(frozen=True)
class TrialReport:
    """Aggregate fidelity and energy statistics of a Monte Carlo sweep.

    rms_timing_ns is the mean over trials of each trial's rms timing
    error; energy_mean_j is the mean per-trial supply energy (write
    pulses plus the recall charge on all lines).
    """

    n_trials: int
    rank_exact_rate: float       # fraction of trials with tau exactly 1
    mean_tau: float
    rms_timing_ns: float
    effective_bits_mean: float
    timing_success_rate: float   # fraction with rms <= span / 64
    energy_mean_j: float


@dataclass(frozen=True)
class TrialRow:
    """Per-trial record behind a TrialReport."""

    trial: int
    tau: float
    rms_ns: float
    max_abs_ns: float
    bits: float
    write_energy_j: float
    recall_energy_j: float
    converged: bool
    window_exceeded: bool


def _spread(nominal, sigma_rel: float, z: np.ndarray) -> np.ndarray:
    """nominal times mean-one lognormal factors of relative std-dev
    sigma_rel, one per standard normal draw in z; sigma 0 gives factors of
    exactly 1."""
    s2 = math.log1p(sigma_rel * sigma_rel)
    return nominal * per_element(math.exp, -0.5 * s2 + math.sqrt(s2) * z)


def sample_array(base: DeviceParams, spec: VariationSpec, rows: int, cols: int,
                 rng: np.random.Generator | None = None) -> DeviceParams:
    """`base` with a rows x cols r_on grid, lognormally spread per device."""
    if rng is None:
        rng = np.random.default_rng(spec.seed)
    return replace(base, r_on=_spread(base.r_on, spec.d2d_sigma,
                                      rng.standard_normal((rows, cols))))


def c2c_noise(spec: VariationSpec,
              rng: np.random.Generator) -> Callable[[np.ndarray], np.ndarray]:
    """The cycle-to-cycle noise of a stream of programming pulses: each
    call maps an array of non-negative durations to their effective
    durations after one lognormal draw from `rng` per element, in order.
    One call on n durations takes the same draws, and gives the same
    values, as n calls on one duration each.  A draw is taken even at
    sigma 0, so the stream position is independent of sigma."""
    draw = rng.standard_normal

    def noise(durations: np.ndarray) -> np.ndarray:
        return _spread(durations, spec.c2c_sigma, draw(durations.shape))

    return noise


def perturb_pulse(duration: float | np.ndarray, spec: VariationSpec,
                  rng: np.random.Generator | None = None) -> float | np.ndarray:
    """Programming pulses' effective durations after c2c noise: a float for
    a float, an array of the same shape for an array."""
    durations = np.asarray(duration, dtype=float)
    if (durations < 0).any():
        raise ValueError("duration must be non-negative")
    if rng is None:
        rng = np.random.default_rng(spec.seed)
    out = c2c_noise(spec, rng)(durations)
    return out if durations.ndim else float(out)


def random_wavefront(rng: np.random.Generator, n_channels: int,
                     span_ns: float) -> Wavefront:
    """Random wavefront with exactly the requested span: one channel at 0,
    one at span, the rest uniform in between, all shuffled."""
    if n_channels < 1:
        raise ValueError("need at least one channel")
    if n_channels == 1:
        return Wavefront((0.0,))
    vals = np.concatenate(([0.0, span_ns], rng.uniform(0.0, span_ns, n_channels - 2)))
    return Wavefront(tuple(vals[rng.permutation(n_channels)].tolist()))


def _run_block(args) -> list[TrialRow]:
    """The rows of trials first .. first + count - 1.  One generator takes
    each trial's state and draws its wavefront, then in one call its r_on
    grid and, if native, c2c noise; a digital closed loop resumes there."""
    first, count, cfg, base, spec, s = args
    n, cells, native = s.channels, cfg.rows * cfg.cols, s.path == "native"
    # Each trial's times before the shuffle (0, span, n - 2 uniforms) and
    # its channel order; `permutation(n)` too shuffles an arange(n).
    vals = np.zeros((count, n))
    order = np.empty((count, n), dtype=np.intp)
    order[:] = np.arange(n)
    z = np.empty((count, cells + cfg.rows * native))
    gen = np.random.Generator(np.random.PCG64(_Unseeded()))
    resume = []
    for k, state in enumerate(_trial_states(spec.seed, first, count)):
        gen.bit_generator.state = state
        if n > 1:  # one channel sits at 0 with no draw
            vals[k, 1] = s.span_ns
            vals[k, 2:] = gen.uniform(0.0, s.span_ns, n - 2)
            gen.shuffle(order[k])
        gen.standard_normal(out=z[k])
        if not native:
            resume.append(gen.bit_generator.state)
    # np.take_along_axis(vals, order, -1), without its index building
    times = vals[np.arange(count)[:, None], order]
    grids = _spread(base.r_on, spec.d2d_sigma,
                    z[:, :cells].reshape(count, cfg.rows, cfg.cols))
    check_r_on(grids, base.r_off_max)
    if native:
        v_write, rate = _reset_rate(base, s.v_write)
        dur = _spread(times - times.min(axis=-1, keepdims=True), spec.c2c_sigma,
                      z[:, cells:])
        r_on = grids[..., s.column]
        _, resistances, write_energy = _native_write(dur, r_on, r_on, v_write,
                                                     rate, base)
        converged = [True] * count
    else:
        caps = []
        for t, grid, state in zip(times, grids, resume):
            gen.bit_generator.state = state
            params = replace(base, r_on=grid)
            # The last use of the stream: the closed loop reads the noise ahead.
            caps.append(capture(new_array(cfg, params), cfg, params,
                                Wavefront(tuple(t.tolist())), s,
                                pulse_noise=c2c_noise(spec, gen))[1])
        resistances = np.array([c.final_resistances for c in caps])
        write_energy = np.array([c.write_energy for c in caps])
        converged = [all(c.converged) for c in caps]
    rt = recall_and_score(times, resistances, cfg, s.scale_cap)
    window_exceeded = (times.max(axis=-1) - times.min(axis=-1)) > s.window_ns
    return [TrialRow(first + k, *fields) for k, fields in enumerate(zip(
        rt.tau.tolist(), rt.rms_ns.tolist(), rt.max_abs_ns.tolist(),
        rt.bits.tolist(), write_energy.tolist(),
        (rt.per_line * cfg.rows).tolist(), converged, window_exceeded.tolist()))]


def monte_carlo(cfg: ArrayConfig, base: DeviceParams, spec: VariationSpec,
                n_trials: int, settings: SweepSettings = SweepSettings(), *,
                workers: int = 1) -> tuple[TrialReport, tuple[TrialRow, ...]]:
    """Run independent capture/recall trials on freshly sampled arrays,
    each the equal of a `round_trip` with `settings` on a random wavefront
    of `settings.channels` channels; settings.trials and settings.workers
    are not read (n_trials and workers are).

    Fully reproducible from spec.seed (see the module docstring); workers
    > 1 fans blocks of trials, as (first, count) ranges, out to a process
    pool without changing any result.
    """
    if n_trials < 1:
        raise ValueError("n_trials must be at least 1")
    if settings.channels != cfg.rows:
        raise ValueError(f"wavefront has {settings.channels} channels, array "
                         f"has {cfg.rows} rows")
    if not settings.column < cfg.cols:
        raise ValueError(f"column {settings.column} out of range 0..{cfg.cols - 1}")
    size = max(1, _BLOCK_CELLS // (cfg.rows * cfg.cols))
    if workers > 1:
        size = min(size, max(1, n_trials // (workers * 4)))
    jobs = [(i, min(size, n_trials - i), cfg, base, spec, settings)
            for i in range(0, n_trials, size)]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = tuple(chain.from_iterable(pool.map(_run_block, jobs)))
    else:
        rows = tuple(chain.from_iterable(map(_run_block, jobs)))
    taus = [r.tau for r in rows]
    rmss = [r.rms_ns for r in rows]
    success_rms = settings.span_ns / TIMING_SUCCESS_LEVELS
    report = TrialReport(
        n_trials=n_trials,
        rank_exact_rate=sum(1 for t in taus if t == 1.0) / n_trials,
        mean_tau=sum(taus) / n_trials,
        rms_timing_ns=sum(rmss) / n_trials,
        effective_bits_mean=sum(r.bits for r in rows) / n_trials,
        timing_success_rate=sum(1 for r in rmss if r <= success_rms) / n_trials,
        energy_mean_j=sum(r.write_energy_j + r.recall_energy_j for r in rows) / n_trials,
    )
    return report, rows


_REPORT_FIELDS = ["n_trials", "rank_exact_rate", "mean_tau", "rms_timing_ns",
                  "effective_bits_mean", "timing_success_rate", "energy_mean_j"]


def write_trial_report_csv(path, report: TrialReport) -> None:
    write_csv(path, _REPORT_FIELDS, [[report.n_trials] + [
        repr(getattr(report, k)) for k in _REPORT_FIELDS[1:]]])


def write_trials_csv(path, rows) -> None:
    write_csv(path, ["trial", "tau", "rms_ns", "max_abs_ns", "bits",
                     "write_energy_j", "recall_energy_j", "converged",
                     "window_exceeded"],
              ([r.trial, repr(r.tau), repr(r.rms_ns), repr(r.max_abs_ns),
                repr(r.bits), repr(r.write_energy_j), repr(r.recall_energy_j),
                int(r.converged), int(r.window_exceeded)] for r in rows))


def format_trial_report(report: TrialReport) -> str:
    """Human-readable sweep summary."""
    lines = [
        f"trials:               {report.n_trials}",
        f"rank exact rate:      {report.rank_exact_rate:.4f}",
        f"mean kendall tau:     {report.mean_tau:.4f}",
        f"mean rms timing:      {report.rms_timing_ns:.4f} ns",
        f"mean effective bits:  {report.effective_bits_mean:.3f}",
        f"timing success rate:  {report.timing_success_rate:.4f}",
        f"mean energy / trial:  {report.energy_mean_j / 1e-15:.2f} fJ",
    ]
    return "\n".join(lines) + "\n"
