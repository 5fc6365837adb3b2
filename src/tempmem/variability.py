"""Stochastic device spreads and the Monte Carlo round-trip harness.

Device-to-device variation multiplies each device's ON resistance by a
mean-one lognormal factor, cycle-to-cycle variation each pulse's duration:
positive quantities with percentage-level spreads.  With s2 = log1p(sigma**2)
and z standard normal, a factor is libm's exp(-s2/2 + sqrt(s2) z), not numpy's
exp, which differs in the last bit: `_spread` calls libm's through scipy's
`inv_boxcox` at lambda 0, as `device` states, and `sample_array` and
`perturb_pulse` draw it by `Generator.lognormal`.

Trial k of a sweep draws from the PCG64 stream of
`SeedSequence(seed).spawn(n)[k]`, in this order: the input wavefront
(`random_wavefront`'s draws), the rows x cols r_on grid (`sample_array`'s),
then the cycle-to-cycle noise of its capture (`perturb_pulse`'s: one draw per
row for a native capture, the closed loop's blocks for a digital one).
A block hashes its trials' spawn keys into PCG64 seed words as numpy
would, over the whole block at once, and each trial's PCG64 seeds itself
from its words (`_trial_generators`).
A key is one 32-bit word, as `SweepSettings` keeps trials below 2**32:
a sweep holds every row in memory, and 2**32 rows would take terabytes.
So a sweep gives bit-identical results whether trials run serially or
across worker processes, and whatever blocks they run in.

`monte_carlo` runs trials in blocks of at most _BLOCK_CELLS devices
(trials x rows x cols).  Within a block only the draws loop over trials;
everything else works on arrays with a leading trials axis: the r_on
grids and noise factors, capture (`recording._capture_rows`, of which
`capture` is the one-row case), recall and scoring
(`recording.recall_and_score`).  A capture writes one column, so only
that column's d2d draws are spread into r_on; the rest of the grid keeps
its r_on check (`_check_spread`) from the block's extreme draws.  Native
noise is one `_spread` of the block's c2c draws, trials x rows; a digital
trial's closed loop draws from its own generator (`perturb_pulse`).  Each
trial's row is bit-identical to a `round_trip` of the same draws.
"""

from __future__ import annotations

import math
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields, replace
from functools import cache, partial, reduce
from itertools import chain
from operator import add
from typing import NamedTuple

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .crossbar import ArrayConfig, r_on_grid
from .device import DeviceParams, check_r_on, inv_boxcox, _fj
from .recording import SweepSettings, recall_and_score, _capture_rows
from .wavefront import Wavefront, write_csv, _fixed

# Success threshold for exact-timing codes: rms no worse than half an LSB
# of a 5-bit code across the span, i.e. rms <= span / 64.
TIMING_SUCCESS_LEVELS = 64.0

# Most devices (trials x rows x cols) one block of a sweep holds at once:
# the memory bound of the batched engine.
_BLOCK_CELLS = 1 << 16

# numpy's SeedSequence hash constants (NEP 19 keeps its algorithm stable).
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43b0d7e5, 0x931e8875, 0x8b51f9dd, 0x58f38ded
_MIX_L, _MIX_R, _M32 = 0xca01f9dd, 0x4973f715, (1 << 32) - 1


@cache
def _hash_steps(h: int, mult: int, skip: int, n: int) -> np.ndarray:
    """(xor, multiplier) of n SeedSequence hash steps after `skip` steps from
    constant h, times mult at each step, as a read-only n x 2 uint64 array
    (cached: few arguments ever occur)."""
    h = h * pow(mult, skip, 1 << 32) & _M32
    steps = np.array([(h, h := h * mult & _M32) for _ in range(n)], np.uint64)
    steps.flags.writeable = False
    return steps


class _SeedWords(ISeedSequence):
    """A seed sequence that hands PCG64 its 4 seed words as given."""

    def __init__(self, words: np.ndarray):
        self.words = words  # C-contiguous: PCG64 reads the raw buffer

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


def _trial_generators(seed: int, first: int, count: int):
    """`default_rng(SeedSequence(seed).spawn(n)[k])` for k = first ..
    first + count - 1, one at a time.  Child k mixes its spawn key, one
    32-bit word, into the root's entropy pool (numpy's `hashmix` and `mix`)
    and hashes the pool into PCG64's 4 seed words (`generate_state`), here
    over the whole block at once, in uint64 masked to 32 bits: a product of
    two 32-bit values fits in 64 bits and 2**32 divides 2**64, so the low
    word is exact."""
    keys = np.arange(first, first + count, dtype=np.uint64)
    root = np.random.SeedSequence(seed).pool.astype(np.uint64)[:, None]
    # The root's pool took 4 hash steps per seed word, at least 16; the
    # key's 4 more (x, m) mix it into the 4 pool words at once.
    keyed = _hash_steps(_INIT_A, _MULT_A, 4 * max(4, -(-int(seed).bit_length() // 32)), 4)
    v = (keys ^ keyed[:, :1]) * keyed[:, 1:] & _M32
    v = _MIX_L * root - _MIX_R * (v ^ v >> 16) & _M32
    pool = v ^ v >> 16
    hashed = _hash_steps(_INIT_B, _MULT_B, 0, 8)
    o = (pool[[0, 1, 2, 3, 0, 1, 2, 3]] ^ hashed[:, :1]) * hashed[:, 1:] & _M32
    o ^= o >> 16
    # Little-endian word pairs, copied into one C-contiguous row per trial.
    for words in (o[0::2] | o[1::2] << 32).T.copy():
        yield np.random.Generator(np.random.PCG64(_SeedWords(words)))


@dataclass(frozen=True)
class VariationSpec:
    """Relative spreads and the seed of the deterministic random stream."""

    d2d_sigma: float = 0.01    # device-to-device, on r_on
    c2c_sigma: float = 0.042   # cycle-to-cycle, on pulse duration
    seed: int = 0

    def __post_init__(self):
        # Written so that nan fails it; _spread takes each sigma's square.
        if not all(0 <= x and x * x < math.inf
                   for x in (self.d2d_sigma, self.c2c_sigma)):
            raise ValueError("sigmas must be non-negative with a finite square")
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


class TrialRow(NamedTuple):
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
    return nominal * inv_boxcox(-0.5 * s2 + math.sqrt(s2) * z, 0.0, dtype=float)


# Relative slack of `_check_spread`'s bounds, far above the few ulps of
# rounding they can be off by.
_SLACK = 1e-9


def _check_spread(base: DeviceParams, sigma_rel: float, z: np.ndarray) -> None:
    """check_r_on's verdict on `_spread(base.r_on, sigma_rel, z)`, without
    spreading every device when the extremes are clear of the bounds.
    In z's exponent the spread's `+` and `*` by sqrt(s2) >= 0 are
    monotone, as is the product with a positive nominal; libm's exp is
    within an ulp of exp, which is monotone.  So every device lies within
    a few ulps of [min nominal x factor(min z), max nominal x factor(max z)],
    and within _SLACK of it the grid is spread and checked in full."""
    r_on = np.asarray(base.r_on)
    lo, hi = _spread(np.array([r_on.min(), r_on.max()]), sigma_rel,
                     np.array([z.min(), z.max()])).tolist()
    # Written so that nan takes the full check.
    if not (np.finfo(float).tiny < lo * _SLACK
            and hi * (1 + _SLACK) < base.r_off_max < math.inf):
        check_r_on(_spread(base.r_on, sigma_rel, z), base.r_off_max)


def sample_array(base: DeviceParams, spec: VariationSpec, rows: int, cols: int,
                 rng: np.random.Generator) -> DeviceParams:
    """`base` with a rows x cols r_on grid, each r_on times a `_spread`
    factor that `Generator.lognormal` draws from `rng` in C, bit for bit."""
    if rows < 1 or cols < 1:
        raise ValueError(f"need rows >= 1 and cols >= 1, got {rows} x {cols}")
    s2 = math.log1p(spec.d2d_sigma * spec.d2d_sigma)
    r_on = base.r_on * rng.lognormal(-0.5 * s2, math.sqrt(s2), (rows, cols))
    return replace(base, r_on=r_on)


def perturb_pulse(duration: float | np.ndarray, spec: VariationSpec,
                  rng: np.random.Generator) -> float | np.ndarray:
    """Non-negative pulse durations times `_spread`'s cycle-to-cycle factors,
    drawn in order from `rng` by `Generator.lognormal`: a float for a float,
    an array of its shape for an array.  One call on n durations takes the
    same draws, and gives the same values, as n calls on one each.  Sigma 0
    still takes a draw, so the stream position is independent of sigma.  With
    `spec` and `rng` bound (`functools.partial`) it is a `PulseNoise`."""
    durations = np.asarray(duration, dtype=float)
    if not (durations >= 0).all():  # written so that nan fails it
        raise ValueError("duration must be non-negative")
    s2 = math.log1p(spec.c2c_sigma * spec.c2c_sigma)
    out = durations * rng.lognormal(-0.5 * s2, math.sqrt(s2), durations.shape)
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
    """The rows of trials first .. first + count - 1.  Each trial's
    generator draws its wavefront, then in one call its r_on grid and, if
    native, c2c noise; a digital trial keeps it for its closed loop."""
    first, count, cfg, base, spec, s = args
    n, cells, native = s.channels, cfg.rows * cfg.cols, s.path == "native"
    # Each trial's times before the shuffle (0, span, n - 2 uniforms) and
    # its channel order; `permutation(n)` too shuffles an arange(n).
    # `uniform(0, span)` is 0.0 + span * `random()`: the block scales once.
    vals = np.zeros((count, n))
    vals[:, 1:] = s.span_ns
    order = np.empty((count, n), dtype=np.intp)
    order[:] = np.arange(n)
    z = np.empty((count, cells + cfg.rows * native))
    rngs = []
    for k, rng in enumerate(_trial_generators(spec.seed, first, count)):
        if n > 1:  # one channel sits at 0 with no draw
            rng.random(out=vals[k, 2:])
            rng.shuffle(order[k])
        rng.standard_normal(out=z[k])
        if not native:
            rngs.append(rng)
    vals[:, 2:] *= s.span_ns
    # np.take_along_axis(vals, order, -1), without its index building
    times = vals[np.arange(count)[:, None], order]
    z_grid = z[:, :cells].reshape(count, cfg.rows, cfg.cols)
    # Only the captured column is spread; the grid keeps its r_on check.
    _check_spread(base, spec.d2d_sigma, z_grid)
    nominal = r_on_grid(base, cfg)
    r_on = _spread(nominal[:, s.column], spec.d2d_sigma, z_grid[..., s.column])
    # Digital targets start from device (0, 0)'s spread r_on, as `capture`
    # takes it, until they suit each device (ROADMAP item 3).
    r_base = _spread(nominal[0, 0], spec.d2d_sigma, z_grid[:, 0, 0]).tolist()
    noise = (partial(_spread, sigma_rel=spec.c2c_sigma, z=z[:, cells:]) if native
             else [partial(perturb_pulse, spec=spec, rng=rng) for rng in rngs])
    _, resistances, write_energy, _, converged, window_exceeded = _capture_rows(
        times, r_on, r_base, base, s, noise)
    rt = recall_and_score(times, resistances, cfg, s.scale_cap)
    return list(map(TrialRow._make, zip(
        range(first, first + count), rt.tau.tolist(), rt.rms_ns.tolist(),
        rt.max_abs_ns.tolist(), rt.bits.tolist(), write_energy.tolist(),
        (rt.per_line * cfg.rows).tolist(), converged.all(axis=-1).tolist(),
        window_exceeded.tolist())))


def _mean(values, n: int) -> float:
    """The sum of `values` over n, summed as a plain left fold from 0, as
    builtin `sum` does before Python 3.12 (which compensates float sums),
    so that a report has the same bits on every interpreter."""
    return reduce(add, values, 0) / n


def monte_carlo(cfg: ArrayConfig, base: DeviceParams, spec: VariationSpec,
                n_trials: int, settings: SweepSettings = SweepSettings(), *,
                workers: int = 1) -> tuple[TrialReport, tuple[TrialRow, ...]]:
    """Run independent capture/recall trials on freshly sampled arrays,
    each the equal of a `round_trip` with `settings` on a random wavefront
    of `settings.channels` channels; n_trials and workers stand in for
    settings.trials and settings.workers, and are checked as they are.

    Fully reproducible from spec.seed (see the module docstring); workers
    > 1 runs one (first, count) block of trials per process, more if a
    block would pass _BLOCK_CELLS devices, in a pool of at most one process
    per usable CPU and per block, and none for one block; no result changes.
    """
    settings = replace(settings, trials=n_trials, workers=workers)
    if settings.channels != cfg.rows:
        raise ValueError(f"wavefront has {settings.channels} channels, array "
                         f"has {cfg.rows} rows")
    if not settings.column < cfg.cols:
        raise ValueError(f"column {settings.column} out of range 0..{cfg.cols - 1}")
    if workers > 1:  # at most one process per CPU this process may use
        workers = min(workers, len(os.sched_getaffinity(0)) if hasattr(
            os, "sched_getaffinity") else os.cpu_count() or 1)
    # One block per worker, as far as the memory bound allows.
    size = max(1, min(_BLOCK_CELLS // (cfg.rows * cfg.cols), -(-n_trials // workers)))
    jobs = [(i, min(size, n_trials - i), cfg, base, spec, settings)
            for i in range(0, n_trials, size)]
    # Fork starts every worker on the first submit: no more than the jobs.
    if workers > 1 and len(jobs) > 1:
        # Fork where the platform has it: forkserver or spawn re-imports
        # tempmem in each worker, about 0.5 s.
        context = multiprocessing.get_context(
            "fork" if "fork" in multiprocessing.get_all_start_methods() else None)
        with ProcessPoolExecutor(min(workers, len(jobs)), context) as pool:
            rows = tuple(chain.from_iterable(pool.map(_run_block, jobs)))
    else:
        rows = tuple(chain.from_iterable(map(_run_block, jobs)))
    success_rms = settings.span_ns / TIMING_SUCCESS_LEVELS
    report = TrialReport(
        n_trials=n_trials,
        rank_exact_rate=_mean((r.tau == 1.0 for r in rows), n_trials),
        mean_tau=_mean((r.tau for r in rows), n_trials),
        rms_timing_ns=_mean((r.rms_ns for r in rows), n_trials),
        effective_bits_mean=_mean((r.bits for r in rows), n_trials),
        timing_success_rate=_mean((r.rms_ns <= success_rms for r in rows), n_trials),
        energy_mean_j=_mean((r.write_energy_j + r.recall_energy_j for r in rows),
                            n_trials),
    )
    return report, rows


def write_trial_report_csv(path, report: TrialReport) -> None:
    names = [f.name for f in fields(TrialReport)]
    write_csv(path, names, [[getattr(report, k) for k in names]])


def write_trials_csv(path, rows) -> None:
    """Write the rows under `TrialRow`'s field names, each flag as 0 or 1."""
    write_csv(path, TrialRow._fields,
              ((*r[:-2], int(r.converged), int(r.window_exceeded)) for r in rows))


def format_trial_report(report: TrialReport) -> str:
    """Human-readable sweep summary."""
    lines = [
        f"trials:               {report.n_trials}",
        f"rank exact rate:      {report.rank_exact_rate:.4f}",
        f"mean kendall tau:     {report.mean_tau:.4f}",
        f"mean rms timing:      {_fixed(report.rms_timing_ns, 4)} ns",
        f"mean effective bits:  {report.effective_bits_mean:.3f}",
        f"timing success rate:  {report.timing_success_rate:.4f}",
        f"mean energy / trial:  {_fixed(_fj(report.energy_mean_j), 2)} fJ",
    ]
    return "\n".join(lines) + "\n"
