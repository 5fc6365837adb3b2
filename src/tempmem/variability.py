"""Stochastic device spreads and the Monte Carlo round-trip harness.

Device-to-device variation multiplies each device's ON resistance by a
mean-one lognormal factor; cycle-to-cycle variation multiplies each
programming pulse's effective duration the same way.  Both are positive
quantities, so multiplicative lognormal noise is the natural choice for
percentage-level spreads.

Every trial draws from its own stream spawned from the master seed, so
a sweep gives bit-identical results whether trials run serially or
across worker processes.
"""

from __future__ import annotations

import csv
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .crossbar import ArrayConfig
from .device import DeviceParams
from .recording import QuantizerSpec, RoundTripResult, round_trip
from .wavefront import Wavefront

# Success threshold for exact-timing codes: rms no worse than half an LSB
# of a 5-bit code across the span, i.e. rms <= span / 64.
TIMING_SUCCESS_LEVELS = 64.0


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


def _log_moments(sigma_rel: float) -> tuple[float, float]:
    """Mean and std-dev of the log of a mean-one lognormal multiplier with
    relative std-dev sigma_rel; sigma 0 gives exactly (0, 0)."""
    s2 = math.log1p(sigma_rel * sigma_rel)
    return -0.5 * s2, math.sqrt(s2)


def sample_array(base: DeviceParams, spec: VariationSpec, rows: int, cols: int,
                 rng: np.random.Generator | None = None) -> DeviceParams:
    """`base` with a rows x cols r_on grid, lognormally spread per device."""
    if rng is None:
        rng = np.random.default_rng(spec.seed)
    mu, sd = _log_moments(spec.d2d_sigma)
    x = mu + sd * rng.standard_normal((rows, cols))
    # math.exp, not np.exp: numpy's SIMD exp differs in the last bit.
    factor = np.array([math.exp(v) for v in x.ravel().tolist()]).reshape(x.shape)
    return replace(base, r_on=base.r_on * factor)


def c2c_noise(spec: VariationSpec, rng: np.random.Generator) -> Callable[[float], float]:
    """The cycle-to-cycle noise of a stream of programming pulses: each
    call maps a duration to its effective duration after one lognormal
    draw from `rng`.  A draw is taken even at sigma 0, so the stream
    position is independent of sigma."""
    mu, sd = _log_moments(spec.c2c_sigma)
    draw, exp = rng.standard_normal, math.exp

    def noise(duration: float) -> float:
        if duration < 0:
            raise ValueError("duration must be non-negative")
        return duration * exp(mu + sd * draw())

    return noise


def perturb_pulse(duration: float, spec: VariationSpec,
                  rng: np.random.Generator | None = None) -> float:
    """One programming pulse's effective duration after c2c noise."""
    if rng is None:
        rng = np.random.default_rng(spec.seed)
    return c2c_noise(spec, rng)(duration)


def random_wavefront(rng: np.random.Generator, n_channels: int,
                     span_ns: float) -> Wavefront:
    """Random wavefront with exactly the requested span: one channel at 0,
    one at span, the rest uniform in between, all shuffled."""
    if n_channels < 1:
        raise ValueError("need at least one channel")
    if n_channels == 1:
        return Wavefront((0.0,))
    vals = np.concatenate(([0.0, span_ns], rng.uniform(0.0, span_ns, n_channels - 2)))
    return Wavefront(tuple(vals[rng.permutation(n_channels)]))


@dataclass(frozen=True)
class SweepSettings:
    """Round-trip configuration shared by every trial of a sweep."""

    n_channels: int = 8
    span_ns: float = 40.0
    path: str = "native"
    quantizer: QuantizerSpec | None = None
    slope: float | None = None
    tol: float = 1e-3
    step_ns: float = 1.0
    max_iters: int = 500
    v_write: float | None = None
    scale_cap: str | float | None = "matched"
    window_ns: float = 40.0
    column: int = 0


def _run_trial(args) -> TrialRow:
    index, seed_seq, cfg, base, spec, settings = args
    rng = np.random.default_rng(seed_seq)
    w = random_wavefront(rng, settings.n_channels, settings.span_ns)
    grid = sample_array(base, spec, cfg.rows, cfg.cols, rng=rng)
    noise = c2c_noise(spec, rng)
    rt: RoundTripResult = round_trip(
        w, cfg, grid, path=settings.path, col=settings.column,
        v_write=settings.v_write, quantizer=settings.quantizer,
        slope=settings.slope, tol=settings.tol, step=settings.step_ns,
        max_iters=settings.max_iters, scale_cap=settings.scale_cap,
        window_ns=settings.window_ns, pulse_noise=noise)
    recall_total = rt.recall_energy.per_line * cfg.rows
    return TrialRow(
        trial=index, tau=rt.tau, rms_ns=rt.rms_ns, max_abs_ns=rt.max_abs_ns,
        bits=rt.bits, write_energy_j=rt.capture.write_energy,
        recall_energy_j=recall_total, converged=all(rt.capture.converged),
        window_exceeded=rt.capture.window_exceeded)


def monte_carlo(cfg: ArrayConfig, base: DeviceParams, spec: VariationSpec,
                n_trials: int, settings: SweepSettings = SweepSettings(), *,
                workers: int = 1) -> tuple[TrialReport, tuple[TrialRow, ...]]:
    """Run independent capture/recall trials on freshly sampled arrays.

    Fully reproducible from spec.seed; workers > 1 fans trials out to a
    process pool without changing any result.
    """
    if n_trials < 1:
        raise ValueError("n_trials must be at least 1")
    children = np.random.SeedSequence(spec.seed).spawn(n_trials)
    jobs = [(i, children[i], cfg, base, spec, settings) for i in range(n_trials)]
    if workers > 1:
        chunk = max(1, n_trials // (workers * 4))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = tuple(pool.map(_run_trial, jobs, chunksize=chunk))
    else:
        rows = tuple(_run_trial(job) for job in jobs)
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
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(_REPORT_FIELDS)
        writer.writerow([report.n_trials] +
                        [repr(getattr(report, k)) for k in _REPORT_FIELDS[1:]])


def write_trials_csv(path, rows) -> None:
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["trial", "tau", "rms_ns", "max_abs_ns", "bits",
                         "write_energy_j", "recall_energy_j", "converged",
                         "window_exceeded"])
        for r in rows:
            writer.writerow([r.trial, repr(r.tau), repr(r.rms_ns),
                             repr(r.max_abs_ns), repr(r.bits),
                             repr(r.write_energy_j), repr(r.recall_energy_j),
                             int(r.converged), int(r.window_exceeded)])


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
