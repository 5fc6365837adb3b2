"""Workloads of the tempmem benchmark: generated inputs and untraced passes.

A workload turns a seed into a sequence of round trips (capture, reset
lines, recall, score) and runs them in *passes*.  A sweep's timed pass k is
one `tempmem sweep` of `pass_trials` trials whose variation seed is derived
from (seed, k), so a run covers many distinct trials while each pass stays
short; its check sweep of `trials` trials serves the serial against
`workers=2` comparison and the traced run.  Every array pass repeats the
same round trips.  Re-running a pass must reproduce its rows CSV byte for
byte; only host time differs.

The same array pass code serves the untraced and the traced run: it takes a
tracer, and the untraced run hands it a `NullTracer` whose calls go
straight through.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import math
import sys
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if not (SRC / "tempmem" / "__init__.py").is_file():
    raise SystemExit(f"error: tempmem sources not found under {SRC}")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import tempmem  # noqa: E402
from tempmem import cli  # noqa: E402
from tempmem.crossbar import ArrayConfig, new_array, recall, reset_lines  # noqa: E402
from tempmem.device import DeviceParams  # noqa: E402
from tempmem.recording import capture_native  # noqa: E402
from tempmem.variability import (TIMING_SUCCESS_LEVELS, TrialReport,  # noqa: E402
                                 TrialRow, VariationSpec, random_wavefront,
                                 sample_array, write_trials_csv)
from tempmem.wavefront import (EFFECTIVE_BITS_CAP, effective_bits,  # noqa: E402
                               kendall_tau, normalize, rank_of, timing_error)

if not Path(tempmem.__file__).resolve().is_relative_to(SRC):
    raise SystemExit(f"error: imported tempmem from {tempmem.__file__}, not {SRC}")

# Settings of acceptance criterion 6: a 0.01 ns step moves R by less than
# the 0.1% verify band, so closed-loop programming can land inside it.
DIGITAL_SCENARIO = ("quantizer.kind = counter", "quantizer.t_clk_ns = 1.0",
                    "run.step_ns = 0.01", "run.tol = 0.001",
                    "run.max_iters = 8000")

class CheckFailed(Exception):
    """An output of the program is wrong."""


class NullTracer:
    """Tracer interface with tracing off: every call goes straight through."""

    trip = None

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def count(self, name, n=1):
        pass

    def capture(self, cap):
        pass


@dataclass(frozen=True)
class SweepWorkload:
    """`tempmem sweep` run in-process through cli.main on a generated scenario."""

    name: str
    path: str                  # native | digital
    trials: int                # round trips of the check sweep
    pass_trials: int           # round trips of one timed pass
    channels: int = 8
    cols: int = 4
    span_ns: float = 40.0

    def scenario_text(self, seed: int, workers: int, trials: int) -> str:
        lines = [f"array.rows = {self.channels}", f"array.cols = {self.cols}",
                 f"variation.seed = {seed}", f"run.path = {self.path}",
                 f"run.trials = {trials}", f"run.channels = {self.channels}",
                 f"run.span_ns = {self.span_ns!r}", f"run.workers = {workers}"]
        if self.path == "digital":
            lines += DIGITAL_SCENARIO
        return "\n".join(lines) + "\n"

    def open(self, seed: int, outdir: Path, tracer=None) -> "SweepSession":
        return SweepSession(self, seed, outdir)


@dataclass(frozen=True)
class ArrayWorkload:
    """One rows x cols array with d2d-spread devices: write every column
    natively, then recall and score every column."""

    name: str
    rows: int = 256
    cols: int = 256
    span_ns: float = 40.0

    def open(self, seed: int, outdir: Path, tracer=None) -> "ArraySession":
        return ArraySession(self, seed, outdir, tracer or NullTracer())


# array_256 runs only by hand and is not in BENCHMARK.json: on a shared
# host its throughput spread beyond the 0.15 bound in two of three sets of
# runs, so it gives array-scale per-layer figures but gates nothing.
WORKLOADS = {
    "sweep_native": SweepWorkload("sweep_native", "native", trials=1000,
                                  pass_trials=100),
    "sweep_digital": SweepWorkload("sweep_digital", "digital", trials=48,
                                   pass_trials=1),
    "array_256": ArrayWorkload("array_256"),
}


def pass_seed(seed: int, k: int) -> int:
    """Variation seed of timed pass k of a run with the given seed."""
    return int(np.random.SeedSequence([seed, k]).generate_state(1)[0])


class SweepSession:
    """Scenario files for the serial and workers=2 check sweeps of one seed,
    and for its timed passes."""

    def __init__(self, wl: SweepWorkload, seed: int, outdir: Path):
        self.wl = wl
        self.seed = seed
        self.round_trips = wl.pass_trials
        self.span_ns = wl.span_ns
        self.outdir = outdir
        self.scenarios = {}
        for workers in (1, 2):
            path = outdir / f"scenario_w{workers}.txt"
            path.write_text(wl.scenario_text(seed, workers, wl.trials))
            self.scenarios[workers] = path

    def probe_args(self) -> list[str]:
        return ["sweep", str(self.scenarios[1])]

    def sweep(self, scenario: Path, out: Path) -> bytes:
        """One `tempmem sweep`; returns the bytes of its trials.csv."""
        argv = ["sweep", "--scenario", str(scenario), "--out", str(out)]
        with contextlib.redirect_stdout(io.StringIO()):
            status = cli.main(argv)
        if status != 0:
            raise CheckFailed(f"tempmem {' '.join(argv)} exited with {status}")
        return (out / "trials.csv").read_bytes()

    def run_pass(self, workers: int = 1) -> bytes:
        """The check sweep of `trials` trials."""
        return self.sweep(self.scenarios[workers], self.outdir / f"out_w{workers}")

    def timed_pass(self, k: int):
        """Writes the scenario of timed pass k and returns the pass, ready
        to run and time: a call that returns its trials.csv bytes."""
        path = self.outdir / "scenario_pass.txt"
        path.write_text(self.wl.scenario_text(pass_seed(self.seed, k), 1,
                                              self.wl.pass_trials))
        return lambda: self.sweep(path, self.outdir / "out_pass")


def array_setup(wl: ArrayWorkload, seed: int, tracer=None):
    """Array geometry, per-device params and one input wavefront per column."""
    tracer = tracer or NullTracer()
    rng = np.random.default_rng(seed)
    cfg = ArrayConfig(rows=wl.rows, cols=wl.cols)
    inputs = [tracer.call("variability.random_wavefront", random_wavefront,
                          rng, wl.rows, wl.span_ns) for _ in range(wl.cols)]
    grid = tracer.call("variability.sample_array", sample_array, DeviceParams(),
                       VariationSpec(seed=seed), wl.rows, wl.cols, rng=rng)
    tracer.count("variability.sample_array_cells", wl.rows * wl.cols)
    return cfg, grid, inputs


def score(tracer, trial: int, w, recalled, cap, energy, rows: int) -> TrialRow:
    """Score one recalled wavefront against its input, as round_trip does."""
    in_n = tracer.call("wavefront.normalize", normalize, w)
    out_n = tracer.call("wavefront.normalize", normalize, recalled)
    tau = tracer.call("wavefront.kendall_tau", kendall_tau,
                      tracer.call("wavefront.rank_of", rank_of, in_n),
                      tracer.call("wavefront.rank_of", rank_of, out_n))
    rms, max_abs = tracer.call("wavefront.timing_error", timing_error, in_n, out_n)
    bits = effective_bits(w.span, rms) if w.span > 0 else EFFECTIVE_BITS_CAP
    return TrialRow(trial=trial, tau=tau, rms_ns=rms, max_abs_ns=max_abs,
                    bits=bits, write_energy_j=cap.write_energy,
                    recall_energy_j=energy.per_line * rows,
                    converged=all(cap.converged),
                    window_exceeded=cap.window_exceeded)


def array_pass(cfg, grid, inputs, tracer=None) -> list[TrialRow]:
    """Fresh array, a native write into every column, reset, then recall and
    score every column.  A column written, recalled and scored is one round
    trip; its trial number is the column index."""
    tracer = tracer or NullTracer()
    state = tracer.call("crossbar.new_array", new_array, cfg, grid)
    caps = {}
    for col in range(cfg.cols):
        tracer.trip = col
        state, caps[col] = tracer.call("recording.capture_native", capture_native,
                                       state, cfg, grid, col, inputs[col])
        tracer.capture(caps[col])
    tracer.trip = None
    state = tracer.call("crossbar.reset_lines", reset_lines, state)
    rows = []
    for col in range(cfg.cols):
        tracer.trip = col
        recalled, energy = tracer.call("crossbar.recall", recall, state, cfg, col)
        rows.append(score(tracer, col, inputs[col], recalled, caps[col], energy,
                          cfg.rows))
    tracer.trip = None
    return rows


class ArraySession:
    """A sampled array and its inputs."""

    def __init__(self, wl: ArrayWorkload, seed: int, outdir: Path, tracer):
        self.wl = wl
        self.seed = seed
        self.round_trips = wl.cols
        self.span_ns = wl.span_ns
        self.outdir = outdir
        self.cfg, self.grid, self.inputs = array_setup(wl, seed, tracer)

    def probe_args(self) -> list[str]:
        return ["array", str(self.wl.rows), str(self.wl.cols),
                repr(self.wl.span_ns), str(self.seed)]

    def run_pass(self, tracer=None) -> bytes:
        rows = array_pass(self.cfg, self.grid, self.inputs, tracer)
        return rows_csv(rows, self.outdir / "trials.csv")

    def timed_pass(self, k: int):
        """Every timed pass is the same pass."""
        return self.run_pass


def rows_csv(rows, path: Path) -> bytes:
    """Rows in the CLI's trials.csv format, as bytes."""
    write_trials_csv(path, rows)
    return path.read_bytes()


def rows_digest(data: bytes) -> int:
    """First 52 bits of the SHA-256 of a rows CSV: exact as a JSON number."""
    return int(hashlib.sha256(data).hexdigest()[:13], 16)


def check_rows(data: bytes, expected: int) -> list[TrialRow]:
    """Parse a trials.csv and check every round trip's outputs."""
    rows = [TrialRow(trial=int(r["trial"]), tau=float(r["tau"]),
                     rms_ns=float(r["rms_ns"]), max_abs_ns=float(r["max_abs_ns"]),
                     bits=float(r["bits"]),
                     write_energy_j=float(r["write_energy_j"]),
                     recall_energy_j=float(r["recall_energy_j"]),
                     converged=r["converged"] == "1",
                     window_exceeded=r["window_exceeded"] == "1")
            for r in csv.DictReader(io.StringIO(data.decode()))]
    if [r.trial for r in rows] != list(range(expected)):
        raise CheckFailed(f"rows are not trials 0..{expected - 1}: "
                          f"{len(rows)} rows, round trips dropped or reordered")
    for r in rows:
        energy = r.write_energy_j + r.recall_energy_j
        if not -1.0 <= r.tau <= 1.0:
            raise CheckFailed(f"trial {r.trial}: tau {r.tau} outside [-1, 1]")
        if not math.isfinite(r.rms_ns):
            raise CheckFailed(f"trial {r.trial}: rms {r.rms_ns} is not finite")
        if not energy > 0.0:
            raise CheckFailed(f"trial {r.trial}: energy {energy} is not positive")
    return rows


def summarize(rows, span_ns: float) -> TrialReport:
    """The TrialReport of a pass of rows, aggregated as monte_carlo
    aggregates its own.  Only array_256 needs it: it has no monte_carlo
    report of its own."""
    n = len(rows)
    taus = [r.tau for r in rows]
    rmss = [r.rms_ns for r in rows]
    success_rms = span_ns / TIMING_SUCCESS_LEVELS
    return TrialReport(
        n_trials=n,
        rank_exact_rate=sum(1 for t in taus if t == 1.0) / n,
        mean_tau=sum(taus) / n,
        rms_timing_ns=sum(rmss) / n,
        effective_bits_mean=sum(r.bits for r in rows) / n,
        timing_success_rate=sum(1 for r in rmss if r <= success_rms) / n,
        energy_mean_j=sum(r.write_energy_j + r.recall_energy_j for r in rows) / n,
    )

