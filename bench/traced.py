"""Traced run: spans around each call into a tempmem layer, and the
per-layer report built from them.

The traced sweep runner repeats what `tempmem sweep` does (load the
scenario, run each Monte Carlo trial's round trip, write the CSVs) but
calls each layer's public functions itself, so every call gets a span.
Its rows must equal those of `variability.monte_carlo` byte for byte;
that check is what shows the traced runner runs the same program.
"""

from __future__ import annotations

import csv
import statistics
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

import numpy as np

from workloads import CheckFailed, score
from tempmem.crossbar import base_params, new_array, recall, reset_lines
from tempmem.recording import (QuantizerSpec, capture_native, default_slope,
                               matched_capacitance, program_closed_loop,
                               quantize)
from tempmem.scenario import load_scenario
from tempmem.variability import (format_trial_report, perturb_pulse,
                                 random_wavefront, sample_array,
                                 write_trial_report_csv, write_trials_csv)

# Every span name a traced run can record, in call order.
SPAN_NAMES = (
    "scenario.load", "bench.round_trip", "variability.random_wavefront",
    "variability.sample_array", "crossbar.new_array", "recording.capture_native",
    "recording.capture_digital", "recording.quantize",
    "recording.program_closed_loop", "crossbar.reset_lines", "crossbar.recall",
    "wavefront.normalize", "wavefront.rank_of", "wavefront.kendall_tau",
    "wavefront.timing_error", "cli.write_csv",
)

COUNT_NAMES = (
    "variability.sample_array_cells", "variability.pulse_noise_draws",
    "recording.pulses", "recording.pulses_per_channel_max",
    "recording.channels_attempted", "recording.unconverged_channels",
    "recording.window_exceeded",
)

PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
MIN_BEYOND = 10


class Tracer:
    """Spans and counts of one pass, kept in memory.

    A span is (name, start_ns, end_ns, parent index or -1, round-trip id).
    """

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.trip = None
        self._stack = []

    @contextmanager
    def span(self, name):
        index = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(index)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent, self.trip)

    def call(self, name, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)

    def count(self, name, n=1):
        self.counts[name] += n

    def capture(self, cap):
        """Count the pulses and outcomes of one capture."""
        c = self.counts
        c["recording.pulses"] += sum(cap.iterations)
        c["recording.pulses_per_channel_max"] = max(
            c["recording.pulses_per_channel_max"], max(cap.iterations))
        c["recording.channels_attempted"] += len(cap.converged)
        c["recording.unconverged_channels"] += cap.converged.count(False)
        c["recording.window_exceeded"] += int(cap.window_exceeded)

    def self_times(self) -> list[tuple[str, int, int]]:
        """(name, duration_ns, self_ns) per span: self time is the duration
        minus the time its direct children cover."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        return [(name, end - start, end - start - child_ns[i])
                for i, (name, start, end, _, _) in enumerate(self.spans)]


def load_sweep(path: Path):
    """Scenario to Monte Carlo arguments, as `tempmem sweep` derives them."""
    scenario = load_scenario(path)
    cfg = scenario.array
    if scenario.run.channels != cfg.rows:
        cfg = replace(cfg, rows=scenario.run.channels)
    return (cfg, scenario.device, scenario.variation, scenario.run.trials,
            scenario.sweep_settings())


def traced_trial(tr: Tracer, index, seed_seq, cfg, base, spec, s):
    """One Monte Carlo trial with a span per layer call (mirrors
    variability._run_trial and recording.round_trip)."""
    tr.trip = index
    with tr.span("bench.round_trip"):
        rng = np.random.default_rng(seed_seq)
        w = tr.call("variability.random_wavefront", random_wavefront, rng,
                    s.n_channels, s.span_ns)
        grid = tr.call("variability.sample_array", sample_array, base, spec,
                       cfg.rows, cfg.cols, rng=rng)
        tr.count("variability.sample_array_cells", cfg.rows * cfg.cols)

        def noise(d):
            tr.counts["variability.pulse_noise_draws"] += 1
            return perturb_pulse(d, spec, rng)

        state = tr.call("crossbar.new_array", new_array, cfg, grid)
        if s.path == "native":
            state, cap = tr.call("recording.capture_native", capture_native,
                                 state, cfg, grid, s.column, w, s.v_write,
                                 window_ns=s.window_ns, pulse_noise=noise)
        else:
            with tr.span("recording.capture_digital"):
                q = s.quantizer if s.quantizer is not None else QuantizerSpec()
                slope = s.slope if s.slope is not None else default_slope(q.t_clk)
                counts = tr.call("recording.quantize", quantize, w, q).effective_counts(q)
                r_on = base_params(grid).r_on
                state, cap = tr.call(
                    "recording.program_closed_loop", program_closed_loop, state,
                    cfg, grid, s.column, [r_on + slope * c for c in counts],
                    tol=s.tol, v_write=s.v_write, step=s.step_ns,
                    max_iters=s.max_iters, pulse_noise=noise)
                if w.span > s.window_ns:
                    cap = replace(cap, window_exceeded=True)
        tr.capture(cap)
        state = tr.call("crossbar.reset_lines", reset_lines, state)
        if s.scale_cap == "matched":
            delta_r = max(cap.final_resistances) - min(cap.final_resistances)
            c_used = matched_capacitance(w.span, delta_r, cfg)
        elif s.scale_cap is None or s.scale_cap == "none":
            c_used = cfg.c_line
        else:
            c_used = float(s.scale_cap)
        recalled, energy = tr.call("crossbar.recall", recall, state,
                                   replace(cfg, c_line=c_used), s.column)
        row = score(tr, index, w, recalled, cap, energy, cfg.rows)
    tr.trip = None
    return row


def traced_sweep_pass(tr: Tracer, scenario_path: Path, outdir: Path, report):
    """The traced equivalent of one `tempmem sweep`.  `report` is the
    TrialReport that `monte_carlo` gave for the same scenario; it is written
    as the CLI writes it, so the write span does the CLI's work.

    Returns (rows, trials.csv bytes, wall time of the trial loop in s).
    """
    cfg, base, spec, n, settings = tr.call("scenario.load", load_sweep, scenario_path)
    children = np.random.SeedSequence(spec.seed).spawn(n)
    t0 = time.perf_counter()
    rows = tuple(traced_trial(tr, i, children[i], cfg, base, spec, settings)
                 for i in range(n))
    loop_s = time.perf_counter() - t0
    outdir.mkdir(parents=True, exist_ok=True)
    with tr.span("cli.write_csv"):
        write_trial_report_csv(outdir / "trial_report.csv", report)
        write_trials_csv(outdir / "trials.csv", rows)
        (outdir / "trial_report.txt").write_text(format_trial_report(report))
    return rows, (outdir / "trials.csv").read_bytes(), loop_s


def high_percentile(values) -> tuple[float, float]:
    """(level, value) of the highest listed percentile that has at least
    MIN_BEYOND samples beyond it; (0, 0) when there are too few samples."""
    for level in PERCENTILES:
        if len(values) * (1.0 - level / 100.0) >= MIN_BEYOND:
            return level, float(np.percentile(values, level))
    return 0.0, 0.0


def span_metrics(groups: list[Tracer]) -> tuple[dict[str, float], dict[str, str]]:
    """Per span name: self time and calls per pass (median over the passes
    that record the name), and the median and high percentile of the span
    durations pooled over all passes.  The second dict gives, per span
    name, the level of that percentile and the number of samples."""
    per_group = []
    durations = {name: [] for name in SPAN_NAMES}
    for tr in groups:
        self_s, calls = Counter(), Counter()
        for name, dur_ns, self_ns in tr.self_times():
            if name not in durations:
                raise CheckFailed(f"span {name!r} is not in SPAN_NAMES")
            self_s[name] += self_ns * 1e-9
            calls[name] += 1
            durations[name].append(dur_ns * 1e-9)
        per_group.append((self_s, calls))
    metrics, levels = {}, {}
    for name in SPAN_NAMES:
        present = [(s[name], c[name]) for s, c in per_group if c[name]]
        level, high = high_percentile(durations[name])
        metrics[f"{name}_s"] = statistics.median(s for s, _ in present) if present else 0.0
        metrics[f"{name}.calls"] = statistics.median(c for _, c in present) if present else 0
        metrics[f"{name}.median_s"] = (statistics.median(durations[name])
                                       if durations[name] else 0.0)
        metrics[f"{name}.p_high_s"] = high
        levels[name] = f"p{level:g} of {len(durations[name])}"
    return metrics, levels


def write_spans(groups: list[Tracer], path: Path) -> None:
    """All spans of the run as CSV; group 0 is set-up when a workload has one."""
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["group", "index", "name", "start_ns", "end_ns",
                         "parent", "trip"])
        for g, tr in enumerate(groups):
            for i, (name, start, end, parent, trip) in enumerate(tr.spans):
                writer.writerow([g, i, name, start, end, parent,
                                 "" if trip is None else trip])
