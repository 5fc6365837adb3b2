"""tempmem benchmark: round-trip throughput, set-up time and memory per
workload, or (with --trace 1) the per-layer report of a traced run.

Usage, from the repository root:

    python3 bench/run.py --workload sweep_native --seed 1 --seconds 30 --trace 0

All times are host time of the simulator; nothing here is simulated time.
The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; the metric names and units are
those declared in BENCHMARK.json.  The run exits non-zero if a check of
the program's outputs fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import asdict
from pathlib import Path

import hostspeed
import workloads
from workloads import (ROOT, WORKLOADS, CheckFailed, SweepWorkload, check_rows,
                       rows_digest)

SETUP_PROBES = 15
PROBE_TIMEOUT_S = 60.0
OUT_DIR = ROOT / ".bench_out"


def environment(wl, seed: int, seconds: float, trace: int) -> dict:
    import numpy
    import scipy
    return {
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "tempmem": workloads.tempmem.__version__,
        "nproc": len(os.sched_getaffinity(0)), "cpu": cpu_model(),
        "commit": git_commit(), "seed": seed, "seconds": seconds,
        "trace": trace, "workload": {"kind": type(wl).__name__, **asdict(wl)},
    }


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def git_commit() -> str:
    """HEAD of the checkout read from .git directly; 'unknown' outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def time_to_ready(argv: list[str]) -> float:
    """Seconds from starting a process to its first line, which must be
    'ready'; the process is then read to its end and waited for."""
    t0 = time.perf_counter()
    with subprocess.Popen(argv, stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
        status = proc.wait(timeout=PROBE_TIMEOUT_S)
    if line.strip() != "ready" or status != 0:
        raise CheckFailed(f"process {argv[1:]} failed with status {status}")
    return elapsed


def probe_setup(session) -> tuple[float, float]:
    """One set-up probe and the start-up reference timed right after it.
    The probe is a fresh process timed from its start to the point where
    its first round trip can start: interpreter, imports and the
    workload's set-up."""
    probe = [sys.executable, str(Path(__file__).with_name("probe.py")),
             *session.probe_args()]
    return (time_to_ready(probe),
            time_to_ready([sys.executable, "-c", hostspeed.START_CODE]))


def quartiles(values) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (f"n={len(values)}, min {min(values):.6g}, q1 {q1:.6g}, "
            f"median {statistics.median(values):.6g}, q3 {q3:.6g}, "
            f"max {max(values):.6g}")


def run_untraced(wl, seed: int, seconds: float, outdir: Path,
                 probes: int = SETUP_PROBES):
    """End-to-end metrics.  Everything fits in `seconds`.  A sweep first
    runs its check sweep serial and with workers=2, whose trials.csv must
    agree byte for byte.  Then timed passes k = 0, 1, ... run until the
    next one would overrun (at least one runs), and pass 0 runs once more
    at the end and must give the same rows CSV.  Each pass is bracketed by
    chunks of the host speed reference and its time scaled to the
    reference's nominal speed (see hostspeed.py).  The set-up probes are
    spread evenly over the run, between passes, so that they meet the host
    in different phases; each is paired with a start-up reference, and
    their median is scaled by the references' median."""
    t_start = time.perf_counter()
    session = wl.open(seed, outdir)
    n = session.round_trips
    sweep = isinstance(wl, SweepWorkload)
    if sweep:
        check = session.run_pass()
        check_rows(check, wl.trials)
        t0 = time.perf_counter()
        w2_data = session.run_pass(workers=2)
        w2_rate = wl.trials / (time.perf_counter() - t0)
        if w2_data != check:
            raise CheckFailed("workers=2 trials.csv differs from the serial one")
    meter = hostspeed.Meter()
    setup, elapsed, scaled = [], [], []
    unconverged = 0
    first = None

    def probe_due():
        return (len(setup) < probes
                and time.perf_counter() >= t_start + len(setup) * seconds / probes)

    while True:
        if probe_due():
            while probe_due():
                setup.append(probe_setup(session))
            meter.restart()
        run_pass = session.timed_pass(len(elapsed))
        t0 = time.perf_counter()
        data = run_pass()
        elapsed.append(time.perf_counter() - t0)
        scaled.append(meter.scale(elapsed[-1]))
        unconverged += sum(not r.converged for r in check_rows(data, n))
        if first is None:
            first = data
        if time.perf_counter() + elapsed[-1] + meter.last > t_start + seconds:
            break
    setup += [probe_setup(session) for _ in range(probes - len(setup))]
    probe_s, start_s = zip(*setup)
    if session.timed_pass(0)() != first:
        raise CheckFailed("pass 0 rows differ when it runs again")
    attempted = n * len(elapsed)
    metrics = {
        "round_trips_per_s": attempted / sum(scaled),
        "setup_s": (statistics.median(probe_s) / statistics.median(start_s)
                    * hostspeed.NOMINAL_START_S),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    notes = [
        f"round_trips_per_s: {attempted} round trips in {len(elapsed)} passes over "
        f"{sum(elapsed)!r} s of wall time ({attempted / sum(elapsed)!r} per s "
        f"unscaled) and {sum(scaled)!r} s scaled to the nominal host",
        f"host slowdown against nominal, one per pass: {quartiles(meter.slowdowns)}",
        f"setup_s over {probes} fresh processes: {quartiles(probe_s)} s unscaled; "
        f"start-up reference beside them: {quartiles(start_s)} s, nominal "
        f"{hostspeed.NOMINAL_START_S} s",
        f"failed_frac {unconverged / attempted!r} ({unconverged} of {attempted} "
        "round trips did not converge; none raised)",
    ]
    if sweep:
        notes += [f"rows_digest {rows_digest(check)} (check sweep of {wl.trials} "
                  "trials, serial and workers=2 identical)",
                  f"workers=2 check sweep at {w2_rate:.6g} round trips/s, unscaled"]
    else:
        notes.append(f"rows_digest {rows_digest(first)} (pass 0, identical when "
                     "run again)")
    return metrics, attempted, notes


def run_traced(wl, seed: int, seconds: float, outdir: Path):
    """Per-layer metrics.  A traced pass and the untraced passes it is
    compared with alternate until the next round would overrun `seconds`
    (at least one round)."""
    import traced
    from tempmem.variability import monte_carlo

    setup = traced.Tracer()
    session = wl.open(seed, outdir, setup)
    groups = [setup] if setup.spans else []
    sweep = isinstance(wl, SweepWorkload)
    n = wl.trials if sweep else session.round_trips
    t_start = time.perf_counter()
    if sweep:
        mc_args = traced.load_sweep(session.scenarios[1])
        cli_data = session.run_pass()
    passes = []
    walls = {"traced": [], "untraced": [], "mc_w2": []}
    first = None
    while True:
        round_start = time.perf_counter()
        tr = traced.Tracer()
        if sweep:
            for workers, key in ((1, "untraced"), (2, "mc_w2")):
                t0 = time.perf_counter()
                report, mc_rows = monte_carlo(*mc_args, workers=workers)
                walls[key].append(time.perf_counter() - t0)
                if workers == 1:
                    serial_rows = mc_rows
                elif mc_rows != serial_rows:
                    raise CheckFailed("monte_carlo workers=2 rows differ from serial")
            traced_rows, data, loop_s = traced.traced_sweep_pass(
                tr, session.scenarios[1], outdir / "traced", report)
            walls["traced"].append(loop_s)
            if traced_rows != serial_rows:
                raise CheckFailed("traced rows differ from monte_carlo rows")
            if data != cli_data:
                raise CheckFailed("traced trials.csv differs from tempmem sweep's")
        else:
            t0 = time.perf_counter()
            data = session.run_pass(tr)
            walls["traced"].append(time.perf_counter() - t0)
            t0 = time.perf_counter()
            untraced = session.run_pass()
            walls["untraced"].append(time.perf_counter() - t0)
            if untraced != data:
                raise CheckFailed("traced rows differ from untraced rows")
        if first is None:
            rows = check_rows(data, n)
            first = data
        elif data != first:
            raise CheckFailed(f"traced pass {len(passes)} rows differ from the first")
        elif passes[0].counts != tr.counts:
            raise CheckFailed(f"traced pass {len(passes)} counts differ from the first")
        passes.append(tr)
        now = time.perf_counter()
        if now - t_start + (now - round_start) > seconds:
            break
    groups += passes
    traced.write_spans(groups, outdir / "spans.csv")

    counts = setup.counts + passes[0].counts
    metrics, levels = traced.span_metrics(groups)
    for name in traced.COUNT_NAMES:
        metrics[name] = counts[name]
    pulses = counts["recording.pulses"]
    closed_loop = metrics["recording.program_closed_loop.calls"] > 0
    metrics["device.host_ns_per_pulse"] = (
        metrics["recording.program_closed_loop_s"] / pulses * 1e9 if closed_loop else 0.0)
    metrics["recording.converged_ratio"] = (
        1.0 - counts["recording.unconverged_channels"]
        / counts["recording.channels_attempted"])

    stats = report if sweep else workloads.summarize(rows, session.span_ns)
    metrics.update({
        "variability.rank_exact_rate": stats.rank_exact_rate,
        "variability.mean_tau": stats.mean_tau,
        "variability.rms_timing_ns": stats.rms_timing_ns,
        "variability.effective_bits_mean": stats.effective_bits_mean,
        "variability.energy_mean_fj": stats.energy_mean_j * 1e15,
        "round_trips": n,
        "failed_frac": sum(not r.converged for r in rows) / n,
        "trace.spans": len(passes[0].spans),
        "trace.traced_wall_s": statistics.median(walls["traced"]),
        "trace.untraced_wall_s": statistics.median(walls["untraced"]),
        "variability.monte_carlo_s": (statistics.median(walls["untraced"])
                                      if sweep else 0.0),
        "variability.monte_carlo_w2_s": (statistics.median(walls["mc_w2"])
                                         if sweep else 0.0),
    })
    metrics["variability.w2_speedup"] = (
        metrics["variability.monte_carlo_s"] / metrics["variability.monte_carlo_w2_s"]
        if sweep else 0.0)
    metrics["trace.overhead_frac"] = (metrics["trace.traced_wall_s"]
                                      / metrics["trace.untraced_wall_s"] - 1.0)
    untraced_source = "tempmem sweep (cli.main)" if sweep else "the untraced pass"
    notes = [
        f"{len(passes)} traced passes of {n} round trips; spans in "
        f"{os.path.relpath(outdir / 'spans.csv', ROOT)}",
        f"variability.rows_digest {rows_digest(first)} (checked: traced rows "
        f"equal those of {untraced_source})",
        "span duration percentile (level of *.p_high_s, pooled samples): "
        + ", ".join(f"{name} {level}" for name, level in levels.items()),
        f"trace.overhead_frac base: untraced {metrics['trace.untraced_wall_s']!r} s "
        f"vs traced {metrics['trace.traced_wall_s']!r} s per pass",
        (f"device.host_ns_per_pulse base: program_closed_loop self time over "
         f"{pulses} pulses per pass" if closed_loop else
         "device.host_ns_per_pulse: 0, no closed-loop programming on this workload"),
        f"recording.converged_ratio base: {counts['recording.channels_attempted']} "
        "channels attempted per pass",
    ]
    if sweep:
        notes.append("variability.w2_speedup base: monte_carlo serial "
                     f"{metrics['variability.monte_carlo_s']!r} s over workers=2 "
                     f"{metrics['variability.monte_carlo_w2_s']!r} s")
    return metrics, n * len(passes), notes


def declared_metrics(trace: int) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def measure(wl, seed: int, seconds: float, trace: int, outdir: Path, **kwargs):
    """Run one workload and return the result object the last line prints."""
    run = run_traced if trace else run_untraced
    outdir.mkdir(parents=True, exist_ok=True)
    values, attempted, notes = run(wl, seed, seconds, outdir, **kwargs)
    units = declared_metrics(trace)
    if set(values) != set(units):
        raise RuntimeError(f"metrics do not match BENCHMARK.json: missing "
                           f"{sorted(set(units) - set(values))}, undeclared "
                           f"{sorted(set(values) - set(units))}")
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items()}
    return {"correct": True, "attempted": attempted, "failed": 0,
            "metrics": metrics}, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measuring time of the run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    wl = WORKLOADS[args.workload]
    outdir = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(outdir, ignore_errors=True)
    print(f"workload {wl.name}, seed {args.seed}, trace {args.trace}")
    print("env " + json.dumps(environment(wl, args.seed, args.seconds, args.trace)))
    try:
        result, notes = measure(wl, args.seed, args.seconds, args.trace, outdir)
    except CheckFailed as exc:
        traceback.print_exc()
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                          "metrics": {}}))
        print(f"check failed: {exc}", file=sys.stderr)
        return 1
    for name, m in result["metrics"].items():
        print(f"  {name:44s} {m['value']!r} {m['unit']}")
    for line in notes:
        print("  " + line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
