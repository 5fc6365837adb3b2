"""Scenario runner: recall / capture / roundtrip / sweep / calibrate.

Each command reads an optional scenario file, runs one operation and
writes plot-ready CSV (plus a short text report where useful) into the
output directory.  Times are serialized in ns, resistances in ohm,
energies in fJ.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from dataclasses import replace
from pathlib import Path

from . import crossbar, device, recording, variability
from .device import _fj
from .scenario import Scenario, ScenarioError, load_scenario
from .wavefront import (normalize, read_csv, read_wavefront_csv, write_csv,
                        write_wavefront_csv, _fixed, _write_lines)


@functools.cache  # one parser per process: parse_args leaves it unchanged
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tempmem",
        description="Behavioral simulator of a memristive temporal memory")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, handler):
        p.set_defaults(run=handler)
        p.add_argument("--scenario", metavar="FILE", help="scenario file")
        p.add_argument("--out", metavar="DIR", default="out",
                       help="output directory (default: out)")
        p.add_argument("--seed", type=int, metavar="U64",
                       help="override variation.seed")

    p = sub.add_parser("recall", help="recall a stored column as a wavefront")
    common(p, _cmd_recall)
    p.add_argument("--grid", metavar="CSV",
                   help="resistance grid (row,col,resistance_ohm); "
                        "default: fresh ON array")

    p = sub.add_parser("capture", help="record a wavefront into a column")
    common(p, _cmd_capture)
    p.add_argument("--input", metavar="CSV", required=True,
                   help="wavefront file (channel,time_ns)")
    p.add_argument("--path", choices=["native", "digital"],
                   help="override run.path")

    p = sub.add_parser("roundtrip", help="capture, reset, recall and score")
    common(p, _cmd_roundtrip)
    p.add_argument("--input", metavar="CSV", required=True)
    p.add_argument("--path", choices=["native", "digital"])

    p = sub.add_parser("sweep", help="Monte Carlo round trips with variation")
    common(p, _cmd_sweep)
    p.add_argument("--trials", type=int, metavar="N", help="override run.trials")
    p.add_argument("--path", choices=["native", "digital"])

    p = sub.add_parser("calibrate",
                       help="derive amp_a, theta and v_read from targets")
    common(p, _cmd_calibrate)
    return parser


def _load(args) -> Scenario:
    scenario = load_scenario(args.scenario) if args.scenario else Scenario()
    if args.seed is not None:
        scenario = replace(scenario,
                           variation=replace(scenario.variation, seed=args.seed))
    flags = {name: getattr(args, name) for name in ("path", "trials")
             if getattr(args, name, None) is not None}
    return replace(scenario, run=replace(scenario.run, **flags)) if flags else scenario


def _read_input(args, scenario: Scenario):
    """The --input wavefront, and the scenario with one array row per
    channel of it."""
    w = read_wavefront_csv(args.input)
    return w, replace(scenario, array=replace(scenario.array, rows=len(w)))


def _cmd_recall(args, scenario: Scenario, outdir: Path) -> int:
    cfg = scenario.array
    if args.grid:
        # Rows 0 up to the largest row index the grid names, as capture
        # writes it; read_grid_csv then checks every cell against that array,
        # so a gap in the indices reads as missing cells.
        rows = {0}
        read_csv(args.grid, ["row", "col", "resistance_ohm"],
                 lambda fields: rows.add(int(fields[0])))
        cfg = replace(cfg, rows=max(rows) + 1)
        state = crossbar.read_grid_csv(args.grid, cfg, scenario.device)
    else:
        state = crossbar.new_array(cfg, scenario.device)
    w, energy = crossbar.recall(state, cfg, scenario.run.column)
    write_wavefront_csv(outdir / "wavefront.csv", w)
    write_csv(outdir / "energy.csv",
              ["per_line_fj", "stored_fj", "dissipated_fj"],
              [[_fj(energy.per_line), _fj(energy.stored), _fj(energy.dissipated)]])
    print(f"recalled column {scenario.run.column}: "
          f"span {_fixed(w.span, 3)} ns, {_fixed(_fj(energy.per_line), 1)} fJ/line")
    return 0


def _cmd_capture(args, scenario: Scenario, outdir: Path) -> int:
    w, scenario = _read_input(args, scenario)
    cfg = scenario.array
    state, result = recording.capture(
        crossbar.new_array(cfg, scenario.device), cfg, scenario.device, w,
        scenario.run)
    report = [
        f"path:             {scenario.run.path}",
        f"write energy:     {_fixed(_fj(result.write_energy), 2)} fJ",
        f"window exceeded:  {result.window_exceeded}",
        f"all converged:    {all(result.converged)}",
    ]
    recording.write_capture_csv(outdir / "capture.csv", result)
    crossbar.write_grid_csv(outdir / "grid.csv", state)
    _write_lines(outdir / "capture_report.txt", ["\n".join(report) + "\n"])
    print("\n".join(report))
    return 0


def _cmd_roundtrip(args, scenario: Scenario, outdir: Path) -> int:
    w, scenario = _read_input(args, scenario)
    rt = recording.round_trip(w, scenario.array, scenario.device, scenario.run)
    write_wavefront_csv(outdir / "input_wavefront.csv", normalize(w))
    write_wavefront_csv(outdir / "recalled_wavefront.csv", rt.recalled)
    write_csv(
        outdir / "metrics.csv",
        ["tau", "rms_ns", "max_abs_ns", "effective_bits", "span_ns",
         "c_scale_pf", "write_energy_fj", "recall_per_line_fj",
         "window_exceeded", "all_converged"],
        [[rt.tau, rt.rms_ns, rt.max_abs_ns, rt.bits, w.span, rt.c_used / 1e-12,
          _fj(rt.capture.write_energy), _fj(rt.recall_energy.per_line),
          int(rt.capture.window_exceeded), int(all(rt.capture.converged))]])
    print(f"round trip ({scenario.run.path}): tau {rt.tau:.3f}, "
          f"rms {_fixed(rt.rms_ns, 3)} ns, {rt.bits:.2f} bits")
    return 0


def _cmd_sweep(args, scenario: Scenario, outdir: Path) -> int:
    cfg = replace(scenario.array, rows=scenario.run.channels)
    report, rows = variability.monte_carlo(
        cfg, scenario.device, scenario.variation, scenario.run.trials,
        scenario.run, workers=scenario.run.workers)
    text = variability.format_trial_report(report)
    variability.write_trial_report_csv(outdir / "trial_report.csv", report)
    variability.write_trials_csv(outdir / "trials.csv", rows)
    _write_lines(outdir / "trial_report.txt", [text])
    print(text, end="")
    return 0


def _cmd_calibrate(args, scenario: Scenario, outdir: Path) -> int:
    cal = scenario.calibrate
    dev = scenario.device
    cfg = scenario.array
    amp_a = device.calibrate_amp(cal.r_span_ohm, cal.span_ns, dev).amp_a
    if not cal.energy_fj > 0:
        raise ValueError("calibrate.energy_fj must be positive")
    lnf = cal.span_ns * 1e-9 / (cal.r_span_ohm * cfg.c_line)
    # ArrayConfig checks the derived values as it checks a scenario's.
    cfg = replace(cfg, theta=1.0 - math.exp(-lnf),
                  v_read=math.sqrt(cal.energy_fj * 1e-15 / cfg.c_line))
    write_csv(
        outdir / "calibration.csv",
        ["amp_a_ohm", "theta", "v_read_v", "span_ns", "r_span_ohm",
         "energy_fj", "c_line_pf", "tau_w_ns"],
        [[amp_a, cfg.theta, cfg.v_read, cal.span_ns, cal.r_span_ohm, cal.energy_fj,
          cfg.c_line / 1e-12, dev.tau_w]])
    print(f"amp_a = {_fixed(amp_a, 2)} ohm, theta = {cfg.theta:.4f}, "
          f"v_read = {cfg.v_read:.4f} V")
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        scenario = _load(args)
        outdir = Path(args.out)
        if not outdir.is_dir():
            outdir.mkdir(parents=True, exist_ok=True)
        return args.run(args, scenario, outdir)
    except (ScenarioError, OSError) as exc:  # ScenarioError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
