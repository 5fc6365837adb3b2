"""Fast smoke test of the benchmark itself: every workload at minimal size.

Run from the repository root:

    python3 -m pytest bench/test_smoke.py -q
"""

import json
import math
import shutil
import subprocess
import sys
from dataclasses import replace

import pytest

import run
import traced
from workloads import (ROOT, WORKLOADS, CheckFailed, SweepWorkload, check_rows,
                       rows_digest)
from tempmem.variability import monte_carlo

SEED = 3


def small(wl):
    if isinstance(wl, SweepWorkload):
        if wl.path == "native":
            return replace(wl, trials=8, pass_trials=4)
        return replace(wl, trials=2, pass_trials=1)
    return replace(wl, rows=16, cols=8)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_metric_present_and_rows_agree(name, tmp_path):
    wl = small(WORKLOADS[name])
    e2e, _ = run.measure(wl, SEED, 0, 0, tmp_path / "untraced", probes=1)
    layers, notes = run.measure(wl, SEED, 0, 1, tmp_path / "traced")
    for result, trace in ((e2e, 0), (layers, 1)):
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] >= 1
        assert result["metrics"].keys() == run.declared_metrics(trace).keys()
        assert all(math.isfinite(m["value"]) for m in result["metrics"].values())
    assert all(m["value"] > 0 for m in e2e["metrics"].values())
    csv_name = "out_w1/trials.csv" if isinstance(wl, SweepWorkload) else "trials.csv"
    untraced_rows = (tmp_path / "untraced" / csv_name).read_bytes()
    digest = f"variability.rows_digest {rows_digest(untraced_rows)} "
    assert any(line.startswith(digest) for line in notes)


@pytest.mark.parametrize("name", ["sweep_native", "sweep_digital"])
def test_traced_rows_equal_monte_carlo_rows(name, tmp_path):
    session = small(WORKLOADS[name]).open(SEED, tmp_path)
    cfg, base, spec, n, settings = traced.load_sweep(session.scenarios[1])
    report, mc_rows = monte_carlo(cfg, base, spec, n, settings)
    tracer = traced.Tracer()
    rows, data, _ = traced.traced_sweep_pass(tracer, session.scenarios[1],
                                             tmp_path / "t", report)
    assert rows == mc_rows
    assert data == session.run_pass()
    assert tracer.counts["recording.channels_attempted"] == n * cfg.rows


def _set_first_row(**fields):
    """Edit of a trials.csv body: set columns of its first row."""
    columns = ["trial", "tau", "rms_ns", "max_abs_ns", "bits", "write_energy_j",
               "recall_energy_j", "converged", "window_exceeded"]

    def edit(lines):
        cells = lines[0].split(",")
        for name, value in fields.items():
            cells[columns.index(name)] = value
        return [",".join(cells)] + lines[1:]
    return edit


@pytest.mark.parametrize("edit", [
    lambda lines: lines[:-1],
    _set_first_row(trial="1"),
    _set_first_row(tau="1.5"),
    _set_first_row(rms_ns="nan"),
    _set_first_row(write_energy_j="0.0", recall_energy_j="0.0"),
], ids=["dropped", "reordered", "tau", "rms", "energy"])
def test_row_checks_reject_bad_rows(edit, tmp_path):
    session = small(WORKLOADS["sweep_native"]).open(SEED, tmp_path)
    header, *lines = session.run_pass(1).decode().splitlines()
    check_rows("\n".join([header, *lines]).encode(), len(lines))
    with pytest.raises(CheckFailed):
        check_rows("\n".join([header, *edit(lines)]).encode(), len(lines))


def test_fails_without_the_program(tmp_path):
    """With only BENCHMARK.json and the benchmark, the command must fail
    without printing a result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "sweep_native",
                           "--seed", "1", "--seconds", "1"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_benchmark_json_contract():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert [w["name"] for w in spec["workloads"]] == ["sweep_native", "sweep_digital"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
