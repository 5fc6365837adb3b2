"""Golden CLI outputs: every command's files must stay byte-identical.

Each case runs `tempmem` in-process on fixed inputs and compares every
file it writes, plus its stdout, with the copy recorded under
tests/golden/<case>/.  The recorded bytes are the reference behaviour of
the simulator; a refactor must reproduce them exactly.

Re-record only when an output is meant to change, and say why in the
change log.  With case names it records only those cases:

    PYTHONPATH=src python tests/test_golden.py [case ...]
"""

import contextlib
import io
import shutil
import sys
import tempfile
from pathlib import Path

import pytest

from tempmem.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"

WAVEFRONT = "channel,time_ns\n0,3.25\n1,0.0\n2,27.8\n3,14.05\n"

GRID = "row,col,resistance_ohm\n" + "".join(
    f"{i},{j},{10e3 + 2345.678 * i + 789.125 * j!r}\n"
    for i in range(4) for j in range(4))

# Acceptance criterion 6: a 0.01 ns step lands inside the 0.1% verify band.
DIGITAL = "run.step_ns = 0.01\nrun.tol = 0.001\nrun.max_iters = 8000\n"

SWEEP_NATIVE = ("array.rows = 8\narray.cols = 4\nrun.channels = 8\n"
                "run.trials = 50\nrun.column = 2\nvariation.seed = 7\n")

SCENARIOS = {
    "column1": "run.column = 1\n",
    "digital": DIGITAL,
    # Below nominal (rate about 0.564): pulse_ns sums the durations apart
    # from the stress.
    "digital_v_write": DIGITAL + "run.v_write = 1.2\n",
    # WAVEFRONT's 27.8 ns leaves a 0.8 ns residue, on a 0.1 ns bin edge.
    "vernier": "quantizer.kind = vernier\nquantizer.t_fine_ns = 0.1\n" + DIGITAL,
    "fixed_scale": "run.scale_cap = none\n",
    "sweep_native": SWEEP_NATIVE,
    # Criterion 8: the same files as sweep_native.
    "sweep_native_workers2": SWEEP_NATIVE + "run.workers = 2\n",
    "sweep_digital": ("array.rows = 8\narray.cols = 4\nrun.channels = 8\n"
                      "run.trials = 2\nrun.column = 1\nrun.path = digital\n"
                      "variation.seed = 11\n" + DIGITAL),
    "calibrate": ("calibrate.span_ns = 25.0\ncalibrate.r_span_ohm = 20000\n"
                  "calibrate.energy_fj = 450.0\ndevice.tau_w_ns = 150.0\n"),
}

# case -> argv, with {wf}, {grid} and {name} (a scenario file) filled in
CASES = {
    "recall_fresh": ["recall"],
    "recall_grid": ["recall", "--grid", "{grid}", "--scenario", "{column1}"],
    "capture_native": ["capture", "--input", "{wf}"],
    "capture_digital": ["capture", "--input", "{wf}", "--path", "digital"],
    "capture_digital_converging": ["capture", "--input", "{wf}", "--path",
                                   "digital", "--scenario", "{digital}"],
    "capture_digital_v_write": ["capture", "--input", "{wf}", "--path",
                                "digital", "--scenario", "{digital_v_write}"],
    "capture_vernier": ["capture", "--input", "{wf}", "--path", "digital",
                        "--scenario", "{vernier}"],
    "roundtrip_native": ["roundtrip", "--input", "{wf}"],
    "roundtrip_fixed_scale": ["roundtrip", "--input", "{wf}", "--scenario",
                              "{fixed_scale}"],
    "roundtrip_digital": ["roundtrip", "--input", "{wf}", "--path", "digital",
                          "--scenario", "{digital}"],
    "sweep_native": ["sweep", "--scenario", "{sweep_native}"],
    "sweep_native_workers2": ["sweep", "--scenario", "{sweep_native_workers2}"],
    "sweep_digital": ["sweep", "--scenario", "{sweep_digital}"],
    "calibrate": ["calibrate", "--scenario", "{calibrate}"],
}


def run_case(case: str, workdir: Path, out: Path) -> None:
    """Run one case's command; its files and stdout.txt land in `out`."""
    inputs = {"wf": workdir / "wavefront.csv", "grid": workdir / "grid.csv"}
    inputs["wf"].write_text(WAVEFRONT)
    inputs["grid"].write_text(GRID)
    for name, text in SCENARIOS.items():
        inputs[name] = workdir / f"{name}.txt"
        inputs[name].write_text(text)
    argv = [a.format(**inputs) for a in CASES[case]] + ["--out", str(out)]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        status = main(argv)
    assert status == 0, f"tempmem {' '.join(argv)} exited with {status}"
    (out / "stdout.txt").write_text(stdout.getvalue())


@pytest.mark.parametrize("case", sorted(CASES))
def test_outputs_match_golden(case, tmp_path):
    out = tmp_path / "out"
    run_case(case, tmp_path, out)
    expected = GOLDEN / case
    assert sorted(p.name for p in out.iterdir()) == \
        sorted(p.name for p in expected.iterdir())
    for path in sorted(expected.iterdir()):
        assert (out / path.name).read_bytes() == path.read_bytes(), \
            f"{case}/{path.name} differs from the golden copy"


def record(cases) -> None:
    unknown = set(cases) - set(CASES)
    if unknown:
        raise SystemExit(f"unknown case: {', '.join(sorted(unknown))}")
    for case in sorted(cases):
        with tempfile.TemporaryDirectory() as tmp:
            out = GOLDEN / case
            shutil.rmtree(out, ignore_errors=True)
            run_case(case, Path(tmp), out)
        print(f"recorded {case}", file=sys.stderr)


if __name__ == "__main__":
    record(sys.argv[1:] or CASES)
