"""Set-up probe: a fresh process that does one workload's set-up, then
prints 'ready' and exits.  bench/run.py times it from process start to
that line; this is the workload's set-up time.

Usage:
    python3 bench/probe.py sweep SCENARIO_FILE
    python3 bench/probe.py array ROWS COLS SPAN_NS SEED
"""

import sys


def main(argv: list[str]) -> int:
    import workloads
    if argv[0] == "sweep":
        workloads.tempmem.load_scenario(argv[1])
    else:
        rows, cols, span_ns, seed = argv[1:]
        wl = workloads.ArrayWorkload("probe", int(rows), int(cols), float(span_ns))
        cfg, grid, _ = workloads.array_setup(wl, int(seed))
        workloads.new_array(cfg, grid)
    print("ready", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
