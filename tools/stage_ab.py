"""Time one pipeline stage on two source trees, in alternating pinned processes.

    python tools/stage_ab.py PARENT_SRC CHANGE_SRC --workload map-crowded \
        --stage build_map [--pairs 10] [--seed 1] [--cpu 1]

Each SRC is the src directory of a checkout; a side's inputs come from the
perfbench/harness.py beside its src directory (make_inputs, through set_up).
A pair runs one fresh process per side, parent first in odd pairs and change
first in even ones, each pinned to one CPU with taskset. A process times one
stage with time.process_time:

    set_up       importing the harness (and so objreloc) and harness.set_up
                 with one repeat, as the benchmark's setup_s counts them
    build_map    one harness.build_map, after set_up's warm-up
    relocalise   one round of pipeline.relocalise over every lost frame, on
                 a map built untimed

It prints each run, then each side's median and quartiles, the ratio of the
medians (change / parent) and the pairs in which the change took less time.
"""

import argparse
import os
import statistics
import subprocess
import sys
from pathlib import Path

STAGES = ("set_up", "build_map", "relocalise")


def child(src, workload, stage, seed):
    """Time one stage in this process; print its CPU seconds."""
    import time

    t0 = time.process_time()
    sys.path[:0] = [str(src), str(Path(src).resolve().parent / "perfbench")]
    import harness
    from objreloc import pipeline

    cfg = harness.load_workload(workload)
    inputs = harness.set_up(cfg, seed, 1)[0]
    if stage == "set_up":
        print(time.process_time() - t0)
        return
    if stage == "build_map":
        t0 = time.process_time()
        harness.build_map(inputs)
    else:
        obj_map, surface = harness.build_map(inputs)
        t0 = time.process_time()
        for frame in inputs.lost:
            pipeline.relocalise(frame, obj_map, surface, inputs.reloc)
    print(time.process_time() - t0)


def run_side(src, args):
    cmd = ["taskset", "-c", str(args.cpu), sys.executable, str(Path(__file__).resolve()),
           "--child", src, args.workload, args.stage, str(args.seed)]
    env = {**os.environ, "PYTHONPATH": ""}
    return float(subprocess.run(cmd, check=True, capture_output=True, text=True,
                                env=env).stdout.split()[-1])


def main(argv):
    if argv[1:2] == ["--child"]:
        src, workload, stage, seed = argv[2:6]
        child(src, workload, stage, int(seed))
        return
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent_src")
    ap.add_argument("change_src")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--stage", required=True, choices=STAGES)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--cpu", type=int, default=1)
    args = ap.parse_args(argv[1:])
    if args.pairs < 2:
        ap.error("--pairs must be at least 2, for quartiles")
    sides = {"parent": args.parent_src, "change": args.change_src}
    times = {"parent": [], "change": []}
    for k in range(args.pairs):
        order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
        for side in order:
            times[side].append(run_side(sides[side], args))
        print(f"pair {k + 1}: parent {times['parent'][-1]:.4f} s, "
              f"change {times['change'][-1]:.4f} s", flush=True)
    for side in ("parent", "change"):
        q1, q2, q3 = statistics.quantiles(times[side], n=4, method="inclusive")
        print(f"{side}: median {q2:.4f} s, quartiles {q1:.4f}-{q3:.4f} s")
    wins = sum(c < p for p, c in zip(times["parent"], times["change"]))
    ratio = statistics.median(times["change"]) / statistics.median(times["parent"])
    print(f"{args.workload} {args.stage}: change / parent {ratio:.3f}, "
          f"change faster in {wins} of {args.pairs} pairs")


if __name__ == "__main__":
    main(sys.argv)
