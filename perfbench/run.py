"""Benchmark of objreloc's map building and lost-frame relocalisation.

Run from the root of a checkout, one workload (perfbench/workloads/) per run:

    python3 perfbench/run.py --workload reloc-views --seed 1 --seconds 30 --trace 0

A run sets up the workload's inputs from the seed, then fuses every key frame
and relocalises every lost frame in whole rounds for about --seconds seconds,
checking every output. It prints the lost frames by outcome, then as its last
line one JSON object with correct, attempted, failed and the metrics:
end-to-end ones with --trace 0, per-module ones from spans with --trace 1.
The exit status is 1 when an operation failed or a check did not hold.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402  (imports count towards set-up time)
import contextlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
# set-up is timed this many times in a run and its median reported
SETUP_REPEATS = 3


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(p.stem for p in (HERE / "workloads").glob("*.json")))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def host_steal():
    """(stolen, total) CPU time of the host in clock ticks, or None where /proc/stat is missing."""
    try:
        with open("/proc/stat") as fh:
            ticks = [int(v) for v in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    return ticks[7], sum(ticks)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "objreloc").is_dir():
        print(f"perfbench: no objreloc sources at {SRC}", file=sys.stderr)
        return 2
    cpus = os.sched_getaffinity(0) if hasattr(os, "sched_setaffinity") else None
    if cpus:
        # one CPU: a shared virtual machine loses time on its vCPUs in phases,
        # and a KD-tree query split over two threads waits for the slower one
        # (README.md, "Steadiness"); threads started later inherit this
        os.sched_setaffinity(0, {max(cpus)})
    sys.path.insert(0, str(SRC))
    import harness
    import spans

    tracer = spans.Tracer() if args.trace else None
    with spans.instrument(tracer) if tracer else contextlib.nullcontext({}) as missing:
        cfg = harness.load_workload(args.workload)
        t0 = time.perf_counter()
        inputs, setup_work_s, problems = harness.set_up(cfg, args.seed, SETUP_REPEATS)
        # once-only costs (imports, config) plus the median input generation and the warm-up
        setup_s = t0 - T_START + setup_work_s
        n_setup_spans = len(tracer.spans) if tracer else 0
        steal_before = host_steal()
        ready = time.perf_counter()
        tally, samples, rounds = harness.measure(
            inputs, args.seconds, tracer.span if tracer else contextlib.nullcontext)
        wall_s = time.perf_counter() - ready
        steal_after = host_steal()
        if tracer:
            n_measured_spans = len(tracer.spans)
            if cpus:
                os.sched_setaffinity(0, cpus)
            parallel = harness.measure_parallel(inputs, tally, tracer.span)
    problems += [f"{target} is gone, so {name} is not traced" for name, target in missing.items()]
    problems += tally.problems
    results = tally.first_results or []
    print(f"{args.workload} seed {args.seed}: {rounds} rounds of {len(inputs.keyframes)} key "
          f"frames and {len(inputs.lost)} lost frames in {wall_s:.1f} s")
    if steal_before and steal_after:
        stolen, total = (after - before for after, before in zip(steal_after, steal_before))
        print(f"host CPU time stolen while measuring: {100.0 * stolen / max(total, 1):.1f}%")
    print("lost frames by outcome: " + json.dumps(harness.reason_counts(results)))
    for error in tally.errors:
        print(f"OPERATION FAILED: {error}", file=sys.stderr)
    for problem in problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracer:
        metrics = spans.per_module_metrics(
            tracer.spans[:n_setup_spans], tracer.spans[n_setup_spans:n_measured_spans],
            spans.span_overhead_s(), wall_s, missing)
        metrics.update(parallel)
        tracer.dump(OUT / f"{stem}.spans.json")
    else:
        metrics = harness.end_to_end_metrics(inputs, tally, samples, setup_s)
    result = {"correct": not problems, "attempted": tally.attempted, "failed": tally.failed,
              "metrics": metrics}
    (OUT / f"{stem}.json").write_text(
        json.dumps({**result, "rounds": rounds, "samples": samples}) + "\n")
    print(json.dumps(result))
    return 1 if problems or tally.failed else 0


if __name__ == "__main__":
    sys.exit(main())
