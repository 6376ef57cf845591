"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the sources under src/ are imported
directly. With --trace 0 the workload's command is repeated untraced for
about S seconds of command time, with a batch of set-up timings before
each command and after the last, and the end-to-end metrics of
BENCHMARK.json are reported. With --trace 1 half the time goes to
untraced runs and half to a traced run in a child process
(perfbench/traced.py), and the per-layer metrics are reported. The last
line of stdout is the result object; the line before it records the
environment, report hashes and other data.
"""
from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
from pathlib import Path

import runenv

HERE = Path(__file__).resolve().parent


def parse_args(argv, names):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=names)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    return args


def _metric(spec_entry, value) -> dict:
    return {"value": value, "unit": spec_entry["unit"]}


def _traced_child(args, seconds: float) -> dict:
    cmd = [sys.executable, str(HERE / "traced.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(seconds)]
    # The margin covers the imports and the one command the child may run past `seconds`.
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=seconds + 60)
    if done.returncode != 0:
        raise RuntimeError(f"traced run exited with code {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    runenv.prepare()
    import workloads  # imports NumPy: only after the thread pins are set

    args = parse_args(argv, sorted(workloads.WORKLOADS))
    spec = runenv.load_spec()
    w = workloads.WORKLOADS[args.workload]
    out = runenv.OUT / f"{w.name}-seed{args.seed}-trace{args.trace}"

    untraced_s = args.seconds / 2 if args.trace else args.seconds
    setups: list[float] = []

    def rep() -> workloads.Rep:
        if not args.trace:
            setups.extend(workloads.setup_times(w, args.seed))
        return workloads.run_once(w, args.seed, out)

    reps = workloads.repeat(rep, untraced_s, min_reps=1 if args.trace else 2)
    wall = statistics.median(r.wall for r in reps)
    attempted = sum(r.check.attempted for r in reps)
    failed = sum(r.check.failed for r in reps)
    argv = w.argv(args.seed)
    info = {
        "workload": w.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "argv": argv, "jobs": workloads.jobs_flag(argv),
        "environment": runenv.environment(),
        "walls_s": [r.wall for r in reps],
        "report_sha256": sorted({r.report_sha256 for r in reps if r.report_sha256}),
        "notes": reps[-1].check.notes,
    }

    if args.trace:
        try:
            child = _traced_child(args, args.seconds - untraced_s)
        except (RuntimeError, ValueError, IndexError, subprocess.TimeoutExpired) as exc:
            print(f"error: {exc}", file=sys.stderr)
            child = None
        if child is None:
            attempted, failed = attempted + w.ops, failed + w.ops
            values = {}
        else:
            attempted += child["attempted"]
            failed += child["failed"]
            values = child["metrics"]
            values["trace.overhead_s"] = statistics.median(child["walls_s"]) - wall
            info.update(traced_walls_s=child["walls_s"], absent=child["absent"],
                        absent_metrics=child["absent_metrics"],
                        traced_report_sha256=child["report_sha256"])
        metrics = {m["name"]: _metric(m, values.get(m["name"], 0.0)) for m in spec["per_layer"]}
    else:
        setups.extend(workloads.setup_times(w, args.seed))
        info["setup_reps"] = len(setups)
        values = {
            "wall_s": wall,
            "points_per_s": w.ops / wall,
            # Set-up is fixed work; its slower repeats measure host noise, so
            # the fastest repeat is the steadiest figure.
            "setup_s": min(setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {m["name"]: _metric(m, values[m["name"]]) for m in spec["end_to_end"]}

    print(json.dumps({"info": info}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
