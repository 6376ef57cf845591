"""Traced run of one workload, in its own process so untraced runs stay clean.

    python3 perfbench/traced.py --workload NAME --seed N --seconds S

Repeats the workload's command for about S seconds (at least once) with
every target of spans.TARGETS wrapped, and prints one JSON line: the
median over runs of each per-layer metric in BENCHMARK.json (except
trace.overhead_s, which needs the untraced runs), the traced wall times,
report hashes, check counts and the targets that could not be found.
"""
from __future__ import annotations

import argparse
import json
import statistics
import sys

import runenv


def main(argv=None) -> int:
    runenv.prepare()
    import spans
    import workloads

    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    args = p.parse_args(argv)
    w = workloads.WORKLOADS[args.workload]
    names = [m["name"] for m in runenv.load_spec()["per_layer"]
             if m["name"] != "trace.overhead_s"]
    out = runenv.OUT / f"{w.name}-seed{args.seed}-traced"

    per_rep = []
    absent: list[str] = []

    def traced_rep() -> workloads.Rep:
        tracer = spans.Tracer()
        with spans.patched(tracer) as missing:
            rep = workloads.run_once(w, args.seed, out)
        absent[:] = missing
        per_rep.append({name: spans.layer_metric(tracer.spans, name) for name in names})
        return rep

    reps = workloads.repeat(traced_rep, args.seconds)
    installed = {t.span for t in spans.TARGETS if t.label not in absent}
    print(json.dumps({
        "metrics": {name: statistics.median(r[name] for r in per_rep) for name in names},
        "walls_s": [r.wall for r in reps],
        "report_sha256": sorted({r.report_sha256 for r in reps if r.report_sha256}),
        "attempted": sum(r.check.attempted for r in reps),
        "failed": sum(r.check.failed for r in reps),
        "absent": absent,
        "absent_metrics": [name for name in names if spans.metric_span(name) not in installed],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
