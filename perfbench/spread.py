"""Run-to-run spread of the end-to-end metrics, and a baseline record.

    python3 perfbench/spread.py [--out FILE]

Runs perfbench/run.py once per workload and seed (seeds 1-10), one run at
a time, over every workload; then the same again as a second set; then one
traced run per workload on seed 1. For each set and end-to-end metric it
reports the median, the quartiles (statistics.quantiles, n=4) and the
spread: the distance between the quartiles as a share of the median.
BENCHMARK.json bounds these spreads, and how much worse the second set's
median is than the first's. With --out the runs are also written to FILE
as JSON.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import runenv

HERE = Path(__file__).resolve().parent
SEEDS = list(range(1, 11))
SETS = 2


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=runenv.ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True, timeout=300, check=True)
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-2])["info"], json.loads(lines[-1])


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
            "values": values}


def worse_share(spec_entry: dict, first: float, second: float) -> float:
    """How much worse `second` is than `first`, as a share of `first`."""
    change = (second - first) / first
    return change if spec_entry["better"] == "lower" else -change


def run_set(workload: str, spec: dict) -> dict:
    runs = []
    for seed in SEEDS:
        info, result = run(workload, seed, spec["run_seconds"], trace=0)
        print(f"{workload:20} seed {seed:3}  correct {result['correct']}  walls_s "
              + " ".join(f"{x:.3f}" for x in info["walls_s"]), flush=True)
        runs.append({"seed": seed, "result": result, "walls_s": info["walls_s"],
                     "setup_reps": info["setup_reps"],
                     "report_sha256": info["report_sha256"], "notes": info["notes"]})
    metrics = {}
    for m in spec["end_to_end"]:
        s = metrics[m["name"]] = summarize([r["result"]["metrics"][m["name"]]["value"]
                                            for r in runs])
        flag = "" if m["name"] == "setup_s" or s["spread"] < m["bound"] / 3 else "  WIDE"
        print(f"{workload:20} {m['name']:14} median {s['median']:.6g}  "
              f"spread {s['spread']:.4f} (bound {m['bound']}){flag}", flush=True)
    return {"environment": info["environment"], "end_to_end": metrics, "runs": runs}


def main(argv=None) -> int:
    spec = runenv.load_spec()
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--out", type=Path)
    args = p.parse_args(argv)
    names = [w["name"] for w in spec["workloads"]]
    sets = [{workload: run_set(workload, spec) for workload in names} for _ in range(SETS)]
    record = {"run_seconds": spec["run_seconds"], "seeds": SEEDS, "sets": sets,
              "between_sets": {}, "traced": {}}
    for workload in names:
        first, second = (s[workload]["end_to_end"] for s in sets[:2])
        record["between_sets"][workload] = shifts = {
            m["name"]: worse_share(m, first[m["name"]]["median"], second[m["name"]]["median"])
            for m in spec["end_to_end"]}
        for m in spec["end_to_end"]:
            flag = "" if shifts[m["name"]] <= m["bound"] else "  OVER"
            print(f"{workload:20} {m['name']:14} second median worse by "
                  f"{shifts[m['name']]:+.4f} (bound {m['bound']}){flag}", flush=True)
    for workload in names:
        info, result = run(workload, SEEDS[0], spec["run_seconds"], trace=1)
        record["traced"][workload] = {
            "seed": SEEDS[0], "correct": result["correct"], "absent": info.get("absent"),
            "report_sha256": info.get("traced_report_sha256"),
            "per_layer": {k: v["value"] for k, v in result["metrics"].items()}}
    if args.out:
        args.out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
