#!/usr/bin/env python3
"""Steadiness check of the benchmark: spreads over seeds, exact counts.

    python3 perfbench/steady.py --seeds 1-10 --seconds 20 [--workloads a,b] [--trace-seeds 1,2]

For each workload, runs the untraced benchmark once per seed and prints,
for every end-to-end metric, the median and the interquartile range
(statistics.quantiles, n=4) as a share of the median, against the bound
in BENCHMARK.json ("ok" within the bound, "steady" within a third of it;
setup_s is reported but exempt, as the bound applies to its median).

Then it runs the traced benchmark twice for each --trace-seeds seed and
fails if any exact per-layer count differs between the two runs, or if
any run fails its output check. Exit code 0 only when every check holds.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi or lo) + 1))
    return seeds


def bench(workload, seed, seconds, trace):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=400)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} trace {trace}: exit {out.returncode}")
    report = next((json.loads(line[len("report "):]) for line in lines
                   if line.startswith("report ")), {})
    return json.loads(lines[-1]), report


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--workloads")
    ap.add_argument("--trace-seeds", default="1")
    ap.add_argument("--json", help="write every run's result and report here")
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        config = json.load(f)
    seconds = args.seconds or config["run_seconds"]
    names = (args.workloads.split(",") if args.workloads
             else [w["name"] for w in config["workloads"]])
    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}
    ok = True
    record = {}
    for workload in names:
        runs = []
        for seed in parse_seeds(args.seeds):
            result, report = bench(workload, seed, seconds, 0)
            runs.append({"seed": seed, "result": result, "report": report})
            if not result["correct"]:
                ok = False
                print(f"{workload} seed {seed}: output check failed: {report.get('failures')}")
        record[workload] = {"untraced": runs}
        print(f"\n{workload}: {len(runs)} seeds, {seconds:g} s each")
        for name in runs[0]["result"]["metrics"]:
            values = [r["result"]["metrics"][name]["value"] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            bound = bounds[name]
            verdict = ("exempt" if name == "setup_s" else
                       "steady" if spread < bound / 3 else "ok" if spread <= bound else "WIDE")
            if verdict == "WIDE":
                ok = False
            print(f"  {name:16s} median {med:<14.6g} spread {spread:7.4f}  "
                  f"bound {bound:<5g} {verdict}")
        traced = []
        for seed in (parse_seeds(args.trace_seeds) if args.trace_seeds else []):
            pair = [bench(workload, seed, seconds, 1) for _ in range(2)]
            counts = [p[1].get("counts") for p in pair]
            same = counts[0] == counts[1] and counts[0] is not None
            correct = all(p[0]["correct"] for p in pair)
            ok = ok and same and correct
            traced.append({"seed": seed, "runs": [{"result": p[0], "report": p[1]}
                                                  for p in pair]})
            print(f"  traced seed {seed}: counts {'repeat exactly' if same else 'DIFFER'}, "
                  f"output check {'passed' if correct else 'FAILED'}")
        if len(traced) > 1:
            first = traced[0]["runs"][0]["report"].get("counts")
            independent = all(t["runs"][0]["report"].get("counts") == first for t in traced)
            print(f"  counts across trace seeds: {'identical' if independent else 'seed-dependent'}")
        record[workload]["traced"] = traced
    if args.json:
        with open(args.json, "w") as f:
            json.dump(record, f, indent=1)
    print("\nsteadiness check " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
