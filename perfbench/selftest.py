#!/usr/bin/env python3
"""Short self-test of the benchmark (about a minute after the build).

    python3 perfbench/selftest.py

1. Runs every workload untraced and traced for 1 second and checks that the
   last line is exactly {"correct", "attempted", "failed", "metrics"}, that
   the output check passed, and that the workload's metrics are all
   printed, by name, with the unit BENCHMARK.json declares.
2. Checks that the output check catches a wrong result: a curve reference
   nudged by 1e-4 relative, and a serve store hit whose row differs from
   the first-solved row, must both count as failed operations.
3. Checks that the benchmark refuses to run — non-zero exit, no result —
   in a directory holding only BENCHMARK.json and perfbench/.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True  # keep the checkout clean

import run  # noqa: E402
import serve_client  # noqa: E402
import workloads  # noqa: E402

failures = []


def expect(cond, what):
    print(("ok    " if cond else "FAIL  ") + what)
    if not cond:
        failures.append(what)


def bench(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload,
         "--seed", "0", "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=600)


def check_runs():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        config = json.load(f)
    units = {m["name"]: m["unit"] for m in config["end_to_end"] + config["per_layer"]}
    for workload in run.WORKLOADS:
        for trace in (0, 1):
            tag = f"{workload} --trace {trace}"
            out = bench(workload, trace)
            expect(out.returncode == 0, f"{tag}: exit 0 ({out.stderr.strip()[-300:]})")
            lines = out.stdout.strip().splitlines()
            if not lines:
                expect(False, f"{tag}: printed a result")
                continue
            result = json.loads(lines[-1])
            expect(sorted(result) == ["attempted", "correct", "failed", "metrics"],
                   f"{tag}: result keys")
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                   f"{tag}: output check passed ({result['attempted']} operations)")
            names = run.LAYER_METRICS if trace else run.E2E_METRICS
            metrics = result["metrics"]
            expect(sorted(metrics) == sorted(names), f"{tag}: every metric printed")
            for name, m in metrics.items():
                expect(name in units and m["unit"] == units[name]
                       and isinstance(m["value"], (int, float)),
                       f"{tag}: {name} in {m['unit']}")
                if not trace:
                    expect(any(line.startswith(f"{workload} {name} = ") for line in lines),
                           f"{tag}: {name} printed by name")
            report = next(json.loads(line[len("report "):]) for line in lines
                          if line.startswith("report "))
            env = report["environment"]
            expect(all(k in env for k in ("compiler", "flags", "build_type", "portable", "cpu",
                                          "nproc", "threads", "seed", "src_lines")),
                   f"{tag}: environment block")
            if trace:
                expect(report["counts_stable"], f"{tag}: counts repeat across rounds")


def check_output_check():
    rundir = os.path.join(ROOT, ".bench_build", "runs", f"selftest-{os.getpid()}")
    os.makedirs(rundir, exist_ok=True)
    try:
        bins = run.build()
        with open(os.path.join(HERE, "reference", "model_curves.json")) as f:
            ref = json.load(f)
        ref["cells"][0]["rows"][3]["multicast"] *= 1 + 1e-4
        doc = run.curve_input("model_curves", 0, 0.1, False)
        doc["reference"] = run.write_json(os.path.join(rundir, "nudged_reference.json"), ref)
        _, res = run.run_perfbench(bins, ["curves"], doc, rundir, "nudged", 120)
        expect(res["failed"] >= 1, "a nudged curve reference fails the output check")

        checker = serve_client.Checker(run.serve_reference())
        requests = next(workloads.serve_epochs(0))
        res = serve_client.run_epochs(bins["quarcnoc"], rundir, run.THREADS,
                                      [requests[:40]], checker)
        expect(checker.failed == 0, "40 serve requests pass the output check")
        hit = next(i for i, r in enumerate(requests[:40]) if r[3] == len(r[2]))
        line, scenario, rates, served = requests[hit]
        tampered = res["responses"][hit].replace('"rate":', '"rate": ', 1)
        before = checker.failed
        checker.check(hit, scenario, rates, served, tampered)
        expect(checker.failed == before + 1, "a store hit that differs from its first row fails")
    finally:
        shutil.rmtree(rundir, ignore_errors=True)


def check_bare_directory():
    bare = os.path.join(ROOT, ".bench_build", f"selftest-bare-{os.getpid()}")
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        out = bench("model_curves", 0, cwd=bare)
        last = out.stdout.strip().splitlines()[-1:] or [""]
        expect(out.returncode != 0 and not last[0].startswith("{"),
               "refuses to run without the program's sources")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main():
    check_runs()
    check_output_check()
    check_bare_directory()
    print(f"\nself-test {'passed' if not failures else 'FAILED'}: {len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
