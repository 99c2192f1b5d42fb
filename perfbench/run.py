#!/usr/bin/env python3
"""End-to-end benchmark of quarcnoc: model curves, simulated curves, serve.

    python3 perfbench/run.py --workload model_curves --seed 1 --seconds 20 --trace 0

Builds the program from the checkout's sources (into .bench_build/), runs
one workload for --seconds, checks every output against the recorded
reference, and prints the metrics: human-readable lines and a report line
(environment, sample counts, failed_frac, exact counts, overhead), then, as
the last line, one JSON object {"correct", "attempted", "failed", "metrics"}.
--trace 0 gives the end-to-end metrics, --trace 1 the per-layer metrics of
the traced replay. --workload all runs every workload in turn.
See perfbench/README.md for the workloads and every metric.
"""

import argparse
import glob
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True  # keep the checkout clean

import serve_client  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = ["model_curves", "sim_curves", "serve_mixed"]
THREADS = 1          # fixed worker-thread count (curves and serve)
MIN_SETUPS = 5       # set-up samples per run at least; setup_s is their median
# Rounds per perfbench process in the untraced curve workloads (~4 s each).
SEGMENT_ROUNDS = {"model_curves": 2, "sim_curves": 8}
RTOL = 1e-6          # relative tolerance of every reference comparison
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")

# The metrics every workload prints: end-to-end (--trace 0) and per-layer
# (--trace 1). An operation is a curve (curve workloads) or a request
# (serve_mixed). A layer a workload never calls reads 0 in its traced run.
E2E_METRICS = ["setup_s", "ops_per_s", "op_p50_ms", "op_p90_ms", "peak_rss_mb"]
LAYER_METRICS = [
    "topo.build_ms", "topo.validate_ms", "traffic.pattern_ms", "route.plan_ms",
    "route.routes", "model.flow_graph_ms", "model.flow_edges", "model.channels",
    "model.stencil_ms", "model.stencil_entries", "model.stencil_mb", "model.solve_ms",
    "model.solver_iterations", "model.assembly_ms", "sweep.probe_ms", "sweep.probe_solves",
    "sweep.probe_iterations", "sweep.spine_ms", "sweep.spine_solves", "sweep.points_ms",
    "sweep.cache_hits", "sweep.cache_misses", "sweep.cache_stores",
    "sweep.cache_evicted_rows", "sweep.cache_loaded", "sim.build_ms", "sim.run_ms",
    "sim.arrivals_ms", "sim.allocation_ms", "sim.movement_ms", "sim.cycles_executed",
    "sim.cycles_skipped", "sim.channel_visits", "sim.source_polls", "sim.flits",
    "batch.parse_ms", "batch.fingerprint_ms", "batch.run_ms", "batch.plans_compiled",
    "batch.plans_reused", "batch.flows_compiled", "batch.flows_reused", "api.run_sweep_ms",
    "api.unattributed_ms", "api.serialize_ms", "api.serialize_bytes"]


def layer_unit(name):
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_mb"):
        return "MB"
    return "B" if name.endswith("_bytes") else "count"


class BenchError(Exception):
    pass


# ------------------------------------------------------------------ build

def build():
    """Configures and builds perfbench + quarcnoc; returns their paths."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src", "quarc"))):
        raise BenchError("no quarcnoc sources next to the benchmark")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    for cmd in steps:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        if r.returncode != 0:
            sys.stderr.write(r.stdout[-4000:])
            raise BenchError("build failed: " + " ".join(cmd))
    paths = {"perfbench": os.path.join(BUILD_DIR, "perfbench"),
             "quarcnoc": os.path.join(BUILD_DIR, "quarc", "quarcnoc")}
    for p in paths.values():
        if not os.access(p, os.X_OK):
            raise BenchError(f"build produced no {p}")
    return paths


# ------------------------------------------------------------ environment

def src_line_count():
    files = glob.glob(os.path.join(ROOT, "src", "**", "*.[ch]pp"), recursive=True)
    total = 0
    for path in files:
        with open(path, "rb") as f:
            total += f.read().count(b"\n")
    return total


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def environment(bins, seed):
    env = json.loads(subprocess.run([bins["perfbench"], "env"], check=True,
                                    stdout=subprocess.PIPE, text=True).stdout)
    env.update({
        "flags": env["flags"].strip(),
        "portable": not env.pop("native"),
        "cpu": cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "threads": THREADS,
        "seed": seed,
        "src_lines": src_line_count(),
    })
    return env


# ---------------------------------------------------------------- helpers

def percentile(xs, p):
    """Nearest-rank percentile; returns (value, samples beyond it)."""
    s = sorted(xs)
    k = max(1, math.ceil(p * len(s)))
    return s[k - 1], len(s) - k


def metric(value, unit):
    return {"value": value, "unit": unit}


def write_json(path, doc):
    with open(path, "w") as f:
        json.dump(doc, f)
    return path


def run_perfbench(bins, args, input_doc, rundir, name, timeout):
    """Runs `perfbench <args> <input>`; returns (launch-to-ready s, result)."""
    path = write_json(os.path.join(rundir, name + ".json"), input_doc)
    t0 = time.perf_counter()
    proc = subprocess.Popen([bins["perfbench"], *args, path], stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        ready = None
        if args[0] == "curves":
            first = proc.stdout.readline()
            ready = time.perf_counter() - t0
            if first.strip() != "ready":
                proc.kill()
                proc.communicate()
                raise BenchError(f"perfbench did not get ready: {first.strip()!r}")
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"perfbench {args[0]} timed out")
    if proc.returncode != 0:
        raise BenchError(f"perfbench {args[0]} failed: {err.strip()[-2000:]}")
    lines = out.strip().splitlines()
    return ready, (json.loads(lines[-1]) if lines else None)


def layer_metrics(trace):
    """Per-layer metrics of a traced run: the median over rounds of every
    time, and every exact count; 0 for a layer the workload never calls."""
    values = {}
    for name, samples in trace["times"].items():
        values[name] = statistics.median(samples)
    for name, value in trace["counts"].items():
        if name == "model.stencil_bytes":
            values["model.stencil_mb"] = value / 1e6
        else:
            values[name] = value
    return {name: metric(values.get(name, 0), layer_unit(name)) for name in LAYER_METRICS}


# ----------------------------------------------------------------- curves

def curve_input(workload, seed, seconds, trace, setup_only=False, first_round=0, rounds=0):
    catalogue = workloads.CURVE_CATALOGUES[workload]()
    return {
        "catalogue": catalogue,
        "schedule": workloads.curve_schedule(seed, len(catalogue)),
        "reference": os.path.join(HERE, "reference", workload + ".json"),
        "threads": THREADS, "seconds": seconds, "rtol": RTOL,
        "trace": bool(trace), "setup_only": setup_only,
        "first_round": first_round, "rounds": rounds,
    }


def run_curves(bins, workload, seed, seconds, trace, rundir):
    if trace:
        return run_curves_traced(bins, workload, seed, seconds, rundir)
    # Segments of a few rounds, each a fresh perfbench process: every
    # launch is a set-up sample, spread over the whole run.
    step = SEGMENT_ROUNDS[workload]
    setups, curve_ms, err_pct, rss = [], [], [], []
    points = flits = attempted = failed = rounds = 0
    failures = []
    t0 = time.perf_counter()
    while rounds == 0 or time.perf_counter() - t0 < seconds:
        ready, res = run_perfbench(bins, ["curves"], curve_input(
            workload, seed, seconds, False, first_round=rounds, rounds=step),
            rundir, "input", 150)
        setups.append(ready)
        rounds += step
        curve_ms += res["curve_ms"]
        err_pct += res.get("err_pct", [])
        points += res["points"]
        flits += res.get("flits", 0)
        rss.append(res["peak_rss_mb"])
        attempted += res["attempted"]
        failed += res["failed"]
        failures += res["failures"][:8 - len(failures)]
    while len(setups) < MIN_SETUPS:
        ready, _ = run_perfbench(bins, ["curves"], curve_input(workload, seed, seconds, False,
                                                               setup_only=True),
                                 rundir, "setup", 60)
        setups.append(ready)

    host_s = sum(curve_ms) / 1e3
    p50, beyond50 = percentile(curve_ms, 0.5)
    p90, beyond90 = percentile(curve_ms, 0.9)
    metrics = {
        "setup_s": metric(statistics.median(setups), "s"),
        "ops_per_s": metric(len(curve_ms) / host_s, "1/s"),
        "op_p50_ms": metric(p50, "ms"),
        "op_p90_ms": metric(p90, "ms"),
        "peak_rss_mb": metric(statistics.median(rss), "MB"),
    }
    report = {"attempted": attempted, "failed": failed, "failures": failures,
              "rounds": rounds, "setup_samples": len(setups),
              "samples": {"op_p50_ms": {"n": len(curve_ms), "beyond": beyond50},
                          "op_p90_ms": {"n": len(curve_ms), "beyond": beyond90}},
              "extra": {"points_per_s": metric(points / host_s, "1/s")}}
    if workload == "sim_curves":
        report["extra"]["sim_flits_per_s"] = metric(flits / host_s, "1/s")
        if err_pct:
            report["extra"]["model_err_pct"] = metric(statistics.median(err_pct), "%")
        report["samples"]["model_err_pct"] = {"n": len(err_pct)}
    return metrics, attempted, failed, report


def run_curves_traced(bins, workload, seed, seconds, rundir):
    _, res = run_perfbench(bins, ["curves"], curve_input(workload, seed, seconds, True),
                           rundir, "input", seconds + 100)
    traced = statistics.median(res["traced_ms"])
    untraced = statistics.median(res["untraced_ms"])
    report = {"attempted": res["attempted"], "failed": res["failed"],
              "failures": res["failures"], "rounds": res["rounds"], "counts": res["counts"],
              "counts_stable": res["counts_stable"],
              "overhead": {
                  "traced_round_ms": traced, "untraced_round_ms": untraced,
                  "traced_over_untraced": traced / untraced,
                  "note": "once-each traced stages vs Scenario::run_sweep of the same curves"}}
    if not res["counts_stable"]:
        res["failed"] += 1
        report["failures"].append("a per-layer count differed between rounds")
    return layer_metrics(res), res["attempted"], res["failed"], report


# ------------------------------------------------------------------ serve

def serve_reference():
    return serve_client.Reference(os.path.join(HERE, "reference", "serve_mixed.json"), RTOL)


def run_serve(bins, seed, seconds, trace, rundir):
    quarcnoc = bins["quarcnoc"]
    checker = serve_client.Checker(serve_reference())
    if trace:
        return run_serve_traced(bins, seed, seconds, rundir, checker)
    res = serve_client.run_epochs(quarcnoc, rundir, THREADS, workloads.serve_epochs(seed),
                                  checker, seconds)
    setups = res["setup_s"]  # one launch per epoch, spread over the run
    while len(setups) < MIN_SETUPS:
        setups.append(serve_client.setup_time(
            quarcnoc, os.path.join(rundir, f"setup{len(setups)}"), THREADS))
    lat_ms = [x * 1e3 for x in res["latency_s"]]
    p50, beyond50 = percentile(lat_ms, 0.5)
    p90, beyond90 = percentile(lat_ms, 0.9)
    p99, beyond99 = percentile(lat_ms, 0.99)
    metrics = {
        "setup_s": metric(statistics.median(setups), "s"),
        "ops_per_s": metric(len(lat_ms) / (sum(lat_ms) / 1e3), "1/s"),
        "op_p50_ms": metric(p50, "ms"),
        "op_p90_ms": metric(p90, "ms"),
        "peak_rss_mb": metric(statistics.median(res["peak_rss_mb"]), "MB"),
    }
    store = {}
    for stats in res["stats"]:
        for k, v in stats.items():
            if k not in ("schema", "cmd"):
                store[k] = store.get(k, 0) + v
    report = {
        "attempted": checker.attempted, "failed": checker.failed,
        "failures": checker.failures, "setup_samples": len(setups),
        "epochs": len(res["stats"]),
        "samples": {"op_p50_ms": {"n": len(lat_ms), "beyond": beyond50},
                    "op_p90_ms": {"n": len(lat_ms), "beyond": beyond90},
                    "request_p99_ms": {"n": len(lat_ms), "beyond": beyond99}},
        "extra": {"request_p99_ms": metric(p99, "ms")},
        "store": store,
    }
    return metrics, checker.attempted, checker.failed, report


def run_serve_traced(bins, seed, seconds, rundir, checker):
    """The first epoch through a real server, untraced, then the in-process
    per-layer replay of the same requests, repeated with a fresh store."""
    t0 = time.perf_counter()
    epoch = next(workloads.serve_epochs(seed))
    res = serve_client.run_epochs(bins["quarcnoc"], rundir, THREADS, [epoch], checker)
    req_path = os.path.join(rundir, "requests.jsonl")
    with open(req_path, "w") as f:
        f.writelines(r[0] + "\n" for r in epoch)
    resp_path = os.path.join(rundir, "responses.jsonl")
    with open(resp_path, "w") as f:
        f.writelines(r + "\n" for r in res["responses"])
    remaining = max(1.0, seconds - (time.perf_counter() - t0))
    _, replay = run_perfbench(bins, ["serve-replay"], {
        "requests": req_path, "responses": resp_path,
        "cache_root": os.path.join(rundir, "replay"),
        "memory_limit": workloads.MEMORY_LIMIT_ROWS, "threads": THREADS,
        "seconds": remaining}, rundir, "replay", seconds + 100)
    metrics = layer_metrics(replay)
    untraced_ms = sum(res["latency_s"]) * 1e3
    replay_ms = sum(replay["request_ms"])
    failed = checker.failed + replay["failed"]
    report = {
        "attempted": checker.attempted, "failed": failed,
        "failures": checker.failures + replay["failures"],
        "rounds": replay["rounds"], "counts": replay["counts"],
        "counts_stable": replay["counts_stable"],
        "fidelity": {
            "requests": len(epoch),
            "untraced_request_ms_total": untraced_ms,
            "replayed_stage_ms_total": replay_ms,
            "replayed_over_untraced": replay_ms / untraced_ms,
            "note": "sum over one epoch's requests of parse+fingerprint+run+serialize, "
                    "replayed in-process, vs the same requests timed by the client "
                    "against quarcnoc serve"},
    }
    if not replay["counts_stable"]:
        failed += 1
        report["failures"].append("a per-layer count differed between rounds")
    return metrics, checker.attempted, failed, report


# ------------------------------------------------------------------- main

def run_workload(bins, env, workload, seed, seconds, trace):
    rundir = os.path.join(ROOT, ".bench_build", "runs", f"{workload}-{os.getpid()}")
    shutil.rmtree(rundir, ignore_errors=True)
    os.makedirs(rundir)
    try:
        if workload == "serve_mixed":
            metrics, attempted, failed, report = run_serve(bins, seed, seconds, trace, rundir)
        else:
            metrics, attempted, failed, report = run_curves(bins, workload, seed, seconds,
                                                            trace, rundir)
    finally:
        shutil.rmtree(rundir, ignore_errors=True)
    expected = LAYER_METRICS if trace else E2E_METRICS
    if sorted(metrics) != sorted(expected):
        raise BenchError(f"{workload} produced metrics {sorted(metrics)}, expected {expected}")
    report["failed_frac"] = failed / attempted if attempted else 1.0
    report = {"workload": workload, "trace": bool(trace), "environment": env, **report}
    samples = report.get("samples", {})
    for name, m in [*metrics.items(), *report.get("extra", {}).items()]:
        n = samples.get(name)
        extra = f"  (n={n['n']}, {n['beyond']} beyond)" if n and "beyond" in n else ""
        print(f"{workload} {name} = {m['value']:.6g} {m['unit']}{extra}")
    print(f"{workload} failed_frac = {report['failed_frac']:.6g} "
          f"({failed} of {attempted} operations)")
    print("report " + json.dumps(report, sort_keys=True))
    return {"correct": failed == 0 and attempted > 0, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    try:
        bins = build()
        env = environment(bins, args.seed)
        names = WORKLOADS if args.workload == "all" else [args.workload]
        for name in names:
            result = run_workload(bins, env, name, args.seed, args.seconds, args.trace)
            print(json.dumps(result), flush=True)
    except (BenchError, serve_client.ServeError, OSError, subprocess.SubprocessError) as e:
        sys.stderr.write(f"perfbench: {e}\n")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
