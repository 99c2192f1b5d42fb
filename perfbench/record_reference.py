#!/usr/bin/env python3
"""Re-records the reference values every benchmark run is checked against.

    python3 perfbench/record_reference.py

Writes reference/{model_curves,sim_curves,serve_mixed}.json from the
current checkout. Only re-record on purpose — when a change is meant to
move results (a fingerprint-schema bump) — and say so in CHANGES.md; the
references in the repository were recorded from the commit that added the
benchmark.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True  # keep the checkout clean

import run  # noqa: E402
import workloads  # noqa: E402


def record(bins, catalogue, rundir):
    path = run.write_json(os.path.join(rundir, "record.json"),
                          {"catalogue": catalogue, "threads": run.THREADS})
    out = subprocess.run([bins["perfbench"], "record", path], check=True,
                         stdout=subprocess.PIPE, text=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def significant(x, digits=10):
    return None if x is None else float(f"{x:.{digits}g}")


def main():
    bins = run.build()
    rundir = os.path.join(run.ROOT, ".bench_build", "runs", f"record-{os.getpid()}")
    os.makedirs(rundir, exist_ok=True)
    refdir = os.path.join(HERE, "reference")
    os.makedirs(refdir, exist_ok=True)
    for name, catalogue in workloads.CURVE_CATALOGUES.items():
        doc = record(bins, catalogue(), rundir)
        with open(os.path.join(refdir, name + ".json"), "w") as f:
            json.dump(doc, f, indent=1)
            f.write("\n")
    # The serve lattice: values only (the rates follow from workloads.py),
    # at 10 significant digits — far inside the 1e-6 comparison tolerance.
    doc = record(bins, workloads.serve_catalogue(), rundir)
    cells = []
    for cell in doc["cells"]:
        spec = {k: v for k, v in cell["spec"].items() if k != "rates"}
        rows = cell["rows"]
        cells.append({"spec": spec, **{
            key: [significant(r[key]) for r in rows]
            for key in ("unicast", "multicast", "max_util")}})
    with open(os.path.join(refdir, "serve_mixed.json"), "w") as f:
        f.write('{"cells":[\n')
        f.write(",\n".join(json.dumps(c, separators=(",", ":")) for c in cells))
        f.write("\n]}\n")
    os.remove(os.path.join(rundir, "record.json"))
    os.rmdir(rundir)


if __name__ == "__main__":
    main()
