"""The serve_mixed client: drives a long-lived ``quarcnoc serve`` over pipes.

One closed-loop client keeps one request outstanding. Every response is
checked on arrival:

- an error response or a malformed line fails the request;
- every row returned for a (fingerprint, rate) pair must be byte-equal to
  the row first solved for it (store hits, and solves in later epochs);
- every first-solved row of a recorded lattice rate must match the
  reference within the relative tolerance;
- ``served`` / ``solved`` must count exactly the repeated / new rates.
"""

import json
import os
import subprocess
import time

import workloads


class ServeError(Exception):
    pass


def split_rows(line):
    """Raw text of each object in the response's "rows" array."""
    start = line.index('"rows":[') + len('"rows":[')
    rows, depth, begin, in_string, escaped = [], 0, None, False, False
    for i in range(start, len(line)):
        ch = line[i]
        if in_string:
            if escaped:
                escaped = False
            elif ch == "\\":
                escaped = True
            elif ch == '"':
                in_string = False
        elif ch == '"':
            in_string = True
        elif ch == "{":
            if depth == 0:
                begin = i
            depth += 1
        elif ch == "}":
            depth -= 1
            if depth == 0:
                rows.append(line[begin:i + 1])
        elif ch == "]" and depth == 0:
            return rows
    raise ValueError("unterminated rows array")


def close(a, b, rtol):
    if a is None or b is None:
        return a is None and b is None
    return a == b or abs(a - b) <= rtol * max(abs(a), abs(b))


class Reference:
    """Recorded model values of every lattice rate (reference/serve_mixed.json)."""

    def __init__(self, path, rtol):
        with open(path) as f:
            doc = json.load(f)
        self.rtol = rtol
        self.values = []
        for i, cell in enumerate(doc["cells"]):
            spec = dict(workloads.SERVE_SCENARIOS[i][0], msg=32)
            if {k: cell["spec"][k] for k in spec} != spec:
                raise ServeError("serve reference does not match the catalogue")
            self.values.append({r: (u, m, x) for r, u, m, x in zip(
                workloads.lattice_rates(i), cell["unicast"], cell["multicast"],
                cell["max_util"])})

    def check(self, scenario, rate, row):
        """'' when the row matches its reference."""
        ref = self.values[scenario].get(rate)
        model = row.get("model", {})
        if model.get("status") != "converged":
            return f"status {model.get('status')}"
        if ref is None:
            return "rate not in the recorded lattice"
        got = (model.get("unicast_latency"), model.get("multicast_latency"),
               model.get("max_utilization"))
        for name, g, r in zip(("unicast", "multicast", "max_util"), got, ref):
            if not close(g, r, self.rtol):
                return f"{name} {g} != reference {r}"
        return ""


class Server:
    """A `quarcnoc serve` child; start() returns launch-to-ready seconds."""

    def __init__(self, quarcnoc, cache_dir, threads):
        self.cmd = [quarcnoc, "serve", "--cache-dir", cache_dir,
                    "--memory-limit", str(workloads.MEMORY_LIMIT_ROWS),
                    "--threads", str(threads)]
        self.proc = None

    def start(self):
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(self.cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     stderr=subprocess.PIPE, text=True, bufsize=1)
        line = self.proc.stderr.readline()
        elapsed = time.perf_counter() - t0
        if not line.startswith("serve: ready"):
            self.stop()
            raise ServeError(f"serve did not come up: {line.strip()!r}")
        return elapsed

    def request(self, line):
        """Sends one request; returns (response line, seconds)."""
        t0 = time.perf_counter()
        self.proc.stdin.write(line + "\n")
        self.proc.stdin.flush()
        response = self.proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        if not response:
            raise ServeError("serve closed its output")
        self.proc.stderr.readline()  # serve logs one stderr line per request
        return response.rstrip("\n"), elapsed

    def command(self, cmd):
        self.proc.stdin.write(json.dumps({"cmd": cmd}) + "\n")
        self.proc.stdin.flush()
        return json.loads(self.proc.stdout.readline())

    def peak_rss_mb(self):
        with open(f"/proc/{self.proc.pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise ServeError("no VmHWM for serve")

    def stop(self):
        if self.proc is None:
            return
        try:
            if self.proc.poll() is None:
                self.proc.stdin.close()
            self.proc.wait(timeout=30)
        except (subprocess.TimeoutExpired, BrokenPipeError, OSError):
            self.proc.kill()
            self.proc.wait()
        for stream in (self.proc.stdout, self.proc.stderr):
            stream.close()
        self.proc = None


class Checker:
    """Per-request output checks; counts attempted and failed requests."""

    def __init__(self, reference):
        self.reference = reference
        self.first_rows = {}   # (scenario, rate) -> raw row text
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def fail(self, why):
        self.failed += 1
        if len(self.failures) < 8:
            self.failures.append(why)

    def check(self, request_id, scenario, rates, served, response):
        self.attempted += 1
        try:
            doc = json.loads(response)
            if "error" in doc:
                return self.fail(f"request {request_id}: error {doc['error']}")
            rows = split_rows(response)
            if len(rows) != len(rates):
                return self.fail(f"request {request_id}: {len(rows)} rows for {len(rates)} rates")
            if doc["served"] != served or doc["solved"] != len(rates) - served:
                return self.fail(f"request {request_id}: served/solved {doc['served']}/"
                                 f"{doc['solved']}, expected {served}/{len(rates) - served}")
            for rate, raw, parsed in zip(rates, rows, doc["rows"]):
                key = (scenario, rate)
                first = self.first_rows.get(key)
                if first is None:
                    self.first_rows[key] = raw
                    why = self.reference.check(scenario, rate, parsed)
                    if why:
                        return self.fail(f"request {request_id} rate {rate}: {why}")
                elif raw != first:
                    return self.fail(f"request {request_id} rate {rate}: store hit differs "
                                     "from the first-solved row")
        except (ValueError, KeyError, TypeError) as e:
            return self.fail(f"request {request_id}: malformed response ({e})")


def run_epochs(quarcnoc, rundir, threads, epochs, checker, seconds=None):
    """Drives `epochs` (lists of stream requests), each through its own
    server and fresh store, until they run out or `seconds` have passed.
    Returns per-epoch set-up times, stats and peak RSS, and per-request
    latencies and raw responses."""
    out = {"setup_s": [], "latency_s": [], "responses": [], "stats": [], "peak_rss_mb": []}
    t0 = time.perf_counter()
    for e, epoch in enumerate(epochs):
        if seconds is not None and e > 0 and time.perf_counter() - t0 >= seconds:
            break
        server = Server(quarcnoc, os.path.join(rundir, f"store{e}"), threads)
        out["setup_s"].append(server.start())
        try:
            for line, scenario, rates, served in epoch:
                if seconds is not None and time.perf_counter() - t0 >= seconds:
                    break
                response, dt = server.request(line)
                out["latency_s"].append(dt)
                out["responses"].append(response)
                checker.check(len(out["latency_s"]) - 1, scenario, rates, served, response)
            out["stats"].append(server.command("stats"))
            out["peak_rss_mb"].append(server.peak_rss_mb())
            server.command("shutdown")
        finally:
            server.stop()
    return out


def setup_time(quarcnoc, cache_dir, threads):
    """Launch-to-ready of one fresh server, which is then shut down."""
    server = Server(quarcnoc, cache_dir, threads)
    try:
        return server.start()
    finally:
        server.stop()
