#!/usr/bin/env python3
"""Benchmark of the T1 flow's three request paths.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout. The script builds `sfqt1`, `sfqt1d`
and the tracer with cargo (into `$CARGO_TARGET_DIR`, default `.bench_build`),
generates the workload's inputs, runs batches (or daemon requests) in a
closed loop for `--seconds`, checks every output row against
`perfbench/expected/<workload>.txt`, and prints one JSON object as the last
line of stdout. `--trace 0` reports the end-to-end metrics; `--trace 1` runs
the traced layer calls and reports the per-layer metrics. See README.md.
"""

import argparse
import json
import os
import platform
import random
import shutil
import socket
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXPECTED_DIR = os.path.join(HERE, "expected")

PAPER = ["adder", "c7552", "c6288", "sin", "voter", "square", "multiplier", "log2"]
CORPUS_DIR = os.path.join("crates", "bench", "corpus")

WORKLOADS = {
    "paper-t1": {"kind": "batch", "cmd": "flow", "set": "paper", "workers": 1},
    "paper-t1-w2": {"kind": "batch", "cmd": "flow", "set": "paper", "workers": 2},
    "corpus-verify": {"kind": "batch", "cmd": "verify", "set": "corpus", "workers": 1},
    "daemon-small": {"kind": "daemon", "cmd": "flow", "set": "small", "workers": 1},
}

FLOW_ARGS = ["--t1", "--phases", "4"]
FLOW_HEADER = "FLOW phases=4 t1=1 engine=auto gain=0 verify=0 deadline_ms=- max_nodes=-"
NAME_WIDTH = 16  # width of the design column in sfqt1's batch rows
SETUP_REPS = 5
DAEMON_CLIENTS = 2
DAEMON_MIN_REQUESTS = 1000

# The metric names of BENCHMARK.json: every run prints exactly one list.
END_TO_END = ("setup_s", "batch_s", "request_ms_p50", "peak_rss_mb", "area_jj", "dffs",
              "ok_ratio")
PER_LAYER = (
    "design.parse_ms", "design.bytes", "mapper.map_ms", "mapper.cells", "network.clean_ms",
    "cuts.enumerate_ms", "cuts.total", "detect.detect_ms", "detect.self_ms",
    "detect.t1_found", "detect.t1_used", "detect.commit_ratio", "phase.assign_ms",
    "phase.descent_ms", "dff.emit_ms", "dff.dffs", "timed.audit_ms", "flow.supervised_ms",
    "flow.other_ms", "equiv.check_ms", "equiv.waves", "margin.analyze_ms", "margin.trials",
    "batch.other_ms", "daemon.first_row_ms", "daemon.overhead_ms", "daemon.request_p99_ms",
    "state.cache_hit_ratio", "trace.overhead_ms",
)


class BenchError(Exception):
    """A failure that stops the run before a result can be reported."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# ---------------------------------------------------------------- statistics


def percentile(values, q):
    """Linear-interpolated percentile `q` (0..100) of `values`."""
    if not values:
        raise ValueError("percentile of no samples")
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def latency_summary(values):
    """p50, p95 and p99 of `values` with the sample count they rest on."""
    return {
        "p50": percentile(values, 50),
        "p95": percentile(values, 95),
        "p99": percentile(values, 99),
        "n": len(values),
    }


# -------------------------------------------------------------- expected rows


def design_key(row):
    """The design a row belongs to: its first column, seed prefix removed."""
    return strip_prefix(row.split(None, 1)[0])


def strip_prefix(name):
    """`07-adder.aag` -> `adder.aag` (the seed's ordering prefix)."""
    head, sep, rest = name.partition("-")
    return rest if sep and len(head) == 2 and head.isdigit() else name


def normalize_row(row):
    """Renders `row` as sfqt1 would for the unprefixed design name."""
    name = row.split(None, 1)[0]
    design = strip_prefix(name)
    if design == name:
        return row
    return design.ljust(NAME_WIDTH) + row[max(NAME_WIDTH, len(name)):]


def load_expected(name):
    """Expected rows of one file of `perfbench/expected`, keyed by design."""
    path = os.path.join(EXPECTED_DIR, name + ".txt")
    with open(path, encoding="utf-8") as f:
        rows = [line.rstrip("\n") for line in f if line.strip()]
    return {design_key(r): r for r in rows}


class RowCheck:
    """Counts rows attempted, rows equal to their expected row, and failures."""

    def __init__(self, expected):
        self.expected = expected
        self.attempted = 0
        self.ok = 0
        self.problems = []

    def check_pass(self, rows, designs):
        """Checks one pass: exactly one matching row per design of `designs`.

        A design with no row or with several rows fails; a row for a design
        outside `designs` counts as one more failed row."""
        seen = {}
        for row in rows:
            seen.setdefault(design_key(row), []).append(normalize_row(row))
        for d in designs:
            got = seen.get(d, [])
            self.count(d, got[0] if len(got) == 1 else got, self.expected.get(d))
        for d in sorted(set(seen) - set(designs)):
            self.count(d, seen[d], None)
        return [seen[d][0] for d in designs if d in seen]

    def count(self, design, got, want):
        self.attempted += 1
        if isinstance(got, str) and got == want:
            self.ok += 1
        elif len(self.problems) < 10:
            self.problems.append(f"{design}: expected {want!r}, got {got!r}")

    @property
    def failed(self):
        return self.attempted - self.ok


def flow_totals(rows):
    """(area JJ, DFFs) summed over flow-table rows."""
    area = dffs = 0
    for row in rows:
        cols = row.split("|")[-1].split()
        dffs += int(cols[1])
        area += int(cols[2])
    return area, dffs


# ------------------------------------------------------------------- building


def target_dir():
    t = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return t if os.path.isabs(t) else os.path.join(ROOT, t)


def build(trace):
    """Builds sfqt1 and sfqt1d, and the tracer; returns their paths.

    Only the traced run needs the tracer, which links the flow's library
    crates: a tracer that no longer builds fails traced runs only."""
    for needed in ("Cargo.toml", os.path.join("crates", "cli"), CORPUS_DIR):
        if not os.path.exists(os.path.join(ROOT, needed)):
            raise BenchError(f"not a source checkout: `{needed}` is missing")
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    cargo = ["cargo", "build", "--release", "--offline", "-q"]
    if subprocess.run(cargo + ["-p", "sfq-cli", "--bins"], cwd=ROOT, env=env,
                      stdout=sys.stderr).returncode != 0:
        raise BenchError("building sfqt1 and sfqt1d failed")
    tracer = cargo + ["--manifest-path", os.path.join(HERE, "tracer", "Cargo.toml")]
    if subprocess.run(tracer, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
        if trace:
            raise BenchError("building the tracer failed")
        log("perfbench: building the tracer failed; untraced runs do not need it")
    rel = os.path.join(target_dir(), "release")
    return {
        "sfqt1": os.path.join(rel, "sfqt1"),
        "sfqt1d": os.path.join(rel, "sfqt1d"),
        "tracer": os.path.join(rel, "perfbench-tracer"),
    }


def host_fingerprint(workers):
    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    rustc = subprocess.run(["rustc", "-V"], capture_output=True, text=True).stdout.strip()
    return {
        "nproc": os.cpu_count(),
        "cpu": model,
        "rustc": rustc,
        "profile": "release (workspace profile, lto=thin)",
        "workers": workers,
    }


# --------------------------------------------------------------------- inputs


def write_set(bins, kind, dest):
    """Writes a design set into `dest`; returns the design file names."""
    os.makedirs(dest)
    names = []
    if kind == "corpus":
        for f in sorted(os.listdir(os.path.join(ROOT, CORPUS_DIR))):
            shutil.copyfile(os.path.join(ROOT, CORPUS_DIR, f), os.path.join(dest, f))
            names.append(f)
    scale = [] if kind == "paper" else ["--small"]
    for b in PAPER:
        f = b + ".aag"
        run_checked([bins["sfqt1"], "bench", b, *scale, "--aag", os.path.join(dest, f)])
        names.append(f)
    return sorted(names)


def run_checked(cmd):
    r = subprocess.run(cmd, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    if r.returncode != 0:
        raise BenchError(f"{' '.join(cmd)} failed: {r.stderr.strip()}")


def order_set(dest, names, order):
    """Renames the files of `dest` so `sfqt1 --batch` visits them in `order`."""
    current = {strip_prefix(f): f for f in os.listdir(dest)}
    for pos, name in enumerate(order):
        new = f"{pos:02d}-{name}"
        if current[name] != new:
            os.rename(os.path.join(dest, current[name]), os.path.join(dest, new))
    return [f"{pos:02d}-{n}" for pos, n in enumerate(order)]


# -------------------------------------------------------------------- batches


def run_batch(bins, wl, dest):
    """One `sfqt1 <flow|verify> --batch` process: (wall s, peak RSS MB, rows)."""
    args = [bins["sfqt1"], wl["cmd"], "--batch", dest, "--workers", str(wl["workers"])]
    if wl["cmd"] == "flow":
        args += FLOW_ARGS
    return timed_process(args)


def timed_process(args):
    t0 = time.perf_counter()
    p = subprocess.Popen(args, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    out = p.stdout.read()
    _, status, usage = os.wait4(p.pid, 0)
    wall = time.perf_counter() - t0
    p.stdout.close()
    p.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, table_rows(out.decode())


def table_rows(text):
    """The design rows of a batch table (between its header and summary)."""
    rows, inside = [], False
    for line in text.splitlines():
        if line.startswith("design "):
            inside = True
        elif line.startswith("batch summary") or line.startswith("batch: stopping"):
            inside = False
        elif inside and line.strip():
            rows.append(line)
    return rows


class Workload:
    """State shared by both workload kinds: the design set, the seeded
    random stream and the row checks."""

    def __init__(self, name, bins, work, rng):
        self.name = name
        self.wl = WORKLOADS[name]
        self.bins = bins
        self.work = work
        self.rng = rng
        self.check = RowCheck(load_expected(name))
        self.dest = None
        self.names = []
        self.perm = None
        self.quality = None

    def new_set(self, rep):
        """Writes a fresh copy of the design set, replacing the previous one."""
        if self.dest is not None:
            shutil.rmtree(self.dest)
        self.dest = os.path.join(self.work, f"set{rep}")
        self.names = write_set(self.bins, self.wl["set"], self.dest)

    def rotations(self):
        """The rotations of one seed-drawn permutation of the set, in turn:
        over a whole cycle every design takes every position once."""
        if self.perm is None:
            self.perm = self.rng.sample(self.names, len(self.names))
        n = len(self.perm)
        return [self.perm[k:] + self.perm[:k] for k in range(n)]

    def checks(self):
        return [self.check]


class BatchWorkload(Workload):
    def __init__(self, name, bins, work, rng):
        super().__init__(name, bins, work, rng)
        self.flow_check = (
            RowCheck(load_expected(name + ".flow")) if self.wl["cmd"] == "verify" else None
        )

    def setup_once(self, rep):
        """Builds the inputs and runs one untimed batch (plus, for verify, a
        flow pass for the quality totals)."""
        t0 = time.perf_counter()
        self.new_set(rep)
        order_set(self.dest, self.names, self.names)
        if self.flow_check is not None:
            args = [self.bins["sfqt1"], "flow", "--batch", self.dest,
                    "--workers", str(self.wl["workers"]), *FLOW_ARGS]
            _, _, rows = timed_process(args)
            self.quality = flow_totals(self.flow_check.check_pass(rows, self.names))
        _, _, rows = run_batch(self.bins, self.wl, self.dest)
        checked = self.check.check_pass(rows, self.names)
        if self.flow_check is None:
            self.quality = flow_totals(checked)
        return time.perf_counter() - t0

    def measure(self, seconds):
        """Closed loop of batches in whole cycles of `rotations()`, so every
        design order weighs the same. The cycle count is `seconds` over one
        cycle's time, rounded, and at least 1."""
        walls, rss = [], []
        t0 = time.perf_counter()
        cycles = 0
        while True:
            for order in self.rotations():
                order_set(self.dest, self.names, order)
                wall, peak, rows = run_batch(self.bins, self.wl, self.dest)
                self.check.check_pass(rows, order)
                walls.append(wall)
                rss.append(peak)
            cycles += 1
            if (time.perf_counter() - t0) * (cycles + 0.5) / cycles >= seconds:
                return walls, rss

    def stop(self):
        return None

    def checks(self):
        return [c for c in (self.check, self.flow_check) if c is not None]


# --------------------------------------------------------------------- daemon


def daemon_request(sock_path, payload):
    """One connection: send `payload`, read the reply through its `END` (or
    `ERR`, or to EOF for one-line replies). Returns (latency s, first-row s,
    reply lines)."""
    t0 = time.perf_counter()
    first = None
    buf = b""
    with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as s:
        s.connect(sock_path)
        s.sendall(payload)
        while True:
            chunk = s.recv(65536)
            if not chunk:
                break
            buf += chunk
            if first is None and b"ROW " in buf:
                first = time.perf_counter() - t0
            last = buf[:-1].rsplit(b"\n", 1)[-1]
            if buf.endswith(b"\n") and last[:4] in (b"END ", b"ERR "):
                break
    latency = time.perf_counter() - t0
    return latency, first if first is not None else latency, buf.decode().splitlines()


def flow_payload(name, body):
    """A FLOW request carrying one design INLINE."""
    return (f"{FLOW_HEADER}\nDESIGN {name} INLINE {len(body)}\n".encode() + body
            + b"\nRUN\n")


def reply_rows(lines):
    """Table rows of a FLOW reply, in index order; raises on ERR."""
    rows = []
    for line in lines:
        if line.startswith("ERR"):
            raise BenchError(f"daemon replied {line}")
        if line.startswith("ROW "):
            rows.append(line.split(" ", 2)[2])
    return rows


class Daemon:
    """A running sfqt1d on a socket in the run's work directory."""

    def __init__(self, bins, work, workers, tag):
        # Relative to ROOT (the working directory): Unix socket paths are short.
        self.sock = os.path.relpath(os.path.join(work, f"{tag}.sock"), ROOT)
        self.proc = subprocess.Popen(
            [bins["sfqt1d"], self.sock, "--workers", str(workers)],
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        deadline = time.perf_counter() + 30
        while True:
            try:
                if self.command(b"PING\n") == ["PONG"]:
                    break
            except OSError:
                pass
            if self.proc.poll() is not None or time.perf_counter() > deadline:
                self.stop()
                raise BenchError("sfqt1d did not answer PING")
            time.sleep(0.002)

    def command(self, payload):
        return daemon_request(self.sock, payload)[2]

    def stats(self):
        line = self.command(b"STATS\n")[0]
        return dict(kv.split("=", 1) for kv in line.split()[1:])

    def stop(self):
        """Stops the daemon and returns its peak RSS in MB."""
        if self.proc.poll() is None:
            try:
                self.command(b"STOP\n")
            except OSError:
                self.proc.terminate()
        try:
            _, _, usage = os.wait4(self.proc.pid, 0)
            self.proc.returncode = 0
            return usage.ru_maxrss / 1024.0
        except ChildProcessError:
            return 0.0


class DaemonWorkload(Workload):
    def __init__(self, name, bins, work, rng):
        super().__init__(name, bins, work, rng)
        self.daemon = None
        self.bodies = {}
        self.first_rows = []
        self.request_log = []

    def setup_once(self, rep):
        """Builds the inputs, starts sfqt1d, waits for PONG, and warms it with
        one request per design."""
        self.stop()
        t0 = time.perf_counter()
        self.new_set(rep)
        self.bodies = {}
        for n in self.names:
            with open(os.path.join(self.dest, n), "rb") as f:
                self.bodies[n] = f.read()
        self.daemon = Daemon(self.bins, self.work, self.wl["workers"], f"d{rep}")
        rows = [self.request(n)[0] for n in self.names]
        self.quality = flow_totals(self.check.check_pass(rows, self.names))
        return time.perf_counter() - t0

    def request(self, name):
        latency, first, lines = daemon_request(
            self.daemon.sock, flow_payload(name, self.bodies[name])
        )
        rows = reply_rows(lines)
        return (rows[0] if rows else ""), latency, first

    def measure(self, seconds):
        """Closed loop: DAEMON_CLIENTS clients share each pass (the next of
        `rotations()`); the next pass starts when all its requests are
        answered. Runs for `seconds` and at least DAEMON_MIN_REQUESTS."""
        latencies, passes = [], []
        lock = threading.Lock()
        errors = []
        t_end = time.perf_counter() + seconds
        orders = self.rotations()
        while time.perf_counter() < t_end or len(latencies) < DAEMON_MIN_REQUESTS:
            order = orders[len(passes) % len(orders)]
            queue = list(order)
            results = {}

            def client():
                while True:
                    with lock:
                        if not queue:
                            return
                        name = queue.pop(0)
                    try:
                        row, latency, first = self.request(name)
                    except (OSError, BenchError) as e:
                        with lock:
                            errors.append(str(e))
                        return
                    with lock:
                        results[name] = row
                        latencies.append(latency)
                        self.first_rows.append(first)
                        self.request_log.append((name, latency))

            t0 = time.perf_counter()
            threads = [threading.Thread(target=client) for _ in range(DAEMON_CLIENTS)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            passes.append(time.perf_counter() - t0)
            self.check.check_pass([results[n] for n in order if n in results], order)
            if errors:
                raise BenchError(f"daemon request failed: {errors[0]}")
        return passes, latencies

    def stop(self):
        """Stops the daemon; returns its peak RSS in MB."""
        rss = self.daemon.stop() if self.daemon is not None else None
        self.daemon = None
        return rss


# -------------------------------------------------------------------- tracing


def run_tracer(bins, wl, dest, order):
    args = [bins["tracer"], "--mode", wl["cmd"], "--workers", str(wl["workers"])]
    args += [os.path.join(dest, n) for n in order]
    r = subprocess.run(args, capture_output=True, text=True)
    if not r.stdout.strip():
        raise BenchError(f"tracer failed: {r.stderr.strip()}")
    return json.loads(r.stdout), r.returncode


STAGES = ["mapper.map", "network.clean", "detect.detect", "phase.assign", "dff.emit",
          "timed.audit"]


def layer_metrics(trace, verify):
    """Per-layer sums over each traced pass, then the median over passes.

    Returns (metrics, per-design in-process ms, median traced pass ms)."""
    req_pass = {r["id"]: r["pass"] for r in trace["requests"]}
    req_design = {r["id"]: os.path.basename(r["design"]) for r in trace["requests"]}
    sums = {}  # pass -> name -> ms
    per_design = {}  # design -> [ms per pass]
    design_ms = {}  # request -> ms of parse + supervised (+ verification)
    pass_walls = []
    for s in trace["spans"]:
        ms = (s["end_us"] - s["start_us"]) / 1000.0
        if s["name"] == "pass":
            pass_walls.append(ms)
            continue
        if s["name"] == "design":
            continue
        p = req_pass[s["request"]]
        sums.setdefault(p, {}).setdefault(s["name"], 0.0)
        sums[p][s["name"]] += ms
        counted = ["design.parse", "flow.supervised"]
        if verify:
            counted += ["equiv.check", "margin.analyze"]
        if s["name"] in counted:
            design_ms[s["request"]] = design_ms.get(s["request"], 0.0) + ms
    for req, ms in design_ms.items():
        per_design.setdefault(strip_prefix(req_design[req]), []).append(ms)

    def med(fn):
        vals = [fn(v) for p, v in sorted(sums.items()) if fn(v) is not None]
        return statistics.median(vals) if vals else 0.0

    def span(name):
        return lambda v: v.get(name)

    m = {}
    for name in ["design.parse", "mapper.map", "network.clean", "cuts.enumerate",
                 "detect.detect", "phase.assign", "phase.descent", "dff.emit",
                 "timed.audit", "flow.supervised", "equiv.check", "margin.analyze"]:
        m[name + "_ms"] = med(span(name))
    m["detect.self_ms"] = med(
        lambda v: v["detect.detect"] - v["cuts.enumerate"] if "detect.detect" in v else None)
    m["flow.other_ms"] = med(
        lambda v: v["flow.supervised"] - sum(v[s] for s in STAGES)
        if "flow.supervised" in v else None)
    counts = {}
    for c in trace["counters"]:
        if req_pass[c["request"]] == 0:
            counts[c["name"]] = counts.get(c["name"], 0) + c["value"]
    for name in ["design.bytes", "mapper.cells", "cuts.total", "detect.t1_found",
                 "detect.t1_used", "dff.dffs", "equiv.waves", "margin.trials"]:
        m[name] = counts.get(name, 0)
    found = counts.get("detect.t1_found", 0)
    m["detect.commit_ratio"] = counts.get("detect.t1_used", 0) / found if found else 0.0
    inproc = {d: statistics.median(v) for d, v in per_design.items()}
    return m, inproc, statistics.median(pass_walls)


def layer_unit(name):
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("ratio"):
        return "ratio"
    return "bytes" if name == "design.bytes" else "count"


def cache_ratio(stats):
    hits, misses = int(stats["cache_hits"]), int(stats["cache_misses"])
    return hits / (hits + misses) if hits + misses else 0.0


# ----------------------------------------------------------------------- main


def metric(value, unit):
    return {"value": value, "unit": unit}


def run(args, bins=None):
    """One benchmark run; `bins` replaces the built programs (tests)."""
    if args.workload not in WORKLOADS:
        raise BenchError(f"unknown workload `{args.workload}` (have {', '.join(WORKLOADS)})")
    os.chdir(ROOT)
    bins = bins or build(args.trace)
    wl = WORKLOADS[args.workload]
    print("host: " + json.dumps(host_fingerprint(wl["workers"])), flush=True)
    work = os.path.join(ROOT, ".bench_work", f"{args.workload}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    cls = DaemonWorkload if wl["kind"] == "daemon" else BatchWorkload
    bench = cls(args.workload, bins, work, random.Random(args.seed))
    try:
        setups = [bench.setup_once(rep) for rep in range(SETUP_REPS)]
        if args.trace:
            metrics, ok = traced(args, bench, wl)
        else:
            metrics, ok = untraced(args, bench, wl, setups)
    finally:
        bench.stop()
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass  # another run's directory is still there
    checks = bench.checks()
    attempted = sum(c.attempted for c in checks)
    failed = sum(c.failed for c in checks)
    for c in checks:
        for p in c.problems:
            print(f"mismatch: {p}", flush=True)
    if not args.trace:
        metrics["ok_ratio"] = metric((attempted - failed) / attempted, "ratio")
    if sorted(metrics) != sorted(PER_LAYER if args.trace else END_TO_END):
        raise BenchError(f"metric set mismatch: {sorted(metrics)}")
    return {"correct": ok and failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def untraced(args, bench, wl, setups):
    """End-to-end metrics; returns (metrics, quality totals as expected)."""
    walls, other = bench.measure(args.seconds)
    m = {"setup_s": metric(statistics.median(setups), "s"),
         "batch_s": metric(statistics.median(walls), "s")}
    if wl["kind"] == "daemon":
        lat = latency_summary([x * 1000 for x in other])
        m["peak_rss_mb"] = metric(bench.stop(), "MB")
        print(f"batch_s {m['batch_s']['value']:.4f} s (median of {len(walls)} passes, "
              f"{DAEMON_CLIENTS} clients)", flush=True)
    else:
        # A batch workload's request is one batch: p50 is batch_s in ms.
        lat = latency_summary([x * 1000 for x in walls])
        m["peak_rss_mb"] = metric(statistics.median(other), "MB")
        print(f"batch_s {m['batch_s']['value']:.4f} s (median of {len(walls)} batches)",
              flush=True)
    m["request_ms_p50"] = metric(lat["p50"], "ms")
    print(f"request_ms p50 {lat['p50']:.3f} ms, p95 {lat['p95']:.3f} ms, "
          f"p99 {lat['p99']:.3f} ms (n={lat['n']})", flush=True)
    area, dffs = bench.quality
    m["area_jj"] = metric(area, "JJ")
    m["dffs"] = metric(dffs, "count")
    print(f"setup_s {m['setup_s']['value']:.4f} s (median of {len(setups)}); "
          f"peak_rss_mb {m['peak_rss_mb']['value']:.1f} MB; "
          f"area {area} JJ, {dffs} DFFs per pass", flush=True)
    quality_file = bench.name + (".flow" if wl["cmd"] == "verify" else "")
    expected = flow_totals(load_expected(quality_file).values())
    if (area, dffs) != expected:
        print(f"quality totals ({area}, {dffs}) != expected {expected}", flush=True)
    return m, (area, dffs) == expected


def traced(args, bench, wl):
    """Per-layer metrics; returns (metrics, mirror-drift check passed)."""
    # Untraced reference first: batch_s for batch.other_ms and trace.overhead_ms.
    walls, other = bench.measure(max(1.0, args.seconds / 2))
    batch_ms = statistics.median(walls) * 1000
    order = bench.rotations()[0]
    if wl["kind"] == "batch":
        order = order_set(bench.dest, bench.names, order)
    trace, rc = run_tracer(bench.bins, wl, bench.dest, order)
    for d in trace["problems"]:
        print(f"traced run: {d}", flush=True)
    layers, inproc, traced_ms = layer_metrics(trace, wl["cmd"] == "verify")
    print(f"per-layer times: median over {trace['passes']} traced passes", flush=True)
    m = {k: metric(v, layer_unit(k)) for k, v in layers.items()}
    m["batch.other_ms"] = metric(batch_ms - sum(inproc.values()), "ms")
    m["trace.overhead_ms"] = metric(traced_ms - batch_ms, "ms")
    # The daemon's layers are on daemon-small's path only; elsewhere they
    # spend no time and read 0.
    first = overhead = p99 = hits = 0.0
    if wl["kind"] == "daemon":
        over = [lat * 1000 - inproc[name] for name, lat in bench.request_log]
        first = statistics.median(bench.first_rows) * 1000
        overhead = statistics.median(over)
        p99 = percentile([x * 1000 for x in other], 99)
        hits = cache_ratio(bench.daemon.stats())
    m["daemon.first_row_ms"] = metric(first, "ms")
    m["daemon.overhead_ms"] = metric(overhead, "ms")
    m["daemon.request_p99_ms"] = metric(p99, "ms")
    m["state.cache_hit_ratio"] = metric(hits, "ratio")
    for k in sorted(m):
        print(f"{k} {m[k]['value']:.4f} {m[k]['unit']}", flush=True)
    return m, rc == 0 and not trace["problems"]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    try:
        result = run(args)
    except BenchError as e:
        log(f"perfbench: {e}")
        return 2
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
