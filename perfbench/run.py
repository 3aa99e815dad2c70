#!/usr/bin/env python3
"""The repository's benchmark: end-to-end metrics and a traced per-layer split.

Run from the repository root:

    python3 perfbench/run.py --workload tri-3m --seed 1 --seconds 20 --trace 0

It builds the `subgraph` CLI and the `perfbench-trace` harness from source
(into $CARGO_TARGET_DIR, default `.bench_build`), generates the workload's
inputs from the seed, computes reference answers with serial plans, and then
measures for `--seconds` seconds. Every answer is checked against the
reference. Human-readable lines come first; the last line of stdout is one JSON
object with the keys `correct`, `attempted`, `failed` and `metrics`. With
`--trace 0` the metrics are the end-to-end metrics of BENCHMARK.json, with
`--trace 1` the per-layer metrics. The exit code is 0 only if every answer was
right. Scratch files go to `.perfbench/work` and are removed; each run's report
(provenance, metrics and, for traced runs, the span dump) is kept in
`.perfbench/out`.

Workloads and metrics are described in perfbench/README.md and encoded in
WORKLOADS, END_TO_END and PER_LAYER below; PER_LAYER is also the per-layer ->
end-to-end map.
"""

import argparse
import dataclasses
import hashlib
import json
import math
import os
import random
import resource
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
MB = 1e6

# Every workload: its inputs (full and `--toy` sizes), its query list and why
# it exists. A batch query is (class, mode, pattern, forced strategy).
WORKLOADS = {
    "tri-3m": {
        "kind": "batch",
        "graph": (1_000_000, 3_000_000),
        "toy_graph": (20_000, 60_000),
        "threads": 2,
        "memory_budget": None,
        "queries": [("tri-3m", "count", "triangle", None)],
        "query_limit_s": 60.0,
        "setup_repeats": 5,
        "loads": ["cli", "graph", "plan", "mapreduce", "kernels"],
        "bypasses": ["sink", "serve", "spill"],
    },
    "mix-budget": {
        "kind": "batch",
        "graph": (100_000, 150_000),
        "toy_graph": (5_000, 7_500),
        "threads": 2,
        "memory_budget": 4 << 20,
        "queries": [
            ("tri-bucket-ordered", "count", "triangle", "bucket-ordered-triangles"),
            ("tri-partition", "count", "triangle", "partition-triangles"),
            ("tri-multiway", "count", "triangle", "multiway-triangles"),
            ("tri-cascade", "count", "triangle", "cascade-triangles"),
            ("tri-serial", "count", "triangle", "serial-triangles"),
            ("square", "count", "square", None),
            ("lollipop", "count", "lollipop", None),
            ("star5-enum", "enumerate", "star5", None),
        ],
        "query_limit_s": 30.0,
        "setup_repeats": 15,
        "loads": ["cli", "graph", "plan", "mapreduce", "spill", "kernels", "sink"],
        "bypasses": ["serve"],
    },
    "serve-mix": {
        "kind": "serve",
        "graph": (20_000, 60_000),
        "toy_graph": (2_000, 6_000),
        "pool": 2,
        "threads": 1,
        "clients": 2,
        # One block of each client's closed loop: (class, requests per block,
        # mode, pattern, reducer budget or None for the default). Each client
        # sends its blocks in a seeded order.
        "mix": [
            ("tri", 24, "count", "triangle", 1),
            ("k4", 4, "count", "k4", 1),
            ("lollipop", 4, "count", "lollipop", 1),
            ("square", 1, "count", "square", 1),
            ("lollipop-enum", 4, "enumerate", "lollipop", 1),
            ("tri-mr", 3, "count", "triangle", None),
        ],
        "min_requests": 1000,
        "toy_min_requests": 50,
        "query_limit_s": 10.0,
        "setup_repeats": 15,
        "loads": ["serve", "kernels", "mapreduce", "sink"],
        "bypasses": ["spill", "cli"],
    },
}

END_TO_END = [
    ("setup_s", "s"),
    ("job_s", "s"),
    ("query_p50_ms", "ms"),
    ("query_p99_ms", "ms"),
    ("qps", "1/s"),
    ("peak_rss_mb", "MB"),
    ("ok_frac", "ratio"),
]

LAYERS = ["cli", "graph", "plan", "mapreduce", "kernels", "sink", "serve"]
MIX_CLASSES = [q[0] for q in WORKLOADS["mix-budget"]["queries"]]
SERVE_CLASSES = [m[0] for m in WORKLOADS["serve-mix"]["mix"]]

# Per-layer metrics: (name, unit, better, the end-to-end metric it should move
# and on which workload). This is the benchmark's one copy of the per-layer ->
# end-to-end map; traced runs print it beside each metric. Metrics that a
# workload does not exercise read 0.
PER_LAYER = [
    ("graph.open_s", "s", "lower", "job_s on all batch workloads (about 0 with mmap .sgr)"),
    ("graph.convert_s", "s", "lower", "setup_s on tri-3m and mix-budget"),
    ("serve.store_s", "s", "lower", "setup_s on serve-mix"),
    ("plan.s", "s", "lower", "job_s on mix-budget (about 0 on tri-3m)"),
    ("plan.classes_scored", "count", "lower", "job_s on mix-budget"),
    ("plan.classes_pruned", "count", "higher", "job_s on mix-budget"),
    ("plan.records_ratio", "ratio", "lower", "none: shuffled over predicted records, should be exactly 1"),
    ("plan.work_ratio", "ratio", "lower", "job_s on tri-3m (measured over predicted work, the strategy tie-break)"),
    ("mr.map_s", "s", "lower", "job_s on tri-3m, mix-budget; query_p99_ms on serve-mix"),
    ("mr.exchange_s", "s", "lower", "job_s on tri-3m, mix-budget; query_p99_ms on serve-mix"),
    ("mr.reduce_s", "s", "lower", "job_s on tri-3m, mix-budget; query_p99_ms on serve-mix"),
    ("mr.spill_read_s", "s", "lower", "job_s on mix-budget"),
    ("mr.unattributed_s", "s", "lower", "job_s on all batch workloads (exec time outside phases and sink)"),
    ("mr.attributed_frac", "ratio", "higher", "none: share of traced job time in named layers, target 0.9"),
    ("mr.shuffle_records", "count", "lower", "job_s on tri-3m"),
    ("mr.shuffle_mb", "MB", "lower", "job_s on tri-3m"),
    ("mr.replication", "ratio", "lower", "job_s on tri-3m (records shipped per input edge)"),
    ("mr.combiner_saving", "ratio", "higher", "job_s on mix-budget (multiway)"),
    ("mr.records_per_s", "1/s", "higher", "job_s on tri-3m"),
    ("mr.spilled_mb", "MB", "lower", "job_s and peak_rss_mb on mix-budget; 0 elsewhere; varies between runs"),
    ("mr.spill_runs", "count", "lower", "job_s and peak_rss_mb on mix-budget; 0 elsewhere; varies between runs"),
    ("mr.reducers_used", "count", "lower", "job_s (last-reducer effect)"),
    ("mr.max_reducer_input", "count", "lower", "job_s (last-reducer effect)"),
    ("mr.skew", "ratio", "lower", "job_s (last-reducer effect)"),
    ("kernels.exec_s", "s", "lower", "job_s on all batch workloads"),
    ("kernels.work", "count", "lower", "job_s on all batch workloads"),
    ("kernels.ns_per_work", "ns", "lower", "job_s on mix-budget (exposes loops not charged as work)"),
    ("kernels.outputs_per_work", "ratio", "higher", "job_s on mix-budget (useful over attempted work)"),
]
PER_LAYER += [
    (f"exec_s.{c}", "s", "lower", "job_s on mix-budget") for c in MIX_CLASSES
]
PER_LAYER += [
    ("sink.write_s", "s", "lower", "job_s on mix-budget; query_p99_ms on serve-mix; 0 on tri-3m"),
    ("sink.mb", "MB", "lower", "job_s on mix-budget; query_p99_ms on serve-mix; 0 on tri-3m"),
    ("sink.instances", "count", "higher", "none: output volume, fixed by the input"),
    ("serve.server_ms_p50", "ms", "lower", "query_p50_ms on serve-mix"),
    ("serve.server_ms_p99", "ms", "lower", "query_p99_ms on serve-mix"),
    ("serve.overhead_ms_p50", "ms", "lower", "query_p50_ms on serve-mix (connect, worker wait, HTTP)"),
    ("serve.overhead_ms_p99", "ms", "lower", "query_p50_ms on serve-mix (connect, worker wait, HTTP)"),
    ("serve.cache_hit_ratio", "ratio", "higher", "query_p50_ms on serve-mix"),
    ("serve.errors", "count", "lower", "ok_frac on serve-mix"),
]
PER_LAYER += [
    (f"serve.lat_ms.{c}", "ms", "lower", "query_p50_ms on serve-mix") for c in SERVE_CLASSES
]
PER_LAYER += [
    ("proc.cpu_util", "ratio", "higher", "job_s and qps"),
]
PER_LAYER += [
    (f"self_frac.{layer}", "ratio", "lower", "job_s or query_p50_ms, by workload")
    for layer in LAYERS
]
PER_LAYER += [
    ("trace.job_s", "s", "lower", "none: median traced pass (serve-mix: client block)"),
    ("trace.untraced_job_s", "s", "lower", "none: median untraced pass of the same harness"),
    ("trace.overhead_frac", "ratio", "lower", "none: cost of tracing, traced over untraced time minus 1"),
]


class BenchError(Exception):
    """A failure that makes the run unusable (build, input generation)."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def percentile(values, q):
    """Linear interpolation between closest ranks (numpy's default)."""
    s = sorted(values)
    if not s:
        return 0.0
    k = (len(s) - 1) * q
    f = math.floor(k)
    c = min(f + 1, len(s) - 1)
    return s[f] + (s[c] - s[f]) * (k - f)


def median(values):
    return statistics.median(values) if values else 0.0


# ---- build ----------------------------------------------------------------


def target_dir():
    return (Path.cwd() / os.environ.get("CARGO_TARGET_DIR", ".bench_build")).resolve()


def build():
    """Builds the `subgraph` binary and the trace harness; returns their paths."""
    if not (ROOT / "Cargo.toml").is_file() or not (ROOT / "crates" / "cli").is_dir():
        raise BenchError(f"{ROOT} holds no subgraph workspace to build")
    env = dict(os.environ, CARGO_TARGET_DIR=str(target_dir()))
    for manifest, extra in (
        (ROOT / "Cargo.toml", ["-p", "subgraph-cli", "--bin", "subgraph"]),
        (BENCH_DIR / "Cargo.toml", []),
    ):
        cmd = ["cargo", "build", "--release", "--offline", "--manifest-path", str(manifest)] + extra
        done = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr, cwd=ROOT)
        if done.returncode != 0:
            raise BenchError(f"build failed: {' '.join(cmd)}")
    release = target_dir() / "release"
    return release / "subgraph", release / "perfbench-trace"


# ---- child processes ------------------------------------------------------


@dataclasses.dataclass
class Child:
    """Outcome of one child process: output, wall time, resource usage."""

    code: int
    stdout_head: str
    lines: int
    stderr: str
    wall: float
    rusage: object
    timed_out: bool

    @property
    def rss_mb(self):
        return self.rusage.ru_maxrss * 1024 / MB if self.rusage else 0.0


def run_child(argv, limit_s):
    """Runs argv to completion or until `limit_s`, reading stdout as a stream
    (counting its lines) and reaping it with wait4 for its resource usage."""
    start = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    timed_out = threading.Event()

    def kill():
        timed_out.set()
        proc.kill()

    timer = threading.Timer(max(limit_s, 0.01), kill)
    timer.start()
    err = []
    reader = threading.Thread(target=lambda: err.append(proc.stderr.read()))
    reader.start()
    head = b""
    lines = 0
    while True:
        chunk = proc.stdout.read1(1 << 16)
        if not chunk:
            break
        lines += chunk.count(b"\n")
        if len(head) < 4096:
            head += chunk[: 4096 - len(head)]
    reader.join()
    _, status, rusage = os.wait4(proc.pid, 0)
    timer.cancel()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    proc.stderr.close()
    return Child(
        proc.returncode,
        head.decode(errors="replace"),
        lines,
        b"".join(err).decode(errors="replace"),
        wall,
        rusage,
        timed_out.is_set(),
    )


def check_child(child, what):
    if child.code != 0:
        raise BenchError(f"{what} failed ({child.code}): {child.stderr.strip()[-400:]}")
    return child


# ---- inputs, set-up and the answer oracle ---------------------------------


def make_inputs(subgraph, work, n, m, seed):
    text = work / "graph.txt"
    check_child(
        run_child([str(subgraph), "generate", f"gnm:{n},{m},{seed}", "--output", str(text)], 120),
        "generate",
    )
    return text


def convert(subgraph, text, sgr):
    child = check_child(
        run_child([str(subgraph), "convert", "--input", str(text), "--output", str(sgr), "--force"], 120),
        "convert",
    )
    return child.wall


def reference_counts(subgraph, sgr, patterns):
    """Reference answers from serial plans: the Schank triangle kernel for
    triangles, reducer budget 1 (a serial algorithm) for everything else."""
    refs = {}
    for pattern in sorted(set(patterns)):
        extra = ["--strategy", "serial-triangles"] if pattern == "triangle" else ["--reducers", "1"]
        child = check_child(
            run_child([str(subgraph), "count", "--input", str(sgr), "--pattern", pattern] + extra, 120),
            f"reference count {pattern}",
        )
        refs[pattern] = int(child.stdout_head.split()[0])
    return refs


def strategy_of(stderr):
    for line in stderr.splitlines():
        if line.startswith("strategy:"):
            return line.split()[1]
    return "?"


# ---- batch workloads ------------------------------------------------------


def batch_argv(subgraph, sgr, spec, query, spill):
    cls, mode, pattern, strategy = query
    argv = [str(subgraph), mode, "--input", str(sgr), "--pattern", pattern]
    argv += ["--threads", str(spec["threads"]), "--verbose"]
    if spec["memory_budget"]:
        argv += ["--memory-budget", str(spec["memory_budget"]), "--spill-dir", str(spill)]
    if strategy:
        argv += ["--strategy", strategy]
    return argv


def run_batch_passes(ctx, seconds):
    """Closed loop of passes over the query list through the real CLI. It
    makes at least two passes and stops at the pass boundary nearest to
    `seconds`, so the number of passes only changes when the pass time moves
    a long way. Every query runs under its full time limit."""
    spec = ctx["spec"]
    passes = []
    started = time.perf_counter()
    while True:
        if len(passes) >= 2:
            mean_pass = sum(p["wall"] for p in passes) / len(passes)
            if time.perf_counter() - started + mean_pass / 2 >= seconds:
                break
        records = []
        for query in spec["queries"]:
            cls, mode, pattern, _ = query
            argv = batch_argv(ctx["subgraph"], ctx["sgr"], spec, query, ctx["spill"])
            child = run_child(argv, spec["query_limit_s"])
            if mode == "count":
                head = child.stdout_head.split()
                answer = int(head[0]) if head and head[0].isdigit() else None
            else:
                answer = child.lines
            ok = child.code == 0 and not child.timed_out and answer == ctx["expect"][cls]
            if not ok:
                log(f"FAIL {cls}: exit {child.code}, timed out {child.timed_out}, "
                    f"answer {answer}, expected {ctx['expect'][cls]}")
            records.append({
                "class": cls, "ok": ok, "wall": child.wall, "rss_mb": child.rss_mb,
                "strategy": strategy_of(child.stderr),
            })
            ctx["plans"].setdefault(cls, strategy_of(child.stderr))
        passes.append({"wall": sum(q["wall"] for q in records), "queries": records})
    return passes


def batch_end_to_end(ctx, passes):
    queries = [q for p in passes for q in p["queries"]]
    lat = [q["wall"] * 1e3 for q in queries]
    job_s = median([p["wall"] for p in passes])
    # The p50 is taken over each query's median across passes: mix-budget's
    # list is half short and half long queries, so a p50 over all samples
    # would fall in the gap between the slowest short and the fastest long one.
    per_query = [median([p["queries"][i]["wall"] * 1e3 for p in passes])
                 for i in range(len(ctx["spec"]["queries"]))]
    return {
        "setup_s": median(ctx["setup_samples"]),
        "job_s": job_s,
        "query_p50_ms": median(per_query),
        "query_p99_ms": percentile(lat, 0.99),
        "qps": len(ctx["spec"]["queries"]) / job_s if job_s else 0.0,
        "peak_rss_mb": max((q["rss_mb"] for q in queries), default=0.0),
        "ok_frac": sum(q["ok"] for q in queries) / len(queries) if queries else 0.0,
    }


# ---- serve workload -------------------------------------------------------


def http_get(port, path, timeout):
    """One request on a fresh connection; returns (status, body, seconds from
    connect to the last byte)."""
    start = time.perf_counter()
    with socket.create_connection(("127.0.0.1", port), timeout=timeout) as sock:
        sock.sendall(f"GET {path} HTTP/1.1\r\nHost: bench\r\nConnection: close\r\n\r\n".encode())
        chunks = []
        while True:
            chunk = sock.recv(1 << 16)
            if not chunk:
                break
            chunks.append(chunk)
    took = time.perf_counter() - start
    head, _, body = b"".join(chunks).partition(b"\r\n\r\n")
    status = int(head.split(b" ", 2)[1]) if head.startswith(b"HTTP/") else 0
    return status, body, took


class Server:
    """A `subgraph serve` child on a free port."""

    def __init__(self, subgraph, sgr, spec):
        argv = [str(subgraph), "serve", "--graph", str(sgr), "--listen", "127.0.0.1:0",
                "--pool", str(spec["pool"]), "--threads", str(spec["threads"])]
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE,
                                     stderr=subprocess.DEVNULL)
        self.port = None
        self.rusage = None

    def wait_healthy(self, limit_s):
        """Seconds from process start until /healthz answers 200."""
        deadline = self.started + limit_s
        watchdog = threading.Timer(limit_s, self.proc.kill)
        watchdog.start()
        try:
            while self.port is None:
                line = self.proc.stdout.readline()
                if not line:
                    raise BenchError("serve exited before listening")
                if line.startswith(b"listening on http://"):
                    self.port = int(line.strip().rsplit(b":", 1)[1])
        finally:
            watchdog.cancel()
        while time.perf_counter() < deadline:
            try:
                if http_get(self.port, "/healthz", 1.0)[0] == 200:
                    return time.perf_counter() - self.started
            except OSError:
                pass
            time.sleep(0.0005)
        raise BenchError("serve did not answer /healthz")

    def stop(self):
        """SIGTERM, wait (kill after 10 s), and keep the resource usage."""
        if self.proc.returncode is not None:
            return
        self.proc.send_signal(signal.SIGTERM)
        timer = threading.Timer(10.0, self.proc.kill)
        timer.start()
        _, status, self.rusage = os.wait4(self.proc.pid, 0)
        timer.cancel()
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        self.lifetime = time.perf_counter() - self.started
        self.proc.stdout.close()

    @property
    def cpu_s(self):
        return self.rusage.ru_utime + self.rusage.ru_stime if self.rusage else 0.0


def serve_load(ctx, port, seconds, min_requests, trace):
    """Closed-loop clients, each sending its seeded blocks of the mix until the
    window has passed and enough requests were answered. No request starts
    after twice the window, so a slow server shortens the sample instead of
    the run overrunning; requests in flight finish under their own limit."""
    spec = ctx["spec"]
    block = []
    for cls, count, mode, pattern, reducers in spec["mix"]:
        query = f"pattern={pattern}&mode={mode}" + ("" if reducers is None else f"&reducers={reducers}")
        block += [(cls, query)] * count
    lock = threading.Lock()
    done = [0]
    results = []
    blocks = []
    spans = []
    started = time.perf_counter()

    def client(index):
        rng = random.Random(ctx["seed"] * 1009 + index)
        mine, my_blocks, my_spans = [], [], []
        while True:
            order = block[:]
            rng.shuffle(order)
            block_start = time.perf_counter()
            finished = True
            for cls, query in order:
                now = time.perf_counter()
                with lock:
                    stop = now - started >= seconds and done[0] >= min_requests
                stop = stop or now - started >= 2 * seconds
                if stop:
                    finished = False
                    break
                record = {"class": cls, "ok": False, "ms": None, "server_ms": None}
                t0 = time.perf_counter()
                try:
                    status, body, took = http_get(port, f"/query?{query}", spec["query_limit_s"])
                    record["ms"] = took * 1e3
                    if status == 200 and "mode=enumerate" in query:
                        record["ok"] = body.count(b"\n") == ctx["expect"][cls]
                    elif status == 200:
                        answer = json.loads(body)
                        record["ok"] = answer["count"] == ctx["expect"][cls]
                        record["server_ms"] = answer["elapsed_micros"] / 1e3
                        record["strategy"] = answer["strategy"]
                        record["cache_hit"] = answer["cache_hit"]
                except (OSError, ValueError, KeyError) as e:
                    record["error"] = str(e)
                    record["ms"] = (time.perf_counter() - t0) * 1e3
                if not record["ok"]:
                    log(f"FAIL {cls}: {record}")
                if trace:
                    my_spans.append(request_spans(f"{index}-{len(mine)}", cls, t0 - started, record))
                mine.append(record)
                with lock:
                    done[0] += 1
            if finished:
                my_blocks.append(time.perf_counter() - block_start)
            else:
                break
        with lock:
            results.extend(mine)
            blocks.extend(my_blocks)
            spans.extend(my_spans)

    threads = [threading.Thread(target=client, args=(i,)) for i in range(spec["clients"])]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    wall = time.perf_counter() - started
    flat = []
    for group in spans:
        for span in group:
            parent = span["parent"]
            flat.append(dict(span, id=len(flat), parent=None if parent is None else len(flat) - 1))
    for r in results:
        if r.get("strategy"):
            ctx["plans"].setdefault(r["class"], r["strategy"])
    return {"requests": results, "blocks": blocks, "wall": wall, "spans": flat}


def request_spans(request, cls, start_s, record):
    """The client-side span of one request and, for counts, a child span for
    the server's own `elapsed_micros`, placed at the end of the request."""
    start_us = start_s * 1e6
    end_us = start_us + record["ms"] * 1e3
    spans = [{"request": request, "parent": None, "name": cls, "layer": "serve",
              "start_us": start_us, "end_us": end_us, "synthetic": False}]
    if record["server_ms"] is not None:
        layer = "kernels" if record["strategy"].startswith("serial") else "mapreduce"
        spans.append({"request": request, "parent": 0, "name": "server.exec", "layer": layer,
                      "start_us": end_us - record["server_ms"] * 1e3, "end_us": end_us,
                      "synthetic": True})
    return spans


def serve_end_to_end(ctx, load, server):
    lat = [r["ms"] for r in load["requests"]]
    n = len(load["requests"])
    return {
        "setup_s": ctx["setup_s"],
        "job_s": median(load["blocks"]),
        "query_p50_ms": percentile(lat, 0.5),
        "query_p99_ms": percentile(lat, 0.99),
        "qps": n / load["wall"] if load["wall"] else 0.0,
        "peak_rss_mb": server.rusage.ru_maxrss * 1024 / MB if server.rusage else 0.0,
        "ok_frac": sum(r["ok"] for r in load["requests"]) / n if n else 0.0,
    }


# ---- traced run -----------------------------------------------------------


def run_harness(ctx, queries, threads, memory_budget, seconds):
    """Runs the trace harness and parses its JSON document. The harness makes
    at least two passes and stops at the pass boundary nearest to `seconds`,
    so it is given `seconds` plus two passes at the per-query limits. Also
    returns the harness's CPU time."""
    argv = [str(ctx["harness"]), "batch", "--graph", str(ctx["sgr"]), "--threads", str(threads),
            "--seconds", f"{seconds:.3f}"]
    if memory_budget:
        argv += ["--memory-budget", str(memory_budget), "--spill-dir", str(ctx["spill"])]
    for cls, mode, pattern, strategy, reducers in queries:
        spec = f"{cls},mode={mode},pattern={pattern}"
        if strategy:
            spec += f",strategy={strategy}"
        if reducers is not None:
            spec += f",reducers={reducers}"
        argv += ["--query", spec]
    limit = seconds + 2 * ctx["spec"]["query_limit_s"] * len(queries)
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    try:
        done = subprocess.run(argv, cwd=ROOT, capture_output=True, timeout=limit)
    except subprocess.TimeoutExpired:
        log("FAIL trace harness timed out")
        return None, 0.0
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu_s = (after.ru_utime + after.ru_stime) - (before.ru_utime + before.ru_stime)
    if done.returncode != 0:
        log(f"FAIL trace harness: {done.stderr.decode(errors='replace').strip()}")
        return None, cpu_s
    return json.loads(done.stdout), cpu_s


def check_traced(ctx, doc):
    """Checks every traced answer against the reference; returns (attempted, failed)."""
    attempted = failed = 0
    for p in doc["passes"]:
        for q in p["queries"]:
            attempted += 1
            answer = q["lines"] if q["lines"] is not None else q["count"]
            if q["count"] != ctx["expect"][q["class"]] or answer != q["count"]:
                failed += 1
                log(f"FAIL traced {q['class']}: count {q['count']}, lines {q['lines']}, "
                    f"expected {ctx['expect'][q['class']]}")
    return attempted, failed


def layer_self_times(spans):
    """Each layer's self time (a span's duration minus its children's) in
    microseconds, and the total duration of the root spans."""
    dur = lambda s: s["end_us"] - s["start_us"]
    covered = {}
    for s in spans:
        if s["parent"] is not None:
            covered[s["parent"]] = covered.get(s["parent"], 0.0) + dur(s)
    self_us = {layer: 0.0 for layer in LAYERS}
    for s in spans:
        self_us[s["layer"]] += dur(s) - covered.get(s["id"], 0.0)
    total = sum(dur(s) for s in spans if s["parent"] is None)
    unexplained = sum(
        dur(s) - covered.get(s["id"], 0.0)
        for s in spans
        if s["layer"] == "cli" or (s["name"] == "exec" and s["layer"] == "mapreduce")
    )
    return self_us, total, unexplained


def self_fractions(spans):
    self_us, total, _ = layer_self_times(spans)
    return {f"self_frac.{k}": (v / total if total else 0.0) for k, v in self_us.items()}


def attributed_frac(spans):
    """Share of the traced job time that falls into named layers: everything
    but the MR exec calls' unexplained remainder and the glue between calls."""
    _, total, unexplained = layer_self_times(spans)
    return 1 - unexplained / total if total else 0.0


def harness_layer_metrics(doc):
    """Per-layer metrics from the harness document's traced passes: per-query
    values summed over a pass (ratios from the sums, maxima for the skew
    indicators), then the median over passes. The tracing overhead compares
    the median traced and untraced pass of the same harness."""
    per_pass = []
    for p in doc["passes"]:
        if not p["traced"]:
            continue
        qs = p["queries"]
        mr = [q for q in qs if q["metrics"]]
        jm = lambda key: sum(q["metrics"][key] for q in mr)
        phase = sum(q["map_s"] + q["exchange_s"] + q["reduce_s"] for q in qs)
        exec_s = sum(q["exec_s"] for q in qs)
        work = sum(q["work"] for q in qs)
        pred_comm = sum(q["predicted_communication"] for q in mr)
        pred_work = sum(q["predicted_work"] for q in qs)
        comb_in = jm("combiner_input_records")
        m = {
            "graph.open_s": sum(q["load_s"] for q in qs),
            "plan.s": sum(q["resolve_s"] + q["plan_s"] for q in qs),
            "plan.classes_scored": sum(q["classes_scored"] for q in qs),
            "plan.classes_pruned": sum(q["classes_pruned"] for q in qs),
            "plan.records_ratio": jm("shuffle_records") / pred_comm if pred_comm else 0.0,
            "plan.work_ratio": work / pred_work if pred_work else 0.0,
            "mr.map_s": sum(q["map_s"] for q in qs),
            "mr.exchange_s": sum(q["exchange_s"] for q in qs),
            "mr.reduce_s": sum(q["reduce_s"] for q in qs),
            "mr.spill_read_s": sum(q["spill_read_s"] for q in qs),
            "mr.shuffle_records": jm("shuffle_records"),
            "mr.shuffle_mb": jm("shuffle_bytes") / MB,
            "mr.replication": jm("shuffle_records") / jm("input_records") if mr else 0.0,
            "mr.combiner_saving": 1 - jm("combiner_output_records") / comb_in if comb_in else 0.0,
            "mr.records_per_s": jm("shuffle_records") / phase if phase else 0.0,
            "mr.spilled_mb": jm("spilled_bytes") / MB,
            "mr.spill_runs": jm("spill_runs"),
            "mr.reducers_used": jm("reducers_used"),
            "mr.max_reducer_input": max((q["metrics"]["max_reducer_input"] for q in mr), default=0),
            "mr.skew": max((q["metrics"]["skew"] for q in mr), default=0.0),
            "kernels.exec_s": exec_s,
            "kernels.work": work,
            "kernels.ns_per_work": exec_s / work * 1e9 if work else 0.0,
            "kernels.outputs_per_work": sum(q["count"] for q in qs) / work if work else 0.0,
            "sink.write_s": sum(q["sink_s"] for q in qs),
            "sink.mb": sum(q["sink_bytes"] for q in qs) / MB,
            "sink.instances": sum(q["lines"] or 0 for q in qs),
            "trace.job_s": p["wall_s"],
        }
        m["mr.unattributed_s"] = sum(q["unattributed_s"] for q in qs)
        for cls in MIX_CLASSES:
            m[f"exec_s.{cls}"] = sum(q["exec_s"] for q in qs if q["class"] == cls)
        per_pass.append(m)
    metrics = {k: median([m[k] for m in per_pass]) for k in per_pass[0]}
    metrics["trace.untraced_job_s"] = median([p["wall_s"] for p in doc["passes"] if not p["traced"]])
    metrics["trace.overhead_frac"] = metrics["trace.job_s"] / metrics["trace.untraced_job_s"] - 1
    return metrics


def nproc():
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else (os.cpu_count() or 1)


def run_store(ctx):
    """Times `subgraph serve`'s start-up steps in process: .sgr open and
    `GraphStore::from_graph`."""
    argv = [str(ctx["harness"]), "store", "--graph", str(ctx["sgr"])]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, timeout=60)
    if done.returncode != 0:
        log(f"FAIL store harness: {done.stderr.decode(errors='replace').strip()}")
        return None
    return json.loads(done.stdout)


def tally(records):
    return len(records), sum(not r["ok"] for r in records)


# ---- one run ----------------------------------------------------------------


def provenance(ctx):
    def cmd_out(argv):
        try:
            return subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=20).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            return ""

    digest = hashlib.sha256()
    sources = sorted(ROOT.glob("crates/*/src/**/*.rs")) + sorted(ROOT.glob("crates/*/Cargo.toml"))
    for path in sources + [ROOT / "Cargo.toml"]:
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    n, m = ctx["graph_size"]
    return {
        "workload": ctx["workload"],
        "seed": ctx["seed"],
        "seconds": ctx["seconds"],
        "trace": ctx["trace"],
        "toy": ctx["toy"],
        "input": {
            "spec": f"gnm:{n},{m},{ctx['seed']}",
            "nodes": n,
            "edges": m,
            "edge_list_bytes": ctx["text"].stat().st_size,
            "sgr_bytes": ctx["sgr"].stat().st_size,
        },
        "layers_loaded": ctx["spec"]["loads"],
        "layers_bypassed": ctx["spec"]["bypasses"],
        "reference_counts": ctx["refs"],
        "plans": ctx["plans"],
        "nproc": nproc(),
        "build": {"profile": "release", "rustc": cmd_out(["rustc", "-V"]), "cargo": cmd_out(["cargo", "-V"])},
        "git_commit": cmd_out(["git", "rev-parse", "HEAD"]) or "unknown (not a git checkout)",
        "source_sha256": digest.hexdigest(),
    }


def run_batch(ctx, args):
    """tri-3m and mix-budget. Returns (metrics, attempted, failed, report)."""
    spec = ctx["spec"]
    ctx["setup_samples"] = [convert(ctx["subgraph"], ctx["text"], ctx["sgr"])
                            for _ in range(spec["setup_repeats"])]
    ctx["refs"] = reference_counts(ctx["subgraph"], ctx["sgr"], [q[2] for q in spec["queries"]])
    ctx["expect"] = {cls: ctx["refs"][pattern] for cls, _, pattern, _ in spec["queries"]}
    if args.inject_wrong_answer:
        ctx["expect"][spec["queries"][0][0]] += 1
    if not args.trace:
        passes = run_batch_passes(ctx, args.seconds)
        ctx["setup_samples"] += [convert(ctx["subgraph"], ctx["text"], ctx["sgr"])
                                 for _ in range(spec["setup_repeats"])]
        records = [q for p in passes for q in p["queries"]]
        return (batch_end_to_end(ctx, passes), *tally(records), {"passes": passes})

    # Traced: the harness alternates untraced and traced passes in process.
    queries = [q + (None,) for q in spec["queries"]]
    started = time.perf_counter()
    doc, cpu_s = run_harness(ctx, queries, spec["threads"], spec["memory_budget"], args.seconds)
    wall = time.perf_counter() - started
    layer = {name: 0.0 for name, *_ in PER_LAYER}
    layer["graph.convert_s"] = median(ctx["setup_samples"])
    layer["proc.cpu_util"] = cpu_s / (wall * nproc())
    if doc is None:
        return layer, 1, 1, {}
    attempted, failed = check_traced(ctx, doc)
    layer.update(harness_layer_metrics(doc))
    layer.update(self_fractions(doc["spans"]))
    layer["mr.attributed_frac"] = attributed_frac(doc["spans"])
    return layer, attempted, failed, {"passes": doc["passes"], "spans": doc["spans"]}


def server_starts(ctx, probes):
    """Starts and stops the server `probes` times; returns the start-up times."""
    starts = []
    for _ in range(probes):
        probe = Server(ctx["subgraph"], ctx["sgr"], ctx["spec"])
        try:
            starts.append(probe.wait_healthy(30.0))
        finally:
            probe.stop()
    return starts


def start_serving(ctx):
    """Starts the server the load runs against; returns it and its start-up time."""
    server = Server(ctx["subgraph"], ctx["sgr"], ctx["spec"])
    ctx["server"] = server
    return server, server.wait_healthy(30.0)


def run_serve(ctx, args):
    """serve-mix. Returns (metrics, attempted, failed, report)."""
    spec = ctx["spec"]
    convert_s = convert(ctx["subgraph"], ctx["text"], ctx["sgr"])
    ctx["refs"] = reference_counts(ctx["subgraph"], ctx["sgr"], [m[3] for m in spec["mix"]])
    ctx["expect"] = {cls: ctx["refs"][pattern] for cls, _, _, pattern, _ in spec["mix"]}
    if args.inject_wrong_answer:
        ctx["expect"]["tri"] += 1
    # Start-up is sampled before and after the load, so the samples span the
    # whole window rather than one burst.
    starts = server_starts(ctx, spec["setup_repeats"])
    server, first = start_serving(ctx)
    if not args.trace:
        min_requests = spec["toy_min_requests"] if args.toy else spec["min_requests"]
        load = serve_load(ctx, server.port, args.seconds, min_requests, trace=False)
        server.stop()
        starts += [first] + server_starts(ctx, spec["setup_repeats"])
        ctx["setup_s"] = median(starts)
        return (serve_end_to_end(ctx, load, server), *tally(load["requests"]), {"blocks": load["blocks"]})

    # Traced: half the window untraced, half traced, then the in-process
    # start-up steps and one traced pass over the mix's query shapes.
    plain = serve_load(ctx, server.port, args.seconds / 2, 0, trace=False)
    traced = serve_load(ctx, server.port, args.seconds / 2, 0, trace=True)
    stats = json.loads(http_get(server.port, "/stats", 10.0)[1])
    server.stop()
    attempted, failed = tally(plain["requests"] + traced["requests"])
    layer = {name: 0.0 for name, *_ in PER_LAYER}
    report = {"blocks": [plain["blocks"], traced["blocks"]], "spans": traced["spans"]}
    counted = [r for r in traced["requests"] if r["server_ms"] is not None]
    server_ms = [r["server_ms"] for r in counted]
    overhead = [r["ms"] - r["server_ms"] for r in counted]
    cache = stats["plan_cache"]
    layer.update({
        "graph.convert_s": convert_s,
        "serve.server_ms_p50": percentile(server_ms, 0.5),
        "serve.server_ms_p99": percentile(server_ms, 0.99),
        "serve.overhead_ms_p50": percentile(overhead, 0.5),
        "serve.overhead_ms_p99": percentile(overhead, 0.99),
        "serve.cache_hit_ratio": cache["hits"] / max(cache["hits"] + cache["misses"], 1),
        "serve.errors": stats["client_errors"] + stats["io_errors"],
        "proc.cpu_util": server.cpu_s / (server.lifetime * nproc()),
        "trace.job_s": median(traced["blocks"]),
        "trace.untraced_job_s": median(plain["blocks"]),
    })
    for cls in SERVE_CLASSES:
        layer[f"serve.lat_ms.{cls}"] = percentile([r["ms"] for r in traced["requests"] if r["class"] == cls], 0.5)
    layer.update(self_fractions(traced["spans"]))
    if traced["requests"] and plain["wall"]:
        plain_qps = len(plain["requests"]) / plain["wall"]
        traced_qps = len(traced["requests"]) / traced["wall"]
        layer["trace.overhead_frac"] = plain_qps / traced_qps - 1

    store = run_store(ctx)
    # One of each query shape of the mix, at the server's thread budget.
    shapes = [(cls, mode, pattern, None, reducers) for cls, _, mode, pattern, reducers in spec["mix"]]
    doc, _ = run_harness(ctx, shapes, spec["threads"], None, 0)
    if doc is None or store is None:
        return layer, attempted + 1, failed + 1, report
    a, f = check_traced(ctx, doc)
    for key, value in harness_layer_metrics(doc).items():
        if not key.startswith(("trace.", "exec_s.")):
            layer[key] = value
    layer["mr.attributed_frac"] = attributed_frac(doc["spans"])
    layer["serve.store_s"] = median(store["store_s"])
    layer["graph.open_s"] = median(store["open_s"])
    offset = len(report["spans"])
    report["spans"] += [
        dict(s, id=s["id"] + offset, request=f"inproc-{s['request']}",
             parent=None if s["parent"] is None else s["parent"] + offset)
        for s in doc["spans"]
    ]
    return layer, attempted + a, failed + f, report


def print_result(ctx, args, metrics, attempted, failed, report):
    prov = provenance(ctx)
    correct = failed == 0 and attempted > 0
    units = END_TO_END if not args.trace else [(n, u) for n, u, *_ in PER_LAYER]
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units}}
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("provenance " + json.dumps(prov, sort_keys=True))
    feeds = {n: f for n, _, _, f in PER_LAYER}
    for name, entry in result["metrics"].items():
        note = f"  -> {feeds[name]}" if args.trace else ""
        print(f"  {name:<28} {entry['value']:>16.6g} {entry['unit']:<6}{note}")
    if not args.trace:
        share = failed / attempted if attempted else 0.0
        print(f"  {'fail_frac':<28} {share:>16.6g} ratio   ({failed} of {attempted} failed)")
    out_dir = ROOT / ".perfbench" / "out"
    out_dir.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (out_dir / name).write_text(json.dumps(dict(report, provenance=prov, result=result)))
    print(f"report written to .perfbench/out/{name}")
    print(json.dumps(result))
    return 0 if correct else 1


def run(args):
    spec = WORKLOADS[args.workload]
    subgraph, harness = build()
    work = ROOT / ".perfbench" / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    (work / "spill").mkdir(parents=True)
    n, m = spec["toy_graph"] if args.toy else spec["graph"]
    ctx = {
        "workload": args.workload, "spec": spec, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "toy": args.toy, "graph_size": (n, m), "subgraph": subgraph,
        "harness": harness, "spill": work / "spill", "plans": {}, "server": None,
        "sgr": work / "graph.sgr",
    }
    try:
        ctx["text"] = make_inputs(subgraph, work, n, m, args.seed)
        runner = run_batch if spec["kind"] == "batch" else run_serve
        return print_result(ctx, args, *runner(ctx, args))
    finally:
        server = ctx["server"]
        if server is not None and server.proc.returncode is None:
            server.proc.kill()
            server.proc.wait()
        shutil.rmtree(work, ignore_errors=True)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true", help="tiny inputs (self-test)")
    parser.add_argument("--inject-wrong-answer", action="store_true",
                        help="perturb one reference answer (self-test of the oracle)")
    args = parser.parse_args(argv)
    try:
        return run(args)
    except BenchError as e:
        log(f"perfbench: {e}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
