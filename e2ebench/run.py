#!/usr/bin/env python3
"""End-to-end benchmark for relmax: drives the real `relmax` binary.

Usage, from the root of a checkout:

    python3 e2ebench/run.py --workload query-local --seed 1 --seconds 12 --trace 0

Workloads (see e2ebench/README.md for why each exists):

    query-local   `relmax query` batch of 2-5-hop st pairs on a ring-chords snapshot
    select-be     `relmax select --method BE` once per pair on the same snapshot
    serve-mixed   `relmax serve` on the partitioned certain-edge graph, closed loop
    serve-update  the same server with POST /update batches beside the reads

With `--trace 0` the run measures the end-to-end metrics with nothing but
the binary and the client in play. With `--trace 1` it replays the same
inputs in process through `e2e-harness`, which times every call into a
crate, and reports per-layer metrics instead. Every output is checked; a
mismatch fails the run with a non-zero exit code. The last line of stdout
is one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

import argparse
import json
import os
import random
import re
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
CACHE = os.path.join(ROOT, ".bench_cache")
WORK = os.path.join(CACHE, "run")

THREADS = 2            # nproc on the reference host; load stays within it
SAMPLES = 1000         # relmax's default fixed budget (worlds per estimate)
EST_SEED = 42          # relmax's default estimator seed
RING_NODES, RING_DEGREE = 100_000, 4
LOCAL_QUERIES = 100    # st pairs per `relmax query` batch
PREFIX_QUERIES = 40    # prefix re-run at --threads 1 and under the scalar kernel
SELECT_PAIRS = 60      # pairs drawn for select-be (the run stops at --seconds)
SELECT_DEADLINE_S = 30.0
DIAG_PAIRS, DIAG_DEADLINE_S = 8, 3.0
ISLANDS, ISLAND_NODES, ISLAND_K = 8, 12_500, 4
POOL = 200             # distinct request bodies per seed
UPDATE_INTERVAL_S = 0.25
UPDATE_REPROBES = 2    # + one delete/insert pair per batch
UPDATE_BATCHES = int(60 / UPDATE_INTERVAL_S) + 8   # enough for the longest run
UPDATE_RETRIES = 10
PROBE_BATCHES = 4      # the last batches whose edges the final probe queries
COMPACT_AFTER = 24     # pending updates that trigger a background fold
# Set-up is timed this many times before the measured loop and as many
# times after it; the median of both groups is reported, so a stretch of
# host contention at one end of the run does not move it.
SETUP_REPS = 6
# Compaction rewrites `<snapshot>.compacted.rgs` in place. Under the
# default zero-copy load the generation being served maps that very file,
# so the second compaction truncates live mappings and the server dies of
# SIGBUS. serve-update therefore loads snapshots onto the heap.
UPDATE_ENV = {"RELMAX_MMAP": "off"}
CACHE_KEEP = 32
# Layer self times must explain at least this share of the traced
# blocking-path wall time; the rest is the benchmark's own glue.
ACCOUNTED_MIN = 0.95
REPLAY_BODIES = 120    # requests replayed in process by the traced serve runs

# The serve read mix, per 200 requests (60/12/10/6/5/4/3 percent).
MIX = [("st", 120), ("st4", 24), ("topk", 20), ("set", 12), ("hops", 10), ("acc", 8), ("from", 6)]

WORKLOADS = ("query-local", "select-be", "serve-mixed", "serve-update")
# Wall-clock throughput and latency are printed with every run but left
# out of this set: on a host that shares its CPUs they drift by more than
# any bound allows, while CPU time per operation stays within it.
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "cpu_ms_per_op": "ms",
}
PER_LAYER = {
    "ugraph.open_s": "s", "ugraph.index_load_s": "s", "ugraph.resident_mb": "MB",
    "ugraph.thaw_s": "s", "ugraph.plan_us": "us", "ugraph.short_circuit_frac": "ratio",
    "ugraph.pruned_frac": "ratio", "ugraph.index_speedup": "x", "ugraph.overlay_apply_ms": "ms",
    "ugraph.compact_s": "s", "ugraph.self_s": "s",
    "gen.parse_us": "us", "gen.self_s": "s",
    "sampling.self_s": "s", "sampling.worlds": "count", "sampling.worlds_per_s": "1/s",
    "sampling.packed_speedup": "x", "sampling.adaptive_worlds_frac": "ratio",
    "core.elimination_s": "s", "core.candidates": "count", "core.scan_s": "s",
    "core.self_s": "s", "core.deadline_pairs": "count",
    "paths.top_l_s": "s", "paths.self_s": "s",
    "server.http_read_us": "us", "server.http_write_us": "us", "server.render_us": "us",
    "server.response_kb": "KiB", "server.coalesced_frac": "ratio",
    "server.samples_per_query": "count", "server.short_circuits": "count",
    "server.rejected": "count", "server.queue_depth_max": "count",
    "server.compactions": "count", "server.self_s": "s",
    "client.connect_us": "us", "client.ttfb_ms": "ms", "client.read_ms": "ms",
    "client.self_s": "s",
    "trace.wall_s": "s", "trace.path_wall_s": "s", "trace.untraced_wall_s": "s",
    "trace.overhead_ratio": "x",
    "trace.accounted_frac": "ratio",
}


class Mismatch(Exception):
    """An output check failed."""


def log(*args):
    print(*args, file=sys.stderr, flush=True)


# ---------------------------------------------------------------- processes

CHILDREN = []


class Child(subprocess.Popen):
    """A child process that keeps its peak RSS and CPU time (from wait4's
    rusage) when `wait()` reaps it."""

    peak_rss_mb = 0.0
    cpu_s = 0.0

    def _try_wait(self, wait_flags):
        try:
            pid, sts, ru = os.wait4(self.pid, wait_flags)
        except ChildProcessError:
            return (self.pid, 0)
        if pid == self.pid:
            self.peak_rss_mb = ru.ru_maxrss / 1024.0
            self.cpu_s = ru.ru_utime + ru.ru_stime
        return (pid, sts)


def spawn(cmd, **kw):
    p = Child(cmd, **kw)
    CHILDREN.append(p)
    return p


def reap(p, timeout=10):
    """Stop a child if it still runs and wait until it has ended."""
    if p.poll() is None:
        p.kill()
    try:
        p.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        p.kill()
        p.wait()
    if p in CHILDREN:
        CHILDREN.remove(p)


def run_timed(cmd, env=None, deadline=None):
    """Run to completion: (wall seconds, peak RSS in MB, CPU seconds, stdout
    bytes, exit code). A run past `deadline` seconds is killed and reports
    code None."""
    full_env = dict(os.environ)
    full_env.update(env or {})
    t0 = time.perf_counter()
    p = spawn(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=full_env)
    killed = []

    def kill():
        killed.append(True)
        p.kill()

    timer = threading.Timer(deadline, kill) if deadline is not None else None
    if timer:
        timer.start()
    out, err = p.communicate()
    wall = time.perf_counter() - t0
    if timer:
        timer.cancel()
    CHILDREN.remove(p)
    code = None if killed else p.returncode
    if code not in (0, None):
        log(err.decode(errors="replace").strip())
    return wall, p.peak_rss_mb, p.cpu_s, out, code


def cpu_seconds(pid):
    """User + system CPU time a live process has used so far."""
    with open(f"/proc/{pid}/stat") as f:
        fields = f.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def vm_hwm_mb(pid):
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM")


# ---------------------------------------------------------------- build

def build():
    if not (os.path.isfile(os.path.join(ROOT, "Cargo.toml"))
            and os.path.isdir(os.path.join(ROOT, "crates", "cli"))):
        raise SystemExit("e2ebench: run from a relmax checkout (no Cargo.toml or crates/cli beside e2ebench)")
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    target = os.path.join(ROOT, target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    for args in (["-p", "relmax-cli"],
                 ["--manifest-path", os.path.join(BENCH, "harness", "Cargo.toml")]):
        code = subprocess.call(["cargo", "build", "--release", "--offline", "--quiet"] + args,
                               cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
        if code != 0:
            raise SystemExit(f"e2ebench: cargo build failed ({code})")
    return os.path.join(target, "release", "relmax"), os.path.join(target, "release", "e2e-harness")


# ---------------------------------------------------------------- inputs

def cached(key, make):
    """Directory `.bench_cache/<key>`, made by `make(tmpdir)` once."""
    path = os.path.join(CACHE, key)
    if not os.path.isdir(path):
        tmp = path + ".tmp"
        shutil.rmtree(tmp, ignore_errors=True)
        os.makedirs(tmp)
        make(tmp)
        os.rename(tmp, path)
    os.utime(path)
    return path


def prune_cache():
    entries = [e for e in os.listdir(CACHE) if e != "run"]
    entries.sort(key=lambda e: os.path.getmtime(os.path.join(CACHE, e)), reverse=True)
    for e in entries[CACHE_KEEP:]:
        shutil.rmtree(os.path.join(CACHE, e), ignore_errors=True)


def generate(cmd):
    r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    if r.returncode != 0:
        raise SystemExit(f"e2ebench: input generation failed: {' '.join(cmd)}\n{r.stderr.decode()}")
    return r.stdout.decode()


def ring_inputs(relmax, harness, seed):
    """The ring-chords snapshot with its index, plus the query files."""
    def make(d):
        tsv, raw = os.path.join(d, "g.tsv"), os.path.join(d, "raw.rgs")
        generate([relmax, "gen", "--nodes", str(RING_NODES), "--degree", str(RING_DEGREE),
                    "--seed", str(seed), "-o", tsv])
        generate([relmax, "ingest", tsv, "-o", raw])
        generate([relmax, "index", raw, "-o", os.path.join(d, "g.rgs")])
        os.remove(tsv)
        os.remove(raw)
        pairs = generate([harness, "pairs", "--graph", os.path.join(d, "g.rgs"),
                            "--count", str(LOCAL_QUERIES), "--min-hops", "2", "--max-hops", "5",
                            "--seed", str(seed)])
        lines = ["st " + p for p in pairs.splitlines()]
        with open(os.path.join(d, "queries.txt"), "w") as f:
            f.write("\n".join(lines) + "\n")
        with open(os.path.join(d, "prefix.txt"), "w") as f:
            f.write("\n".join(lines[:PREFIX_QUERIES]) + "\n")
        v = random.Random(seed).randrange(RING_NODES)
        with open(os.path.join(d, "one.txt"), "w") as f:
            f.write(f"st {v} {v}\n")
        sel = generate([harness, "pairs", "--graph", os.path.join(d, "g.rgs"),
                          "--count", str(SELECT_PAIRS), "--min-hops", "2", "--max-hops", "5",
                          "--seed", str(seed + 1)])
        with open(os.path.join(d, "select_pairs.txt"), "w") as f:
            f.write(sel)
    return cached(f"ring-n{RING_NODES}-d{RING_DEGREE}-q{LOCAL_QUERIES}-p{SELECT_PAIRS}-s{seed}", make)


def ring_offset(s, t):
    return (t - s) % RING_NODES


def select_pairs(d):
    """(timed pairs, all drawn pairs). BE on a pair at ring offset 5 (two
    hops, one past the longest stride) does not finish on the seed; those
    pairs are kept out of the timed list and probed in the traced run."""
    drawn = [tuple(map(int, l.split())) for l in open(os.path.join(d, "select_pairs.txt")) if l.strip()]
    # Round-robin over hop distance (offset 4h-3..4h is h hops), so every
    # prefix of the timed list holds the same mix of distances.
    by_hops = {}
    for p in drawn:
        if ring_offset(*p) != 5:
            by_hops.setdefault((ring_offset(*p) + RING_DEGREE - 1) // RING_DEGREE, []).append(p)
    timed = []
    while any(by_hops.values()):
        for h in sorted(by_hops):
            if by_hops[h]:
                timed.append(by_hops[h].pop(0))
    return timed, drawn


def partitioned_inputs(harness, seed):
    def make(d):
        generate([harness, "partitioned", "--islands", str(ISLANDS),
                    "--island-nodes", str(ISLAND_NODES), "--k", str(ISLAND_K),
                    "--seed", str(seed), "--out", os.path.join(d, "p.rgs")])
        generate([harness, "updates", "--graph", os.path.join(d, "p.rgs"),
                    "--island-nodes", str(ISLAND_NODES), "--batches", str(UPDATE_BATCHES),
                    "--reprobes", str(UPDATE_REPROBES), "--seed", str(seed),
                    "--out", os.path.join(d, "updates.txt")])
    return cached(f"part-{ISLANDS}x{ISLAND_NODES}-k{ISLAND_K}-b{UPDATE_BATCHES}-s{seed}", make)


def update_batches(d):
    text = open(os.path.join(d, "updates.txt")).read()
    return [b.split("\n", 1)[1] for b in text.split("# batch ")[1:]]


def request_pool(seed):
    """POOL distinct request bodies in the exact MIX proportions."""
    rng = random.Random(seed * 1_000_003 + 17)
    n = ISLANDS * ISLAND_NODES

    def island_nodes(count):
        base = rng.randrange(ISLANDS) * ISLAND_NODES
        return [base + v for v in rng.sample(range(ISLAND_NODES), count)]

    bodies = []
    for kind, count in MIX:
        for _ in range(count * POOL // 200):
            if kind == "st":
                s, t = rng.sample(range(n), 2)
                body = f"st {s} {t}\n"
            elif kind == "st4":
                s, *ts = island_nodes(5)
                body = "".join(f"st {s} {t}\n" for t in ts)
            elif kind == "topk":
                body = f"topk {rng.randrange(n)} 10\n"
            elif kind == "set":
                a, b, c, e = island_nodes(4)
                body = f"set {a},{b} {c},{e}\n"
            elif kind == "hops":
                s, t = island_nodes(2)
                body = f"% max-hops 4\nst {s} {t}\n"
            elif kind == "acc":
                s, t = island_nodes(2)
                body = f"% accuracy 0.02 0.05\nst {s} {t}\n"
            else:
                body = f"from {rng.randrange(n)}\n"
            bodies.append(body.encode())
    stream = []
    for _ in range(60):
        order = list(range(len(bodies)))
        rng.shuffle(order)
        stream.extend(order)
    return bodies, stream


# ---------------------------------------------------------------- statistics

def median(xs):
    return statistics.median(xs) if xs else 0.0


def tail(xs):
    """The highest of p75/p90/p95/p99/p99.9 with at least ten samples
    beyond it, as (label, value); None when there are too few samples."""
    xs = sorted(xs)
    best = None
    for p in (75, 90, 95, 99, 99.9):
        if len(xs) * (1 - p / 100) >= 10:
            best = (f"p{p:g}", xs[min(len(xs) - 1, int(len(xs) * p / 100))])
    return best


class Report:
    """Human-readable lines (stdout) plus the result counters."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0

    def line(self, name, value, unit, n=None, note=""):
        count = f"  (n={n})" if n is not None else ""
        print(f"[{self.workload}] {name:<28} {value:>14.6g} {unit:<6}{count}{('  ' + note) if note else ''}")

    def timing(self, name, xs_s, unit="ms"):
        scale = 1000.0 if unit == "ms" else 1.0
        self.line(f"{name}", median(xs_s) * scale, unit, len(xs_s), "median")
        t = tail(xs_s)
        if t:
            self.line(f"{name} {t[0]}", t[1] * scale, unit, len(xs_s))

    def fail(self, what):
        self.failed += 1
        log(f"[{self.workload}] MISMATCH: {what}")


# ---------------------------------------------------------------- CLI workloads

def setup_probe(relmax, graph, one):
    """SETUP_REPS wall times of `relmax query` on a one-line `st v v` file."""
    walls = []
    for _ in range(SETUP_REPS):
        wall, _, _, out, code = run_timed([relmax, "query", graph, "--queries", one,
                                        "--format", "json", "--threads", str(THREADS)])
        if code != 0 or b'"samples_used":0' not in out:
            raise Mismatch("set-up probe did not answer `st v v` without sampling")
        walls.append(wall)
    return walls


def query_cmd(relmax, graph, queries, threads=THREADS, extra=()):
    return [relmax, "query", graph, "--queries", queries, "--format", "json",
            "--threads", str(threads), "--seed", str(EST_SEED)] + list(extra)


def split_entries(array_text):
    """Split a JSON array's text into its top-level element texts."""
    assert array_text[0] == "[" and array_text[-1] == "]", array_text[:40]
    out, depth, start = [], 0, 1
    for i, ch in enumerate(array_text[1:-1], start=1):
        if ch in "[{":
            depth += 1
        elif ch in "]}":
            depth -= 1
        elif ch == "," and depth == 0:
            out.append(array_text[start:i])
            start = i + 1
    if len(array_text) > 2:
        out.append(array_text[start:-1])
    return out


def results_text(doc):
    text = doc.decode() if isinstance(doc, bytes) else doc
    i = text.index('"results":')
    return text[i + len('"results":'):].rstrip().rstrip("}")


def run_query_local(relmax, harness, seed, seconds, trace, rep):
    d = ring_inputs(relmax, harness, seed)
    g, q = os.path.join(d, "g.rgs"), os.path.join(d, "queries.txt")
    if trace:
        return trace_query_local(relmax, harness, d, rep)
    one = os.path.join(d, "one.txt")
    setups = setup_probe(relmax, g, one)
    walls, rss, cpus, outs = [], [], [], []
    t0 = time.perf_counter()
    while time.perf_counter() - t0 < seconds or len(walls) < 3:
        rep.attempted += 1
        wall, mb, cpu, out, code = run_timed(query_cmd(relmax, g, q))
        if code != 0:
            rep.fail("relmax query exited non-zero")
            continue
        walls.append(wall)
        rss.append(mb)
        cpus.append(cpu)
        outs.append(out)
    setups += setup_probe(relmax, g, one)
    setup = median(setups)
    if any(o != outs[0] for o in outs):
        rep.fail("relmax query stdout differs between repeats")
    full = split_entries(results_text(outs[0]))
    if len(full) != LOCAL_QUERIES:
        rep.fail(f"expected {LOCAL_QUERIES} results, got {len(full)}")
    prefix = os.path.join(d, "prefix.txt")
    for label, threads, env in (("--threads 1", 1, None), ("RELMAX_KERNEL=scalar", THREADS, {"RELMAX_KERNEL": "scalar"})):
        rep.attempted += 1
        _, _, _, out, code = run_timed(query_cmd(relmax, g, prefix, threads), env=env)
        if code != 0 or split_entries(results_text(out)) != full[:PREFIX_QUERIES]:
            rep.fail(f"prefix under {label} differs from the default run")
    qps = [LOCAL_QUERIES / w for w in walls]
    rep.line("setup_s", setup, "s", len(setups), "median")
    rep.line("peak_rss_mb", median(rss), "MB", len(rss), "median VmHWM")
    rep.line("query_qps", median(qps), "1/s", len(walls), f"{LOCAL_QUERIES} queries per batch")
    rep.timing("batch_wall", walls)
    cpu = median(cpus) / LOCAL_QUERIES * 1000
    rep.line("cpu_ms_per_op", cpu, "ms", len(cpus), "median batch CPU time per query")
    rep.line("fail_frac", rep.failed / max(rep.attempted, 1), "ratio", rep.attempted)
    return {"setup_s": setup, "peak_rss_mb": median(rss), "cpu_ms_per_op": cpu}


def select_cmd(relmax, g, s, t):
    return [relmax, "select", g, "--method", "BE", "--source", str(s), "--target", str(t),
            "-k", "5", "--format", "json", "--threads", str(THREADS), "--seed", str(EST_SEED)]


def run_select_be(relmax, harness, seed, seconds, trace, rep):
    d = ring_inputs(relmax, harness, seed)
    g = os.path.join(d, "g.rgs")
    timed, drawn = select_pairs(d)
    if trace:
        return trace_select_be(relmax, harness, d, timed, drawn, rep)
    one = os.path.join(d, "one.txt")
    setups = setup_probe(relmax, g, one)
    walls, rss, cpus, gains, outs = [], [], [], [], {}
    t0 = time.perf_counter()
    for s, t in timed:
        if time.perf_counter() - t0 >= seconds and len(walls) >= 5:
            break
        rep.attempted += 1
        wall, mb, cpu, out, code = run_timed(select_cmd(relmax, g, s, t), deadline=SELECT_DEADLINE_S)
        if code != 0:
            rep.fail(f"select on ({s},{t}) ring offset {ring_offset(s, t)} "
                     f"{'hit the deadline' if code is None else 'failed'}")
            continue
        walls.append(wall)
        rss.append(mb)
        cpus.append(cpu)
        gains.append(json.loads(out)["gain"])
        outs[(s, t)] = out
    for s, t in list(outs)[:2]:
        rep.attempted += 1
        _, _, _, out, code = run_timed(select_cmd(relmax, g, s, t), deadline=SELECT_DEADLINE_S)
        if code != 0 or out != outs[(s, t)]:
            rep.fail(f"select on ({s},{t}) differs between repeats")
    setups += setup_probe(relmax, g, one)
    setup = median(setups)
    rep.line("setup_s", setup, "s", len(setups), "median relmax query `st v v` on the same snapshot")
    rep.line("peak_rss_mb", median(rss), "MB", len(rss), "median VmHWM")
    rep.timing("select_s", walls, unit="s")
    rep.line("select_gain", statistics.mean(gains) if gains else 0.0, "prob.", len(gains), "mean gain")
    cpu = sum(cpus) / max(len(cpus), 1) * 1000
    rep.line("cpu_ms_per_op", cpu, "ms", len(cpus), "mean CPU time per select")
    rep.line("fail_frac", rep.failed / max(rep.attempted, 1), "ratio", rep.attempted)
    return {"setup_s": setup, "peak_rss_mb": median(rss), "cpu_ms_per_op": cpu}


# ---------------------------------------------------------------- serving

class Server:
    """A `relmax serve` child on an ephemeral loopback port."""

    def __init__(self, relmax, graph, extra=(), env=None):
        t0 = time.perf_counter()
        os.makedirs(WORK, exist_ok=True)
        self.log = os.path.join(WORK, "serve.log")
        with open(self.log, "ab") as err:
            self.proc = spawn([relmax, "serve", graph, "--port", "0", "--threads", str(THREADS)] + list(extra),
                              stdout=subprocess.PIPE, stderr=err, env=dict(os.environ, **(env or {})))
        line = self.proc.stdout.readline().decode()
        self.setup_s = time.perf_counter() - t0
        m = re.search(r"listening on http://([\d.]+):(\d+)", line)
        if not m:
            reap(self.proc)
            raise SystemExit(f"e2ebench: relmax serve did not start: {line!r}")
        self.addr = (m.group(1), int(m.group(2)))

    def stop(self):
        if self.proc.poll() is not None:
            with open(self.log, errors="replace") as f:
                log(f.read()[-2000:])
            raise Mismatch(f"relmax serve exited early with code {self.proc.returncode}")
        hwm = vm_hwm_mb(self.proc.pid)
        reap(self.proc)
        return hwm


def http(addr, method, path, body=b"", splits=None):
    """One request on its own connection: (status, body bytes, seconds).
    With `splits`, appends (connect, time to first byte, read) seconds."""
    t0 = time.perf_counter()
    s = socket.create_connection(addr)
    t1 = time.perf_counter()
    head = f"{method} {path} HTTP/1.1\r\nHost: bench\r\nContent-Length: {len(body)}\r\n\r\n".encode()
    s.sendall(head + body)
    chunks = []
    first = None
    while True:
        data = s.recv(1 << 20)
        if first is None:
            first = time.perf_counter()
        if not data:
            break
        chunks.append(data)
    s.close()
    t2 = time.perf_counter()
    raw = b"".join(chunks)
    if splits is not None:
        splits.append((t1 - t0, first - t1, t2 - first))
    status = int(raw[9:12]) if raw.startswith(b"HTTP/1.1 ") else 0
    return status, raw[raw.find(b"\r\n\r\n") + 4:], t2 - t0


SAMPLED = re.compile(rb'"samples_used":[1-9]')
# The answer fields of a result entry, without its effort fields.
VALUES = re.compile(r'"(?:node|reliability|values)":(\[[^\]]*\]|[^,}]+)')


def serve_setup(relmax, graph, extra, env=None):
    """Spawn the server SETUP_REPS times: the set-up times, and the last
    server, still running."""
    times, server = [], None
    for i in range(SETUP_REPS):
        if server:
            server.stop()
        server = Server(relmax, graph, extra, env)
        times.append(server.setup_s)
    return times, server


def serve_setup_after(relmax, graph, extra, env, times):
    """Spawn and stop the server SETUP_REPS more times after the measured
    loop: the median set-up time of both groups."""
    for _ in range(SETUP_REPS):
        server = Server(relmax, graph, extra, env)
        times.append(server.setup_s)
        server.stop()
    return median(times)


def pool_pass(addr, bodies, rep):
    """Every distinct body once over two connections: its response body
    and whether it sampled."""
    responses = [None] * len(bodies)
    lock = threading.Lock()
    nxt = [0]

    def worker():
        while True:
            with lock:
                i = nxt[0]
                nxt[0] += 1
            if i >= len(bodies):
                return
            status, body, _ = http(addr, "POST", "/query", bodies[i])
            responses[i] = (status, body)

    threads = [threading.Thread(target=worker) for _ in range(THREADS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    for i, (status, body) in enumerate(responses):
        rep.attempted += 1
        if status != 200:
            rep.fail(f"pool body {i} answered {status}")
    return responses


def closed_loop(addr, bodies, stream, clients, seconds, expected=None, splits=None):
    """`clients` closed-loop clients over `stream` for `seconds`: a list of
    (pool index, status, seconds, sampled, matches expected) and the
    window from the first send to the last reply."""
    out = []
    lock = threading.Lock()
    nxt = [0]
    stop_at = time.perf_counter() + seconds

    def worker():
        while time.perf_counter() < stop_at:
            with lock:
                k = nxt[0]
                nxt[0] += 1
            i = stream[k % len(stream)]
            try:
                status, body, dt = http(addr, "POST", "/query", bodies[i], splits)
            except OSError:
                status, body, dt = 0, b"", 0.0
            ok = status == 200 and (expected is None or results_text(body) == expected[i])
            with lock:
                out.append((i, status, dt, bool(SAMPLED.search(body)), ok))

    started = time.perf_counter()
    threads = [threading.Thread(target=worker) for _ in range(clients)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return out, time.perf_counter() - started


def cli_check_pool(relmax, graph, bodies, responses, rep):
    """Each distinct body's `results` must equal `relmax query --format
    json` on the same queries, seed and budget."""
    groups = {}
    for i, body in enumerate(bodies):
        lines = body.decode().splitlines()
        directive = "\n".join(l for l in lines if l.startswith("%"))
        queries = [l for l in lines if not l.startswith("%")]
        groups.setdefault(directive, []).append((i, queries))
    os.makedirs(WORK, exist_ok=True)
    for n, (directive, members) in enumerate(sorted(groups.items())):
        path = os.path.join(WORK, f"pool{n}.txt")
        with open(path, "w") as f:
            if directive:
                f.write(directive + "\n")
            for _, queries in members:
                f.write("\n".join(queries) + "\n")
        rep.attempted += 1
        _, _, _, out, code = run_timed(query_cmd(relmax, graph, path))
        if code != 0:
            rep.fail(f"relmax query on pool group {directive!r} failed")
            continue
        entries = split_entries(results_text(out))
        at = 0
        for i, queries in members:
            want = "[" + ",".join(entries[at:at + len(queries)]) + "]"
            at += len(queries)
            if responses[i][0] == 200 and results_text(responses[i][1]) != want:
                rep.fail(f"served results of pool body {i} differ from relmax query")


def serve_report(rep, setup, hwm, loop, window):
    ok = [r for r in loop if r[1] == 200]
    indexed = [r[2] for r in ok if not r[3]]
    sampled = [r[2] for r in ok if r[3]]
    for r in loop:
        rep.attempted += 1
        if not r[4]:
            rep.fail(f"request for pool body {r[0]} answered {r[1]} or changed bytes")
    rep.line("setup_s", setup, "s", 2 * SETUP_REPS, "median spawn to `listening on`")
    rep.line("peak_rss_mb", hwm, "MB", 1, "server VmHWM")
    rep.line("serve_rps", len(ok) / window, "1/s", len(ok))
    rep.timing("serve_indexed_ms", indexed)
    rep.timing("serve_sampled_ms", sampled)
    return indexed, sampled


def run_serve_mixed(relmax, harness, seed, seconds, trace, rep):
    d = partitioned_inputs(harness, seed)
    g = os.path.join(d, "p.rgs")
    bodies, stream = request_pool(seed)
    if trace:
        return trace_serve(relmax, harness, d, bodies, stream, seconds, rep, updates=False)
    setups, server = serve_setup(relmax, g, [])
    try:
        responses = pool_pass(server.addr, bodies, rep)
        expected = [results_text(b) if s == 200 else None for s, b in responses]
        cpu0 = cpu_seconds(server.proc.pid)
        loop, window = closed_loop(server.addr, bodies, stream, THREADS, seconds, expected)
        cpu = cpu_seconds(server.proc.pid) - cpu0
    finally:
        hwm = server.stop()
    setup = serve_setup_after(relmax, g, [], None, setups)
    cli_check_pool(relmax, g, bodies, responses, rep)
    serve_report(rep, setup, hwm, loop, window)
    cpu_ms = cpu / max(len(loop), 1) * 1000
    rep.line("cpu_ms_per_op", cpu_ms, "ms", len(loop), "server CPU time per request")
    rep.line("fail_frac", rep.failed / max(rep.attempted, 1), "ratio", rep.attempted)
    return {"setup_s": setup, "peak_rss_mb": hwm, "cpu_ms_per_op": cpu_ms}


def post_update(addr, batch):
    """POST one update batch: (final status, retries). A 409 means the
    batch lost the generation compare-and-swap to a background fold and
    was not applied; the server's answer to that is to retry."""
    for retries in range(UPDATE_RETRIES):
        status, _, _ = http(addr, "POST", "/update", batch.encode())
        if status != 409:
            break
    return status, retries


def updater(addr, batches, seconds, out):
    """Open loop: batch i is due at start + i * UPDATE_INTERVAL_S and is
    timed from when it was due, retries included. Records (status,
    latency, lateness, batch, retries)."""
    start = time.perf_counter()
    for i, batch in enumerate(batches):
        due = start + i * UPDATE_INTERVAL_S
        if due - start >= seconds:
            break
        now = time.perf_counter()
        if due > now:
            time.sleep(due - now)
        sent = time.perf_counter()
        try:
            status, retries = post_update(addr, batch)
        except OSError:
            status, retries = 0, 0
        out.append((status, time.perf_counter() - due, sent - due, batch, retries))


def pending_updates(addr):
    return json.loads(http(addr, "GET", "/healthz")[1])["pending_updates"]


def finish_updates(relmax, d, server, applied, spare, rep):
    """Check a probe request against a `relmax update` re-freeze of every
    applied batch: once read through the delta overlay while updates are
    still pending, and once after a final fold. If the last batch folded
    everything, `spare` is applied first so the overlay is not empty.
    Returns the number of updates pending at the overlay probe."""
    if pending_updates(server.addr) == 0 and spare is not None:
        rep.attempted += 1
        status, _ = post_update(server.addr, spare)
        if status == 200:
            applied.append(spare)
        else:
            rep.fail(f"spare update batch answered {status}")
    pending = pending_updates(server.addr)
    # One pair per island, a ranking and a vector, plus the endpoints of
    # every edge the last batches changed, so a lost or misapplied update
    # shows in the answer.
    touched = [l.split()[1:3] for b in applied[-PROBE_BATCHES:] for l in b.splitlines() if l.strip()]
    probe = "".join(f"st {ISLAND_NODES * c + 1} {ISLAND_NODES * c + 5}\n" for c in range(ISLANDS))
    probe += "".join(f"st {u} {v}\n" for u, v in touched)
    probe = (probe + "topk 1 10\nfrom 1\n").encode()
    rep.attempted += 1
    overlay_status, overlay, _ = http(server.addr, "POST", "/query", probe)
    for _ in range(50):
        status, body, _ = http(server.addr, "POST", "/compact")
        if status == 200 and pending_updates(server.addr) == 0:
            break
        time.sleep(0.1)
    else:
        rep.fail("pending updates never compacted")
    rep.attempted += 1
    folded_status, folded, _ = http(server.addr, "POST", "/query", probe)
    os.makedirs(WORK, exist_ok=True)
    ups, refrozen, probe_path = (os.path.join(WORK, n) for n in ("applied.txt", "refrozen.rgs", "probe.txt"))
    with open(ups, "w") as f:
        f.write("".join(applied))
    with open(probe_path, "wb") as f:
        f.write(probe)
    if subprocess.call([relmax, "update", os.path.join(d, "p.rgs"), "--updates", ups, "-o", refrozen],
                       stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL) != 0:
        rep.fail("relmax update could not re-freeze the applied batches")
        return pending
    _, _, _, out, code = run_timed(query_cmd(relmax, refrozen, probe_path))
    if code != 0:
        rep.fail("relmax query on the re-frozen snapshot failed")
        return pending
    want = results_text(out)
    # Through the overlay, an island that an update touched has lost its
    # index verdicts and is sampled instead, which moves the effort fields
    # (samples_used, stderr, interval) but never the values.
    if overlay_status != 200 or VALUES.findall(results_text(overlay)) != VALUES.findall(want):
        rep.fail(f"probe through the delta overlay ({pending} updates pending) differs from the re-frozen snapshot")
    if folded_status != 200 or results_text(folded) != want:
        rep.fail("probe after the final fold differs from the re-frozen snapshot")
    return pending


def run_serve_update(relmax, harness, seed, seconds, trace, rep):
    d = partitioned_inputs(harness, seed)
    bodies, stream = request_pool(seed)
    batches = update_batches(d)
    if trace:
        return trace_serve(relmax, harness, d, bodies, stream, seconds, rep, updates=True)
    os.makedirs(WORK, exist_ok=True)
    base = os.path.join(d, "p.rgs")
    g = os.path.join(WORK, "p.rgs")
    shutil.copyfile(base, g)
    extra = ["--compact-after", str(COMPACT_AFTER)]
    setups, server = serve_setup(relmax, g, extra, UPDATE_ENV)
    try:
        # Every distinct body once on the initial snapshot, before any
        # update, for the check against `relmax query`.
        responses = pool_pass(server.addr, bodies, rep)
        ups = []
        upd = threading.Thread(target=updater, args=(server.addr, batches, seconds, ups))
        upd.start()
        cpu0 = cpu_seconds(server.proc.pid)
        loop, window = closed_loop(server.addr, bodies, stream, 1, seconds)
        upd.join()
        cpu = cpu_seconds(server.proc.pid) - cpu0
        for status, *_ in ups:
            rep.attempted += 1
            if status != 200:
                rep.fail(f"update batch answered {status}")
        spare = batches[len(ups)] if len(ups) < len(batches) else None
        pending = finish_updates(relmax, d, server, [u[3] for u in ups if u[0] == 200], spare, rep)
    finally:
        hwm = server.stop()
    setup = serve_setup_after(relmax, base, extra, UPDATE_ENV, setups)
    cli_check_pool(relmax, base, bodies, responses, rep)
    serve_report(rep, setup, hwm, loop, window)
    rep.line("probe_pending_updates", pending, "count", 1, "updates in the overlay when the probe read it")
    reads = [r[2] for r in loop if r[1] == 200]
    rep.timing("serve_read_ms", reads)
    lat = [u[1] for u in ups if u[0] == 200]
    rep.timing("update_ms", lat)
    rep.line("update_retries", sum(u[4] for u in ups), "count", len(ups),
             "409s from losing the generation swap to a background fold")
    rep.line("update_late_max_ms", max((u[2] for u in ups), default=0.0) * 1000, "ms", len(ups),
             "how late the open-loop generator sent")
    cpu_ms = cpu / max(len(reads), 1) * 1000
    rep.line("cpu_ms_per_op", cpu_ms, "ms", len(reads), "server CPU time per read")
    rep.line("fail_frac", rep.failed / max(rep.attempted, 1), "ratio", rep.attempted)
    return {"setup_s": setup, "peak_rss_mb": hwm, "cpu_ms_per_op": cpu_ms}


# ---------------------------------------------------------------- traced runs

def harness_trace(harness, args, env=None):
    r = subprocess.run([harness] + args, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                       env=dict(os.environ, **(env or {})))
    if r.returncode != 0:
        raise Mismatch(f"e2e-harness {args[0]} failed: {r.stderr.decode().strip()}")
    return json.loads(r.stdout.decode().strip().splitlines()[-1])


def spans_path(workload):
    os.makedirs(WORK, exist_ok=True)
    return os.path.join(WORK, f"spans-{workload}.jsonl")


def trace_query_local(relmax, harness, d, rep):
    g, q = os.path.join(d, "g.rgs"), os.path.join(d, "queries.txt")

    def med_wall(extra=(), env=None, reps=3):
        walls, out = [], None
        for _ in range(reps):
            rep.attempted += 1
            wall, _, _, o, code = run_timed(query_cmd(relmax, g, q, extra=extra), env=env)
            if code != 0 or (out is not None and o != out):
                rep.fail("relmax query failed or changed bytes")
            walls.append(wall)
            out = o
        return median(walls), out

    base, out = med_wall()
    scalar, out_s = med_wall(env={"RELMAX_KERNEL": "scalar"})
    noindex, out_n = med_wall(extra=["--no-index"])
    if out_s != out:
        rep.fail("RELMAX_KERNEL=scalar changed the bytes")
    strip = lambda o: re.sub(rb'"samples_used":\d+,"stopped_early":\w+', b"", o)
    if strip(out_n) != strip(out):
        rep.fail("--no-index changed reliability values")
    mirror = os.path.join(WORK, "replay-query.json")
    rep.attempted += 1
    m = harness_trace(harness, ["trace-query", "--graph", g, "--queries", q, "--threads", str(THREADS),
                                "--seed", str(EST_SEED), "--samples", str(SAMPLES), "--out", mirror,
                                "--spans", spans_path("query-local")])
    if open(mirror, "rb").read() != out:
        rep.fail("in-process replay output differs from relmax query")
    m["sampling.packed_speedup"] = scalar / base
    m["ugraph.index_speedup"] = noindex / base
    m["trace.untraced_wall_s"] = base
    rep.line("diag sampling.packed_speedup", m["sampling.packed_speedup"], "x", 3,
             f"scalar {scalar:.3f}s / packed {base:.3f}s (< 1: packed loses end to end)")
    rep.line("diag ugraph.index_speedup", m["ugraph.index_speedup"], "x", 3,
             f"--no-index {noindex:.3f}s / indexed {base:.3f}s (< 1: the index is overhead)")
    return m


def trace_select_be(relmax, harness, d, timed, drawn, rep):
    g = os.path.join(d, "g.rgs")
    pairs = timed[:8]
    walls, gains = {}, {}
    for s, t in pairs:
        rep.attempted += 1
        wall, _, _, out, code = run_timed(select_cmd(relmax, g, s, t), deadline=SELECT_DEADLINE_S)
        if code != 0:
            rep.fail(f"select on ({s},{t}) failed")
            continue
        walls[(s, t)] = wall
        gains[(s, t)] = json.loads(out)["gain"]
    if not walls:
        raise Mismatch("no select-be pair completed")
    # The scalar kernel on the first pair that completed, against its own
    # packed wall time.
    first = next(iter(walls))
    rep.attempted += 1
    scalar, _, _, out_s, code = run_timed(select_cmd(relmax, g, *first), env={"RELMAX_KERNEL": "scalar"},
                                          deadline=SELECT_DEADLINE_S)
    try:
        same = code == 0 and json.loads(out_s)["gain"] == gains[first]
    except (ValueError, KeyError):
        same = False
    if not same:
        raise Mismatch(f"select on {first} under RELMAX_KERNEL=scalar failed or changed the BE outcome")
    pairs_file = os.path.join(WORK, "trace-pairs.txt")
    os.makedirs(WORK, exist_ok=True)
    with open(pairs_file, "w") as f:
        f.write("".join(f"{s} {t}\n" for s, t in walls))
    mirror = os.path.join(WORK, "replay-select.txt")
    rep.attempted += 1
    m = harness_trace(harness, ["trace-select", "--graph", g, "--pairs", pairs_file, "--k", "5",
                                "--zeta", "0.5", "--r", "100", "--l", "30", "--hops", "3",
                                "--samples", str(SAMPLES), "--seed", str(EST_SEED),
                                "--threads", str(THREADS), "--out", mirror,
                                "--spans", spans_path("select-be")])
    for line in open(mirror):
        s, t, gain = line.split()
        if float(gain) != gains.get((int(s), int(t))):
            rep.fail(f"in-process BE on ({s},{t}) differs from relmax select")
    m["sampling.packed_speedup"] = scalar / walls[first]
    m["trace.untraced_wall_s"] = sum(walls.values())
    # The seed diagnosis: which of the first drawn pairs, plus two at ring
    # offset 5, hit a short deadline.
    rng = random.Random(len(drawn))
    offset5 = [p for p in drawn if ring_offset(*p) == 5]
    while len(offset5) < 2:
        v = rng.randrange(RING_NODES)
        offset5.append((v, (v + 5) % RING_NODES))
    probe = drawn[:DIAG_PAIRS] + [p for p in offset5[:2] if p not in drawn[:DIAG_PAIRS]]
    stalled = []
    for s, t in probe:
        _, _, _, _, code = run_timed(select_cmd(relmax, g, s, t), deadline=DIAG_DEADLINE_S)
        if code is None:
            stalled.append((s, t))
    m["core.deadline_pairs"] = len(stalled)
    offsets = ", ".join(f"({s},{t}) offset {ring_offset(s, t)}" for s, t in stalled) or "none"
    rep.line("diag core.deadline_pairs", len(stalled), "count", len(probe),
             f"past {DIAG_DEADLINE_S:g}s: {offsets}")
    return m


def scrape(addr):
    text = http(addr, "GET", "/metrics")[1].decode()
    return {k: float(v) for k, v in (l.split() for l in text.splitlines() if l.strip())}


def sequential_twin(addr, bodies, batches, every, rep):
    """The replay's request sequence sent one at a time, with an update
    batch after every `every` reads: (seconds spent, results per body)."""
    total, results, nxt = 0.0, [], 0
    for i, body in enumerate(bodies):
        rep.attempted += 1
        status, resp, dt = http(addr, "POST", "/query", body)
        total += dt
        results.append(results_text(resp) if status == 200 else None)
        if status != 200:
            rep.fail(f"sequential request for pool body {i} answered {status}")
        if every and (i + 1) % every == 0 and nxt < len(batches):
            rep.attempted += 1
            t0 = time.perf_counter()
            status, _ = post_update(addr, batches[nxt])
            total += time.perf_counter() - t0
            nxt += 1
            if status != 200:
                rep.fail(f"sequential update batch answered {status}")
    return total, results


def trace_serve(relmax, harness, d, bodies, stream, seconds, rep, updates):
    g = os.path.join(d, "p.rgs")
    extra = []
    if updates:
        os.makedirs(WORK, exist_ok=True)
        g = os.path.join(WORK, "p.rgs")
        shutil.copyfile(os.path.join(d, "p.rgs"), g)
        extra = ["--compact-after", str(COMPACT_AFTER)]
    env = UPDATE_ENV if updates else None
    server = Server(relmax, g, extra, env)
    try:
        before = scrape(server.addr)
        depth = [0.0]
        stop = threading.Event()

        def sampler():
            while not stop.wait(0.05):
                depth[0] = max(depth[0], scrape(server.addr)["queue_depth"])

        smp = threading.Thread(target=sampler)
        smp.start()
        splits = []
        ups = []
        if updates:
            upd = threading.Thread(target=updater, args=(server.addr, update_batches(d), seconds, ups))
            upd.start()
        loop, _ = closed_loop(server.addr, bodies, stream, 1 if updates else THREADS, seconds, splits=splits)
        if updates:
            upd.join()
        stop.set()
        smp.join()
        after = scrape(server.addr)
    finally:
        server.stop()
    for r in loop:
        rep.attempted += 1
        if r[1] != 200:
            rep.fail(f"request answered {r[1]}")
    for u in ups:
        rep.attempted += 1
        if u[0] != 200:
            rep.fail(f"update batch answered {u[0]}")
    # The replay's exact request sequence (the head of the seeded request
    # stream, so every kind of the mix is in it), untraced, one request at
    # a time, against a fresh server.
    replay = [bodies[i] for i in stream[:REPLAY_BODIES]]
    batches = update_batches(d) if updates else []
    every = 0
    if updates:
        # Reads per applied batch as the live run just served them.
        reads = sum(1 for r in loop if r[1] == 200)
        applied = sum(1 for u in ups if u[0] == 200)
        every = max(1, round(reads / max(applied, 1)))
        rep.line("replay reads per update", every, "count", applied,
                 f"{reads} live reads / {applied} applied batches")
    if updates:
        shutil.copyfile(os.path.join(d, "p.rgs"), g)
    twin = Server(relmax, g, extra, env)
    try:
        untraced, live = sequential_twin(twin.addr, replay, batches, every, rep)
    finally:
        twin.stop()
    delta = {k: after.get(k, 0.0) - before.get(k, 0.0) for k in after}
    queries = max(delta.get("queries_total", 0.0), 1.0)
    m = {}
    rec = os.path.join(WORK, "bodies.bin")
    with open(rec, "wb") as f:
        for b in replay:
            f.write(b"%d\n" % len(b) + b)
    args = ["trace-serve", "--graph", os.path.join(d, "p.rgs"), "--bodies", rec,
            "--seed", str(EST_SEED), "--samples", str(SAMPLES),
            "--compact-after", str(COMPACT_AFTER), "--scratch", os.path.join(WORK, "replay.rgs"),
            "--out", os.path.join(WORK, "replay-serve.txt"), "--spans",
            spans_path("serve-update" if updates else "serve-mixed")]
    urec = os.path.join(WORK, "updates.bin")
    with open(urec, "wb") as f:
        for b in batches:
            f.write(b"%d\n" % len(b.encode()) + b.encode())
    args += ["--updates", urec, "--update-every", str(every)]
    rep.attempted += 1
    m.update(harness_trace(harness, args, env))
    replayed = open(os.path.join(WORK, "replay-serve.txt")).read().splitlines()
    for i, (text, want) in enumerate(zip(replayed, live)):
        # Under updates, when the background fold lands decides whether a
        # pair is answered by the index or sampled, which moves the effort
        # fields but never the reliability values.
        same = (VALUES.findall(text) == VALUES.findall(want)) if updates else text == want
        if want is not None and not same:
            rep.fail(f"in-process replay of pool body {i} differs from the server")
    m["trace.untraced_wall_s"] = untraced
    m["server.coalesced_frac"] = delta.get("coalesced_queries_total", 0.0) / queries
    m["server.samples_per_query"] = delta.get("samples_total", 0.0) / queries
    m["server.short_circuits"] = delta.get("index_short_circuits_total", 0.0)
    m["server.rejected"] = delta.get("rejected_total", 0.0)
    m["server.queue_depth_max"] = depth[0]
    m["server.compactions"] = delta.get("compactions_total", 0.0)
    if splits:
        m["client.connect_us"] = median([s[0] for s in splits]) * 1e6
        m["client.ttfb_ms"] = median([s[1] for s in splits]) * 1e3
        m["client.read_ms"] = median([s[2] for s in splits]) * 1e3
    return m


# ---------------------------------------------------------------- main

RUNNERS = {
    "query-local": run_query_local,
    "select-be": run_select_be,
    "serve-mixed": run_serve_mixed,
    "serve-update": run_serve_update,
}


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()

    relmax, harness = build()
    os.makedirs(CACHE, exist_ok=True)
    shutil.rmtree(WORK, ignore_errors=True)
    prune_cache()
    rep = Report(a.workload)
    started = time.perf_counter()
    try:
        values = RUNNERS[a.workload](relmax, harness, a.seed, a.seconds, bool(a.trace), rep)
    except Mismatch as e:
        rep.fail(str(e))
        values = {}
    finally:
        for p in list(CHILDREN):
            reap(p)
    if a.trace:
        if values and values.get("trace.accounted_frac", 0.0) < ACCOUNTED_MIN:
            rep.fail(f"layer self times explain only {values.get('trace.accounted_frac', 0.0):.3f} "
                     f"of the traced blocking path (need {ACCOUNTED_MIN})")
        values.setdefault("trace.untraced_wall_s", 0.0)
        wall = values.get("trace.wall_s", 0.0)
        base = values["trace.untraced_wall_s"]
        values["trace.overhead_ratio"] = wall / base if base else 0.0
        names = PER_LAYER
    else:
        names = END_TO_END
    metrics = {n: {"value": float(values.get(n, 0.0)), "unit": u} for n, u in names.items()}
    if a.trace:
        for n in names:
            rep.line(n, metrics[n]["value"], names[n])
        print(f"[{a.workload}] spans written to {os.path.relpath(spans_path(a.workload), ROOT)}")
    print(f"[{a.workload}] run took {time.perf_counter() - started:.1f}s")
    correct = rep.failed == 0
    print(json.dumps({"correct": correct, "attempted": max(rep.attempted, 1),
                      "failed": rep.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    sys.exit(main())
