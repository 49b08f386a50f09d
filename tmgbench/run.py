#!/usr/bin/env python3
"""The tmg benchmark: three workloads against `tmg` as users run it.

    python3 tmgbench/run.py --workload loops|corpus|serve --seed N \
        --seconds S --trace 0|1
    python3 tmgbench/run.py --selftest

Run from the repository root. The first run builds `tmg` and the harness
from ../src into .bench_build/tmgbench (cmake, Release). Inputs are
generated from --seed; every timed repetition runs in a fresh `tmg`
process (a fresh daemon with an empty cache directory for `serve`), and
every timing model is checked against a brute-force reference. The last
line of stdout is one JSON object: {"correct", "attempted", "failed",
"metrics"}; --trace 0 reports the end-to-end metrics of BENCHMARK.json,
--trace 1 the per-layer ones. Diagnostics go to stderr.
"""

import argparse
import hashlib
import json
import math
import multiprocessing
import os
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
BUILD = os.path.join(ROOT, ".bench_build", "tmgbench")
WORK = os.path.join(ROOT, ".bench_build", "work")
TMG = os.path.join(BUILD, "tmg")
HARNESS = os.path.join(BUILD, "tmgbench_harness")
JOBS = len(os.sched_getaffinity(0))  # nproc

sys.dont_write_bytecode = True  # leave nothing behind in the checkout
sys.path.insert(0, HERE)
import gen  # noqa: E402

# Generator parameters; tmgbench/WORKLOADS.md records them with their
# reasons. SHAPE_SEED fixes the logical programs, --seed their surface
# (see gen.py), so every seed measures the same work.
SHAPE_SEED = 20051
LOOPS = dict(functions=3, bound=3, branches=3, lo=-8, hi=8)
CORPUS = dict(programs=600, max_depth=2, max_paths=64)
SERVE = dict(hot=8, mix=9, cap_mb=1, reps=3, callers=2, max_depth=2,
             max_paths=64, fresh_pool=6000, cli_misses=120)
SETUP_REPS = 11
HOT_FILES = 16  # files the `loops`/`corpus` hit bursts cycle through
STRETCH = 100   # consecutive hits of one caller per hit-tail stretch
TINY = dict(loops=dict(functions=1, bound=2, branches=2, lo=-4, hi=4),
            corpus=dict(programs=12, max_depth=2, max_paths=64),
            serve=dict(hot=2, mix=9, cap_mb=1, reps=1, callers=2, max_depth=2,
                       max_paths=64, fresh_pool=400, cli_misses=4))


class BenchError(Exception):
    """The benchmark cannot produce a result (build or set-up failure)."""


def log(*args):
    print("tmgbench:", *args, file=sys.stderr, flush=True)


def median(values):
    return statistics.median(values)


def percentile(values, q):
    """q-th percentile (0..100), linear between closest ranks."""
    ordered = sorted(values)
    pos = q / 100 * (len(ordered) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def tail(chunks, q):
    """Median over a run's sampling stretches (hit bursts, serve
    repetitions) of each stretch's q-th percentile, so one noisy stretch
    of the shared box does not move the run's tail. Stretches with no
    sample beyond the percentile are left out."""
    values = [percentile(c, q) for c in chunks if len(c) * (100 - q) >= 100]
    return median(values or [percentile([x for c in chunks for x in c], q)])


def hit_tail(chunks, q):
    """Hit-latency tail: each caller's hits are cut into stretches of
    STRETCH consecutive requests, and the run's value is the lower
    quartile over the stretches of each stretch's q-th percentile. A hit
    takes ~0.1 ms, so a stretch lasts ~10 ms; stretches in which a
    neighbour on the shared host held the CPUs fall in the upper quartiles
    and do not decide the run, while a slower hit path moves every
    stretch. Runs too short for four stretches fall back to `tail`."""
    values = [percentile(c[i:i + STRETCH], q) for c in chunks
              for i in range(0, len(c) - STRETCH + 1, STRETCH)]
    if len(values) < 4:
        return tail(chunks, q)
    return statistics.quantiles(values, n=4)[0]


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# ------------------------------------------------------------------ build
def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "driver", "main.cpp")):
        raise BenchError("no tmg sources next to the benchmark (src/ missing)")
    os.makedirs(BUILD, exist_ok=True)
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD, "-j", str(JOBS)],
                   check=True, stdout=sys.stderr)


# -------------------------------------------------------------- processes
def run_proc(args, cwd=ROOT, timeout=170):
    """Runs one child to completion. Returns (wall_s, cpu_s, peak_rss_mb,
    exit code, stdout bytes); cpu and rss come from its own rusage."""
    t0 = time.perf_counter()
    p = subprocess.Popen(args, cwd=cwd, stdout=subprocess.PIPE,
                         stderr=subprocess.DEVNULL)
    timer = threading.Timer(timeout, p.kill)
    timer.start()
    try:
        out = p.stdout.read()
        _, status, ru = os.wait4(p.pid, 0)
    finally:
        timer.cancel()
        p.stdout.close()
    wall = time.perf_counter() - t0
    p.returncode = os.waitstatus_to_exitcode(status)
    return wall, ru.ru_utime + ru.ru_stime, ru.ru_maxrss / 1024.0, \
        p.returncode, out


def harness(*args):
    *_, rc, out = run_proc([HARNESS, *args])
    if rc != 0:
        raise BenchError(f"harness {args[0]} failed with exit code {rc}")
    return out


def harness_json(*args):
    return json.loads(harness(*args))


# ----------------------------------------------------------------- inputs
def write_inputs(directory, sources):
    """Writes sources as p000.mc... and returns paths relative to ROOT."""
    shutil.rmtree(directory, ignore_errors=True)
    os.makedirs(directory)
    paths = []
    for i, src in enumerate(sources):
        path = os.path.join(directory, f"p{i:04d}.mc")
        with open(path, "w") as f:
            f.write(src)
        paths.append(os.path.relpath(path, ROOT))
    return paths


def loops_sources(seed, p):
    return [gen.loops_program(random.Random(SHAPE_SEED), random.Random(seed),
                              p["functions"], p["bound"], p["branches"],
                              p["lo"], p["hi"])]


def corpus_sources(seed, p):
    surface = random.Random(seed)
    return [gen.small_program(random.Random(SHAPE_SEED * 100003 + i), surface,
                              p["max_depth"], p["max_paths"])
            for i in range(p["programs"])]


# ------------------------------------------------------------ CLI workloads
class Tally:
    """Attempted and failed operations: timed runs, requests and checked
    functions. A model that differs from the reference is a failure and
    also counts as a mismatch."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.mismatches = 0
        self.notes = []

    def add(self, ok, note=None, mismatch=False):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.mismatches += mismatch
            if note and len(self.notes) < 5:
                self.notes.append(note)


def cli_args(files, opt, jobs):
    return [TMG, *files, *(["--opt"] if opt else []), f"--jobs={jobs}",
            "--format=json"]


def check_models(files, opt, report_path, tally, chunks=1):
    """Reference check (untimed): returns (digest of the --jobs=1 report,
    per-file model keys, conclusive ratio) and counts every mismatched
    function. With chunks > 1 the files are checked by that many harness
    processes in parallel and no single report (digest None) exists."""
    size = -(-len(files) // chunks)
    parts = [files[i:i + size] for i in range(0, len(files), size)]
    paths = [report_path if len(parts) == 1 else f"{report_path}.{k}"
             for k in range(len(parts))]
    procs = [subprocess.Popen([HARNESS, "check", *(["--opt"] if opt else []),
                               "--report", path, *part], cwd=ROOT,
                              stdout=subprocess.PIPE)
             for part, path in zip(parts, paths)]
    outs = [p.communicate()[0] for p in procs]
    if any(p.returncode != 0 for p in procs):
        raise BenchError("harness check failed")
    models, segments, exact = [], 0, 0
    for out, path in zip(outs, paths):
        res = json.loads(out)
        for _ in range(res["functions"] - res["mismatched"]):
            tally.add(True)
        for note in res["notes"] + [""] * (res["mismatched"] -
                                           len(res["notes"])):
            tally.add(False, "model mismatch: " + note, mismatch=True)
        models += res["models"]
        with open(path, "rb") as f:
            report = f.read()
        doc = json.loads(report)
        for r in [e["report"] for e in doc["files"]] if "files" in doc else [doc]:
            for fn in r["functions"]:
                segments += len(fn["segments"])
                exact += sum(1 for seg in fn["segments"] if seg["conclusive"])
    digest = sha(report) if len(parts) == 1 else None
    return digest, models, exact / max(1, segments)


def timed_cli(files, opt, seconds, digest, tally, min_reps=3, between=None):
    """Plain `--jobs=nproc` runs, each a fresh `tmg` process, until
    `seconds` have passed; every report must match the --jobs=1 digest.
    `between(wall)` runs after each repetition."""
    walls, cpus, rss = [], [], []
    t0 = time.perf_counter()
    while len(walls) < min_reps or time.perf_counter() - t0 < seconds:
        wall, cpu, mb, rc, out = run_proc(cli_args(files, opt, JOBS))
        ok = rc == 0 and sha(out) == digest
        tally.add(ok, None if ok else
                  f"run exited {rc} or its report differs from --jobs=1")
        walls.append(wall)
        cpus.append(cpu)
        rss.append(mb)
        if between:
            between(wall)
    return dict(wall=median(walls), cpu=median(cpus), rss=median(rss),
                runs=walls)


def setup_sample(files, opt):
    """Process start and input load: `tmg --no-bmc` on the inputs."""
    wall, _, _, rc, _ = run_proc(cli_args(files, opt, JOBS) + ["--no-bmc"])
    if rc != 0:
        raise BenchError("tmg --no-bmc failed on the generated inputs")
    return wall


def cli_workload(files, opt, seconds, trace, work):
    """`loops` and `corpus`: CLI runs with bursts of cache hits against a
    daemon over the same inputs in between (a fifth of the window in all,
    spread over it so a noisy minute on the box hits both alike)."""
    tally = Tally()
    digest, keys, conclusive = check_models(
        files, opt, os.path.join(work, "ref.json"), tally)
    hot, hot_keys = files[:HOT_FILES], keys[:HOT_FILES]
    if trace:
        cli = timed_cli(files, opt, 0, digest, tally)
        layers = harness_json("trace", *(["--opt"] if opt else []), *files)
        with HitProbe(hot, hot_keys, opt, work) as probe:
            probe.burst(2.0)
            hits = probe.finish(tally)
        return tally, per_layer(layers, hits, hot, opt, cli["wall"],
                                cli["cpu"], work)
    with HitProbe(hot, hot_keys, opt, work) as probe:
        hits, cli, setup = hit_bursts_between_runs(probe, files, opt, seconds,
                                                   digest, tally)
    flat = [x for c in hits["hits"] for x in c]
    log("hit latency ms: p50 %.3f p90 %.3f p99 %.3f (%d samples, %d bursts)"
        % (1e3 * median(flat), 1e3 * hit_tail(hits["hits"], 90),
           1e3 * tail(hits["hits"], 99), len(flat), len(hits["hits"])))
    # A request of these workloads is one CLI run.
    rate = len(cli["runs"]) / sum(cli["runs"])
    return tally, end_to_end(setup, cli, conclusive, hits["hits"],
                             [cli["runs"]], rate)


def hit_bursts_between_runs(probe, files, opt, seconds, digest, tally):
    """The timed CLI window with a hit burst per ~1 s of CLI time, each a
    quarter as long as the CLI time before it, and SETUP_REPS set-up
    samples spread evenly over the window (at most one between two CLI
    runs; any left over are taken after it). Returns (hit stats, CLI
    medians, median set-up seconds). Set-up is sampled across the window
    because back to back its median read ~1.8 or ~2.4 ms (`loops`) and
    ~0.11 or ~0.13 s (`corpus`) depending on the minute."""
    since = [0.0]  # CLI seconds since the last burst
    setups = []
    start = time.perf_counter()

    def burst():
        # After a short pause, so the exit of a large `tmg` process
        # (freeing its memory) is not measured as hit latency.
        time.sleep(0.1)
        probe.burst(since[0] / 4)
        since[0] = 0.0

    def between(wall):
        since[0] += wall
        if since[0] >= 1.0:
            burst()
        due = len(setups) * seconds / SETUP_REPS
        if len(setups) < SETUP_REPS and time.perf_counter() - start >= due:
            setups.append(setup_sample(files, opt))

    cli = timed_cli(files, opt, seconds, digest, tally, between=between)
    if since[0]:
        burst()
    while len(setups) < SETUP_REPS:
        setups.append(setup_sample(files, opt))
    return probe.finish(tally), cli, median(setups)


def end_to_end(setup, cli, conclusive, hits, misses, rate, rss=None):
    """The end-to-end metrics; `cli` holds the --jobs=N CLI medians, `hits`
    and `misses` latency samples grouped by sampling stretch."""
    return dict(setup_s=(setup, "s"), wall_s=(cli["wall"], "s"),
                cpu_s=(cli["cpu"], "s"),
                peak_rss_mb=(cli["rss"] if rss is None else rss, "MB"),
                conclusive_ratio=(conclusive, "ratio"),
                hit_p50_ms=(1e3 * median([x for c in hits for x in c]), "ms"),
                hit_p90_ms=(1e3 * hit_tail(hits, 90), "ms"),
                miss_p50_ms=(1e3 * median([x for c in misses for x in c]), "ms"),
                miss_p90_ms=(1e3 * tail(misses, 90), "ms"),
                req_per_s=(rate, "1/s"))


# ------------------------------------------------------------------ serve
def request(sock_path, payload, timeout=60.0):
    """One connection: send, half-close, read the response to EOF."""
    with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as s:
        s.settimeout(timeout)
        s.connect(sock_path)
        s.sendall(payload)
        s.shutdown(socket.SHUT_WR)
        chunks = []
        while True:
            chunk = s.recv(1 << 16)
            if not chunk:
                return b"".join(chunks)
            chunks.append(chunk)


def response_key(body):
    """The model key (as the harness's check prints it) of a one-file
    analyze response, or None when the response is an error."""
    doc = json.loads(body)
    if not doc.get("ok"):
        return None
    out = []
    for fn in doc["files"][0]["report"]["functions"]:
        segs = "".join(f"{s[12]}/{s[13]}/{s[7]}/{s[8]}/{s[9]},"
                       for s in fn["segments"])
        out.append(f"{fn['name']}:{segs};")
    return "".join(out)


class Daemon:
    """`tmg serve` on a unix socket with a fresh, capped cache directory.
    `version` is the wire protocol version of the analyze payloads, reused
    for the metrics and shutdown commands."""

    def __init__(self, directory, cap_mb, version):
        self.control = {cmd: json.dumps({"v": version, "cmd": cmd}).encode()
                        for cmd in ("metrics", "shutdown")}
        shutil.rmtree(directory, ignore_errors=True)
        os.makedirs(os.path.join(directory, "cache"))
        self.sock = os.path.relpath(os.path.join(directory, "s.sock"))
        self.t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [TMG, "serve", "--socket=s.sock", "--cache-dir=cache",
             f"--cache-max-mb={cap_mb}"],
            cwd=directory, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        self.rss_mb = None

    def wait_ready(self, timeout=30.0):
        """Blocks until the daemon answered a connection."""
        while True:
            try:
                if json.loads(request(self.sock, self.control["metrics"],
                                      5.0)).get("ok"):
                    return
            except (OSError, ValueError):
                pass
            if self.proc.poll() is not None:
                raise BenchError("tmg serve exited during start-up")
            if time.perf_counter() - self.t0 > timeout:
                raise BenchError("tmg serve did not accept within 30 s")
            time.sleep(0.001)

    def metrics(self):
        return json.loads(request(self.sock, self.control["metrics"]))["metrics"]

    def stop(self):
        if self.rss_mb is not None:
            return
        try:
            request(self.sock, self.control["shutdown"], 10.0)
        except OSError:
            self.proc.kill()
        timer = threading.Timer(30.0, self.proc.kill)
        timer.start()
        try:
            _, _, ru = os.wait4(self.proc.pid, 0)
        finally:
            timer.cancel()
        self.proc.returncode = 0
        self.rss_mb = ru.ru_maxrss / 1024.0


class Load:
    """Closed-loop load: `conns` caller processes (no shared interpreter
    lock between them), each sending its next request when the previous
    reply is complete. Request k is fresh[k // (mix + 1)] when
    k % (mix + 1) == mix and the pool lasts, else hot[k % len(hot)]."""

    def __init__(self, hot, fresh, mix):
        self.hot, self.fresh, self.mix = hot, fresh, mix
        self.samples = []  # (kind, index, seconds, body digest or None)
        self.chunks = []   # samples of each caller of each run() call
        self.bodies = {}   # (kind, index, digest) -> first body seen
        self.next_fresh = 0

    def pick(self, k):
        if self.fresh and k % (self.mix + 1) == self.mix and \
                k // (self.mix + 1) < len(self.fresh):
            return "miss", k // (self.mix + 1)
        return "hit", k % len(self.hot)

    def caller(self, sock, deadline, counter, conn):
        samples, bodies = [], {}
        while time.perf_counter() < deadline:
            with counter.get_lock():
                k = counter.value
                counter.value += 1
            kind, i = self.pick(k)
            payload = (self.hot if kind == "hit" else self.fresh)[i]
            t0 = time.perf_counter()
            try:
                body = request(sock, payload)
            except OSError:
                body = None
            dt = time.perf_counter() - t0
            digest = None if body is None else sha(body)
            if digest is not None:
                bodies.setdefault((kind, i, digest), body)
            samples.append((kind, i, dt, digest))
        conn.send((samples, bodies))
        conn.close()

    def run(self, sock, seconds, conns):
        ctx = multiprocessing.get_context("fork")
        counter = ctx.Value("q", 0)
        deadline = time.perf_counter() + seconds
        pipes = [ctx.Pipe(duplex=False) for _ in range(conns)]
        procs = [ctx.Process(target=self.caller,
                             args=(sock, deadline, counter, send))
                 for _, send in pipes]
        t0 = time.perf_counter()
        for p in procs:
            p.start()
        for (recv, _), p in zip(pipes, procs):
            samples, bodies = recv.recv()
            self.samples += samples
            self.chunks.append(samples)
            self.bodies.update(bodies)
            p.join()
        self.next_fresh = sum(1 for kind, *_ in self.samples if kind == "miss")
        return time.perf_counter() - t0


def request_payloads(files, opt):
    lines = harness("requests", *(["--opt"] if opt else []), "--jobs",
                    str(JOBS), *files).splitlines()
    if len(lines) != len(files):
        raise BenchError("harness requests: payload count mismatch")
    return lines


def verify_responses(load, keys_hot, keys_fresh, tally):
    """Every request counts once: failed when refused, in-band error, or
    a model that differs from the brute-force-checked reference."""
    keys = {}
    for (kind, i, digest), body in load.bodies.items():
        try:
            keys[(kind, i, digest)] = response_key(body) or ""
        except (ValueError, KeyError, IndexError):
            keys[(kind, i, digest)] = ""
    for kind, i, _, digest in load.samples:
        if digest is None:
            tally.add(False, "request failed (connection error or timeout)")
            continue
        key = keys[(kind, i, digest)]
        want = (keys_hot if kind == "hit" else keys_fresh)[i]
        tally.add(key == want, f"{kind} response {i} differs from reference",
                  mismatch=key != "")


def start_daemon(directory, hot, cap_mb):
    """Starts `tmg serve` and fills its cache with the hot set. Returns the
    daemon and the set-up time (launch until the fill is answered)."""
    d = Daemon(directory, cap_mb, json.loads(hot[0])["v"])
    try:
        d.wait_ready()
        for payload in hot:
            if response_key(request(d.sock, payload)) is None:
                raise BenchError("tmg serve failed on a hot-set request")
    except BaseException:
        d.stop()
        raise
    return d, time.perf_counter() - d.t0


def serve_session(directory, hot, fresh, mix, cap_mb, seconds, callers=0):
    """One daemon lifetime: start, fill the hot set, timed load from
    `callers` callers, stop. Returns (setup_s, load, window_s, daemon
    metrics, peak_rss_mb); with seconds == 0 only set-up is measured."""
    d, setup = start_daemon(directory, hot, cap_mb)
    try:
        if not seconds:
            return setup, None, 0.0, None, None
        load = Load(hot, fresh, mix)
        window = load.run(d.sock, seconds, callers)
        stats = d.metrics()
    finally:
        d.stop()
    return setup, load, window, stats, d.rss_mb


class HitProbe:
    """A daemon over a workload's own files, filled before timing; each
    burst sends cache hits from one caller, like an editor polling it
    (more callers of a hits-only load oversubscribe the CPUs and measure
    the run queue). `keys` are the files' reference model keys."""

    def __init__(self, files, keys, opt, work):
        self.keys = keys
        self.load = Load(request_payloads(files, opt), [], 0)
        self.d, _ = start_daemon(os.path.join(work, "probe"), self.load.hot, 1)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.d.stop()

    def burst(self, seconds):
        self.load.run(self.d.sock, seconds, 1)

    def finish(self, tally):
        """Stops the daemon; returns hit latencies per burst and the
        daemon's cache stats."""
        stats = self.d.metrics()["cache"]
        self.d.stop()
        verify_responses(self.load, self.keys, [], tally)
        return dict(hits=[[dt for _, _, dt, d in c if d]
                          for c in self.load.chunks], stats=stats)


def serve_payloads(sources, work):
    """Analyze requests for in-memory sources: the harness serialises one
    template request (so options and protocol version follow the
    program's own wire code) and each source is swapped into it."""
    template = json.loads(request_payloads(
        write_inputs(os.path.join(work, "template"), sources[:1]), False)[0])
    out = []
    for i, src in enumerate(sources):
        template["files"] = [{"name": f"p{i:04d}.mc", "source": src}]
        out.append(json.dumps(template, separators=(",", ":")).encode())
    return out


def serve_workload(seed, p, seconds, trace, work):
    surface = random.Random(seed)
    sources = [gen.small_program(random.Random(SHAPE_SEED * 7919 + i), surface,
                                 p["max_depth"], p["max_paths"])
               for i in range(p["hot"] + p["fresh_pool"])]
    payloads = serve_payloads(sources, work)
    hot, fresh = payloads[:p["hot"]], payloads[p["hot"]:]
    fresh_sources = sources[p["hot"]:]

    tally = Tally()
    reps = 1 if trace else p["reps"]
    window = seconds / 2 if trace else seconds / reps
    setups, rss, loads, elapsed, stats = [], [], [], 0.0, []
    for r in range(reps):
        setup, load, w, st, mb = serve_session(
            os.path.join(work, f"rep{r}"), hot, fresh, p["mix"], p["cap_mb"],
            window, min(p["callers"], JOBS))
        if load.next_fresh == len(fresh):
            log("serve: the fresh-source pool ran out; raise fresh_pool")
        # Later repetitions send fresh sources no earlier one sent.
        fresh = fresh[load.next_fresh:]
        setups.append(setup)
        rss.append(mb)
        loads.append(load)
        elapsed += w
        stats.append(st["cache"])
    # Set-up alone is short and noisy: sample it a few more times.
    for r in range(0 if trace else SETUP_REPS - reps):
        setups.append(serve_session(os.path.join(work, f"setup{r}"), hot, [],
                                    0, p["cap_mb"], 0)[0])

    # Reference models for every source sent (untimed, checked in
    # parallel).
    sent = sum(load.next_fresh for load in loads)
    files = write_inputs(os.path.join(work, "src"),
                         sources[:p["hot"]] + fresh_sources[:sent])
    hot_files = files[:p["hot"]]
    _, keys, conclusive = check_models(files, False,
                                       os.path.join(work, "ref.json"), tally,
                                       chunks=JOBS)
    keys_hot, offset = keys[:p["hot"]], p["hot"]
    samples = []
    for load in loads:
        verify_responses(load, keys_hot, keys[offset:offset + load.next_fresh],
                         tally)
        offset += load.next_fresh
        samples += load.samples
    hits = [[dt for kind, _, dt, b in chunk if kind == "hit" and b]
            for load in loads for chunk in load.chunks]
    misses = [[dt for kind, _, dt, b in load.samples if kind == "miss" and b]
              for load in loads]

    # The same sources through the CLI: the hot set plus the first misses
    # as one batch, for the wall/cpu columns (and the traced run's engine
    # ratios).
    sample = files[:p["hot"] + p["cli_misses"]]
    digest = check_models(sample, False, os.path.join(work, "s.json"),
                          Tally())[0]
    cli = timed_cli(sample, False, 0, digest, tally, min_reps=7)
    if not trace:
        return tally, end_to_end(median(setups), cli, conclusive, hits,
                                 misses, len(samples) / elapsed,
                                 rss=median(rss))
    layers = harness_json("trace", *sample)
    probe = dict(hits=hits, stats=stats[0])
    return tally, per_layer(layers, probe, hot_files, False, cli["wall"],
                            cli["cpu"], work)


# -------------------------------------------------------------- per layer
def per_layer(layers, probe, hot_files, opt, wall, cpu, work):
    """Traced-run metrics: harness layers, in-process serve layers, the
    daemon probe, and the engine ratios against the --jobs=N wall."""
    inproc = harness_json("serve-layers", *(["--opt"] if opt else []),
                          "--jobs", str(JOBS), "--cache-dir",
                          os.path.join(work, "inproc-cache"), "--cap-mb", "1",
                          *hot_files)
    cache = probe["stats"]
    looked_up = cache["hits"] + cache["misses"]
    serial = layers["trace.layer_sum_s"] + layers["driver.render_s"]
    m = {k: v for k, v in layers.items() if k != "trace.layer_sum_s"}
    m.update({k: inproc[k] for k in (
        "driver.cache_lookup_ms", "driver.cache_store_ms",
        "driver.serve_handle_ms", "driver.wire_parse_ms")})
    m["driver.cache_hit_ratio"] = cache["hits"] / max(1, looked_up)
    m["driver.cache_evictions"] = cache["evictions"]
    m["serve.wait_ms"] = max(0.0, 1e3 * median([x for c in probe["hits"]
                                                for x in c])
                             - inproc["driver.serve_handle_ms"]
                             - inproc["driver.wire_parse_ms"])
    m["engine.speedup"] = serial / wall
    m["engine.utilisation"] = cpu / (wall * JOBS)
    m["engine.critical_path_ratio"] = layers["bmc.query_max_s"] / wall
    units = unit_table("per_layer")
    return {k: (v, units.get(k, "")) for k, v in m.items()}


def unit_table(section):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return {m["name"]: m["unit"] for m in json.load(f)[section]}


# ------------------------------------------------------------------- main
def run_workload(name, seed, seconds, trace, sizes):
    work = os.path.join(WORK, name)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        if name == "serve":
            return serve_workload(seed, sizes["serve"], seconds, trace, work)
        if name == "loops":
            files = write_inputs(os.path.join(work, "src"),
                                 loops_sources(seed, sizes["loops"]))
            return cli_workload(files, False, seconds, trace, work)
        files = write_inputs(os.path.join(work, "src"),
                             corpus_sources(seed, sizes["corpus"]))
        return cli_workload(files, True, seconds, trace, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def result_line(tally, metrics, section):
    wanted = unit_table(section)
    if section == "per_layer":
        metrics = dict(metrics)
        metrics["check.model_mismatches"] = (tally.mismatches, "count")
        metrics["check.failed_ratio"] = (tally.failed / max(1, tally.attempted),
                                         "ratio")
    out = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()
           if k in wanted}
    return {"correct": tally.failed == 0, "attempted": tally.attempted,
            "failed": tally.failed, "metrics": out}


def selftest():
    """Tiny sizes, all three workloads, both modes: every declared metric
    must be present, finite, in its declared unit."""
    build()
    bench = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    names = [w["name"] for w in bench["workloads"]]
    problems = []
    for name in names:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            tally, metrics = run_workload(name, 1, 1.0, trace, TINY)
            got = result_line(tally, metrics, section)
            if not got["correct"]:
                problems.append(f"{name}/{section}: incorrect {tally.notes}")
            for m in bench[section]:
                v = got["metrics"].get(m["name"])
                if v is None or not isinstance(v["value"], (int, float)) or \
                        not math.isfinite(v["value"]) or v["unit"] != m["unit"]:
                    problems.append(f"{name}/{section}: {m['name']} = {v}")
            log(f"selftest {name}/{section}: {len(got['metrics'])} metrics")
    for p in problems:
        log("selftest FAIL:", p)
    print(json.dumps({"selftest": "fail" if problems else "ok",
                      "problems": len(problems)}))
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=("loops", "corpus", "serve"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    a = ap.parse_args()
    try:
        if a.selftest:
            return selftest()
        if a.workload is None:
            ap.error("--workload is required")
        build()
        sizes = dict(loops=LOOPS, corpus=CORPUS, serve=SERVE)
        tally, metrics = run_workload(a.workload, a.seed, a.seconds,
                                      bool(a.trace), sizes)
    except (BenchError, subprocess.CalledProcessError, OSError) as e:
        log("error:", e)
        return 2
    for note in tally.notes:
        log("failure:", note)
    section = "per_layer" if a.trace else "end_to_end"
    print(json.dumps(result_line(tally, metrics, section)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
