#!/usr/bin/env python3
"""perfbench: the aved benchmark, measured from outside the program.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  It builds the `aved` CLI and
the in-process oracle (perfbench/_oracle) from source in a private copy
of the tree under .bench_build/, then runs one workload:

  figures         closed loop, one client: cold `aved fig6|fig7|fig8`
                  processes, each output compared with test/golden/.
  serve_distinct  open loop against `aved serve` at three fixed rates
                  (low, high, over) from a separate load-generator
                  process; requests drawn from a large seeded grid over
                  more spec variants than the daemon's spec cache holds.
  serve_repeat    the same rates and generator; requests drawn from a
                  small skewed pool and sent in bursts of identical
                  requests, so coalescing and the caches do the work.

With --trace 0 the last stdout line carries the end-to-end metrics;
with --trace 1 it carries the per-layer metrics of a traced run (CLI
--stats/--trace, or the daemon's --trace-sample 1 and trace verb).
Every run also writes a run record under .bench_build/records/.
README.md in this directory maps each metric to what it measures.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import random
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import tempfile
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
BENCH_NAME = os.path.basename(BENCH_DIR)
WORK_VERBS = ("design", "frontier", "explain", "check")
SLO_MS = 50.0
# Queueing deadline of over-phase work requests: a client that wants an
# answer within SLO_MS stops waiting in the queue after half of it.
OVER_DEADLINE_MS = 25
PHASES = ("low", "high", "over")
# Share of --seconds each phase of the serve workloads lasts.  The
# unmeasured warm phase (at the low rate) lets the daemon's memo and
# heap reach their steady state, which a long-lived daemon's users see.
PHASE_SHARE = {"warm": 0.1, "low": 0.45, "high": 0.3, "over": 0.15}
ROUNDS = 5
GAP_S = 0.3
HEALTH_RPS = 10.0
SPEC_VARIANTS = 96  # above the daemon's 64-entry spec cache
SETUP_REPEATS = {"figures": 41, "serve": 9}
# A pass is invalid when the generator itself ran this late (p99, ms),
# a tenth of the latency limit, or when the hypervisor gave more than
# MAX_STEAL_SHARE of the guest's CPU time to other guests.  Both mean
# the host, not aved, set the latencies: a few percent of steal moves
# millisecond requests by half, and on a 2-vCPU VM passes with more
# than 0.5% steal were the slow outliers of serve_repeat (p50 +20-30%).
# Up to MAX_PASSES are tried.
MAX_GEN_LAG_MS = 5.0
MAX_STEAL_SHARE = 0.005
MAX_PASSES = 2
SAMPLE_PER_VERB = {"design": 6, "infeasible": 3, "frontier": 3, "explain": 2, "check": 2}


def die(message, code=2):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def note(message):
    print("perfbench: " + message, file=sys.stderr, flush=True)


# ---------------------------------------------------------------------
# Build


def build(root):
    """Build aved and the oracle in .bench_build/src, a copy of the
    checkout's source tree plus the oracle, so the repository's own
    build never sees the benchmark.  Returns the two executables."""
    for need in ("dune-project", "bin", "lib"):
        if not os.path.exists(os.path.join(root, need)):
            die("no aved source tree here (missing %s)" % need)
    dune = shutil.which("dune")
    if dune is None:
        die("dune not found on PATH")
    ws = os.path.join(root, ".bench_build", "src")
    os.makedirs(ws, exist_ok=True)
    for name in os.listdir(ws):
        if name != "_build":
            path = os.path.join(ws, name)
            shutil.rmtree(path) if os.path.isdir(path) else os.remove(path)
    for name in os.listdir(root):
        if name.startswith(".") or name in ("_build", BENCH_NAME):
            continue
        src = os.path.join(root, name)
        if os.path.isdir(src):
            shutil.copytree(src, os.path.join(ws, name),
                            ignore=shutil.ignore_patterns("_build"))
        else:
            shutil.copy2(src, os.path.join(ws, name))
    shutil.copytree(os.path.join(BENCH_DIR, "_oracle"),
                    os.path.join(ws, "perfbench_oracle"))
    env = dict(os.environ, DUNE_CACHE="disabled")
    proc = subprocess.run(
        [dune, "build", "--root", ws, "./bin/main.exe",
         "./perfbench_oracle/oracle.exe"],
        stdout=sys.stderr, stderr=sys.stderr, env=env, timeout=850)
    if proc.returncode != 0:
        die("build failed")
    out = os.path.join(ws, "_build", "default")
    return (os.path.join(out, "bin", "main.exe"),
            os.path.join(out, "perfbench_oracle", "oracle.exe"))


# ---------------------------------------------------------------------
# Small helpers


def quantile(xs, q):
    """Nearest-rank quantile of a non-empty list."""
    s = sorted(xs)
    return s[max(0, min(len(s) - 1, math.ceil(q * len(s)) - 1))]


def run_timed(cmd, cwd):
    """Run a process to completion; return (wall_s, exit, stdout,
    stderr, peak_rss_kb, cpu_s) with rusage of that process alone."""
    with tempfile.TemporaryFile() as err:
        t0 = time.perf_counter()
        p = subprocess.Popen(cmd, cwd=cwd, stdout=subprocess.PIPE, stderr=err)
        out = p.stdout.read()
        _, status, ru = os.wait4(p.pid, 0)
        wall = time.perf_counter() - t0
        p.returncode = os.waitstatus_to_exitcode(status)
        p.stdout.close()
        err.seek(0)
        return (wall, p.returncode, out.decode(), err.read().decode(),
                ru.ru_maxrss, ru.ru_utime + ru.ru_stime)


def cpu_ticks():
    """Aggregate CPU time counters from /proc/stat (user..steal)."""
    with open("/proc/stat") as f:
        return [int(x) for x in f.readline().split()[1:9]]


def steal_share(before, after):
    """Share of the host's CPU time the hypervisor gave to other guests
    between two cpu_ticks() readings: a slow run on a busy host shows
    here, not as a change in aved."""
    d = [b - a for a, b in zip(before, after)]
    return d[7] / sum(d) if sum(d) else 0.0


def proc_status(pid):
    """VmHWM in kB and user+system CPU seconds of a live process."""
    hwm = 0
    with open("/proc/%d/status" % pid) as f:
        for line in f:
            if line.startswith("VmHWM:"):
                hwm = int(line.split()[1])
    with open("/proc/%d/stat" % pid) as f:
        fields = f.read().rsplit(")", 1)[1].split()
    ticks = os.sysconf("SC_CLK_TCK")
    return hwm, (int(fields[11]) + int(fields[12])) / ticks


def host_fingerprint(aved, root):
    commit = None
    head = os.path.join(root, ".git", "HEAD")
    if os.path.exists(head):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                                    capture_output=True, text=True).stdout.strip()
        except OSError:
            pass
    ocaml = subprocess.run(["ocamlfind", "ocamlopt", "-version"],
                           capture_output=True, text=True) \
        if shutil.which("ocamlfind") else None
    if ocaml is None or ocaml.returncode != 0:
        ocaml = subprocess.run(["ocamlopt", "-version"], capture_output=True,
                               text=True) if shutil.which("ocamlopt") else None
    # The checkout the benchmark runs in may not be a git repository, so
    # the code is also identified by a digest of the sources it built.
    digest = hashlib.sha256()
    for top in ("dune-project", "bin", "lib"):
        for dirpath, dirnames, files in os.walk(os.path.join(root, top)):
            dirnames.sort()
            for name in sorted(files):
                with open(os.path.join(dirpath, name), "rb") as f:
                    digest.update(name.encode() + f.read())
        if os.path.isfile(os.path.join(root, top)):
            with open(os.path.join(root, top), "rb") as f:
                digest.update(f.read())
    return {
        "source_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "kernel": platform.release(),
        "python": platform.python_version(),
        "ocaml": ocaml.stdout.strip() if ocaml else None,
        "commit": commit,
        "aved_version": subprocess.run([aved, "--version"], capture_output=True,
                                       text=True).stdout.strip(),
    }


# ---------------------------------------------------------------------
# Telemetry parsers


def parse_stats_text(text):
    """Parse the counters and the seconds histograms (count, mean
    seconds) of the CLI's --stats summary (stderr)."""
    units = {"ns": 1e-9, "us": 1e-6, "ms": 1e-3, "s": 1.0}
    counters, hists = {}, {}
    section = None
    for line in text.splitlines():
        s = line.strip()
        if s == "counters:":
            section = "c"
        elif s.startswith("histograms:"):
            section = "h"
        elif s.startswith("spans:"):
            section = None
        elif not s or section is None:
            continue
        elif section == "c":
            name, value = s.rsplit(None, 1)
            counters[name] = int(value)
        else:
            parts = s.split()
            if parts[0].endswith(".seconds"):
                hists[parts[0]] = (int(parts[1]),
                                   float(parts[2]) * units[parts[3]])
    return counters, hists


def self_times(spans):
    """spans: list of (key, parent_key, start_ms, dur_ms, name).  Self
    time of a span = its duration minus the part of its interval that
    its children cover.  Returns {name: (calls, total_ms, self_ms)}."""
    children = {}
    for sp in spans:
        children.setdefault(sp[1], []).append(sp)
    out = {}
    for key, _, start, dur, name in spans:
        covered, cursor = 0.0, start
        for c in sorted(children.get(key, ()), key=lambda c: c[2]):
            lo, hi = max(c[2], cursor), min(c[2] + c[3], start + dur)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        # Group per-argument span names ("fig7.req:3.32h") by layer.
        name = name.split(":", 1)[0]
        calls, total, own = out.get(name, (0, 0.0, 0.0))
        out[name] = (calls + 1, total + dur, own + max(0.0, dur - covered))
    return out


def chrome_spans(path, prefix):
    """Chrome trace events of one CLI run as self_times() input.  The
    CLI records no parent ids, so a span's parent is the innermost
    earlier span on the same domain whose interval contains it."""
    with open(path) as f:
        events = json.load(f)["traceEvents"]
    out = []
    by_tid = {}
    for i, e in enumerate(events):
        by_tid.setdefault(e["tid"], []).append((e["ts"] / 1e3, e["dur"] / 1e3,
                                                "%s:%d" % (prefix, i), e["name"]))
    for tid_spans in by_tid.values():
        tid_spans.sort(key=lambda s: (s[0], -s[1]))
        stack = []
        for start, dur, key, name in tid_spans:
            while stack and start >= stack[-1][0] + stack[-1][1] - 1e-9:
                stack.pop()
            parent = stack[-1][2] if stack else None
            out.append((key, parent, start, dur, name))
            stack.append((start, dur, key))
    return out


def prom_histograms(body):
    """Prometheus text -> {metric: {le: cumulative count}}."""
    hists = {}
    for line in body.splitlines():
        if "_bucket{le=" not in line:
            continue
        name, rest = line.split("_bucket{le=\"", 1)
        le, count = rest.split("\"} ", 1)  # an exemplar may follow the count
        hists.setdefault(name, {})[float(le)] = int(count.split()[0])
    return hists


def merged_quantile_ms(hists, names, q):
    """Quantile (upper bucket bound, ms) of the union of histograms."""
    per = {}
    for n in names:
        prev = 0
        for le, cum in sorted(hists.get(n, {}).items()):
            per[le] = per.get(le, 0) + cum - prev
            prev = cum
    total = sum(per.values())
    if total == 0:
        return 0.0
    acc = 0
    for le in sorted(per):
        acc += per[le]
        if acc >= q * total:
            if math.isinf(le):
                le = max((k for k in per if not math.isinf(k)), default=0.0)
            return le * 1e3
    return 0.0


def layer_metrics(counters, engine_calls, engine_ms, spans_ms, per):
    """Per-layer metrics shared by every workload, from counters,
    summed engine histograms and span totals.  Counts and engine time
    are divided by `per` (sweeps, or searches the daemon ran)."""
    c = counters.get
    generated = c("search.candidates.generated", 0)
    evaluated = c("search.candidates.evaluated", 0)
    pruned = sum(v for k, v in counters.items()
                 if k.startswith("search.candidates.pruned_by_") and "[" not in k)
    fresh, reused = c("search.eval.downtime.fresh", 0), c("search.eval.downtime.reused", 0)
    hits, misses = c("avail.memo.hits", 0), c("avail.memo.misses", 0)
    executed, inline = c("parallel.tasks.executed", 0), c("parallel.tasks.inline", 0)
    ctmc = sum(v for k, v in counters.items()
               if k.startswith("markov.solver.") or k.startswith("avail.exact."))
    span = lambda name: spans_ms.get(name, (0, 0.0, 0.0))[1]
    return {
        "search.candidates.generated": generated / per,
        "search.candidates.evaluated": evaluated / per,
        "search.pruned_share": pruned / generated if generated else 0.0,
        "search.eval.reuse_share": reused / (fresh + reused) if fresh + reused else 0.0,
        "search.tier_frontier_ms": span("search.tier.frontier"),
        "search.job_optimal_ms": span("search.job.optimal"),
        "search.service.isolated_ms": span("search.service.isolated"),
        "search.service.frontiers_ms": span("search.service.frontiers"),
        "search.service.combine_ms": span("search.service.combine"),
        "avail.engine_calls": engine_calls / per,
        "avail.engine_ms": engine_ms / per,
        "avail.memo.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "markov.birth_death.solves": c("markov.birth_death.solves", 0) / per,
        "markov.ctmc_solves": ctmc / per,
        "parallel.tasks.executed": executed / per,
        "parallel.inline_share": inline / executed if executed else 0.0,
        "parallel.incumbent.improvements": c("parallel.incumbent.improvements", 0) / per,
    }


SERVER_LAYER_KEYS = (
    "spec.load_ms", "check.check_files_ms", "server.spec_cache.hit_ratio",
    "server.queue_ms.p50", "server.queue_ms.p99", "server.handle_ms.p50",
    "server.handle_ms.p99", "server.encode_ms.p99", "server.write_ms.p99",
    "server.parse_ms.p99", "server.coalesced_share", "server.searches_per_s",
    "server.shed", "server.queue.high_water", "server.cpu_ms_per_req",
    "gen.lag_ms.p99",
)


# ---------------------------------------------------------------------
# Workload: figures


def golden_bodies(root):
    """test/golden/figN.txt without its 3-line section header and
    trailing blank line is exactly the CLI's stdout."""
    bodies = {}
    for n in (6, 7, 8):
        with open(os.path.join(root, "test", "golden", "fig%d.txt" % n)) as f:
            lines = f.read().splitlines(True)
        bodies["fig%d" % n] = "".join(lines[3:])[:-1]
    return bodies


def run_figures(args, aved, root, trace):
    rng = random.Random(args.seed)
    jobs = str(args.figures_jobs)
    golden = golden_bodies(root)
    tmp = os.path.join(root, ".bench_build", "run")
    os.makedirs(tmp, exist_ok=True)

    setups = []
    for _ in range(SETUP_REPEATS["figures"]):
        wall, code, out, _, _, _ = run_timed([aved, "--version"], root)
        if code != 0 or not out.strip():
            die("aved --version failed")
        setups.append(wall)

    sweeps, per_fig, attempted, failed, mismatches = [], {}, 0, 0, []
    rss_kb, cpu_s = 0, 0.0
    traced = {"sweeps": [], "counters": {}, "engine": [0, 0.0], "spans": []}
    t_end = time.perf_counter() + args.seconds
    k = 0
    while time.perf_counter() < t_end or len(sweeps) < 5:
        order = ["fig6", "fig7", "fig8"]
        rng.shuffle(order)
        # In a traced run, alternate traced and untraced sweeps; the
        # untraced ones give the overhead baseline.
        with_trace = trace and k % 2 == 1
        total = 0.0
        for fig in order:
            cmd = [aved, fig, "--jobs", jobs]
            tfile = os.path.join(tmp, "trace-%s.json" % fig)
            if with_trace:
                cmd += ["--stats", "--trace", tfile]
            wall, code, out, err, rss, cpu = run_timed(cmd, root)
            attempted += 1
            total += wall
            per_fig.setdefault(fig, []).append(wall)
            rss_kb, cpu_s = max(rss_kb, rss), cpu_s + cpu
            if code != 0 or out != golden[fig]:
                failed += 1
                mismatches.append("%s sweep %d: exit %d, output %s golden"
                                  % (fig, k, code, "matches" if out == golden[fig] else "differs from"))
            if with_trace:
                counters, hists = parse_stats_text(err)
                for name, v in counters.items():
                    traced["counters"][name] = traced["counters"].get(name, 0) + v
                for name, (count, mean) in hists.items():
                    if name.startswith("avail.engine."):
                        traced["engine"][0] += count
                        traced["engine"][1] += count * mean * 1e3
                traced["spans"] += chrome_spans(tfile, "%s%d" % (fig, k))
        (traced["sweeps"] if with_trace else sweeps).append(total)
        k += 1

    sweeps_ms = [s * 1e3 for s in sweeps]
    result = {
        "attempted": attempted,
        "failed": failed,
        "mismatches": mismatches,
        "samples": {"sweeps": len(sweeps), "setup": len(setups)},
        "named": {
            "setup_s": statistics.median(setups),
            "sweep_p50_ms": quantile(sweeps_ms, 0.5),
            "sweep_p90_ms": quantile(sweeps_ms, 0.9),
            "sweeps_per_s": len(sweeps) / sum(sweeps),
            "fail_ratio": failed / attempted,
            "peak_rss_mb": rss_kb / 1024.0,
        },
        "per_figure_p50_ms": {f: quantile(v, 0.5) * 1e3 for f, v in per_fig.items()},
        "cpu_s_total": cpu_s,
    }
    result["e2e"] = {
        "setup_s": result["named"]["setup_s"],
        "p50_ms": result["named"]["sweep_p50_ms"],
        "p90_ms": result["named"]["sweep_p90_ms"],
        "throughput_per_s": result["named"]["sweeps_per_s"],
        "peak_rss_mb": result["named"]["peak_rss_mb"],
    }
    if trace:
        spans = self_times(traced["spans"])
        n = max(1, len(traced["sweeps"]))
        per_sweep = {k: (c / n, t / n, o / n) for k, (c, t, o) in spans.items()}
        layers = layer_metrics(traced["counters"], traced["engine"][0],
                               traced["engine"][1], per_sweep, n)
        for key in SERVER_LAYER_KEYS:
            layers[key] = 0.0
        layers["trace.overhead_share"] = (
            statistics.median(traced["sweeps"]) / statistics.median(sweeps) - 1.0)
        result["layers"] = layers
        result["layer_table"] = {
            name: {"calls_per_sweep": c, "total_ms_per_sweep": t,
                   "self_ms_per_sweep": o}
            for name, (c, t, o) in sorted(per_sweep.items())}
        result["traced_counters"] = traced["counters"]
        result["samples"]["traced_sweeps"] = len(traced["sweeps"])
    return result


# ---------------------------------------------------------------------
# Workloads: serve_distinct and serve_repeat


def write_spec_variants(root, run_dir, seed, count):
    """Seeded variants of examples/data/*.spec that differ only in a
    leading comment line, so each has its own spec-cache key."""
    rng = random.Random(seed * 7919 + 1)
    spec_dir = os.path.join(run_dir, "specs")
    os.makedirs(spec_dir, exist_ok=True)
    data = os.path.join(root, "examples", "data")
    sources = {}
    for name in ("infrastructure", "ecommerce"):
        with open(os.path.join(data, name + ".spec")) as f:
            sources[name] = f.read()
    pairs = []
    for v in range(count):
        tag = "%08x" % rng.getrandbits(32)
        paths = []
        for name in ("infrastructure", "ecommerce"):
            path = os.path.relpath(os.path.join(spec_dir, "%s-%03d.spec" % (name, v)), root)
            with open(os.path.join(root, path), "w") as f:
                f.write("\\\\ perfbench variant %d seed %d tag %s\n" % (v, seed, tag))
                f.write(sources[name])
            paths.append(path)
        pairs.append(tuple(paths))
    return pairs


class Deck:
    """Draws from shuffled full copies of a list, so every stretch of
    draws has the list's proportions (a stratified sample): the mix of
    a phase then depends far less on the seed than independent draws."""

    def __init__(self, rng, items):
        self.rng, self.items, self.stack = rng, list(items), []

    def draw(self):
        if not self.stack:
            self.stack = self.items[:]
            self.rng.shuffle(self.stack)
        return self.stack.pop()


# Work mix of the serve workloads, in percent.
MIX = {"design": 62, "infeasible": 5, "frontier": 13, "explain": 8, "check": 12}


# The serve_repeat pool, most popular first: every verb, at the centres
# of fixed grid cells.
REPEAT_POOL = [("design", (4, 2)), ("design", (7, 3)), ("check", None),
               ("frontier", (5, "application")), ("design", (2, 4)),
               ("explain", (4, 2)), ("infeasible", 6), ("design", (9, 1)),
               ("frontier", (3, "web")), ("design", (5, 5)), ("check", None),
               ("explain", (8, 3))]


class Grid:
    """The request grid: verb x load x downtime budget (x tier for
    frontier).  Verbs, and for each verb its load x budget cells
    (10 x 6) or load x tier cells (10 x 3), come from decks, so any
    stretch of draws has the grid's mix of cheap and costly requests;
    the exact values inside a cell are uniform draws."""

    def __init__(self, rng):
        self.rng = rng
        self.kinds = Deck(rng, [k for k, n in MIX.items() for _ in range(n)])
        cells = [(l, b) for l in range(10) for b in range(6)]
        self.cells = {"design": Deck(rng, cells), "explain": Deck(rng, cells),
                      "infeasible": Deck(rng, range(10)),
                      "frontier": Deck(rng, [(l, t) for l in range(10)
                                             for t in ("web", "application", "database")])}

    def draw(self):
        kind = self.kinds.draw()
        return self.make(kind, self.cells[kind].draw() if kind != "check" else None)

    def make(self, kind, cell, centre=False):
        """A request of `kind` with values drawn inside grid `cell`, or
        at its centre.  The spec files are added by with_specs()."""
        if kind == "check":
            return kind, {}
        u = (lambda: 0.5) if centre else self.rng.random
        load_bin = cell if kind == "infeasible" else cell[0]
        params = {"load": 200 + 380 * load_bin + 10 * int(38 * u())}
        if kind == "frontier":
            params["tier"] = cell[1]
        elif kind == "infeasible":  # no design meets a near-zero budget
            params["downtime_minutes"] = 0.0001
        else:
            params["downtime_minutes"] = round(10 ** (0.55 * (cell[1] + u())), 3)
        return kind, params


def with_specs(kind, params, pair):
    infra, svc = pair
    if kind == "check":
        return {"files": [infra, svc]}
    return {"infra_file": infra, "service_file": svc, **params}


def build_schedule(workload, seed, seconds, rates, pairs, deadline_ms):
    """Open-loop schedule: a warm-up at the low rate, then ROUNDS rounds
    of low, high and over segments, each followed by a short idle gap
    (over leaves a backlog behind).  Interleaving spreads every phase
    across the whole run, so slow drifts of the host's speed reach all
    phases alike.  Health arrives at a fixed rate throughout.

    The request values are the same for every seed: each phase of
    serve_distinct takes a fixed stratified sample of the grid, and
    serve_repeat a fixed pool on fixed variants.  The seed writes the
    spec variants, gives each serve_distinct request its variant, orders
    the requests and draws the arrival times and bursts.  So runs on
    different seeds load the daemon alike while no two runs send the
    same inputs.

    Returns (requests, [(phase, start, end)] segments)."""
    rng = random.Random(seed)
    segments = [("warm", seconds * PHASE_SHARE["warm"])]
    for _ in range(ROUNDS):
        for phase in PHASES:
            segments.append((phase, seconds * PHASE_SHARE[phase] / ROUNDS))
        segments.append(("gap", GAP_S))
    # A fixed number of arrivals per segment, at uniform random times: a
    # Poisson process conditioned on its count.
    arrivals = [0 if phase == "gap" else
                round(rates["low" if phase == "warm" else phase] * length)
                for phase, length in segments]
    if workload == "serve_repeat":
        # Bodies alternate between the two spec variants by rank.  Bodies
        # on one variant share the daemon's caches, so a seeded split
        # would change the work: an all-on-one-variant draw once cost
        # the daemon 30% less CPU than a balanced one.
        grid = Grid(random.Random("perfbench-repeat"))
        pool = [(kind, with_specs(kind, params, pairs[rank % 2]))
                for rank, (kind, params) in enumerate(
                    grid.make(kind, cell, centre=True) for kind, cell in REPEAT_POOL)]
        # Zipf popularity (1/k^1.2) as a deck of 40 draws per cycle, and
        # burst sizes 2-3, so both are stratified like the grid.
        weights = [1.0 / (k + 1) ** 1.2 for k in range(len(pool))]
        popular = Deck(rng, [k for k, w in enumerate(weights)
                             for _ in range(max(1, round(40 * w / sum(weights))))])
        bursts = Deck(rng, (2, 3))
    else:
        bodies = {}
        for phase in ("warm",) + PHASES:
            grid = Grid(random.Random("perfbench-grid-" + phase))
            n = sum(a for (p, _), a in zip(segments, arrivals) if p == phase)
            bodies[phase] = [grid.draw() for _ in range(n)]
            rng.shuffle(bodies[phase])
    events, windows, t = [], [], 0.5
    for (phase, length), n in zip(segments, arrivals):
        windows.append((phase, t, t + length))
        if workload == "serve_repeat" and n:
            sizes = []
            while sum(sizes) < n:
                sizes.append(bursts.draw())
            sizes[-1] -= sum(sizes) - n
            for size, at in zip(sizes, sorted(rng.uniform(t, t + length)
                                              for _ in sizes)):
                # A burst is pipelined on one connection, so the daemon
                # reads it in one go; bursts alternate between the two.
                kind, params = pool[popular.draw()]
                events += [(at, phase, kind, params, len(events) % 2)] * size
        elif n:
            for at in sorted(rng.uniform(t, t + length) for _ in range(n)):
                kind, params = bodies[phase].pop()
                events.append((at, phase, kind,
                               with_specs(kind, params, rng.choice(pairs)),
                               len(events) % 2))
        t += length
    h = rng.uniform(0.5, 0.5 + 1.0 / HEALTH_RPS)
    while h < t:
        phase = next(p for p, _, end in windows if h < end)
        events.append((h, phase, "health", {}, len(events) % 2))
        h += 1.0 / HEALTH_RPS
    events.sort(key=lambda e: e[0])
    requests = []
    for rid, (due, phase, kind, params, conn) in enumerate(events, start=1):
        verb = "design" if kind == "infeasible" else kind
        body = {"schema_version": 2, "id": rid, "verb": verb, "params": params}
        if phase == "over" and verb != "health":
            body["deadline_ms"] = deadline_ms
        requests.append([due, conn, rid, phase, kind,
                         json.dumps(body, separators=(",", ":"))])
    return requests, windows


def wait_socket(path, timeout):
    t_end = time.perf_counter() + timeout
    while time.perf_counter() < t_end:
        s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            s.connect(path)
            return s
        except OSError:
            s.close()
            time.sleep(0.001)
    return None


def rpc(sock_file, body):
    sock_file.write((json.dumps(body) + "\n").encode())
    sock_file.flush()
    line = sock_file.readline()
    if not line:
        die("daemon closed the control connection")
    return json.loads(line)


class Daemon:
    def __init__(self, aved, root, flags, log):
        self.sock_path = os.path.join(".bench_build", "d%d.sock" % os.getpid())
        if os.path.exists(os.path.join(root, self.sock_path)):
            os.remove(os.path.join(root, self.sock_path))
        self.t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [aved, "serve", "--socket", self.sock_path] + flags, cwd=root,
            stdout=subprocess.DEVNULL, stderr=log)
        try:
            s = wait_socket(os.path.join(root, self.sock_path), 30.0)
            if s is None:
                die("daemon did not listen on %s" % self.sock_path)
            self.ctl = s.makefile("rwb")
            self.sock = s
            reply = rpc(self.ctl, {"schema_version": 2, "id": 0, "verb": "health"})
            self.setup_s = time.perf_counter() - self.t0
            if not reply.get("ok"):
                die("daemon health probe failed")
        except BaseException:
            self.proc.kill()
            self.proc.wait()
            raise

    def call(self, verb, params=None):
        reply = rpc(self.ctl, {"schema_version": 2, "id": "ctl", "verb": verb,
                               "params": params or {}})
        if not reply.get("ok"):
            die("%s verb failed: %s" % (verb, reply.get("error")))
        return reply["result"]

    def stop(self):
        try:
            self.ctl.close()
            self.sock.close()
        except OSError:
            pass
        self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.wait(timeout=20)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


def serve_pass(args, aved, root, run_dir, requests, traced, setup_repeats):
    """Start the daemon (setup_repeats times, keeping the last), drive
    the schedule from the load-generator process, read the daemon's
    telemetry, stop it.  Returns raw observations."""
    flags = ["--jobs", str(args.serve_jobs)]
    if traced:
        flags += ["--trace-sample", "1", "--trace-ring", "100000"]
    log = open(os.path.join(run_dir, "daemon.log"), "wb")
    setups = []
    daemon = None
    try:
        for i in range(setup_repeats):
            d = Daemon(aved, root, flags, log)
            setups.append(d.setup_s)
            if i < setup_repeats - 1:
                d.stop()
            else:
                daemon = d
        rng = random.Random(args.seed + 17)
        work = [r for r in requests if r[4] != "health" and r[3] != "over"]
        keep = []
        for kind, n in SAMPLE_PER_VERB.items():
            of_kind = [r[2] for r in work if r[4] == kind]
            keep += rng.sample(of_kind, min(n, len(of_kind)))
        plan = {"socket": daemon.sock_path, "conns": 2, "requests": requests,
                "keep_ids": keep}
        plan_path = os.path.join(run_dir, "plan.json")
        result_path = os.path.join(run_dir, "gen.json")
        with open(plan_path, "w") as f:
            json.dump(plan, f)
        _, cpu_before = proc_status(daemon.proc.pid)
        gen = subprocess.run([sys.executable, os.path.join(BENCH_DIR, "loadgen.py"),
                              plan_path, result_path], cwd=root, timeout=170)
        if gen.returncode != 0:
            die("load generator failed")
        with open(result_path) as f:
            gen_out = json.load(f)
        stats = daemon.call("stats")
        metrics = daemon.call("metrics")["body"]
        hwm_kb, cpu_after = proc_status(daemon.proc.pid)
        traces = []
        if traced:
            recs = gen_out["records"]
            ids = [r[2] for r in requests if r[4] != "health"
                   and recs.get(str(r[2]), [0, 0, ""])[2] == "ok"
                   and r[3] != "over"]
            for rid in rng.sample(ids, min(150, len(ids))):
                tid = recs[str(rid)][4]
                traces.append(daemon.call("trace", {"trace_id": tid})["trace"])
    finally:
        if daemon is not None:
            daemon.stop()
        log.close()
    return {"setups": setups, "gen": gen_out, "stats": stats, "metrics": metrics,
            "hwm_kb": hwm_kb, "cpu_s": cpu_after - cpu_before, "traces": traces,
            "keep": keep}


def pass_valid(lag_p99, p):
    return lag_p99 <= MAX_GEN_LAG_MS and p["steal"] <= MAX_STEAL_SHARE


def phase_summary(requests, recs, windows):
    """Latency and outcome per phase.  A failed or refused request
    counts as missing every latency limit (latency = inf).  Goodput is
    per second of measured phase time: each segment lasts from its
    first scheduled send to its last response."""
    out = {}
    for phase in PHASES:
        elapsed = 0.0
        for p, start, end in windows:
            if p == phase:
                seg = [(r[0], recs[str(r[2])][1]) for r in requests
                       if start <= r[0] < end and r[4] != "health"]
                if seg:
                    elapsed += (max(due + (lat or 0.0) for due, lat in seg)
                                - min(due for due, _ in seg))
        work = [recs[str(r[2])] for r in requests if r[3] == phase and r[4] != "health"]
        health = [recs[str(r[2])] for r in requests if r[3] == phase and r[4] == "health"]
        lat = [x[1] * 1e3 if x[2] == "ok" else math.inf for x in work]
        hlat = [x[1] * 1e3 if x[2] == "ok" else math.inf for x in health]
        length = sum(end - start for p, start, end in windows if p == phase)
        good = sum(1 for v in lat if v <= SLO_MS)
        outcomes = {}
        for x in work + health:
            outcomes[x[2]] = outcomes.get(x[2], 0) + 1
        out[phase] = {
            "offered_rps": len(work) / length,
            "work_requests": len(work),
            "health_requests": len(health),
            "p50_ms": quantile(lat, 0.5),
            "p90_ms": quantile(lat, 0.9),
            "p99_ms": quantile(lat, 0.99),
            "max_ms": max(lat),
            "health_p50_ms": quantile(hlat, 0.5),
            "health_p99_ms": quantile(hlat, 0.99),
            "goodput_rps": good / elapsed,
            "measured_s": elapsed,
            "outcomes": outcomes,
            "coalesced": sum(1 for x in work if x[3]),
            "meets_slo": quantile(lat, 0.99) <= SLO_MS,
        }
    return out


def finite(x, cap=60000.0):
    """A percentile that lands on a failed request (infinite latency) is
    reported as 60 s, longer than any drain, so the result stays JSON."""
    return x if math.isfinite(x) else cap


def check_answers(oracle, root, run_dir, requests, gen_out, keep):
    """Compare sampled daemon responses with the in-process oracle,
    byte for byte on the result payload (both rendered by the repo's
    own Json serializer).  Returns [(id or None, mismatch)]."""
    by_id = {r[2]: r for r in requests}
    path = os.path.join(run_dir, "oracle-in.jsonl")
    with open(path, "w") as f:
        for rid in keep:
            f.write(by_id[rid][5] + "\n")
    proc = subprocess.run([oracle, "answer", path], cwd=root,
                          capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        return [(None, "oracle failed: " + proc.stderr.strip()[:200])]
    expected = {}
    for line in proc.stdout.splitlines():
        rid, kind, payload = line.split("\t", 2)
        expected[json.loads(rid)] = (kind, payload)
    problems = []
    for rid in keep:
        raw = gen_out["kept"].get(str(rid))
        kind, payload = expected.get(rid, ("missing", ""))
        if raw is None:
            problems.append((rid, "no daemon response kept"))
            continue
        env = json.loads(raw)
        if kind == "ok":
            marker = ',"result":'
            got = raw[raw.index(marker) + len(marker):-1] if env.get("ok") else None
            if got != payload:
                problems.append((rid, "daemon result differs from library answer"))
        elif kind == "error":
            err = env.get("error") or {}
            if env.get("ok") or err.get("code") != "check_error" \
                    or err.get("message") != json.loads(payload):
                problems.append((rid, "daemon did not return the library's check_error"))
        else:
            problems.append((rid, "oracle gave no answer"))
    return problems


def trace_layers(traces):
    spans = []
    for i, tr in enumerate(traces):
        for sp in tr["spans"]:
            spans.append(("%d:%d" % (i, sp["id"]),
                          "%d:%d" % (i, sp["parent"]) if sp["parent"] else None,
                          sp["start_ms"], sp["dur_ms"], sp["name"]))
    return self_times(spans), sum(tr.get("spans_dropped", 0) for tr in traces)


def serve_layers(oracle, root, base, traced, requests, windows):
    """Per-layer metrics of a serve workload: counters, histograms and
    CPU time from the untraced pass (the daemon's always-on telemetry,
    counts per search it ran), span trees from the traced pass (per
    traced work request), spec/check timers from the oracle."""
    stats = base["stats"]
    counters = stats["counters"]
    recs = base["gen"]["records"]
    work_ok = [(r[3], r[4], recs[str(r[2])][3]) for r in requests
               if r[4] != "health" and recs[str(r[2])][2] == "ok"]
    coalesced = sum(1 for _, _, c in work_ok if c)
    # Searches the daemon ran: ok design/frontier/explain answers that
    # did not attach to another request's search (check runs none).
    # The counters cover the daemon's whole life, warm-up included, so
    # they are divided by every search; the rate counts measured phases.
    ran = [phase for phase, kind, c in work_ok if kind != "check" and not c]
    searches = max(1, len(ran))
    measured_searches = sum(1 for phase in ran if phase in PHASES)
    engine = [(h["count"], h["count"] * h["mean"] * 1e3)
              for name, h in stats["histograms"].items()
              if name.startswith("avail.engine.") and name.endswith(".seconds")]
    spans, dropped = trace_layers(traced["traces"])
    n_traces = max(1, len(traced["traces"]))
    per_trace = {k: (c / n_traces, t / n_traces, s / n_traces)
                 for k, (c, t, s) in spans.items()}
    layers = layer_metrics(counters, sum(c for c, _ in engine),
                           sum(ms for _, ms in engine), per_trace, searches)
    duration = sum(end - start for p, start, end in windows if p in PHASES)
    answered = sum(1 for x in recs.values() if x[1] is not None)
    hists = prom_histograms(base["metrics"])
    stage = lambda s: ["server_stage_%s_%s_seconds" % (v, s) for v in WORK_VERBS]
    sc = stats["spec_cache"]
    variant_pairs = set()
    for r in requests:
        params = json.loads(r[5])["params"]
        if "files" in params:
            variant_pairs.add(tuple(params["files"]))
        elif "infra_file" in params:
            variant_pairs.add((params["infra_file"], params["service_file"]))
    variant_pairs = sorted(variant_pairs)
    timer = subprocess.run(
        [oracle, "time-specs", "3"] + [p for pair in variant_pairs[:24] for p in pair],
        cwd=root, capture_output=True, text=True, timeout=120)
    timed = json.loads(timer.stdout)
    layers.update({
        "spec.load_ms": statistics.median(timed["spec_load_ms"]),
        "check.check_files_ms": statistics.median(timed["check_files_ms"]),
        "server.spec_cache.hit_ratio":
            sc["hits"] / (sc["hits"] + sc["misses"]) if sc["hits"] + sc["misses"] else 0.0,
        "server.queue_ms.p50": merged_quantile_ms(hists, stage("queue"), 0.5),
        "server.queue_ms.p99": merged_quantile_ms(hists, stage("queue"), 0.99),
        "server.handle_ms.p50": merged_quantile_ms(hists, stage("handle"), 0.5),
        "server.handle_ms.p99": merged_quantile_ms(hists, stage("handle"), 0.99),
        "server.encode_ms.p99": merged_quantile_ms(hists, stage("encode"), 0.99),
        "server.write_ms.p99": merged_quantile_ms(hists, stage("write"), 0.99),
        "server.parse_ms.p99": merged_quantile_ms(hists, stage("parse"), 0.99),
        "server.coalesced_share": coalesced / len(work_ok) if work_ok else 0.0,
        "server.searches_per_s": measured_searches / duration,
        "server.shed": counters.get("server.requests.shed", 0),
        "server.queue.high_water": stats["queue"]["high_water"],
        "server.cpu_ms_per_req": base["cpu_s"] * 1e3 / max(1, answered),
    })
    table = {name: {"calls_per_request": c, "total_ms_per_request": t,
                    "self_ms_per_request": s}
             for name, (c, t, s) in sorted(per_trace.items())}
    return layers, table, dropped


def run_serve(args, aved, oracle, root, trace):
    run_dir = os.path.join(root, ".bench_build", "run")
    os.makedirs(run_dir, exist_ok=True)
    rates = {"low": args.rate_low, "high": args.rate_high, "over": args.rate_over}
    pairs = write_spec_variants(root, run_dir, args.seed, SPEC_VARIANTS)
    requests, windows = build_schedule(args.workload, args.seed, args.seconds,
                                       rates, pairs, OVER_DEADLINE_MS)
    obs = {}
    passes = []  # (generator lag p99 ms, pass)
    for _ in range(1 if trace else MAX_PASSES):
        ticks = cpu_ticks()
        p = serve_pass(args, aved, root, run_dir, requests, False,
                       SETUP_REPEATS["serve"])
        p["steal"] = steal_share(ticks, cpu_ticks())
        lag_p99 = quantile([x[0] * 1e3 for x in p["gen"]["records"].values()], 0.99)
        passes.append((lag_p99, p))
        if pass_valid(lag_p99, p):
            break
        note("generator ran %.2f ms late at p99, host steal %.1f%%; pass discarded"
             % (lag_p99, 100 * p["steal"]))
    # The first valid pass, else (host contended throughout) the least
    # stolen one, flagged invalid in the record and on stderr.
    valid = [x for x in passes if pass_valid(*x)]
    lag_p99, base = valid[0] if valid else min(passes, key=lambda x: x[1]["steal"])
    if trace:
        obs["traced"] = serve_pass(args, aved, root, run_dir, requests, True,
                                   SETUP_REPEATS["serve"])
    recs = base["gen"]["records"]
    phases = phase_summary(requests, recs, windows)
    # A response is wrong when it is lost, not a valid v2 envelope, not
    # ok (the over phase may also shed work: overloaded or deadline), or
    # differs from the library's answer.  Each request counts once.
    wrong = {}
    for r in requests:
        status = recs[str(r[2])][2]
        shed = r[3] == "over" and r[4] != "health" and status in ("overloaded", "deadline")
        if status != "ok" and not shed:
            wrong[r[2]] = status
    problems = [q for _, p in passes for q in p["gen"]["problems"]]
    for rid, why in check_answers(oracle, root, run_dir, requests, base["gen"],
                                  base["keep"]):
        if rid is None:
            problems.append(why)
        else:
            wrong.setdefault(rid, why)
    phase_of = {r[2]: (r[3], r[4]) for r in requests}
    problems += ["id %d (%s, %s phase): %s" % (rid, phase_of[rid][1], phase_of[rid][0], why)
                 for rid, why in sorted(wrong.items())]
    # fail_ratio covers the low and high phases: failed or wrong
    # responses over attempted.
    measured = [r for r in requests if r[3] in ("low", "high")]
    # Work latency below capacity: the low and high phases together,
    # which gives the gated percentiles twice the samples of one phase.
    below = [x[1] * 1e3 if x[2] == "ok" else math.inf
             for x in (recs[str(r[2])] for r in measured if r[4] != "health")]
    named = {
        "setup_s": statistics.median(base["setups"]),
        "p50_ms.low": phases["low"]["p50_ms"],
        "p99_ms.low": phases["low"]["p99_ms"],
        "p50_ms.high": phases["high"]["p50_ms"],
        "p90_ms.high": phases["high"]["p90_ms"],
        "p50_ms.low_high": quantile(below, 0.5),
        "p90_ms.low_high": quantile(below, 0.9),
        "p99_ms.high": phases["high"]["p99_ms"],
        "health_p99_ms.high": phases["high"]["health_p99_ms"],
        "goodput_rps.over": phases["over"]["goodput_rps"],
        "fail_ratio": sum(1 for r in measured if r[2] in wrong) / len(measured),
        "peak_rss_mb": base["hwm_kb"] / 1024.0,
    }
    ladder_ok = [p for p in PHASES if phases[p]["meets_slo"]]
    result = {
        "attempted": len(requests),
        "failed": len(wrong),
        "mismatches": problems,
        "gen_lag_ms_p99": lag_p99,
        "valid": trace or bool(valid),
        "passes": [{"gen_lag_ms_p99": lag, "host_steal_share": p["steal"]}
                   for lag, p in passes],
        "rates_rps": rates,
        "phases": phases,
        "latency_vs_rate": [[rates[p], phases[p]["p50_ms"], phases[p]["p99_ms"]]
                            for p in PHASES],
        "max_rate_meeting_slo": rates[ladder_ok[-1]] if ladder_ok else 0.0,
        "samples": {"setup": len(base["setups"]),
                    **{p: phases[p]["work_requests"] for p in PHASES},
                    "health.high": phases["high"]["health_requests"],
                    "oracle_checked": len(base["keep"])},
        "named": named,
        "e2e": {
            "setup_s": named["setup_s"],
            "p50_ms": finite(named["p50_ms.low_high"]),
            "p90_ms": finite(named["p90_ms.low_high"]),
            "throughput_per_s": named["goodput_rps.over"],
            "peak_rss_mb": named["peak_rss_mb"],
        },
        "stats": {k: base["stats"][k] for k in ("queue", "coalescing", "memo", "spec_cache")},
        "daemon_cpu_s": base["cpu_s"],
        "schedule_s": max(r[0] for r in requests),
    }
    if trace:
        tr = obs["traced"]
        layers, table, dropped = serve_layers(oracle, root, base, tr, requests,
                                              windows)
        tr_phases = phase_summary(requests, tr["gen"]["records"], windows)
        layers["gen.lag_ms.p99"] = quantile(
            [x[0] * 1e3 for x in tr["gen"]["records"].values()], 0.99)
        layers["trace.overhead_share"] = (
            tr_phases["low"]["p50_ms"] / phases["low"]["p50_ms"] - 1.0)
        result["layers"] = layers
        result["layer_table"] = table
        result["trace_spans_dropped"] = dropped
        result["samples"]["traces"] = len(tr["traces"])
    return result


# ---------------------------------------------------------------------
# Main

E2E_UNITS = {"setup_s": "s", "p50_ms": "ms", "p90_ms": "ms",
             "throughput_per_s": "1/s", "peak_rss_mb": "MB"}
NAMED_UNITS = {"p50_ms.low_high": "ms", "p90_ms.low_high": "ms", "setup_s": "s", "sweep_p50_ms": "ms", "sweep_p90_ms": "ms",
               "sweeps_per_s": "1/s", "p50_ms.low": "ms", "p99_ms.low": "ms",
               "p50_ms.high": "ms", "p90_ms.high": "ms", "p99_ms.high": "ms", "health_p99_ms.high": "ms",
               "goodput_rps.over": "1/s", "fail_ratio": "ratio", "peak_rss_mb": "MB"}


def layer_unit(name):
    if name.endswith("_ms") or "_ms." in name or name.endswith("_per_req"):
        return "ms"
    if name.endswith("_share") or name.endswith("_ratio"):
        return "ratio"
    if name.endswith("_per_s"):
        return "1/s"
    return "count"


def json_safe(x):
    """Replace infinities (failed requests) with null for the record."""
    if isinstance(x, float) and not math.isfinite(x):
        return None
    if isinstance(x, dict):
        return {k: json_safe(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [json_safe(v) for v in x]
    return x


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=["figures", "serve_distinct", "serve_repeat"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--figures-jobs", type=int, default=2)
    ap.add_argument("--serve-jobs", type=int, default=1)
    ap.add_argument("--rate-low", type=float, default=20.0)
    ap.add_argument("--rate-high", type=float, default=40.0)
    ap.add_argument("--rate-over", type=float, default=150.0)
    args = ap.parse_args()
    root = os.getcwd()

    t_build = time.perf_counter()
    aved, oracle = build(root)
    build_s = time.perf_counter() - t_build

    ticks = cpu_ticks()
    if args.workload == "figures":
        res = run_figures(args, aved, root, bool(args.trace))
    else:
        res = run_serve(args, aved, oracle, root, bool(args.trace))
    res["host_steal_share"] = steal_share(ticks, cpu_ticks())

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "host": host_fingerprint(aved, root),
        "flags": {"figures": ["--jobs", str(args.figures_jobs)],
                  "serve": ["--jobs", str(args.serve_jobs)]},
        "build_s": build_s, **res,
    }
    rec_dir = os.path.join(root, ".bench_build", "records")
    os.makedirs(rec_dir, exist_ok=True)
    rec_path = os.path.join(rec_dir, "%s-seed%d-trace%d.json"
                            % (args.workload, args.seed, args.trace))
    with open(rec_path, "w") as f:
        json.dump(json_safe(record), f, indent=1, sort_keys=True)

    for name, value in res["named"].items():
        print("%-24s %14.4f %s" % (name, value, NAMED_UNITS[name]))
    if "layers" in res:
        print("per-layer table (self time per %s):" %
              ("sweep" if args.workload == "figures" else "traced request"))
        for name, row in res["layer_table"].items():
            print("  %-34s %s" % (name, "  ".join("%s=%.4f" % kv for kv in row.items())))
        for name, value in res["layers"].items():
            print("%-34s %14.4f %s" % (name, value, layer_unit(name)))
    print("run record: %s" % os.path.relpath(rec_path, root))
    for p in res["mismatches"][:20]:
        print("MISMATCH " + p)

    if not res.get("valid", True):
        note("INVALID: every pass ran on a contended host (generator lag p99 "
             "limit %.1f ms, steal limit %.1f%%); see the passes in the record"
             % (MAX_GEN_LAG_MS, 100 * MAX_STEAL_SHARE))
    if args.trace:
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in res["layers"].items()}
    else:
        metrics = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in res["e2e"].items()}
    print(json.dumps({"correct": not res["mismatches"], "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0 if not res["mismatches"] else 1


if __name__ == "__main__":
    sys.exit(main())
