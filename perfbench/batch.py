"""Batch workloads: cold analyses, each in a fresh `dotest` process.

Untraced runs time `dotest global` / `dotest scaled` exactly as a user
types them. The traced run pairs each untraced analysis with the same
command under `--trace FILE` and folds the program's own trace into the
layer table.
"""

import hashlib
import json
import os
import random
import re
import subprocess
import threading
import time

import layers
import measure

PAPER_COVERAGE = {"catastrophic": 93.3, "non-catastrophic": 93.1}

WORKLOADS = {
    # The paper's Fig. 4 run: Config.default (25,000 defects per macro, 48
    # good-space dies) over the five original macros, one worker.
    "paper-global": {
        "args": ["global"],
        "jobs": 1,
        "fresh_seeds": False,
    },
    # The generated flash-ADC core: 2^8 ladder taps, n = 259 unknowns.
    "scaled-core": {
        "args": ["scaled", "--bits", "8", "--defects", "2000", "--dies", "8"],
        "jobs": 2,
        "fresh_seeds": True,
    },
}

# Every run times at least this many analyses, however long they take.
MIN_ANALYSES = 2
CHILD_TIMEOUT_S = 150


def config_seeds(name, seed):
    """Config.seed of each analysis in a run.

    paper-global analyses the benchmark seed itself every time, so every
    analysis of a run must print the same tables. scaled-core draws a new
    defect sample per analysis: one sample's time depends on how many
    spots sever a wire (each costs a full re-extraction), so a run
    averages over several samples.
    """
    if not WORKLOADS[name]["fresh_seeds"]:
        while True:
            yield seed
    rng = random.Random(f"{name}/{seed}")
    while True:
        yield rng.randrange(1, 2**30)


class Child:
    """One finished process: wall and CPU seconds, its own peak resident
    set in MB (its rusage maximum, the VmHWM it ended with), its output."""

    def __init__(self, wall, cpu, peak_mb, stdout, stderr):
        self.wall, self.cpu, self.peak_mb = wall, cpu, peak_mb
        self.stdout, self.stderr = stdout, stderr


def run_child(args, cwd, workdir, env=None):
    """Run one process to completion; a non-zero exit raises."""
    out_path = os.path.join(workdir, "child.out")
    err_path = os.path.join(workdir, "child.err")
    start = time.monotonic()
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        proc = subprocess.Popen(
            args, cwd=cwd, stdout=out, stderr=err, env={**os.environ, **(env or {})}
        )
    timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        timer.cancel()
    wall = time.monotonic() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, "rb") as f:
        stdout = f.read()
    with open(err_path, "rb") as f:
        stderr = f.read().decode(errors="replace")
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(args)} exited {proc.returncode}: {stderr[-400:]}")
    cpu = usage.ru_utime + usage.ru_stime
    return Child(wall, cpu, usage.ru_maxrss / 1024.0, stdout, stderr)


# The total row of the Run health table: classes, retried, degraded, unresolved.
HEALTH_TOTAL = re.compile(rb"\| total\s*\|\s*(\d+)\s*\|\s*\d+\s*\|\s*\d+\s*\|\s*(\d+)\s*\|")


def digest(text):
    return hashlib.sha256(text).hexdigest()


def coverage_line(stdout):
    """The model's coverage beside the paper's, from the Summary table."""
    found = dict(
        re.findall(rb"\| coverage \(([a-z-]+)\)\s*\|\s*([0-9.]+)%", stdout)
    )
    parts = [
        f"{kind} {float(found[kind.encode()]):.1f}% (paper {paper:.1f}%)"
        for kind, paper in PAPER_COVERAGE.items()
        if kind.encode() in found
    ]
    return "coverage: " + ", ".join(parts)


class Run:
    """Checks and counts of one benchmark run."""

    def __init__(self, ctx, name):
        self.ctx = ctx
        self.w = WORKLOADS[name]
        self.recorded = ctx.digests.get(name, {})
        self.mismatches = []
        self.analyses = 0
        self.classes = 0
        self.failed_classes = 0
        self.unresolved = []

    def attempted(self):
        return max(self.classes, self.analyses)

    def failed(self):
        return self.failed_classes

    def cli(self, config_seed):
        # --no-cache: a DOTEST_CACHE in the environment must not turn a
        # cold analysis into a warm one.
        return [
            self.ctx.cli,
            *self.w["args"],
            "--jobs",
            str(self.w["jobs"]),
            "--seed",
            str(config_seed),
            "--no-cache",
        ]

    def check(self, config_seed, stdout, reference):
        """Record one analysis; a mismatch fails all its fault classes."""
        self.analyses += 1
        before = len(self.mismatches)
        expected = self.recorded.get(str(config_seed))
        if expected is not None and digest(stdout) != expected:
            self.mismatches.append(f"seed {config_seed}: tables differ from the recorded digest")
        if reference is not None and stdout != reference:
            self.mismatches.append(f"seed {config_seed}: tables differ within the run")
        health = HEALTH_TOTAL.search(stdout)
        if health is None:
            self.mismatches.append(f"seed {config_seed}: no Run health total")
            return
        classes = int(health.group(1))
        self.classes += classes
        self.unresolved.append(int(health.group(2)))
        if len(self.mismatches) > before:
            self.failed_classes += classes


def layout(ctx, name):
    """Layout figures from one fresh process: one synthesis and one
    pristine Layout.Extract.extract per cell (`tracer layout`)."""
    out = os.path.join(ctx.workdir, "cells.json")
    run_child([ctx.tracer, "layout", *WORKLOADS[name]["args"], "--out", out], ctx.root, ctx.workdir)
    with open(out) as f:
        return layers.layout_layers(json.load(f)["cells"])


def untraced(ctx, name, seed, seconds):
    run = Run(ctx, name)
    children = []
    reference = None
    seeds = config_seeds(name, seed)
    start = time.monotonic()
    while True:
        config_seed = next(seeds)
        child = run_child(run.cli(config_seed), ctx.root, ctx.workdir)
        children.append(child)
        run.check(config_seed, child.stdout, reference)
        if not WORKLOADS[name]["fresh_seeds"]:
            reference = child.stdout
        if name == "paper-global" and len(children) == 1:
            ctx.say(coverage_line(child.stdout))
        elapsed = time.monotonic() - start
        walls = [c.wall for c in children]
        if len(walls) >= MIN_ANALYSES and elapsed + measure.median(walls) > seconds:
            break
    # CPU seconds beside wall seconds show time the host took away.
    ctx.say(
        f"{name}: {len(walls)} analyses, {run.classes} fault classes, "
        f"unresolved per analysis {run.unresolved}, "
        f"wall/cpu seconds {[(round(c.wall, 2), round(c.cpu, 2)) for c in children]}"
    )
    analysis_s = measure.median(walls)
    metrics = {
        # Batch runs have no set-up apart from their analyses: each one
        # builds its macros and layouts in a fresh process. So a run's
        # set-up is its cold analysis, and no work can leave it unseen.
        "setup_s": analysis_s,
        "analysis_s": analysis_s,
        "peak_rss_mb": measure.median([c.peak_mb for c in children]),
        # A batch request is one cold analysis: one `dotest` invocation.
        # A run holds far fewer than the 200 a p95 with ten samples beyond
        # it needs, so its tail reads as its median.
        "request_p50_s": analysis_s,
        "request_p95_s": analysis_s,
        "requests_per_s": len(walls) / sum(walls),
    }
    return run, metrics


def traced(ctx, name, seed, seconds):
    """Pairs of one untraced and one traced analysis of the same input.

    The traced twin is the same command with `--trace FILE`, and prints
    its GC statistics at exit. The layer table comes from the first
    pair; the tracing overhead is the median traced time over the median
    untraced time, over as many pairs as fit in `seconds` (at least two).
    """
    run = Run(ctx, name)
    seeds = config_seeds(name, seed)
    trace_path = os.path.join(ctx.workdir, "trace.jsonl")
    untraced_s, traced_s, metrics = [], [], None
    start = time.monotonic()
    while True:
        config_seed = next(seeds)
        args = run.cli(config_seed)
        traced_args = args + ["--trace", trace_path]
        # Alternate which of the pair runs first, so that neither gains
        # from the other warming the page cache.
        if len(traced_s) % 2 == 0:
            child = run_child(args, ctx.root, ctx.workdir)
            traced_child = run_child(traced_args, ctx.root, ctx.workdir, measure.GC_STATS_ENV)
        else:
            traced_child = run_child(traced_args, ctx.root, ctx.workdir, measure.GC_STATS_ENV)
            child = run_child(args, ctx.root, ctx.workdir)
        run.check(config_seed, child.stdout, None)
        run.check(config_seed, traced_child.stdout, child.stdout)
        untraced_s.append(child.wall)
        traced_s.append(traced_child.wall)
        if metrics is None:
            trace = layers.load_jsonl_trace(trace_path)
            metrics = layers.funnel_layers(trace)
            metrics.update(layers.NO_SERVICE)
            metrics.update(layout(ctx, name))
            # The whole analysis process: the program has no per-stage
            # allocation figure.
            metrics["evaluate.major_alloc_mb"] = measure.major_words_mb(traced_child.stderr)
            metrics["trace.accounted_share"] = layers.accounted(metrics, traced_child.wall)
            metrics["trace.glue_s"] = layers.glue_seconds(trace)
        elapsed = time.monotonic() - start
        if len(traced_s) >= MIN_ANALYSES and elapsed + elapsed / len(traced_s) > seconds:
            break
    metrics["trace.traced_s"] = measure.median(traced_s)
    metrics["trace.untraced_s"] = measure.median(untraced_s)
    metrics["trace.overhead_share"] = metrics["trace.traced_s"] / metrics["trace.untraced_s"] - 1.0
    ctx.say(
        f"{name}: {len(traced_s)} pairs, traced {metrics['trace.traced_s']:.3f} s vs untraced "
        f"{metrics['trace.untraced_s']:.3f} s; layer times sum to "
        f"{metrics['trace.accounted_share']:.1%} of the first traced analysis"
    )
    return run, metrics
