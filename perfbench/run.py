"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Builds the CLI and the benchmark's
tracer with dune, runs one workload, checks the program's outputs and
prints, as the last line, one JSON object: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1. Workloads, metrics and
their bounds are declared in BENCHMARK.json; perfbench/DESIGN.md explains
them.
"""

import argparse
import json
import math
import os
import shutil
import signal
import subprocess
import sys

sys.dont_write_bytecode = True  # the checkout stays as git left it

import batch  # noqa: E402
import serve  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CLI = "bin/dotest_cli.exe"
TRACER = "perfbench/tracer/tracer.exe"
# What the build needs besides the benchmark's own files.
SOURCES = ["dune-project", "bin/dotest_cli.ml", "lib/core/pipeline.ml"]


class Context:
    def __init__(self):
        self.root = ROOT
        self.cli = os.path.join(ROOT, "_build/default", CLI)
        self.tracer = os.path.join(ROOT, "_build/default", TRACER)
        self.workdir = os.path.join(ROOT, ".perfbench-tmp", str(os.getpid()))
        with open(os.path.join(HERE, "digests.json")) as f:
            self.digests = json.load(f)

    @staticmethod
    def say(line):
        print(line, flush=True)


def fail(status, message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(status)


def build():
    missing = [p for p in SOURCES if not os.path.exists(os.path.join(ROOT, p))]
    if missing:
        fail(2, f"not a dotest checkout, missing {', '.join(missing)}")
    # No shared dune cache: the benchmark writes inside its checkout only.
    done = subprocess.run(
        ["dune", "build", "--root", ".", "./" + CLI, "./" + TRACER],
        cwd=ROOT,
        env={**os.environ, "DUNE_CACHE": "disabled"},
        stdout=sys.stderr,
        stderr=sys.stderr,
    )
    if done.returncode != 0:
        fail(3, f"dune build failed with status {done.returncode}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1995)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # A SIGTERM unwinds like an exception, so every process started is
    # stopped and the run directory removed on the way out.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(2, f"unknown workload {args.workload}")
    build()
    os.chdir(ROOT)
    ctx = Context()
    module = batch if args.workload in batch.WORKLOADS else serve
    measure_run = module.traced if args.trace else module.untraced
    ctx.say(f"perfbench: workload {args.workload}, seed {args.seed}, trace {args.trace}")
    os.makedirs(ctx.workdir)
    try:
        run, metrics = measure_run(ctx, args.workload, args.seed, args.seconds)
    finally:
        shutil.rmtree(ctx.workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(ctx.workdir))
        except OSError:
            pass
    declared = spec["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    if set(metrics) != set(units):
        fail(4, f"metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ set(units))}")
    bad = [k for k, v in metrics.items() if not math.isfinite(v)]
    if bad:
        fail(4, f"non-finite metrics {bad}")
    for line in run.mismatches:
        ctx.say(f"MISMATCH {line}")
    print(
        json.dumps(
            {
                "correct": not run.mismatches,
                "attempted": run.attempted(),
                "failed": run.failed(),
                "metrics": {
                    m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared
                },
            }
        )
    )


if __name__ == "__main__":
    main()
