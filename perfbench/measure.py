"""The benchmark's arithmetic: percentiles, span self-time, VmHWM, GC
statistics, latency split.

Everything here is a pure function of its arguments, so that
test_measure.py can check it without running the program.
"""

import math
import statistics

# A tail percentile is reported only when at least this many samples lie
# beyond it: p95 needs 200 samples.
TAIL_BEYOND = 10

# Client and daemon read different clocks; a split may come out negative
# by this much from clock granularity alone.
CLOCK_SLACK_S = 1e-3


def median(values):
    if not values:
        raise ValueError("median of no samples")
    return statistics.median(values)


def percentile(values, p, beyond=TAIL_BEYOND):
    """Nearest-rank p-th percentile, refused unless `beyond` samples exceed it.

    The value returned is the smallest sample with at least p% of the
    samples at or below it; the samples ranked above it must number at
    least `beyond`. Failed operations are passed as math.inf, so they
    count as missing any limit.
    """
    n = len(values)
    if n == 0:
        raise ValueError("percentile of no samples")
    rank = max(1, math.ceil(p / 100.0 * n))
    if n - rank < beyond:
        raise ValueError(
            f"p{p:g} of {n} samples has {n - rank} beyond it; need {beyond}"
        )
    return sorted(values)[rank - 1]


def quartile_spread(values):
    """Distance between the first and third quartile as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def union_length(intervals, lo, hi):
    """Length of the union of `intervals`, each clipped to [lo, hi]."""
    clipped = sorted(
        (max(a, lo), min(b, hi)) for a, b in intervals if min(b, hi) > max(a, lo)
    )
    total, end = 0.0, -math.inf
    for a, b in clipped:
        if a > end:
            total += b - a
            end = b
        elif b > end:
            total += b - end
            end = b
    return total


def self_times(spans):
    """Self time of each span: its duration minus the union of its children.

    `spans` are dicts with id, parent, start and stop. Children run on
    other domains may overlap each other; the union counts that time once.
    """
    children = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["stop"]))
    return {
        s["id"]: (s["stop"] - s["start"])
        - union_length(children.get(s["id"], []), s["start"], s["stop"])
        for s in spans
    }


def vmhwm_mb(status_text):
    """Peak resident set (VmHWM) in MB from the text of /proc/<pid>/status."""
    for line in status_text.splitlines():
        if line.startswith("VmHWM:"):
            fields = line.split()
            if len(fields) != 3 or fields[2] != "kB":
                raise ValueError(f"unexpected VmHWM line: {line!r}")
            return int(fields[1]) / 1024.0
    raise ValueError("no VmHWM line")


# OCAMLRUNPARAM=v=0x400 makes an OCaml program print its GC statistics
# on stderr as it exits.
GC_STATS_ENV = {"OCAMLRUNPARAM": "v=0x400"}
WORD_BYTES = 8


def major_words_mb(stderr_text):
    """Megabytes allocated in the major heap over a process's life (its
    `major_words` exit statistic: direct major allocations and promotions)."""
    found = None
    for line in stderr_text.splitlines():
        if line.startswith("major_words:"):
            found = line.split(":", 1)[1].strip()
    if found is None or not found.isdigit():
        raise ValueError("no major_words line")
    return int(found) * WORD_BYTES / 1e6


def latency_split(latency, queue, lane):
    """Wire time of one request: latency - queue - lane, never negative.

    `latency` is measured by the client around send and receive; `queue`
    and `lane` by the daemon inside that interval. A negative remainder
    beyond the clock slack means the three do not describe one request.
    """
    wire = latency - queue - lane
    if wire < -CLOCK_SLACK_S or queue < 0 or lane < 0:
        raise ValueError(
            f"latency {latency:.6f} < queue {queue:.6f} + lane {lane:.6f}"
        )
    return max(wire, 0.0)
