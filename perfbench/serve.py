"""serve-mixed: `dotest serve` under two closed-loop clients.

The daemon runs in its own process (`--jobs 1`, fresh cache directory).
Set-up starts it and stores four warm `global` keys. Then one load
generator (this process) holds two connections with no think time,
both drawing from one seeded request sequence: in every block of ten
requests, one asks for a fresh seed (a cache miss, a cold analysis)
and nine repeat a warm key (a cache hit).
"""

import hashlib
import itertools
import json
import os
import random
import signal
import socket
import subprocess
import threading
import time

import batch
import layers
import measure

API = "dotest-api/1"
DEFECTS, DIES = 500, 8
WARM_KEYS = 4
BLOCK = 10  # one miss per block of this many requests
CLIENTS = 2
MIN_REQUESTS = 200  # a p95 with ten requests beyond it
PHASE_CAP_S = 70
GLOBAL_MACROS = 5  # a global request looks up one cache entry per macro
READY_TIMEOUT_S = 30


class Plan:
    """The seeded request sequence: warm keys, fresh seeds and their order."""

    def __init__(self, seed):
        rng = random.Random(f"serve-mixed/{seed}")
        keys = rng.sample(range(1, 2**30), WARM_KEYS + 4000)
        self.warm = keys[:WARM_KEYS]
        self._fresh = iter(keys[WARM_KEYS:])
        self._rng = rng
        self._queue = []
        self._lock = threading.Lock()

    def next(self):
        with self._lock:
            if not self._queue:
                miss = self._rng.randrange(BLOCK)
                self._queue = [
                    ("miss", next(self._fresh)) if i == miss else ("hit", self._rng.choice(self.warm))
                    for i in range(BLOCK)
                ]
            return self._queue.pop(0)


def request_line(key, ident):
    return (
        json.dumps(
            {
                "api": API,
                "id": ident,
                "target": "global",
                "defects": DEFECTS,
                "good_space_dies": DIES,
                "seed": key,
            }
        )
        + "\n"
    ).encode()


class Client:
    def __init__(self, path):
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self.sock.connect(path)
        self.reader = self.sock.makefile("rb")

    def call(self, key, ident):
        """Latency in seconds and the decoded reply (None on a broken wire)."""
        start = time.monotonic()
        try:
            self.sock.sendall(request_line(key, ident))
            line = self.reader.readline()
            reply = json.loads(line) if line else None
        except (OSError, ValueError):
            reply = None
        return time.monotonic() - start, reply

    def close(self):
        self.reader.close()
        self.sock.close()


class Daemon:
    """One `dotest serve` process with its own cache directory."""

    def __init__(self, ctx, tag, trace=False):
        self.dir = os.path.join(ctx.workdir, tag)
        os.makedirs(self.dir)
        # A relative socket path keeps under the 108-byte limit wherever
        # the checkout lives; client and daemon share the checkout as cwd.
        self.socket = os.path.relpath(os.path.join(self.dir, "serve.sock"), ctx.root)
        self.cache = os.path.join(self.dir, "cache")
        self.trace = os.path.join(self.dir, "trace.jsonl") if trace else None
        args = [ctx.cli, "serve", "--jobs", "1", "--listen", "unix:" + self.socket, "--cache", self.cache]
        if self.trace:
            args += ["--trace", self.trace]
        self.err_path = os.path.join(self.dir, "daemon.err")
        # A traced daemon also prints its GC statistics as it exits.
        env = {**os.environ, **(measure.GC_STATS_ENV if trace else {})}
        with open(self.err_path, "wb") as err:
            self.proc = subprocess.Popen(
                args, cwd=ctx.root, stdout=subprocess.DEVNULL, stderr=err, env=env
            )
        deadline = time.monotonic() + READY_TIMEOUT_S
        while b"serving on" not in self._stderr():
            if self.proc.poll() is not None or time.monotonic() > deadline:
                self.stop()
                raise RuntimeError(f"daemon did not start: {self._stderr()[-400:]!r}")
            time.sleep(0.002)

    def _stderr(self):
        with open(self.err_path, "rb") as f:
            return f.read()

    def major_alloc_mb(self):
        """Major-heap allocation over the stopped daemon's life."""
        return measure.major_words_mb(self._stderr().decode(errors="replace"))

    def peak_rss_mb(self):
        with open(f"/proc/{self.proc.pid}/status") as f:
            return measure.vmhwm_mb(f.read())

    def stop(self):
        """SIGTERM drains the daemon; it must exit 0."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        return self.proc.returncode


class Phase:
    """Set-up plus one traffic phase against a fresh daemon."""

    def __init__(self, ctx, plan, seconds, tag, trace=False):
        self.ctx, self.plan = ctx, plan
        self.reference = {}  # warm key -> tables of its cold reply
        self.records = []
        self.mismatches = []
        self.other_failures = 0  # failures not tied to one request
        self.extra_attempts = 0  # requests of an earlier phase of the run
        start = time.monotonic()
        self.daemon = Daemon(ctx, tag, trace)
        try:
            client = Client(self.daemon.socket)
            try:
                for i, key in enumerate(plan.warm):
                    _, reply = client.call(key, f"{tag}-warm-{i}")
                    if not _ok(reply):
                        raise RuntimeError(f"warm key {key} failed: {reply}")
                    self.reference[key] = reply["tables"]
                self.setup_s = time.monotonic() - start
            finally:
                client.close()
            self.wall_start = time.time()
            self._traffic(seconds, tag)
        finally:
            status = self.daemon.stop()
        if status != 0:
            self.fault(f"daemon exited {status} on SIGTERM")

    def fault(self, message):
        self.mismatches.append(message)
        self.other_failures += 1

    def attempted(self):
        return len(self.records) + WARM_KEYS + self.extra_attempts

    def _traffic(self, seconds, tag):
        lock = threading.Lock()
        stop = threading.Event()
        idents = itertools.count(1)
        start = time.monotonic()

        def loop(client):
            while not stop.is_set():
                kind, key = self.plan.next()
                latency, reply = client.call(key, f"{tag}-{next(idents)}")
                record = self._record(kind, key, latency, reply)
                with lock:
                    self.records.append(record)
                    done = len(self.records)
                    # Read at a fixed request count, so that a faster host,
                    # which fits more misses into the phase, reads the same.
                    if done == MIN_REQUESTS:
                        self.peak_rss_mb = self.daemon.peak_rss_mb()
                elapsed = time.monotonic() - start
                if (elapsed >= seconds and done >= MIN_REQUESTS) or elapsed >= PHASE_CAP_S:
                    stop.set()

        clients = [Client(self.daemon.socket) for _ in range(CLIENTS)]
        threads = [threading.Thread(target=loop, args=(c,), daemon=True) for c in clients]
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        finally:
            stop.set()
        self.duration_s = time.monotonic() - start
        for c in clients:
            c.close()

    def _record(self, kind, key, latency, reply):
        """One request's latency split and checks; `ok` is False on any failure."""
        r = {"kind": kind, "key": key, "latency": latency, "ok": False, "code": None}
        if reply is None:
            r["code"] = "connection"
            return r
        if reply.get("status") != "ok":
            r["code"] = reply.get("code", "unknown")
            return r
        r.update(
            queue=reply["queue_s"],
            lane=0.0 if reply["coalesced"] else reply["evaluate_s"],
            coalesced=reply["coalesced"],
            hits=reply["cache_hits"],
            misses=reply["cache_misses"],
        )
        problems = []
        if kind == "hit":
            if reply["tables"] != self.reference[key]:
                problems.append("tables differ from the key's cold reply")
            if not reply["coalesced"] and (r["hits"], r["misses"]) != (GLOBAL_MACROS, 0):
                problems.append(f"cache {r['hits']}/{r['misses']} on a warm key")
        else:
            if r["hits"] != 0:
                problems.append(f"{r['hits']} cache hits on a fresh seed")
            expected = self.ctx.digests.get("serve-mixed", {}).get(str(key))
            if expected is not None and _tables_digest(reply["tables"]) != expected:
                problems.append("tables differ from the recorded digest")
        try:
            r["wire"] = measure.latency_split(latency, r["queue"], r["lane"])
        except ValueError as e:
            problems.append(str(e))
        if problems:
            self.mismatches.append(f"{kind} seed {key}: {'; '.join(problems)}")
            r["code"] = "mismatch"
            return r
        r["ok"] = True
        return r

    def latencies(self, kind=None):
        """Client latencies; failed requests count as missing any limit."""
        return [
            r["latency"] if r["ok"] else float("inf")
            for r in self.records
            if kind is None or r["kind"] == kind
        ]

    def failed(self):
        return sum(1 for r in self.records if not r["ok"]) + self.other_failures


def _ok(reply):
    return reply is not None and reply.get("status") == "ok"


def _tables_digest(tables):
    return hashlib.sha256(json.dumps(tables, sort_keys=True).encode()).hexdigest()


def end_to_end(phase):
    lat = phase.latencies()
    ok = sum(1 for r in phase.records if r["ok"])
    return {
        "setup_s": phase.setup_s,
        # A miss is a cold five-macro analysis through the daemon.
        "analysis_s": measure.median(phase.latencies("miss")),
        "peak_rss_mb": phase.peak_rss_mb,
        "request_p50_s": measure.median(lat),
        "request_p95_s": measure.percentile(lat, 95),
        "requests_per_s": ok / phase.duration_s,
    }


def untraced(ctx, name, seed, seconds):
    del name
    phase = Phase(ctx, Plan(seed), seconds, "daemon")
    ctx.say(
        f"serve-mixed: {len(phase.records)} requests in {phase.duration_s:.1f} s, "
        f"{sum(r['kind'] == 'miss' for r in phase.records)} misses, {phase.failed()} failed"
    )
    return phase, end_to_end(phase)


def traced(ctx, name, seed, seconds):
    """The same traffic twice, untraced then against a daemon with --trace,
    then one warm hit replayed through the public functions."""
    del name
    base = Phase(ctx, Plan(seed), seconds, "untraced")
    phase = Phase(ctx, Plan(seed), seconds, "traced", trace=True)
    phase.mismatches += base.mismatches
    phase.other_failures += base.failed()
    phase.extra_attempts = base.attempted()
    replay = replay_hit(ctx, phase)
    trace = layers.load_jsonl_trace(phase.daemon.trace)
    m = layers.funnel_layers(trace)
    ok = [r for r in phase.records if r["ok"]]
    computed = [r for r in ok if not r["coalesced"]]
    lanes = [
        s["stop"] - s["start"]
        for s in trace["spans"]
        if s["name"] == "service.request" and s["start"] >= phase.wall_start
    ]
    hits = sum(r["hits"] for r in computed)
    misses = sum(r["misses"] for r in computed)
    p50 = measure.median(phase.latencies())
    base_p50 = measure.median(base.latencies())
    m.update(batch.layout(ctx, "paper-global"))
    m.update(
        {
            # A hit rebuilds the five macros and their layouts.
            "layout.synthesize_s": replay["synthesize_s"],
            "evaluate.major_alloc_mb": phase.daemon.major_alloc_mb(),
            "cache.hits": hits,
            "cache.misses": misses,
            "cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
            "hit.analyze_s": replay["analyze_s"],
            "hit.render_s": replay["render_s"],
            "hit.encode_s": replay["encode_s"],
            "service.queue_p50_s": measure.median([r["queue"] for r in ok]),
            "service.queue_p95_s": measure.percentile([r["queue"] for r in ok], 95),
            "service.lane_hit_p50_s": measure.median(
                [r["lane"] for r in computed if r["kind"] == "hit"]
            ),
            "service.lane_miss_p50_s": measure.median(
                [r["lane"] for r in computed if r["kind"] == "miss"]
            ),
            "service.wire_p50_s": measure.median([r["wire"] for r in ok]),
            "service.lane_busy_share": sum(lanes) / phase.duration_s,
            "service.coalesced": sum(1 for r in ok if r["coalesced"]),
            "service.shed": sum(1 for r in phase.records if r["code"] == "overloaded"),
            "service.failed": phase.failed(),
            "trace.traced_s": p50,
            "trace.untraced_s": base_p50,
            "trace.overhead_share": p50 / base_p50 - 1.0,
            "trace.accounted_share": sum(r["queue"] + r["lane"] + r["wire"] for r in ok)
            / sum(r["latency"] for r in ok),
            "trace.glue_s": layers.glue_seconds(trace, ("service.request",)),
        }
    )
    ctx.say(
        f"serve-mixed traced: p50 {p50 * 1e3:.1f} ms vs untraced {base_p50 * 1e3:.1f} ms; "
        f"replayed hit {replay['analyze_s'] * 1e3:.1f} ms analyze"
    )
    return phase, m


REPLAYS = 21


def replay_hit(ctx, phase):
    """Replay the first warm key through the functions a hit runs; medians
    over the replays after the first (which reads the cache from disk,
    where the daemon's hits find it in memory)."""
    key = phase.plan.warm[0]
    out = os.path.join(phase.daemon.dir, "replay.json")
    args = [
        ctx.tracer, "replay-hit", "global", "--defects", str(DEFECTS),
        "--dies", str(DIES), "--seed", str(key), "--cache", phase.daemon.cache,
        "--repeat", str(REPLAYS), "--out", out,
    ]
    subprocess.run(args, cwd=ctx.root, check=True, stdout=subprocess.DEVNULL)
    with open(out) as f:
        result = json.load(f)
    if result["tables"] != phase.reference[key]:
        phase.fault("replayed hit: tables differ from the daemon's reply")
    samples = result["samples"][1:]
    if any((s["cache_hits"], s["cache_misses"]) != (GLOBAL_MACROS, 0) for s in samples):
        phase.fault("replayed hit: not served from the cache")
    return {
        k: measure.median([s[k] for s in samples])
        for k in ("synthesize_s", "analyze_s", "render_s", "encode_s")
    }
