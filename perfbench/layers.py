"""Per-layer metrics: folds a `dotest ... --trace FILE` stream into the
layer table.

A trace is read into a list of spans (id, parent, name, start, stop,
attrs) and a list of counter totals (name, span, total). The stage
spans, macro spans and counters are the program's own, so one folding
serves the batch CLI and the daemon alike.
"""

import json

import measure

# Metric key of each paper macro, by its pipeline name; the generated
# core ("scaled-<bits>b") reads as pipeline.scaled_s.
MACROS = {
    "comparator": "comparator",
    "ladder": "ladder",
    "bias generator": "bias-generator",
    "clock generator": "clock-generator",
    "decoder": "decoder",
}


# The cache, hit-replay and service layers only work under serve-mixed.
NO_SERVICE = {
    name: 0
    for name in (
        "cache.hits",
        "cache.misses",
        "cache.hit_ratio",
        "hit.analyze_s",
        "hit.render_s",
        "hit.encode_s",
        "service.queue_p50_s",
        "service.queue_p95_s",
        "service.lane_hit_p50_s",
        "service.lane_miss_p50_s",
        "service.wire_p50_s",
        "service.lane_busy_share",
        "service.coalesced",
        "service.shed",
        "service.failed",
    )
}


def load_jsonl_trace(path):
    """Read a `dotest ... --trace FILE` stream into the shape above."""
    starts, spans, counters = {}, [], {}
    with open(path) as f:
        for line in f:
            e = json.loads(line)
            kind = e["type"]
            if kind == "span_start":
                starts[e["id"]] = e["wall"]
            elif kind == "span_end":
                start = starts.pop(e["id"], e["wall"])
                spans.append(
                    {
                        "id": e["id"],
                        "parent": e["parent"],
                        "name": e["name"],
                        "start": start,
                        "stop": e["wall"],
                        "attrs": e["attrs"],
                    }
                )
            elif kind == "counter":
                key = (e["name"], e["span"])
                counters[key] = counters.get(key, 0) + e["delta"]
    return {
        "spans": spans,
        "counters": [
            {"name": n, "span": s, "total": t} for (n, s), t in counters.items()
        ],
    }


def _duration(s):
    return s["stop"] - s["start"]


def stage(span):
    """A span's layer label: a `pipeline.stage` span reads as its stage,
    with both evaluate stages as `evaluate`; any other span as its name."""
    if span["name"] == "pipeline.stage":
        name = span["attrs"].get("stage", "")
        return "evaluate" if name.startswith("evaluate") else name
    return span["name"]


def counter_totals(trace, within=None):
    """Counter totals by name; with `within`, only counts flushed under a
    span of that layer label (at any depth)."""
    by_id = {s["id"]: s for s in trace["spans"]}
    inside = {}

    def under(sid):
        if sid is None or sid not in by_id:
            return False
        if sid not in inside:
            s = by_id[sid]
            inside[sid] = stage(s) == within or under(s["parent"])
        return inside[sid]

    totals = {}
    for c in trace["counters"]:
        if within is None or under(c["span"]):
            totals[c["name"]] = totals.get(c["name"], 0) + c["total"]
    return totals


def _ratio(a, b):
    return a / b if b else 0.0


def _p50(values):
    return measure.median(values) if values else 0.0


def funnel_layers(trace):
    """Layer metrics of the analyses in a trace, from the pipeline's
    `pipeline.stage` spans, the `evaluate.class` and `pool.*` spans and
    the counters. Layout figures come from `tracer layout` instead."""
    spans = trace["spans"]

    def total(name):
        return sum(_duration(s) for s in spans if stage(s) == name)

    classes = [_duration(s) for s in spans if s["name"] == "evaluate.class"]
    counts = counter_totals(trace)
    engine = counter_totals(trace, within="evaluate")
    iterations = engine.get("newton_iterations", 0)
    evaluate_s = total("evaluate")
    samples = counts.get("samples_drawn", 0)
    effective = counts.get("defects_effective", 0)
    m = {
        "defect.sprinkle_s": total("sprinkle"),
        "defect.samples_drawn": samples,
        "defect.effective": effective,
        "defect.effective_ratio": _ratio(effective, samples),
        "fault.collapse_s": total("collapse"),
        "fault.classes": len(classes),
        "good_space.compile_s": total("good-space"),
        "evaluate.run_s": evaluate_s,
        "evaluate.classes": len(classes),
        "evaluate.class_p50_s": _p50(classes),
        "evaluate.class_max_s": max(classes, default=0.0),
        "evaluate.retries": counts.get("retries", 0),
        "evaluate.unresolved": counts.get("classes_unresolved", 0),
    }
    for name in (
        "solves",
        "factorizations",
        "rank1_solves",
        "jacobian_bypass",
        "shared_nominal_hits",
        "shared_nominal_misses",
        "shared_nominal_fallbacks",
        "no_convergence",
    ):
        m["engine." + name] = engine.get("engine." + name, 0)
    m["engine.newton_iterations"] = iterations
    m["engine.iterations_per_class"] = _ratio(iterations, len(classes))
    m["engine.refactor_ratio"] = _ratio(engine.get("engine.factorizations", 0), iterations)
    hits = engine.get("engine.shared_nominal_hits", 0)
    m["engine.shared_nominal_hit_ratio"] = _ratio(
        hits, hits + engine.get("engine.shared_nominal_misses", 0)
    )
    m["engine.us_per_iteration"] = _ratio(evaluate_s * 1e6, iterations)
    m.update(pool_layers(trace, counts))
    m.update(pipeline_layers(trace))
    return m


def pool_layers(trace, counts):
    """Pool work counts and the busy share of its parallel maps.

    busy_share = sum of worker busy time / (workers x map span), over every
    parallel map; 0 when every map ran on the sequential path.
    """
    spans = trace["spans"]
    workers_of = {}
    for s in spans:
        if s["name"] == "pool.worker":
            workers_of.setdefault(s["parent"], []).append(_duration(s))
    busy = capacity = 0.0
    for s in spans:
        if s["name"] == "pool.map":
            busy += sum(workers_of.get(s["id"], []))
            capacity += s["attrs"].get("workers", 1) * _duration(s)
    return {
        "pool.maps": counts.get("pool.maps", 0),
        "pool.items": counts.get("pool.items", 0),
        "pool.busy_share": _ratio(busy, capacity),
    }


def pipeline_layers(trace):
    """Wall time per macro, from the pipeline's macro spans."""
    m = {f"pipeline.{key}_s": 0.0 for key in MACROS.values()}
    m["pipeline.scaled_s"] = 0.0
    for s in trace["spans"]:
        if s["name"] == "pipeline.macro":
            name = s["attrs"].get("macro", "")
            key = MACROS.get(name, "scaled" if name.startswith("scaled") else None)
            if key is not None:
                m[f"pipeline.{key}_s"] += _duration(s)
    return m


def layout_layers(cells):
    """Layout figures from `tracer layout`: one synthesis and one pristine
    extraction per cell, and the cells' shapes."""
    return {
        "layout.synthesize_s": sum(c["synthesize_s"] for c in cells),
        "layout.extract_s": sum(c["extract_s"] for c in cells),
        "layout.shapes": sum(c["shapes"] for c in cells),
    }


# The layer times of an analysis: synthesis, then the funnel's stages
# (the pristine extraction runs inside sprinkling).
LAYER_TIMES = (
    "layout.synthesize_s",
    "defect.sprinkle_s",
    "fault.collapse_s",
    "good_space.compile_s",
    "evaluate.run_s",
)


def accounted(metrics, total_s):
    """Share of `total_s` that the layer times sum to."""
    return _ratio(sum(metrics[k] for k in LAYER_TIMES), total_s)


def glue_seconds(trace, names=("pipeline.macro",)):
    """Self time of the named spans: the time inside them outside every
    child span (for a macro: its nominal netlist, PRNG splits and health;
    for a daemon request: its fingerprints, rendering and bookkeeping)."""
    own = measure.self_times(trace["spans"])
    return sum(own[s["id"]] for s in trace["spans"] if s["name"] in names)
