"""Per-layer metrics of a traced run, and the table printed for them.

Inputs are a workload's :attr:`Outcome.layers` (numbers the program
already emits: ``FlowTrace`` passes and cache counters, job records,
lab manifests) and the :class:`~tracing.Tracer` spans and counters.  A
layer the workload does not exercise reads 0.
"""

from __future__ import annotations

from common import ratio

PASSES = ("map-original", "reliability", "synthesize", "map-approx",
          "assemble", "coverage", "metrics")
CACHE_KINDS = ("global_bdds", "simulator", "static", "checkpoint", "proofs")

#: Spans reported with both call count and self time.
CALLS_AND_SELF = ("bdd.build", "bdd.implies", "sat.solve", "cubes.minimize",
                  "sim.run", "sim.stuck_batch", "synth.map",
                  "lab.store.get", "lab.store.put")
#: Spans reported by self time only.
SELF_ONLY = ("approx.synthesize", "analyze.static", "reliability.analyze",
             "ced.build", "ced.evaluate", "network.parse_blif",
             "network.write_blif", "lab.proofs.get", "lab.proofs.put")
#: Numbers taken as they are from the workload's own layer inputs.
PASSTHROUGH = ("approx.repair_rounds", "approx.dropped_cubes",
               "lab.jobs.ok", "lab.jobs.failed", "lab.jobs.retried",
               "lab.grid.idle_frac", "serve.queue_wait_s.p50",
               "serve.queue_wait_s.p95", "serve.service_s.p50",
               "serve.transport_ms.p50", "serve.rejected", "serve.warm_frac",
               "serve.gen_late_ms.max", "search.candidates",
               "search.generations", "search.store_hit_rate")

#: The order of the printed table: layer, metric-name prefixes.
TABLE = (
    ("flow", ("flow.",)),
    ("approx", ("approx.",)),
    ("analyze", ("analyze.",)),
    ("bdd", ("bdd.",)),
    ("sat", ("sat.",)),
    ("cubes", ("cubes.",)),
    ("sim, reliability, ced", ("sim.", "reliability.", "ced.")),
    ("synth", ("synth.",)),
    ("network", ("network.",)),
    ("lab", ("lab.",)),
    ("serve", ("serve.",)),
    ("search", ("search.",)),
    ("trace", ("trace.",)),
)


def per_layer_metrics(layers: dict, tracer, overhead_frac: float) -> dict:
    spans = tracer.summary()

    def span(name: str, key: str) -> float:
        return spans.get(name, {}).get(key, 0)

    values: dict[str, float] = {}
    pass_s = layers.get("pass_s", {})
    for name in PASSES:
        values[f"flow.pass.{name}.s"] = pass_s.get(name, 0.0)
    breakdown = tracer.pass_breakdown()
    values["flow.pass.synthesize.unattributed_s"] = \
        breakdown.get("synthesize", {}).get("(pass)", 0.0)
    cache = layers.get("cache", {})
    for kind in CACHE_KINDS:
        counters = cache.get(kind, {})
        hits = counters.get("hits", 0)
        values[f"flow.cache.{kind}.hit_rate"] = ratio(
            hits, hits + counters.get("misses", 0))
    # The analyze rung counts PO queries under "static" and repair-loop
    # node queries under "static_node"; a hit is a discharged query.
    rung = [cache.get(kind, {}) for kind in ("static", "static_node")]
    discharged = sum(c.get("hits", 0) for c in rung)
    values["analyze.static.discharge_rate"] = ratio(
        discharged, discharged + sum(c.get("misses", 0) for c in rung))
    for name in CALLS_AND_SELF:
        values[f"{name}.calls"] = span(name, "calls")
        values[f"{name}.self_s"] = span(name, "self_s")
    for name in SELF_ONLY:
        values[f"{name}.self_s"] = span(name, "self_s")
    counts = tracer.counts
    values["bdd.ite.calls"] = counts["bdd.ite"]
    values["bdd.apply_many.calls"] = counts["bdd.apply_many"]
    values["bdd.nodes"] = tracer.total_bdd_nodes()
    values["sat.conflicts"] = counts["sat.conflicts"]
    values["sim.fault_vectors_per_s"] = ratio(
        counts["sim.fault_vectors"], span("sim.stuck_batch", "total_s"))
    for key in ("hits", "misses", "puts"):
        name = f"lab.proofs.{key}"
        values[name] = counts[name] + layers.get(name, 0)
    for name in PASSTHROUGH:
        values[name] = layers.get(name, 0)
    values["trace.overhead_frac"] = overhead_frac
    return values


def format_table(values: dict, units: dict, tracer) -> list[str]:
    """Per-layer table in layer order, then each pass's breakdown."""
    lines = ["per-layer metrics (traced run):"]
    for layer, prefixes in TABLE:
        rows = [n for n in units if n.startswith(prefixes)]
        if not rows:
            continue
        lines.append(f"  [{layer}]")
        lines += [f"    {n:42s} {values[n]:14.6g} {units[n]}" for n in rows]
    lines.append("self time by layer under each flow pass "
                 "(\"(pass)\" is the unattributed remainder):")
    for pass_name, layers in tracer.pass_breakdown().items():
        total = sum(layers.values())
        lines.append(f"  {pass_name:14s} {total:10.3f} s")
        for layer, seconds in sorted(layers.items(), key=lambda kv: -kv[1]):
            lines.append(f"      {layer:28s} {seconds:10.3f} s "
                         f"{100 * ratio(seconds, total):5.1f} %")
    return lines
