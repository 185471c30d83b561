"""Per-layer metrics of a traced pass, and what each should move.

The layer names are the simulator's module names.  ``MOVES`` records,
before any optimisation is measured, which end-to-end metric a change
in each layer should move and on which workload; the report prints it
beside the measured numbers.
"""

from __future__ import annotations

from spans import WAIT_SPANS, attribute, self_times

#: (metric, unit, better) — the ``per_layer`` list of BENCHMARK.json
PER_LAYER = (
    ("workloads.generate_s", "s", "lower"),
    ("workloads.generated_insts", "count", "lower"),
    ("trace_codec.encode_s", "s", "lower"),
    ("trace_codec.decode_s", "s", "lower"),
    ("trace_codec.materialize_s", "s", "lower"),
    ("trace_codec.materialized_insts", "count", "lower"),
    ("cache.trace_hit_ratio", "ratio", "higher"),
    ("cache.result_hit_ratio", "ratio", "higher"),
    ("cache.result_get_s", "s", "lower"),
    ("cache.result_put_s", "s", "lower"),
    ("codegen.load_kernel_s", "s", "lower"),
    ("codegen.generated_ratio", "ratio", "higher"),
    ("pipeline.simulate_s", "s", "lower"),
    ("pipeline.kips", "kinst/s", "higher"),
    ("pipeline.cycles_skipped_ratio", "ratio", "higher"),
    ("sim.cycles", "count", "lower"),
    ("sim.committed", "count", "higher"),
    ("sim.rename_stall_regs", "count", "lower"),
    ("sampling.skim_s", "s", "lower"),
    ("sampling.fast_forward_s", "s", "lower"),
    ("sampling.window_s", "s", "lower"),
    ("sampling.skimmed_insts", "count", "higher"),
    ("sampling.fast_forwarded_insts", "count", "higher"),
    ("sampling.detailed_insts", "count", "lower"),
    ("analysis.figures_s", "s", "lower"),
    ("area.tables_s", "s", "lower"),
    ("parallel.tail_s", "s", "lower"),
    ("parallel.efficiency", "ratio", "higher"),
    ("fleet.leases_granted", "count", "lower"),
    ("fleet.trace_fetches_per_point", "ratio", "lower"),
    ("fleet.requeues", "count", "lower"),
    ("fleet.local_points", "count", "lower"),
    ("unattributed_s", "s", "lower"),
    ("trace_overhead_s", "s", "lower"),
)

#: layer -> which end-to-end metric it should move, on which workload
MOVES = {
    "workloads.generator": "cold_s on all three; absent from warm_s",
    "workloads.trace_codec": "cold_s on point-exact and figures-quick; "
                             "little on sampled-fleet (windows only)",
    "harness.cache": "warm_s on figures-quick",
    "codegen": "setup_s/cold_s on point-exact; generated_ratio < 1 is "
               "the silent kernel fallback",
    "pipeline": "cold_s on point-exact and figures-quick; small on "
                "sampled-fleet",
    "sim (core)": "no host metric; must not change under a "
                  "simulator-speed change",
    "sampling": "cold_s on sampled-fleet only; elsewhere no change",
    "analysis": "warm_s on figures-quick (most of it)",
    "area": "warm_s on figures-quick",
    "harness.parallel": "cold_s on figures-quick",
    "fleet": "cold_s on sampled-fleet; trace fetches per point are the "
             "missing coordinator affinity",
}

#: the attributed share of the traced wall-clock the report aims for
ATTRIBUTION_TARGET = 0.95


def _ratio(part, whole) -> float:
    return part / whole if whole else 0.0


def compute(spans: list, main_pid: int, t0: float, t1: float,
            result: dict, workers: int) -> dict:
    """Per-layer metrics (all but ``trace_overhead_s``) plus the
    attribution of the traced wall-clock ``[t0, t1]``."""
    own = self_times(spans)
    by_name: dict = {}
    counts: dict = {}
    for span, self_s in zip(spans, own):
        name, args = span[3], span[6]
        by_name[name] = by_name.get(name, 0.0) + self_s
        bucket = counts.setdefault(name, {"calls": 0, "hits": 0,
                                          "insts": 0, "committed": 0,
                                          "cycles": 0, "skipped": 0,
                                          "generated": 0})
        bucket["calls"] += 1
        bucket["hits"] += bool(args.get("hit"))
        bucket["generated"] += args.get("loop") == "generated"
        for key in ("insts", "committed", "cycles", "skipped"):
            bucket[key] += args.get(key, 0)

    def total(*names, key=None):
        if key is None:
            return sum(by_name.get(n, 0.0) for n in names)
        return sum(counts.get(n, {}).get(key, 0) for n in names)

    runs = ("pipeline.run", "sampling.window")
    simulate_s = total(*runs)
    fleet = result["extra"].get("fleet", {})
    leases = fleet.get("leases_granted", 0)
    busy = sum(s for span, s in zip(spans, own) if span[3] not in WAIT_SPANS)
    wall = t1 - t0
    attribution = attribute(spans, main_pid, t0, t1)
    metrics = {
        "workloads.generate_s": total("workloads.generate"),
        "workloads.generated_insts": total("workloads.generate",
                                           key="insts"),
        "trace_codec.encode_s": total("trace_codec.encode"),
        "trace_codec.decode_s": total("trace_codec.decode"),
        "trace_codec.materialize_s": total("trace_codec.materialize"),
        "trace_codec.materialized_insts": total("trace_codec.materialize",
                                                key="insts"),
        "cache.trace_hit_ratio": _ratio(total("cache.trace_get", key="hits"),
                                        total("cache.trace_get",
                                              key="calls")),
        "cache.result_hit_ratio": _ratio(
            total("cache.result_get", key="hits"),
            total("cache.result_get", key="calls")),
        "cache.result_get_s": total("cache.result_get"),
        "cache.result_put_s": total("cache.result_put"),
        "codegen.load_kernel_s": total("codegen.load_kernel"),
        "codegen.generated_ratio": _ratio(total(*runs, key="generated"),
                                          total(*runs, key="calls")),
        "pipeline.simulate_s": simulate_s,
        "pipeline.kips": _ratio(total(*runs, key="committed"),
                                simulate_s) / 1000.0,
        "pipeline.cycles_skipped_ratio": _ratio(total(*runs, key="skipped"),
                                                total(*runs, key="cycles")),
        "sim.cycles": result["sim"]["cycles"],
        "sim.committed": result["sim"]["committed"],
        "sim.rename_stall_regs": result["sim"]["rename_stall_regs"],
        "sampling.skim_s": total("sampling.skim"),
        "sampling.fast_forward_s": total("sampling.fast_forward"),
        "sampling.window_s": total("sampling.window"),
        "sampling.skimmed_insts": total("sampling.skim", key="insts"),
        "sampling.fast_forwarded_insts": total("sampling.fast_forward",
                                               key="insts"),
        "sampling.detailed_insts": total("sampling.window",
                                         key="committed"),
        "analysis.figures_s": sum(v for n, v in by_name.items()
                                  if n.startswith("analysis.")),
        "area.tables_s": sum(v for n, v in by_name.items()
                             if n.startswith("area.")),
        "parallel.tail_s": result["tail_s"],
        "parallel.efficiency": _ratio(busy, workers * wall),
        "fleet.leases_granted": leases,
        "fleet.trace_fetches_per_point": _ratio(fleet.get("blobs_served", 0),
                                                leases),
        "fleet.requeues": fleet.get("requeues", 0),
        "fleet.local_points": fleet.get("local_points", 0),
        "unattributed_s": attribution["unattributed"],
    }
    return {"metrics": metrics, "wall": wall, "attribution": attribution,
            "busy": {n: v for n, v in by_name.items()}}


def attribution_table(name: str, traced: dict) -> list[str]:
    """Report lines: each layer's share of the traced wall-clock, the
    attributed share against the target, and the largest gap."""
    wall = traced["wall"]
    attribution = traced["attribution"]
    lines = [f"{name}: traced wall-clock {wall:.3f} s, split by layer "
             f"(instant by instant, shared among the busy spans)"]
    lines.append(f"  {'layer':<24}{'wall s':>9}{'share':>8}  moves")
    for layer, seconds in sorted(attribution["layers"].items(),
                                 key=lambda item: -item[1]):
        lines.append(f"  {layer:<24}{seconds:>9.3f}{seconds / wall:>8.1%}  "
                     f"{MOVES.get(layer, '')}")
    unattributed = attribution["unattributed"]
    lines.append(f"  {'unattributed':<24}{unattributed:>9.3f}"
                 f"{unattributed / wall:>8.1%}")
    share = 1.0 - unattributed / wall
    verdict = "meets" if share >= ATTRIBUTION_TARGET else "MISSES"
    lines.append(f"  attributed {share:.1%} of wall-clock; "
                 f"{verdict} the {ATTRIBUTION_TARGET:.0%} target")
    gap, before, after = attribution["gap"]
    lines.append(f"  largest unattributed gap: {gap:.3f} s, after "
                 f"'{before}' and before '{after}'")
    return lines
