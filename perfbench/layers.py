"""Per-layer metrics from the spans of a traced run.

Each span belongs to the pass whose ``bench.pass`` or ``bench.resume``
span it descends from -- across processes, through the parent ids that
forked pool workers and spawned dispatch workers record.  Spans outside
any pass (set-up, the benchmark's own checks) are ignored.  Every metric
is computed per pass and reported as the median over the traced passes.
"""

from __future__ import annotations

import statistics
from collections import defaultdict
from typing import Any, Dict, Iterable, List, Optional

#: Span name -> the per-layer metric its self time adds to.
SELF_TIME = {
    "engine.run": "engine.run_s",
    "transport.deliver": "engine.transport_s",
    "transport.deliver_faulty": "engine.transport_s",
    "transport.measure": "engine.transport_s",
    "congest.network_init": "congest.network_init_s",
    "quantum.schedule": "quantum.schedule_s",
    "qcongest.optimization": "qcongest.optimization_s",
    "graphs.build": "graphs.build_s",
    "graphs.compile": "graphs.compile_s",
    "graphs.from_graph": "graphs.compile_s",
    "graphs.oracle": "graphs.oracle_s",
    "algorithms.kernel": "algorithms.kernel_s",
    "runner.wait": "runner.wait_s",
    "runner.map": "runner.wait_s",
    "sweep.grid": "sweep.self_s",
    "sweep.cell": "sweep.self_s",
    "store.append": "store.append_s",
    "store.scan": "store.scan_s",
    "store.export": "store.export_s",
    "store.merge": "store.merge_s",
    "dispatch.register": "dispatch.register_s",
    "dispatch.stream": "dispatch.stream_s",
    "dispatch.stop": "dispatch.stop_s",
    "bench.pass": "trace.unattributed_s",
}

#: Every per-layer metric, in report order.
METRICS = (
    "engine.run_s", "engine.transport_s", "engine.runs", "engine.rounds",
    "engine.messages", "engine.bits", "engine.messages_per_round",
    "engine.msgs_per_s", "engine.size_cache_hit_ratio",
    "engine.deliver_calls", "engine.measure_calls",
    "congest.network_init_s", "congest.networks",
    "quantum.schedule_s", "quantum.schedules", "quantum.evaluation_calls",
    "quantum.distinct_evaluations", "quantum.eval_reuse_ratio",
    "qcongest.optimization_s",
    "graphs.build_s", "graphs.builds", "graphs.compile_s",
    "graphs.compile_hit_ratio", "graphs.oracle_s", "graphs.oracle_calls",
    "algorithms.kernel_s",
    "faults.dropped_messages", "faults.delayed_messages",
    "runner.wait_s", "runner.cells",
    "sweep.self_s",
    "store.append_s", "store.appends", "store.bytes_written", "store.scan_s",
    "store.export_s", "store.export_bytes", "store.merge_s",
    "dispatch.register_s", "dispatch.stream_s", "dispatch.stop_s",
    "dispatch.steals", "dispatch.speculative_leases",
    "dispatch.duplicate_cells", "dispatch.useful_ratio",
    "trace.pass_s", "trace.overhead_s", "trace.unattributed_s",
)


_UNITS = {
    "engine.messages_per_round": "msg/round",
    "engine.msgs_per_s": "msg/s",
    "store.bytes_written": "B",
    "store.export_bytes": "B",
}


def unit(name: str) -> str:
    """The unit of a per-layer metric."""
    if name in _UNITS:
        return _UNITS[name]
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _pass_of(spans: List[Dict[str, Any]]) -> Dict[str, Optional[int]]:
    """Span id -> the pass it belongs to (``None``: outside any pass)."""
    by_id = {span["id"]: span for span in spans}
    owner: Dict[str, Optional[int]] = {}

    def resolve(span: Dict[str, Any]) -> Optional[int]:
        chain = []
        current: Optional[Dict[str, Any]] = span
        found: Optional[int] = None
        while current is not None:
            if current["id"] in owner:
                found = owner[current["id"]]
                break
            chain.append(current["id"])
            if current["name"] in ("bench.pass", "bench.resume"):
                found = current["pass"]
                break
            parent = current.get("parent")
            if parent is None:
                break
            if parent not in by_id:
                # The parent's spans were lost: trust the recorded pass.
                found = current.get("pass")
                break
            current = by_id[parent]
        for span_id in chain:
            owner[span_id] = found
        return found

    for span in spans:
        resolve(span)
    return owner


def per_pass(spans: List[Dict[str, Any]]) -> Dict[int, Dict[str, float]]:
    """Raw per-pass sums: self times, counts and call counts."""
    owner = _pass_of(spans)
    by_id = {span["id"]: span for span in spans}
    sums: Dict[int, Dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for span in spans:
        index = owner.get(span["id"])
        if index is None:
            continue
        total = sums[index]
        name = span["name"]
        metric = SELF_TIME.get(name)
        self_time = span.get("self", 0.0)
        if name == "store.scan":
            parent = by_id.get(span.get("parent"))
            if parent is not None and parent["name"] == "store.merge":
                metric = "store.merge_s"  # shard scans are part of the merge
        if metric is not None:
            total[metric] += self_time
        total[f"calls.{name}"] += 1
        if name == "graphs.oracle":
            parent = by_id.get(span.get("parent"))
            if parent is None or parent["name"] != "graphs.oracle":
                total["graphs.oracle_calls"] += 1
        for key, value in span.get("counts", {}).items():
            total[f"{name}.{key}"] += value
        for hot_name, (calls, seconds) in span.get("hot", {}).items():
            total[SELF_TIME[hot_name]] += seconds
            total[f"calls.{hot_name}"] += calls
    return sums


def _derive(raw: Dict[str, float], stats: Optional[dict]) -> Dict[str, float]:
    get = lambda key: raw.get(key, 0.0)  # noqa: E731
    out = {name: get(name) for name in METRICS}
    messages = get("engine.run.messages")
    rounds = get("engine.run.rounds")
    out.update({
        "engine.runs": get("engine.run.runs"),
        "engine.rounds": rounds,
        "engine.messages": messages,
        "engine.bits": get("engine.run.bits"),
        "engine.messages_per_round": _ratio(messages, rounds),
        "engine.msgs_per_s": _ratio(
            messages, get("engine.run_s") + get("engine.transport_s")),
        "engine.size_cache_hit_ratio": _ratio(
            get("engine.run.size_cache_hits"),
            get("engine.run.size_cache_hits") + get("engine.run.size_cache_misses")),
        "engine.deliver_calls": get("calls.transport.deliver")
        + get("calls.transport.deliver_faulty"),
        "engine.measure_calls": get("calls.transport.measure"),
        "congest.networks": get("calls.congest.network_init"),
        "quantum.schedules": get("calls.quantum.schedule"),
        "quantum.evaluation_calls": get("qcongest.optimization.evaluation_calls"),
        "quantum.distinct_evaluations": get(
            "qcongest.optimization.distinct_evaluations"),
        "quantum.eval_reuse_ratio": _ratio(
            get("qcongest.optimization.evaluation_calls"),
            get("qcongest.optimization.distinct_evaluations")),
        "graphs.builds": get("calls.graphs.build"),
        "graphs.compile_hit_ratio": 1.0 - _ratio(
            get("calls.graphs.from_graph"), get("calls.graphs.compile"))
        if get("calls.graphs.compile") else 0.0,
        "graphs.oracle_calls": get("graphs.oracle_calls"),
        "faults.dropped_messages": get("engine.run.dropped_messages"),
        "faults.delayed_messages": get("engine.run.delayed_messages"),
        "runner.cells": get("runner.wait.items") + get("runner.map.items"),
        "store.appends": get("store.append.appends"),
        "store.bytes_written": get("store.append.bytes"),
        "store.export_bytes": get("store.export.bytes"),
    })
    stats = stats or {}
    cells = stats.get("cells", 0)
    duplicates = stats.get("duplicate_cells", 0)
    out.update({
        "dispatch.steals": float(stats.get("steals", 0)),
        "dispatch.speculative_leases": float(stats.get("speculative_leases", 0)),
        "dispatch.duplicate_cells": float(duplicates),
        "dispatch.useful_ratio": _ratio(cells, cells + duplicates),
    })
    return out


def per_layer(spans: List[Dict[str, Any]], traced_passes: Iterable[int],
              dispatch_stats: Dict[int, Optional[dict]],
              traced_walls: List[float], untraced_walls: List[float]) -> Dict[str, float]:
    """The per-layer metrics: medians over the traced passes."""
    raw = per_pass(spans)
    rows = [_derive(raw.get(index, {}), dispatch_stats.get(index))
            for index in traced_passes]
    result = {name: statistics.median(row[name] for row in rows) for name in METRICS}
    traced = statistics.median(traced_walls)
    result["trace.pass_s"] = traced
    result["trace.overhead_s"] = traced - statistics.median(untraced_walls)
    return result
