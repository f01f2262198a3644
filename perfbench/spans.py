"""Span tracing of the repro layers, installed from outside the package.

:func:`install` replaces public functions and methods of the ``repro``
layers with timing wrappers.  Nothing under ``src/`` knows about them:
the benchmark installs them after its set-up, so untraced passes run the
program exactly as users do.

Two kinds of span exist:

* *full* spans record ``name, start, end, parent, task key, pass`` plus
  optional counts, one record per call;
* *hot* spans (per-message transport calls and the cached
  ``Graph.compile``) are too frequent to keep one record each, so their
  call count and self time accumulate on the nearest enclosing full span.

A span's self time is its duration minus the durations of its child
spans.  All spans of one sweep cell carry the cell's task key.

Spans stay in memory.  The benchmark process writes its spans when the
run ends; forked pool workers and remote dispatch workers write theirs to
``spans-<pid>.jsonl`` in the sink directory each time a top-level span
closes, because pool workers exit without running ``atexit`` handlers.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import os
import time
from typing import Any, Callable, Dict, List, Optional

_perf = time.perf_counter


class Tracer:
    """An in-memory span recorder for one process (and its forks)."""

    def __init__(self, sink_dir: str, flush_top_level: bool = False,
                 pass_index: Optional[int] = None,
                 remote_parent: Optional[str] = None) -> None:
        self.sink_dir = sink_dir
        self.flush_top_level = flush_top_level
        self.pass_index = pass_index
        self.task_key: Optional[str] = None
        self.pid = os.getpid()
        self.remote_parent = remote_parent
        self.records: List[Dict[str, Any]] = []
        # A frame is [child seconds, record, start, saved task key]; a hot
        # frame is [child seconds, record of the enclosing full span].
        self.stack: List[list] = []
        self._next_id = 0

    # -- process identity ------------------------------------------------
    def _check_fork(self) -> None:
        """Start a clean buffer in a forked child.

        A fork copies the parent's buffer and open frames; the child must
        not write them again.  Its top-level spans hang off the span that
        was open in the parent when the fork happened.
        """
        pid = os.getpid()
        if pid == self.pid:
            return
        self.remote_parent = self.current_span()
        self.pid = pid
        self.records = []
        self.stack = []
        self.flush_top_level = True

    def current_span(self) -> Optional[str]:
        """The id of the innermost open full span, if any."""
        return self.stack[-1][1]["id"] if self.stack else None

    # -- span lifecycle --------------------------------------------------
    def enter(self, name: str, task_key: Optional[str] = None) -> list:
        self._check_fork()
        saved = self.task_key
        if task_key is not None:
            self.task_key = task_key
        self._next_id += 1
        start = _perf()
        record = {
            "id": f"{self.pid}:{self._next_id}",
            "name": name,
            "parent": self.current_span() or self.remote_parent,
            "pid": self.pid,
            "pass": self.pass_index,
            "key": self.task_key,
            "start": start,
            "hot": {},
        }
        self.records.append(record)
        frame = [0.0, record, start, saved]
        self.stack.append(frame)
        return frame

    def exit(self, frame: list) -> None:
        end = _perf()
        stack = self.stack
        # An exception may unwind past frames whose exit never ran (a
        # generator closed by GC, say): pop down to this frame.
        while stack and stack[-1] is not frame:
            stack.pop()
        if stack:
            stack.pop()
        duration = end - frame[2]
        record = frame[1]
        record["end"] = end
        record["self"] = duration - frame[0]
        self.task_key = frame[3]
        if stack:
            stack[-1][0] += duration
        elif self.flush_top_level:
            self.flush()

    def count(self, frame: list, **counts: float) -> None:
        """Attach counts to a full span's record."""
        record = frame[1]
        existing = record.setdefault("counts", {})
        for name, value in counts.items():
            existing[name] = existing.get(name, 0) + value

    # -- output -------------------------------------------------------------
    def flush(self) -> None:
        """Append the finished spans to this process's sidecar file."""
        if not self.records:
            return
        done = [record for record in self.records if "end" in record]
        if not done:
            return
        self.records = [record for record in self.records if "end" not in record]
        path = os.path.join(self.sink_dir, f"spans-{self.pid}.jsonl")
        with open(path, "a", encoding="utf-8") as handle:
            for record in done:
                handle.write(json.dumps(record, sort_keys=True) + "\n")


#: The tracer of this process once :func:`install` ran, else ``None``.
TRACER: Optional[Tracer] = None


class span:
    """Context manager for a benchmark-level span (``with span(name):``).

    A no-op while tracing is not installed, so the benchmark's pass code
    is the same in traced and untraced runs.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self.frame = None

    def __enter__(self) -> "span":
        if TRACER is not None:
            self.frame = TRACER.enter(self.name)
        return self

    def __exit__(self, *exc_info) -> None:
        if self.frame is not None:
            TRACER.exit(self.frame)


# -- wrappers ---------------------------------------------------------------
def _full(name: str, function: Callable,
          on_result: Optional[Callable] = None,
          key_of: Optional[Callable] = None) -> Callable:
    @functools.wraps(function)
    def wrapper(*args, **kwargs):
        tracer = TRACER
        frame = tracer.enter(name, key_of(args) if key_of else None)
        try:
            result = function(*args, **kwargs)
            if on_result is not None:
                counts = on_result(args, result)
                if counts:
                    tracer.count(frame, **counts)
            return result
        finally:
            tracer.exit(frame)

    return wrapper


def _hot(name: str, function: Callable) -> Callable:
    """Wrap a per-message call: accumulate into the enclosing full span."""

    @functools.wraps(function)
    def wrapper(*args, **kwargs):
        stack = TRACER.stack
        if not stack:
            return function(*args, **kwargs)
        enclosing = stack[-1][1]
        frame = [0.0, enclosing]
        stack.append(frame)
        start = _perf()
        try:
            return function(*args, **kwargs)
        finally:
            duration = _perf() - start
            stack.pop()
            stack[-1][0] += duration
            entry = enclosing["hot"].get(name)
            if entry is None:
                enclosing["hot"][name] = [1, duration - frame[0]]
            else:
                entry[0] += 1
                entry[1] += duration - frame[0]

    return wrapper


def _blocking_iter(name: str, function: Callable) -> Callable:
    """Wrap an ``imap``: time each pull from the returned iterator."""

    @functools.wraps(function)
    def wrapper(*args, **kwargs):
        iterator = iter(function(*args, **kwargs))

        def pulls():
            while True:
                frame = TRACER.enter(name)
                try:
                    item = next(iterator)
                except StopIteration:
                    TRACER.exit(frame)
                    return
                except BaseException:
                    TRACER.exit(frame)
                    raise
                TRACER.count(frame, items=1)
                TRACER.exit(frame)
                yield item

        return pulls()

    return wrapper


def _patch(owner: Any, attribute: str, make: Callable[[Callable], Callable]) -> None:
    current = owner.__dict__[attribute] if isinstance(owner, type) else getattr(owner, attribute)
    if isinstance(current, classmethod):
        setattr(owner, attribute, classmethod(make(current.__func__)))
    else:
        setattr(owner, attribute, make(current))


def _run_counts(args, result) -> Dict[str, float]:
    metrics = result.metrics
    return {
        "runs": 1,
        "rounds": metrics.rounds,
        "messages": metrics.messages,
        "bits": metrics.total_bits,
        "size_cache_hits": metrics.size_cache_hits,
        "size_cache_misses": metrics.size_cache_misses,
        "dropped_messages": metrics.dropped_messages,
        "delayed_messages": metrics.delayed_messages,
    }


def _optimization_counts(args, result) -> Dict[str, float]:
    return {
        "evaluation_calls": result.counts.evaluation_calls,
        "distinct_evaluations": result.distinct_evaluations,
    }


def _append_bytes(function: Callable) -> Callable:
    """``ExperimentStore.append_record`` counting the bytes it adds."""

    @functools.wraps(function)
    def wrapper(self, *args, **kwargs):
        before = os.path.getsize(self.path) if os.path.exists(self.path) else 0
        frame = TRACER.enter("store.append")
        try:
            return function(self, *args, **kwargs)
        finally:
            TRACER.count(frame, appends=1,
                         bytes=os.path.getsize(self.path) - before)
            TRACER.exit(frame)

    return wrapper


def _cell_key(args) -> Optional[str]:
    from repro.analysis.sweep import sweep_task_key
    from repro.faults import get_default_fault_model

    (_, base_seed), (spec, name) = args
    return sweep_task_key(spec, name, base_seed, get_default_fault_model())


def install(tracer: Tracer) -> None:
    """Install ``tracer`` and wrap every traced ``repro`` entry point.

    Wrappers are installed once per process; a forked child inherits
    them together with the tracer, which notices the new pid itself.
    """
    global TRACER
    if TRACER is not None:
        raise RuntimeError("span tracing is already installed in this process")
    TRACER = tracer

    import repro.analysis.sweep as sweep
    import repro.core.approx_diameter as approx_diameter
    import repro.core.exact_diameter as exact_diameter
    import repro.core.radius as radius
    import repro.core.source_ecc as source_ecc
    import repro.qcongest as qcongest
    import repro.qcongest.framework as framework
    import repro.runner.algorithms as algorithms
    import repro.store.export as export
    import repro.store.merge as merge
    from repro.congest.network import Network
    from repro.dispatch.backend import RemoteDispatch
    from repro.dispatch.coordinator import DispatchCoordinator
    from repro.engine.transport import Transport
    from repro.graphs.graph import Graph
    from repro.graphs.indexed import IndexedGraph
    from repro.quantum.backend import BatchedScheduleBackend, SamplingScheduleBackend
    from repro.runner.batch import BatchRunner
    from repro.runner.spec import GraphSpec
    from repro.store.jsonl import ExperimentStore

    # engine / congest
    _patch(Network, "run", lambda f: _full("engine.run", f, _run_counts))
    _patch(Network, "__init__", lambda f: _full("congest.network_init", f))
    for method in ("deliver", "deliver_faulty", "measure"):
        _patch(Transport, method,
               lambda f, m=method: _hot(f"transport.{m}", f))
    # quantum / qcongest
    for backend in (SamplingScheduleBackend, BatchedScheduleBackend):
        _patch(backend, "run_maximum_finding",
               lambda f: _full("quantum.schedule", f))
    # Callers imported the function by name, so every namespace is patched.
    optimization = _full("qcongest.optimization",
                         framework.run_distributed_quantum_optimization,
                         _optimization_counts)
    for module in (framework, qcongest, exact_diameter, approx_diameter,
                   radius, source_ecc):
        module.run_distributed_quantum_optimization = optimization
    # graphs
    _patch(GraphSpec, "build", lambda f: _full("graphs.build", f))
    _patch(Graph, "compile", lambda f: _hot("graphs.compile", f))
    _patch(IndexedGraph, "from_graph", lambda f: _full("graphs.from_graph", f))
    for owner in (Graph, IndexedGraph):
        for method in ("diameter", "all_eccentricities", "eccentricity", "radius"):
            _patch(owner, method, lambda f: _full("graphs.oracle", f))
    # algorithms: the sweep kernels behind the registry names
    for name, info in list(algorithms.SWEEP_ALGORITHMS.items()):
        algorithms.SWEEP_ALGORITHMS[name] = dataclasses.replace(
            info, kernel=_full("algorithms.kernel", info.kernel))
    # runner
    _patch(BatchRunner, "imap", lambda f: _blocking_iter("runner.wait", f))
    _patch(BatchRunner, "map", lambda f: _full(
        "runner.map", f, lambda args, result: {"items": len(result)}))
    # analysis
    _patch(sweep, "run_sweep_grid", lambda f: _full("sweep.grid", f))
    _patch(sweep, "_sweep_one_grid_cell",
           lambda f: _full("sweep.cell", f, key_of=_cell_key))
    # store
    _patch(ExperimentStore, "append_record", _append_bytes)
    for method in ("begin_sweep", "completed", "load_records"):
        _patch(ExperimentStore, method, lambda f: _full("store.scan", f))
    _patch(export, "render_records", lambda f: _full(
        "store.export", f, lambda args, result: {"bytes": len(result.encode("utf-8"))}))
    _patch(merge, "merge_shards", lambda f: _full("store.merge", f))
    # dispatch
    _patch(RemoteDispatch, "imap", lambda f: _blocking_iter("dispatch.stream", f))
    _patch(DispatchCoordinator, "stop", lambda f: _full("dispatch.stop", f))


def load_spans(sink_dir: str) -> List[Dict[str, Any]]:
    """Every span record written to ``sink_dir``."""
    spans: List[Dict[str, Any]] = []
    for name in sorted(os.listdir(sink_dir)):
        if name.startswith("spans-") and name.endswith(".jsonl"):
            with open(os.path.join(sink_dir, name), encoding="utf-8") as handle:
                spans.extend(json.loads(line) for line in handle if line.strip())
    return spans
