"""Pluggable execution engines for the CONGEST simulator.

The simulation core is decomposed into three composable components, wired
together by :class:`repro.engine.engine.ExecutionEngine`:

* **Scheduler** (:mod:`repro.engine.scheduler`) -- which nodes run in each
  round.  ``SparseScheduler`` (the default) is event-driven and skips idle
  nodes entirely, which turns Theta(n * rounds) scheduling work into
  Theta(activations) for the BFS-wave algorithms at the heart of the
  paper; ``DenseScheduler`` reproduces the seed behaviour bit-for-bit and
  is the differential reference.
* **Transport** (:mod:`repro.engine.transport`) -- message validation,
  memoised size measurement, the bandwidth policy and per-outbox
  accounting.
* **MetricsPipeline** (:mod:`repro.engine.observers`) -- pluggable
  observers replacing the inlined accounting and traffic-log code.

``repro.congest.network.Network`` remains the public facade: it builds an
engine at construction (``Network(graph, engine="sparse")``) and delegates
``run`` to it.  ``engine=None`` selects the engine of the current
:class:`repro.config.ExecutionConfig` (set with :func:`repro.config.use_config`).
"""

from repro.engine.engine import (
    ExecutionEngine,
    build_engine,
    get_default_engine,
    resolve_engine_name,
)
from repro.engine.observers import (
    CoreMetricsObserver,
    FaultObserver,
    MetricsObserver,
    MetricsPipeline,
    RunLogObserver,
    StitchedTrafficObserver,
    TrafficLogObserver,
)
from repro.engine.scheduler import (
    SCHEDULERS,
    DenseScheduler,
    Scheduler,
    SparseScheduler,
    make_scheduler,
)
from repro.engine.transport import Transport

ENGINE_NAMES = tuple(sorted(SCHEDULERS))

__all__ = [
    "ExecutionEngine",
    "build_engine",
    "get_default_engine",
    "resolve_engine_name",
    "ENGINE_NAMES",
    "Scheduler",
    "DenseScheduler",
    "SparseScheduler",
    "SCHEDULERS",
    "make_scheduler",
    "Transport",
    "MetricsObserver",
    "MetricsPipeline",
    "CoreMetricsObserver",
    "FaultObserver",
    "TrafficLogObserver",
    "StitchedTrafficObserver",
    "RunLogObserver",
]
