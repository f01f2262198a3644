"""Pluggable metrics pipeline: observers of a CONGEST execution.

The execution engine (:mod:`repro.engine.engine`) does not hard-code its
reporting: measurable events -- a message crossing an edge, a memory
sample, the end of a round or of a whole run -- reach a list of
:class:`MetricsObserver` instances.  The core accounting (rounds,
messages, bits, bandwidth violations, per-node memory) lives in
:class:`CoreMetricsObserver`; the per-message traffic log that the
Theorem-10 two-party reduction consumes lives in
:class:`TrafficLogObserver` and :class:`StitchedTrafficObserver`.

Accounting is batched.  A :class:`MetricsPipeline` finds the run's core
observer when it is built: the transport adds each outbox's messages and
bits straight into the core observer's metrics, and the round loop keeps
the memory high-water mark itself.  The per-event hooks ``on_message``
and ``on_memory_sample`` are called only on the observers that override
them (traffic logs, user observers), so an un-instrumented run pays for
no per-message fan-out at all.

Observers are cheap to compose and are the seam where future concerns plug
in (per-edge congestion heat maps, latency histograms, live dashboards, ...)
without touching the engine's hot loop.
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence, Tuple

from repro.congest.metrics import ExecutionMetrics
from repro.graphs.graph import NodeId

#: One traffic-log entry: ``(round, sender, receiver, bits)``.
TrafficEntry = Tuple[int, NodeId, NodeId, int]


class MetricsObserver:
    """Base class for execution observers.

    All hooks default to no-ops so observers only override what they need.
    Hooks are called from the engine's hot loop; implementations should be
    O(1) per event.
    """

    def on_run_start(self, network: Any) -> None:
        """Called once before round 0 of a run."""

    def on_message(
        self,
        round_number: int,
        sender: NodeId,
        receiver: NodeId,
        payload: Any,
        size_bits: int,
        violation: bool,
    ) -> None:
        """Called for every message accepted by the transport.

        ``violation`` is true when ``size_bits`` exceeds the bandwidth
        budget (in strict mode the transport raises immediately after the
        observers have seen the message).
        """

    def on_memory_sample(self, node: NodeId, memory_bits: int) -> None:
        """Called with each non-``None`` ``memory_bits()`` sample."""

    def on_round_end(self, round_number: int) -> None:
        """Called after all nodes scheduled in ``round_number`` have run."""

    def on_run_end(self, metrics: ExecutionMetrics) -> None:
        """Called once when a run completes normally (not on error)."""

    # -- fault-layer events (only emitted by runs with a fault plan) ----
    def on_message_dropped(
        self, round_number: int, sender: NodeId, receiver: NodeId, reason: str
    ) -> None:
        """A sent message was discarded by the fault plan.

        ``reason`` is ``"loss"`` (random message loss), ``"churn"`` (the
        edge was down this round) or ``"crash"`` (the receiver is down at
        the arrival round).  The message was still *sent* -- it consumed
        bandwidth and was reported through :meth:`on_message` first.
        """

    def on_message_delayed(
        self,
        round_number: int,
        sender: NodeId,
        receiver: NodeId,
        arrival_round: int,
    ) -> None:
        """A sent message was delayed to arrive at ``arrival_round``
        (instead of ``round_number + 1``)."""

    def on_node_crashed(self, round_number: int, node: NodeId) -> None:
        """``node`` crashed at the top of ``round_number`` (fail-pause)."""

    def on_node_restarted(self, round_number: int, node: NodeId) -> None:
        """``node`` restarted at the top of ``round_number`` with its
        pre-crash state intact."""

    def on_edge_churned(
        self, round_number: int, u: NodeId, v: NodeId
    ) -> None:
        """The edge ``{u, v}`` is down for the duration of ``round_number``."""


def _overrides(observer: Any, hook: str) -> bool:
    """Whether ``observer`` implements ``hook`` beyond the base no-op."""
    return hook in getattr(observer, "__dict__", ()) or getattr(
        type(observer), hook, None
    ) is not getattr(MetricsObserver, hook)


def _fan_out(observers: Sequence[Any], hook: str):
    """One callable for ``hook`` on ``observers``: ``None`` for none, the
    bound method for one, otherwise a loop calling each in order."""
    methods = [getattr(observer, hook) for observer in observers]
    if not methods:
        return None
    if len(methods) == 1:
        return methods[0]

    def fan_out(*args) -> None:
        for method in methods:
            method(*args)

    return fan_out


class MetricsPipeline:
    """An ordered fan-out of observers with batched core accounting.

    The engine drives a pipeline per run.  At construction the pipeline
    finds the run's :class:`CoreMetricsObserver` (an instance of exactly
    that class) and exposes its ``metrics``: the transport and the round
    loop add to them directly, per outbox and per run, instead of calling
    the core observer per event.  ``message_hook`` and ``memory_hook`` are
    the per-event fan-outs over the *other* observers that override
    ``on_message`` / ``on_memory_sample`` -- ``None`` when there are none,
    which is the un-instrumented common case.

    The ``on_*`` methods are the plain per-event fan-out to every
    observer, the core observer included.
    """

    __slots__ = ("observers", "metrics", "message_hook", "memory_hook")

    def __init__(self, observers) -> None:
        self.observers: List[MetricsObserver] = list(observers)
        core = next(
            (o for o in self.observers if type(o) is CoreMetricsObserver), None
        )
        self.metrics: Optional[ExecutionMetrics] = (
            None if core is None else core.metrics
        )
        others = [o for o in self.observers if o is not core]
        self.message_hook = _fan_out(
            [o for o in others if _overrides(o, "on_message")], "on_message"
        )
        self.memory_hook = _fan_out(
            [o for o in others if _overrides(o, "on_memory_sample")],
            "on_memory_sample",
        )

    def on_run_start(self, network: Any) -> None:
        for observer in self.observers:
            observer.on_run_start(network)

    def on_message(
        self,
        round_number: int,
        sender: NodeId,
        receiver: NodeId,
        payload: Any,
        size_bits: int,
        violation: bool,
    ) -> None:
        for observer in self.observers:
            observer.on_message(
                round_number, sender, receiver, payload, size_bits, violation
            )

    def on_round_end(self, round_number: int) -> None:
        for observer in self.observers:
            observer.on_round_end(round_number)

    def on_run_end(self, metrics: ExecutionMetrics) -> None:
        for observer in self.observers:
            observer.on_run_end(metrics)

    def on_message_dropped(
        self, round_number: int, sender: NodeId, receiver: NodeId, reason: str
    ) -> None:
        for observer in self.observers:
            observer.on_message_dropped(round_number, sender, receiver, reason)

    def on_message_delayed(
        self,
        round_number: int,
        sender: NodeId,
        receiver: NodeId,
        arrival_round: int,
    ) -> None:
        for observer in self.observers:
            observer.on_message_delayed(
                round_number, sender, receiver, arrival_round
            )

    def on_node_crashed(self, round_number: int, node: NodeId) -> None:
        for observer in self.observers:
            observer.on_node_crashed(round_number, node)

    def on_node_restarted(self, round_number: int, node: NodeId) -> None:
        for observer in self.observers:
            observer.on_node_restarted(round_number, node)

    def on_edge_churned(self, round_number: int, u: NodeId, v: NodeId) -> None:
        for observer in self.observers:
            observer.on_edge_churned(round_number, u, v)


class CoreMetricsObserver(MetricsObserver):
    """The accounting the seed simulator performed inline.

    Collects messages, total bits, the largest single-edge-per-round
    message, bandwidth violations and the per-node memory high-water mark
    into an :class:`repro.congest.metrics.ExecutionMetrics`.  The engine
    stamps ``metrics.rounds`` itself when the run terminates.  Inside the
    engine the pipeline adds to ``metrics`` in batches and never calls
    the hooks below; they serve pipelines driven one event at a time.
    """

    def __init__(self, bandwidth_limit_bits: Optional[int]) -> None:
        self.metrics = ExecutionMetrics(bandwidth_limit_bits=bandwidth_limit_bits)

    def on_message(
        self, round_number, sender, receiver, payload, size_bits, violation
    ) -> None:
        metrics = self.metrics
        metrics.messages += 1
        metrics.total_bits += size_bits
        if size_bits > metrics.max_edge_bits_per_round:
            metrics.max_edge_bits_per_round = size_bits
        if violation:
            metrics.bandwidth_violations += 1

    def on_memory_sample(self, node, memory_bits) -> None:
        if memory_bits > self.metrics.max_node_memory_bits:
            self.metrics.max_node_memory_bits = memory_bits


class FaultObserver(MetricsObserver):
    """Account fault-layer events into an :class:`ExecutionMetrics`.

    Attached by the engine to every run with a fault plan, next to the
    :class:`CoreMetricsObserver` (sharing its metrics object), so faulty
    runs report their degradation -- dropped/delayed messages, crash and
    restart events, churned (edge, round) pairs -- alongside the ordinary
    cost counters.  Never attached under the null fault model.
    """

    def __init__(self, metrics: ExecutionMetrics) -> None:
        self.metrics = metrics

    def on_message_dropped(
        self, round_number, sender, receiver, reason
    ) -> None:
        self.metrics.dropped_messages += 1

    def on_message_delayed(
        self, round_number, sender, receiver, arrival_round
    ) -> None:
        self.metrics.delayed_messages += 1

    def on_node_crashed(self, round_number, node) -> None:
        self.metrics.node_crashes += 1

    def on_node_restarted(self, round_number, node) -> None:
        self.metrics.node_restarts += 1

    def on_edge_churned(self, round_number, u, v) -> None:
        self.metrics.churned_edge_rounds += 1


class TrafficLogObserver(MetricsObserver):
    """Record every message of one run as ``(round, sender, receiver, bits)``.

    This implements ``Network.run(record_traffic=True)``: the Theorem-10
    reduction uses the log to measure how many bits cross the cut of a
    gadget graph in each round.
    """

    def __init__(self) -> None:
        self.traffic: List[TrafficEntry] = []

    def on_message(
        self, round_number, sender, receiver, payload, size_bits, violation
    ) -> None:
        self.traffic.append((round_number, sender, receiver, size_bits))


class StitchedTrafficObserver(MetricsObserver):
    """Record traffic across *several* runs with sequential round numbering.

    Multi-phase algorithms (leader election, then BFS, then convergecast,
    ...) issue one ``Network.run`` per phase, each restarting its round
    counter at 0.  Attached as a persistent network observer, this re-bases
    every phase so that phase ``i`` starts right after the last round of
    phase ``i - 1`` in which a message was sent -- exactly the flattening the
    two-party reduction of Theorem 10 needs to reconstruct a single
    transcript from a composed algorithm.
    """

    def __init__(self) -> None:
        self.traffic: List[TrafficEntry] = []
        self._offset = 0
        self._phase_last_round = -1

    def on_run_start(self, network) -> None:
        self._phase_last_round = -1

    def on_message(
        self, round_number, sender, receiver, payload, size_bits, violation
    ) -> None:
        self.traffic.append(
            (self._offset + round_number, sender, receiver, size_bits)
        )
        if round_number > self._phase_last_round:
            self._phase_last_round = round_number

    def on_run_end(self, metrics) -> None:
        self._offset += self._phase_last_round + 1
        self._phase_last_round = -1


class RunLogObserver(MetricsObserver):
    """Count how many simulator runs (and rounds) actually executed.

    The quantum framework (:mod:`repro.qcongest.framework`) distinguishes
    *modelled* rounds (Theorem 7's ``T0 + #calls * T`` accounting) from the
    CONGEST executions it really simulated; attaching this observer for the
    duration of an optimization reports the latter.
    """

    def __init__(self) -> None:
        self.runs = 0
        self.rounds = 0
        self.messages = 0

    def on_run_end(self, metrics) -> None:
        self.runs += 1
        self.rounds += metrics.rounds
        self.messages += metrics.messages
