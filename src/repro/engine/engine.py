"""The execution engine: scheduler + transport + metrics pipeline.

:class:`ExecutionEngine` is the round loop that used to live inline in
``Network.run``, decomposed into three composable components:

* a :class:`repro.engine.scheduler.Scheduler` decides *which* nodes run in
  each round (sparse, the default = only nodes with messages or
  self-wakes; dense = all, kept as the differential reference);
* a :class:`repro.engine.transport.Transport` moves messages -- neighbour
  validation, memoised size measurement (once per shared broadcast
  payload), bandwidth policy, delivery -- and adds each outbox's totals
  to the run's metrics.  One case skips it: in a run without a fault
  plan and without a per-message hook, the round loop delivers each
  :class:`repro.congest.node.BroadcastOutbox` itself (one neighbour
  check, one ``Transport.measure``, the same strict-bandwidth error) and
  adds the round's broadcast totals to the metrics once, before
  ``on_round_end``; :meth:`Transport.deliver` serves every other outbox;
* a :class:`repro.engine.observers.MetricsPipeline` holds the run's
  observers; only those that override a per-event hook are called per
  event (core accounting is batched, see :mod:`repro.engine.observers`).

``Network`` keeps its public ``run`` signature and delegates here; both
schedulers and both kinds of run share one round loop.  A network built
with a non-null :class:`repro.faults.FaultModel` resolves it into a
:class:`repro.faults.FaultPlan` that the loop and the transport consult
for message loss/delay, fail-pause crash/restart and per-round edge
churn; under the null model the plan is ``None`` and every fault branch
is skipped, which keeps it byte-identical to the pre-fault engine.

Internally the engine represents inboxes *sparsely*: the inbox mapping of a
round contains exactly the nodes that received at least one message, so the
per-round cost is O(active + messages) rather than O(n) under the sparse
scheduler.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional, Sequence

from repro.congest.errors import RoundLimitExceededError
from repro.congest.node import BroadcastOutbox, Inbox, NodeAlgorithm
from repro.engine.observers import (
    CoreMetricsObserver,
    FaultObserver,
    MetricsObserver,
    MetricsPipeline,
    TrafficLogObserver,
)
from repro.engine.scheduler import (
    Scheduler,
    make_scheduler,
    validate_engine_name,
)
from repro.engine.transport import (
    _NO_NEIGHBORS,
    Transport,
    _account,
    _over_budget,
)
from repro.graphs.graph import NodeId

def get_default_engine() -> str:
    """The engine of the current :class:`repro.config.ExecutionConfig`."""
    # Local import: repro.config imports this package for validation.
    from repro.config import current_config

    return current_config().engine


def resolve_engine_name(name: Optional[str]) -> str:
    """Map ``None`` to the configured engine and validate the name."""
    if name is None:
        return get_default_engine()
    return validate_engine_name(name)


class ExecutionEngine:
    """Drives per-node state machines in synchronous rounds.

    Parameters
    ----------
    network:
        The owning :class:`repro.congest.network.Network` (supplies the
        topology, bandwidth configuration and per-node RNGs to factories).
    scheduler:
        The scheduling policy.
    transport:
        Message delivery; built from the network's configuration when not
        given.  The transport's payload-size memo cache persists across the
        runs of one network.
    observers:
        Persistent extra observers notified on every run of this engine
        (in addition to the per-run core accounting / traffic observers).
    """

    def __init__(
        self,
        network: Any,
        scheduler: Scheduler,
        transport: Optional[Transport] = None,
        observers: Sequence[MetricsObserver] = (),
    ) -> None:
        self.network = network
        self.scheduler = scheduler
        if transport is None:
            transport = Transport(
                network.graph, network.bandwidth_bits, network.strict_bandwidth
            )
        self.transport = transport
        self.observers: list = list(observers)
        self._run_depth = 0
        # Per-engine counter of runs with a fault plan: each run of a faulty
        # network salts its fault stream with this index, so multi-phase
        # algorithms (one ``run`` per phase) draw fresh, reproducible
        # fault patterns per phase instead of replaying round-0 fates.
        self._fault_runs = 0

    @property
    def name(self) -> str:
        """The registry name of the scheduling policy."""
        return self.scheduler.name

    # ------------------------------------------------------------------
    def run(
        self,
        factory: Callable[[NodeId, Any], NodeAlgorithm],
        max_rounds: Optional[int] = None,
        exact_rounds: Optional[int] = None,
        record_traffic: bool = False,
    ):
        """Run one distributed algorithm to completion.

        Semantics match the seed ``Network.run`` exactly under the dense
        scheduler; see :meth:`repro.congest.network.Network.run` for the
        parameter documentation.  Re-entrant: a nested ``run`` on the same
        network (e.g. a factory or callback simulating a sub-protocol) gets
        its own scheduler instance so the outer run's state survives.
        """
        from repro.congest.network import ExecutionResult

        network = self.network
        if max_rounds is None:
            max_rounds = network.default_max_rounds()

        algorithms: Dict[NodeId, NodeAlgorithm] = {
            node: factory(node, network) for node in network.graph.nodes()
        }

        if self._run_depth == 0:
            scheduler = self.scheduler
        else:
            scheduler = make_scheduler(self.scheduler.name)
        # A null fault model resolves no plan: the loop then skips every
        # fault branch, which is what keeps it byte-identical to the
        # fault-free simulator (values, metrics, traffic logs, error
        # messages) and leaves the fault-run counter untouched.
        fault_model = getattr(network, "fault_model", None)
        if fault_model is not None and fault_model.is_null:
            fault_model = None
        run_index = 0
        if fault_model is not None:
            run_index = self._fault_runs
            self._fault_runs += 1
        self._run_depth += 1
        try:
            return self._run_loop(
                network, algorithms, scheduler, ExecutionResult,
                max_rounds, exact_rounds, record_traffic,
                fault_model, run_index,
            )
        finally:
            self._run_depth -= 1

    def _begin_run(self, network, record_traffic: bool, faulty: bool = False):
        """The run's observer pipeline, traffic observer and compiled
        topology, with the transport rebound to the network's current
        configuration."""
        core = CoreMetricsObserver(bandwidth_limit_bits=network.bandwidth_bits)
        observers: list = [core]
        if faulty:
            observers.append(FaultObserver(core.metrics))
        traffic_observer = TrafficLogObserver() if record_traffic else None
        if traffic_observer is not None:
            observers.append(traffic_observer)
        if self._run_depth == 1:
            # Persistent observers see only top-level runs: interleaving a
            # nested run's events would corrupt cross-run accounting such as
            # the stitched traffic transcript's sequential round re-basing.
            observers.extend(self.observers)

        # The bandwidth policy is re-read from the network on every run so
        # that post-construction mutations of ``bandwidth_bits`` /
        # ``strict_bandwidth`` are honoured, as in the pre-engine simulator.
        # The topology is re-compiled the same way: ``compile()`` returns
        # the cached CSR view unless the graph was mutated since the last
        # run, in which case transport and scheduler rebind fresh state.
        transport = self.transport
        transport.bandwidth_bits = network.bandwidth_bits
        transport.strict_bandwidth = network.strict_bandwidth
        indexed = network.graph.compile()
        transport.bind_topology(indexed)
        return MetricsPipeline(observers), traffic_observer, indexed

    @staticmethod
    def _initial_state(algorithms, scheduler: Scheduler):
        """Per-node finished flags and the unfinished count at round 0.

        Also registers the wakes requested during construction (e.g. a
        wave source that knows its start round up-front).
        """
        finished_state: Dict[NodeId, bool] = {}
        unfinished = 0
        for node, algorithm in algorithms.items():
            finished = algorithm.finished
            finished_state[node] = finished
            if not finished:
                unfinished += 1
            requests = algorithm.consume_wake_requests()
            if scheduler.uses_wakes and requests:
                for request in requests:
                    scheduler.request_wake(
                        node, 0 if request is None else max(0, request)
                    )
        return finished_state, unfinished

    def _finish_run(
        self, pipeline, traffic_observer, algorithms, result_type,
        rounds: int, peak_memory: int, misses_before: int,
        overflows_before: int,
    ):
        """Stamp the run's metrics, notify observers, build the result."""
        transport = self.transport
        metrics = pipeline.metrics
        metrics.rounds = rounds
        if peak_memory > metrics.max_node_memory_bits:
            metrics.max_node_memory_bits = peak_memory
        # A message either performed one measurement or repeated the
        # previous payload of its outbox, so the cache hits of this run are
        # the messages that were not misses (clamped: a nested run's misses
        # land in this delta while its messages do not).
        misses = transport.cache_misses - misses_before
        metrics.size_cache_misses = misses
        metrics.size_cache_hits = max(0, metrics.messages - misses)
        metrics.size_cache_overflows = transport.cache_overflows - overflows_before
        pipeline.on_run_end(metrics)
        results = {node: algorithm.result() for node, algorithm in algorithms.items()}
        return result_type(
            results=results,
            metrics=metrics,
            traffic=traffic_observer.traffic if traffic_observer is not None else None,
        )

    def _run_loop(
        self,
        network,
        algorithms: Dict[NodeId, NodeAlgorithm],
        scheduler: Scheduler,
        result_type,
        max_rounds: int,
        exact_rounds: Optional[int],
        record_traffic: bool,
        fault_model=None,
        run_index: int = 0,
    ):
        """The round loop of every run (any scheduler, any fault model).

        ``fault_model`` is ``None`` for a fault-free run; otherwise it is
        resolved into a :class:`repro.faults.FaultPlan` (salted with
        ``run_index``) that threads four additions through the loop:

        * the plan decides message fates inside
          :meth:`repro.engine.transport.Transport.deliver` (drop / delay /
          on-time) and which nodes are down;
        * delayed messages live in ``pending`` keyed by absolute arrival
          round and are merged into the inboxes of that round (a normal
          message from the same sender wins -- it is newer); in-flight
          deliveries keep the run alive in every termination check, which
          is how the sparse scheduler's wake logic accounts for them;
        * crashed nodes are filtered out of the active set (fail-pause:
          their state is kept) and restarts are pre-registered as
          scheduler wakes so the sparse policy re-runs a restarted node;
        * a :class:`repro.engine.observers.FaultObserver` accounts
          degradation events into the run's metrics, and the model's
          ``timeout`` tightens ``max_rounds`` so stuck runs fail fast.

        Under a plan, a run that can never progress again -- unfinished
        nodes, nothing in flight, no wake scheduled, no restart ahead --
        fails with the round-limit error it would reach by spinning to
        ``max_rounds``.  The sparse engine raises it at once; the dense
        engine, which does not track wakes, spins there (an
        idle-quiescent node sends nothing meanwhile), so both report the
        same error.  All fault decisions are stateless hashes of their
        coordinates (see :mod:`repro.faults`), so both engines produce
        identical faulty executions.
        """
        pipeline, traffic_observer, indexed = self._begin_run(
            network, record_traffic, faulty=fault_model is not None
        )
        metrics = pipeline.metrics
        transport = self.transport
        misses_before = transport.cache_misses
        overflows_before = transport.cache_overflows

        scheduler.begin_run(algorithms, indexed)
        uses_wakes = scheduler.uses_wakes
        finished_state, unfinished = self._initial_state(algorithms, scheduler)

        plan = None
        has_crashes = False
        if fault_model is not None:
            plan = fault_model.resolve(network._seed, indexed, run_index)
            if fault_model.timeout is not None:
                max_rounds = min(max_rounds, fault_model.timeout)
            # Crash/restart event schedules, inverted to round -> nodes in
            # the deterministic CSR label order the plan was built in.
            crash_events: Dict[int, list] = {}
            for node, at in plan.crash_round.items():
                crash_events.setdefault(at, []).append(node)
            restart_events: Dict[int, list] = {}
            for node, at in plan.restart_round.items():
                restart_events.setdefault(at, []).append(node)
            has_crashes = bool(plan.crash_round)
            has_churn = fault_model.churn > 0.0
            node_down = plan.node_down
            if uses_wakes:
                # Restarted nodes must run at their restart round even
                # with an empty inbox; registering the wakes up-front also
                # keeps ``has_scheduled_wakes`` true through the outage, so
                # the sparse termination logic cannot declare quiescence
                # while a restart is still ahead.
                for node, at in plan.restart_round.items():
                    scheduler.request_wake(node, at)

        pipeline.on_run_start(network)

        # Hot-loop bindings: the attribute lookups below run O(active)
        # times per round, so they are hoisted out of the loop.  Consumed
        # inbox dicts are recycled through ``inbox_pool`` instead of being
        # reallocated every round; an inbox is therefore only valid for the
        # duration of the ``on_round`` call it is passed to (see
        # :class:`repro.congest.node.NodeAlgorithm`).  Memory samples feed
        # a local high-water mark; only observers that override
        # ``on_memory_sample`` see them one by one (``memory_hook``).
        deliver = transport.deliver
        # Without a fault plan and a per-message hook, broadcasts are
        # delivered right here (see the loop body) and their totals are
        # added to the metrics once per round.
        inline = plan is None and pipeline.message_hook is None
        measure = transport.measure
        neighbor_sets_get = transport._neighbor_sets.get
        budget = transport.bandwidth_bits
        strict = transport.strict_bandwidth
        memory_hook = pipeline.memory_hook
        on_round_end = pipeline.on_round_end
        active_nodes = scheduler.active_nodes
        request_wake = scheduler.request_wake
        has_scheduled_wakes = scheduler.has_scheduled_wakes
        inbox_pool: list = []
        peak_memory = 0
        # Full-round fast path: when the scheduler hands back its
        # every-node sequence (identity check), iterate the prezipped
        # (node, algorithm) pairs instead of one dict lookup per node --
        # this removes O(n) hash probes per dense round.
        full_sequence = scheduler.all_nodes()
        algorithm_pairs = list(algorithms.items())

        #: In-flight delayed messages: arrival round -> [(sender, target,
        #: payload)] in delivery order.  Stays empty without a plan.
        pending: Dict[int, list] = {}

        inboxes: Dict[NodeId, Inbox] = {}
        round_number = 0
        while True:
            # Delayed deliveries scheduled for this round re-enter the
            # inboxes before any termination check or scheduling decision.
            # ``setdefault``: an on-time message from the same sender was
            # sent later and wins over a delayed (older) one; among
            # delayed messages the earliest-sent wins.
            if pending:
                for sender, target, payload in pending.pop(round_number, ()):
                    inbox = inboxes.get(target)
                    if inbox is None:
                        inbox = inbox_pool.pop() if inbox_pool else {}
                        inboxes[target] = inbox
                    inbox.setdefault(sender, payload)

            if exact_rounds is not None and round_number >= exact_rounds:
                break
            if exact_rounds is None and round_number > 0:
                if not inboxes and not has_scheduled_wakes() and not pending:
                    if unfinished == 0:
                        break
                    if plan is None:
                        scheduler.check_quiescent(round_number, unfinished)
                    elif uses_wakes and not plan.restarts_pending(round_number):
                        raise RoundLimitExceededError.for_run(
                            max_rounds, max_rounds, metrics.messages
                        )
            if round_number >= max_rounds:
                raise RoundLimitExceededError.for_run(
                    max_rounds, round_number, metrics.messages
                )

            if plan is not None:
                for node in crash_events.pop(round_number, ()):
                    pipeline.on_node_crashed(round_number, node)
                for node in restart_events.pop(round_number, ()):
                    pipeline.on_node_restarted(round_number, node)
                if has_churn:
                    for u, v in plan.churned_edges(round_number):
                        pipeline.on_edge_churned(round_number, u, v)

            active = active_nodes(round_number, inboxes)
            # Down nodes neither run nor drain their wakes (fail-pause);
            # their inboxes are already empty -- the transport drops
            # messages whose receiver is down at arrival.
            if has_crashes:
                items = [
                    (node, algorithms[node])
                    for node in active
                    if not node_down(round_number, node)
                ]
            elif active is full_sequence:
                items = algorithm_pairs
            else:
                items = [(node, algorithms[node]) for node in active]

            next_inboxes: Dict[NodeId, Inbox] = {}
            next_inboxes_get = next_inboxes.get
            any_message = False
            inboxes_get = inboxes.get
            messages = bits = largest = violations = 0
            for node, algorithm in items:
                inbox = inboxes_get(node)
                if inbox is None:
                    inbox = inbox_pool.pop() if inbox_pool else {}
                outbox = algorithm.on_round(round_number, inbox)
                # A broadcast outbox is never empty; the class check spares
                # its Python-level ``__len__`` in the truth test.
                if outbox.__class__ is BroadcastOutbox:
                    any_message = True
                    targets = outbox.targets
                    # One C-level pass validates every target; on failure
                    # ``deliver`` raises for the first bad one.
                    if inline and neighbor_sets_get(node, _NO_NEIGHBORS).issuperset(
                        targets
                    ):
                        payload = outbox.payload
                        size = measure(payload)
                        count = len(targets)
                        if size > budget:
                            if strict:
                                raise _over_budget(
                                    round_number, node, targets[0], size, budget
                                )
                            violations += count
                        if size > largest:
                            largest = size
                        messages += count
                        bits += size * count
                        for target in targets:
                            target_inbox = next_inboxes_get(target)
                            if target_inbox is None:
                                target_inbox = inbox_pool.pop() if inbox_pool else {}
                                next_inboxes[target] = target_inbox
                            target_inbox[node] = payload
                    else:
                        deliver(
                            round_number, node, outbox, next_inboxes, pipeline,
                            inbox_pool, plan, pending,
                        )
                elif outbox:
                    any_message = True
                    deliver(
                        round_number, node, outbox, next_inboxes, pipeline,
                        inbox_pool, plan, pending,
                    )
                # Recycle the consumed inbox (after delivery, in case the
                # algorithm returned its inbox as the outbox).  Contract
                # (see NodeAlgorithm.on_round): the inbox is engine-owned
                # and must not be retained or sent as a payload.
                if inbox:
                    inbox.clear()
                inbox_pool.append(inbox)
                memory = algorithm.memory_bits()
                if memory is not None:
                    if memory > peak_memory:
                        peak_memory = memory
                    if memory_hook is not None:
                        memory_hook(node, memory)
                finished = algorithm.finished
                if finished != finished_state[node]:
                    finished_state[node] = finished
                    unfinished += -1 if finished else 1
                # Drain wake requests on every engine so they cannot pile up
                # across the run; only wake-aware schedulers act on them.
                if algorithm._wake_requests:
                    requests = algorithm.consume_wake_requests()
                    if uses_wakes:
                        for request in requests:
                            request_wake(
                                node,
                                round_number + 1
                                if request is None
                                else max(request, round_number + 1),
                            )
            if messages:
                _account(metrics, messages, bits, largest, violations)
            on_round_end(round_number)

            round_number += 1
            inboxes = next_inboxes

            if exact_rounds is None and not any_message:
                if unfinished == 0 and not has_scheduled_wakes() and not pending:
                    break

        return self._finish_run(
            pipeline, traffic_observer, algorithms, result_type,
            round_number, peak_memory, misses_before, overflows_before,
        )


def build_engine(
    name: Optional[str],
    network: Any,
    observers: Sequence[MetricsObserver] = (),
) -> ExecutionEngine:
    """Build the engine registered under ``name`` for ``network``.

    ``name=None`` uses the engine of the current
    :class:`repro.config.ExecutionConfig`.
    """
    resolved = resolve_engine_name(name)
    return ExecutionEngine(network, make_scheduler(resolved), observers=observers)
