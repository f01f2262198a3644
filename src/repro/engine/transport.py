"""Message transport: delivery, size measurement and bandwidth policy.

The transport owns everything that happens to a message between a node's
outbox and its neighbour's next-round inbox:

* the CONGEST contract check (only neighbours may be addressed, enforced
  with :class:`repro.congest.errors.ProtocolError`) -- the per-node
  neighbour frozensets are prebound from the graph's compiled CSR view
  (:meth:`repro.graphs.indexed.IndexedGraph.neighbor_sets`), so the hot
  loop performs one frozenset-membership test per message instead of a
  ``has_edge`` call.  The engine refreshes the binding at the start of
  every run via :meth:`Transport.bind_topology`; the graph's version
  counter makes the refresh O(1) when the topology is unchanged and
  rebuilds it when the graph was mutated between runs;
* size measurement via :func:`repro.congest.message.message_size_bits`,
  behind a memo cache -- the paper's algorithms send the same small tuples
  (``("bfs", d)``, ``("w", tag, delta)``, ...) over thousands of edges and
  rounds, so identical payloads are measured once;
* the bandwidth policy: in strict mode an oversized message raises
  :class:`repro.congest.errors.BandwidthExceededError`, otherwise the
  violation is only reported to the metrics pipeline;
* the fault plan of a faulty run (:class:`repro.faults.FaultPlan`), which
  drops or delays a message after it has been accounted.  Clean and
  faulty runs share the one per-message loop of :meth:`Transport.deliver`;
  without a plan the fate checks are skipped.

Memo cache.  Two tiers, tried hash-first:

* the **value tier** keys scalars and flat tuples of scalars by the payload
  itself -- no ``repr`` string is built on the hot path.  Because Python's
  ``==``/``hash`` conflate equal numerics of different types (``2``,
  ``2.0`` and ``True`` collide, yet cost 2, 64 and 1 bits), each entry
  stores a *type signature* (the element classes) that is verified with
  identity checks on every hit; a signature mismatch falls through to a
  fresh measurement, so the tier is exact by construction;
* the **repr tier** is the original ``(type, repr(payload))`` key, used for
  everything else: nested containers, unhashable payloads (lists, dicts,
  sets) and exotic types.  Payloads whose ``repr`` fails are measured
  directly without caching.

Both tiers share one entry budget (``size_cache_limit``); beyond it new
payloads are measured without being cached (no eviction churn).

Delivery measures a payload only when its object differs from the
previous message's payload in the same outbox, so a broadcast costs one
measurement however many neighbours it reaches.
``NodeAlgorithm.broadcast`` returns a read-only
:class:`repro.congest.node.BroadcastOutbox` (one payload, the node's
neighbour sequence; ``dict(outbox)`` copies it).  In a run without a
fault plan and without a per-message hook, the engine's round loop
delivers a broadcast itself: one ``frozenset.issuperset`` neighbour
check, one :meth:`Transport.measure`, ``size * count`` bits, the
strict-bandwidth error naming the first target, the inboxes filled in
neighbour order, and the round's broadcast totals added to the metrics
once.  A broadcast that fails the neighbour check is handed to
:meth:`Transport.deliver`, whose per-message loop raises for the first
bad target.  :meth:`Transport.deliver` serves every other outbox: dict
outboxes, and every outbox of faulty or hooked runs.  It adds an
outbox's messages, bits, largest message and violations to the run's
:class:`repro.congest.metrics.ExecutionMetrics` (``pipeline.metrics``)
once per outbox; per-message observer hooks run only when some observer
overrides them (``pipeline.message_hook``).

Cache effectiveness is reported without touching the hit path:
``measure`` counts only its (rare) misses and overflows, and the engine
derives per-run hits as ``messages - misses`` when stamping
``ExecutionMetrics`` -- a message whose payload repeats the previous one
counts as a hit (clamped for re-entrant nested runs, whose misses land in
the outer run's delta while their messages do not).
"""

from __future__ import annotations

from itertools import repeat
from typing import Any, Dict, List, Optional, Tuple

from repro.congest.errors import BandwidthExceededError, ProtocolError
from repro.congest.message import message_size_bits
from repro.congest.node import BroadcastOutbox
from repro.engine.observers import MetricsPipeline
from repro.graphs.graph import Graph, NodeId
from repro.graphs.indexed import IndexedGraph

#: Default bound on the number of memoised payload sizes; beyond it new
#: payloads are measured without being cached (no eviction churn).
DEFAULT_SIZE_CACHE_LIMIT = 65536

#: Payload classes eligible for the value tier.  Scalars of these classes
#: (and flat tuples thereof) are fully disambiguated by their class
#: signature: equal values of the same class always measure the same size.
_SCALAR_CLASSES = frozenset((int, bool, float, str, type(None)))

#: "No payload measured yet in this outbox" (``None`` is a valid payload).
_NO_PAYLOAD = object()

#: The neighbour set of a sender the topology does not know.
_NO_NEIGHBORS = frozenset()


def _value_signature_and_size(payload: Any):
    """``(type signature, size)`` for the value tier, or ``None`` if
    ineligible, in one pass over the payload.

    Scalars sign as their class; flat tuples of scalars sign as the tuple
    of their element classes.  Nested containers are ineligible (their
    signature would not see inside, so ``(("a", 2),)`` and ``(("a", 2.0),)``
    could conflate) and fall back to the repr tier.  The size is
    :func:`repro.congest.message.message_size_bits` of the payload; its
    flat-tuple rule (2 bits of framing per element, at least 1 bit in
    all) is applied here while the signature is built.
    """
    cls = payload.__class__
    if cls is tuple:
        signature = []
        append = signature.append
        total = 0
        for item in payload:
            item_cls = item.__class__
            if item_cls is int:
                total += 2 + item.bit_length() + (item < 0) if item else 3
            elif item_cls is str:
                total += 2 + (8 * len(item) or 1)
            elif item_cls in _SCALAR_CLASSES:
                total += 2 + message_size_bits(item)
            else:
                return None
            append(item_cls)
        return tuple(signature), total or 1
    if cls in _SCALAR_CLASSES:
        return cls, message_size_bits(payload)
    return None


class Transport:
    """Synchronous one-round-latency message delivery with bandwidth policy.

    Parameters
    ----------
    graph:
        The communication topology (for the neighbour check).
    bandwidth_bits:
        Per-edge per-round budget.  The engine refreshes this from the
        owning network at the start of every run, so post-construction
        mutations of ``Network.bandwidth_bits`` are honoured.
    strict_bandwidth:
        Whether oversized messages abort the run or are merely counted.
        Refreshed per run like ``bandwidth_bits``.
    size_cache_limit:
        Maximum number of distinct payloads whose measured size is memoised
        (shared by both cache tiers).
    """

    def __init__(
        self,
        graph: Graph,
        bandwidth_bits: int,
        strict_bandwidth: bool,
        size_cache_limit: int = DEFAULT_SIZE_CACHE_LIMIT,
    ) -> None:
        self.graph = graph
        self.bandwidth_bits = bandwidth_bits
        self.strict_bandwidth = strict_bandwidth
        self.size_cache_limit = size_cache_limit
        #: Value tier: payload -> (type signature, size).
        self._value_cache: Dict[Any, Tuple[Any, int]] = {}
        #: Repr tier: (type, repr) -> size.
        self._size_cache: Dict[Tuple[type, str], int] = {}
        #: Per-node neighbour frozensets, prebound from the compiled CSR
        #: view (one lookup per outbox, one membership test per message).
        #: The engine refreshes the binding per run, so graph mutations
        #: between runs are honoured.
        self._indexed: Optional[IndexedGraph] = None
        self._neighbor_sets: Dict[NodeId, Any] = {}
        self.bind_topology(graph.compile())
        # Cache-effectiveness counters, cumulative across the network's
        # runs; the engine stamps per-run deltas into the run's metrics.
        # Only misses and overflows are counted (they are rare -- one per
        # distinct payload); hits are derived from the message count so
        # the cache-hit path stays increment-free.
        self.cache_misses = 0
        self.cache_overflows = 0

    # ------------------------------------------------------------------
    def bind_topology(self, indexed: IndexedGraph) -> None:
        """(Re)bind the per-node neighbour sets from a compiled view.

        Called by the engine at the start of every run with
        ``graph.compile()``: on an unmutated graph the compiled view is
        the same cached object and the rebind is a no-op identity check;
        after a mutation a fresh view arrives and the frozensets are
        rebuilt (and cached on the view, shared with other transports).
        """
        if indexed is not self._indexed:
            self._indexed = indexed
            self._neighbor_sets = indexed.neighbor_sets()

    def measure(self, payload: Any) -> int:
        """Size of ``payload`` in bits, memoised across the network's runs."""
        # Value tier: hash the payload itself -- no repr on the hot path.
        value_cache = self._value_cache
        try:
            hit = value_cache.get(payload)
        except TypeError:
            hashable = False
        else:
            hashable = True
            if hit is not None:
                signature, size = hit
                cls = payload.__class__
                if cls is not tuple:
                    if cls is signature:
                        return size
                elif signature.__class__ is tuple and tuple(map(type, payload)) == signature:
                    return size
                # Signature mismatch: an equal-but-differently-typed
                # payload (e.g. ``(2,)`` probing an entry for ``(2.0,)``).
                # Fall through, re-measure and retake the slot.
        if hashable:
            measured = _value_signature_and_size(payload)
            if measured is not None:
                signature, size = measured
                self.cache_misses += 1
                if (
                    hit is not None  # overwriting an existing slot
                    or len(value_cache) + len(self._size_cache)
                    < self.size_cache_limit
                ):
                    value_cache[payload] = (signature, size)
                else:
                    self.cache_overflows += 1
                return size

        # Repr tier: nested containers, unhashable and exotic payloads.
        try:
            key = (payload.__class__, repr(payload))
        except Exception:
            self.cache_misses += 1
            return message_size_bits(payload)
        cache = self._size_cache
        size = cache.get(key)
        if size is None:
            size = message_size_bits(payload)
            self.cache_misses += 1
            if len(cache) + len(self._value_cache) < self.size_cache_limit:
                cache[key] = size
            else:
                self.cache_overflows += 1
        return size

    @property
    def size_cache_entries(self) -> int:
        """Number of memoised payload sizes (introspection for benchmarks)."""
        return len(self._value_cache) + len(self._size_cache)

    def cache_stats(self) -> Dict[str, int]:
        """Cumulative cache-effectiveness counters (for reports).

        Hits are not counted here (the hit path is increment-free); per-run
        hit counts are derived by the engine and reported on
        ``ExecutionMetrics.size_cache_hits``.
        """
        return {
            "misses": self.cache_misses,
            "overflows": self.cache_overflows,
            "entries": self.size_cache_entries,
        }

    # ------------------------------------------------------------------
    def deliver(
        self,
        round_number: int,
        sender: NodeId,
        outbox: Dict[NodeId, Any],
        next_inboxes: Dict[NodeId, Dict[NodeId, Any]],
        pipeline: MetricsPipeline,
        inbox_pool: Optional[List[Dict[NodeId, Any]]] = None,
        plan=None,
        pending: Optional[Dict[int, List[Tuple[NodeId, NodeId, Any]]]] = None,
    ) -> None:
        """Validate, measure, account and enqueue one node's outbox.

        ``next_inboxes`` is the sparse mapping of the *following* round's
        inboxes: only nodes that actually receive something get an entry.
        ``inbox_pool`` is an optional free list of empty dicts the engine
        recycles across rounds; newly needed inboxes are taken from it
        before being allocated.  The outbox's totals are added to
        ``pipeline.metrics`` after its last message; ``pipeline.message_hook``
        sees every message, before a strict bandwidth violation raises.

        With a :class:`repro.faults.FaultPlan` as ``plan``, the plan then
        decides each message's fate.  A faulty network does not change
        what a node *sends*: every message consumes bandwidth and appears
        in traffic logs whether or not it arrives.  The fate is checked in
        physical order: a churned (down) edge carries nothing; then random
        loss; then the arrival-time crash check (a delayed message
        arriving while its receiver is down is lost too); then delay,
        which parks the message in ``pending`` (keyed by absolute arrival
        round -- the engine merges it into the inboxes of that round)
        instead of ``next_inboxes``.
        """
        neighbors = self._neighbor_sets.get(sender, _NO_NEIGHBORS)
        budget = self.bandwidth_bits
        hook = pipeline.message_hook
        measure = self.measure
        next_inboxes_get = next_inboxes.get
        if plan is not None:
            edge_down = plan.edge_down
            message_fate = plan.message_fate
            node_down = plan.node_down
        if outbox.__class__ is BroadcastOutbox:
            messages = zip(outbox.targets, repeat(outbox.payload))
        else:
            messages = outbox.items()
        last = _NO_PAYLOAD
        largest = bits = violations = 0
        for target, payload in messages:
            if target not in neighbors:
                raise _non_neighbour(sender, target)
            if payload is not last:
                last = payload
                size = measure(payload)
                violation = size > budget
                if size > largest:
                    largest = size
            bits += size
            if hook is not None:
                hook(round_number, sender, target, payload, size, violation)
            if violation:
                violations += 1
                if self.strict_bandwidth:
                    raise _over_budget(round_number, sender, target, size, budget)
            if plan is not None:
                if edge_down(round_number, sender, target):
                    pipeline.on_message_dropped(round_number, sender, target, "churn")
                    continue
                fate = message_fate(round_number, sender, target)
                if fate < 0:
                    pipeline.on_message_dropped(round_number, sender, target, "loss")
                    continue
                arrival = round_number + 1 + fate
                if node_down(arrival, target):
                    pipeline.on_message_dropped(round_number, sender, target, "crash")
                    continue
                if fate:
                    pipeline.on_message_delayed(round_number, sender, target, arrival)
                    bucket = pending.get(arrival)
                    if bucket is None:
                        bucket = pending[arrival] = []
                    bucket.append((sender, target, payload))
                    continue
            inbox = next_inboxes_get(target)
            if inbox is None:
                inbox = inbox_pool.pop() if inbox_pool else {}
                next_inboxes[target] = inbox
            inbox[sender] = payload
        _account(pipeline.metrics, len(outbox), bits, largest, violations)

    #: The name ``perfbench/spans.py`` traces alongside ``deliver``; the
    #: engine only ever calls ``deliver``.
    deliver_faulty = deliver


def _account(metrics, messages: int, bits: int, largest: int, violations: int) -> None:
    """Add one outbox's totals to the run's metrics (if it has any)."""
    if metrics is None:
        return
    metrics.messages += messages
    metrics.total_bits += bits
    if largest > metrics.max_edge_bits_per_round:
        metrics.max_edge_bits_per_round = largest
    metrics.bandwidth_violations += violations


def _non_neighbour(sender: NodeId, target: NodeId) -> ProtocolError:
    return ProtocolError(f"node {sender!r} tried to send to non-neighbour {target!r}")


def _over_budget(
    round_number: int, sender: NodeId, target: NodeId, size: int, budget: int
) -> BandwidthExceededError:
    return BandwidthExceededError(
        f"round {round_number}: node {sender!r} sent "
        f"{size} bits to {target!r} "
        f"(budget {budget} bits)"
    )
