"""Unit tests for the pluggable execution-engine subsystem.

Covers engine selection, the failure paths of ``Network.run`` under *both*
schedulers (strict bandwidth, round limit, protocol violations), the
self-wake API that keeps timer-driven algorithms correct under the sparse
scheduler, the transport's payload-size memo cache, and the observer
pipeline (traffic logs, stitched multi-phase recording, run logs).
"""

from __future__ import annotations

import pytest

from repro.algorithms.bfs import run_bfs_tree
from repro.config import ExecutionConfig, current_config, use_config
from repro.congest.errors import (
    BandwidthExceededError,
    ProtocolError,
    RoundLimitExceededError,
)
from repro.congest.message import message_size_bits
from repro.congest.network import Network
from repro.congest.node import BroadcastOutbox, NodeAlgorithm
from repro.engine import (
    ENGINE_NAMES,
    CoreMetricsObserver,
    DenseScheduler,
    MetricsObserver,
    MetricsPipeline,
    RunLogObserver,
    SparseScheduler,
    StitchedTrafficObserver,
    Transport,
    TrafficLogObserver,
    get_default_engine,
    make_scheduler,
)
from repro.faults import FaultModel
from repro.graphs import generators

ENGINES = list(ENGINE_NAMES)


def _factory(cls, *extra):
    return lambda node, net: cls(
        node, net.graph.neighbors(node), net.num_nodes, net.node_rng(node), *extra
    )


class _Chatterbox(NodeAlgorithm):
    """Sends an oversized message to trigger bandwidth enforcement."""

    def on_round(self, round_number, inbox):
        self.finished = True
        if round_number == 0:
            return self.broadcast("x" * 4096)
        return {}


class _BadSender(NodeAlgorithm):
    """Sends to a non-neighbour to trigger a protocol error."""

    def on_round(self, round_number, inbox):
        self.finished = True
        if round_number == 0 and self.node_id == 0:
            return {999: "hello"}
        return {}


class _NeverFinishes(NodeAlgorithm):
    def on_round(self, round_number, inbox):
        return self.broadcast(1)


class _SilentlyStuck(NodeAlgorithm):
    """Never finishes, never sends, never wakes: a quiescent deadlock."""

    def on_round(self, round_number, inbox):
        return {}


class _TimerNode(NodeAlgorithm):
    """Fires a broadcast at a prescribed round with no prior traffic."""

    FIRE_ROUND = 7

    def __init__(self, node_id, neighbors, num_nodes, rng):
        super().__init__(node_id, neighbors, num_nodes, rng)
        if node_id == 0:
            self.wake_at(self.FIRE_ROUND)
        else:
            self.finished = True

    def on_round(self, round_number, inbox):
        if self.node_id == 0:
            if round_number == self.FIRE_ROUND:
                self.finished = True
                self.fired_at = round_number
                return self.broadcast(("f",))
            return {}
        if inbox:
            self.received_at = round_number
        return {}

    def result(self):
        return getattr(self, "fired_at", None) or getattr(self, "received_at", None)


class _QueueDrainer(NodeAlgorithm):
    """Node 0 seeds a queue and drains one item per round via self-wakes."""

    def __init__(self, node_id, neighbors, num_nodes, rng):
        super().__init__(node_id, neighbors, num_nodes, rng)
        self.queue = [1, 2, 3] if node_id == 0 else []
        self.received = []
        self.finished = node_id != 0

    def on_round(self, round_number, inbox):
        self.received.extend(inbox.values())
        if not self.queue:
            self.finished = True
            return {}
        item = self.queue.pop(0)
        if self.queue:
            self.wake_next_round()
        else:
            self.finished = True
        return self.broadcast(item)

    def result(self):
        return self.received


class TestEngineSelection:
    def test_default_engine_is_sparse(self):
        network = Network(generators.path_graph(3))
        assert network.engine_name == "sparse"

    @pytest.mark.parametrize("engine", ENGINES)
    def test_explicit_engine(self, engine):
        network = Network(generators.path_graph(3), engine=engine)
        assert network.engine_name == engine
        assert network.engine.scheduler.name == engine

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError, match="unknown engine"):
            Network(generators.path_graph(3), engine="warp")

    def test_unknown_default_rejected(self):
        before = current_config()
        with pytest.raises(ValueError, match="unknown engine"):
            ExecutionConfig(engine="warp")
        assert current_config() is before

    def test_default_engine_toggle(self):
        previous = get_default_engine()
        for engine in ("dense", "sparse"):
            with use_config(current_config().override(engine=engine)):
                assert get_default_engine() == engine
                assert Network(generators.path_graph(3)).engine_name == engine
        assert get_default_engine() == previous

    def test_make_scheduler(self):
        assert isinstance(make_scheduler("dense"), DenseScheduler)
        assert isinstance(make_scheduler("sparse"), SparseScheduler)
        with pytest.raises(ValueError):
            make_scheduler("warp")


@pytest.mark.parametrize("engine", ENGINES)
class TestFailurePaths:
    """The seed's failure modes must survive the refactor, on both engines."""

    def test_strict_bandwidth_raises(self, engine):
        network = Network(
            generators.path_graph(3), strict_bandwidth=True, engine=engine
        )
        with pytest.raises(BandwidthExceededError, match="budget"):
            network.run(_factory(_Chatterbox))

    def test_non_strict_counts_violations(self, engine):
        network = Network(
            generators.path_graph(3), strict_bandwidth=False, engine=engine
        )
        result = network.run(_factory(_Chatterbox))
        assert result.metrics.bandwidth_violations >= 1
        assert result.metrics.max_edge_bits_per_round > network.bandwidth_bits

    def test_protocol_error_on_non_neighbour(self, engine):
        network = Network(generators.path_graph(3), engine=engine)
        with pytest.raises(ProtocolError, match="non-neighbour"):
            network.run(_factory(_BadSender))

    def test_round_limit_exceeded(self, engine):
        network = Network(generators.path_graph(3), engine=engine)
        with pytest.raises(RoundLimitExceededError):
            network.run(_factory(_NeverFinishes), max_rounds=5)

    def test_exact_rounds_mode(self, engine):
        network = Network(generators.path_graph(3), engine=engine)
        result = network.run(_factory(_NeverFinishes), exact_rounds=4)
        assert result.rounds == 4

    def test_bandwidth_policy_mutation_after_construction(self, engine):
        """The seed loop read the policy live each run; the engine must too."""
        network = Network(
            generators.path_graph(3), strict_bandwidth=True, engine=engine
        )
        network.strict_bandwidth = False
        result = network.run(_factory(_Chatterbox))
        assert result.metrics.bandwidth_violations >= 1
        network.strict_bandwidth = True
        network.bandwidth_bits = 10 ** 6
        clean = network.run(_factory(_Chatterbox))
        assert clean.metrics.bandwidth_violations == 0
        assert clean.metrics.bandwidth_limit_bits == 10 ** 6

    def test_traffic_recording(self, engine):
        network = Network(generators.path_graph(4), engine=engine)
        result = network.run(_factory(_NeverFinishes), exact_rounds=3)
        assert result.traffic is None
        recorded = network.run(
            _factory(_NeverFinishes), exact_rounds=3, record_traffic=True
        )
        assert recorded.traffic is not None
        assert len(recorded.traffic) == recorded.metrics.messages
        rounds = [entry[0] for entry in recorded.traffic]
        assert rounds == sorted(rounds)


class TestSelfWakes:
    def test_timer_fires_under_both_engines(self):
        outcomes = {}
        for engine in ENGINES:
            network = Network(generators.path_graph(3), engine=engine)
            result = network.run(_factory(_TimerNode))
            outcomes[engine] = (result.results, result.rounds)
        assert outcomes["dense"] == outcomes["sparse"]
        results, _ = outcomes["sparse"]
        assert results[0] == _TimerNode.FIRE_ROUND
        assert results[1] == _TimerNode.FIRE_ROUND + 1

    def test_queue_drains_under_both_engines(self):
        outcomes = {}
        for engine in ENGINES:
            network = Network(generators.path_graph(2), engine=engine)
            result = network.run(_factory(_QueueDrainer))
            outcomes[engine] = (result.results[1], result.metrics.messages)
        assert outcomes["dense"] == outcomes["sparse"]
        assert outcomes["sparse"][0] == [1, 2, 3]

    def test_sparse_deadlock_fails_fast(self):
        # The null model resolves no fault plan, so it keeps the message.
        for fault_model in (None, FaultModel()):
            network = Network(
                generators.path_graph(3), engine="sparse", fault_model=fault_model
            )
            with pytest.raises(RoundLimitExceededError, match="wake_next_round"):
                network.run(_factory(_SilentlyStuck), max_rounds=10_000)

    def test_dense_spins_to_round_limit(self):
        network = Network(generators.path_graph(3), engine="dense")
        with pytest.raises(RoundLimitExceededError, match="did not terminate"):
            network.run(_factory(_SilentlyStuck), max_rounds=17)

    def test_stuck_run_under_timeout_fails_alike_on_both_engines(self):
        # Under a fault plan, sparse raises at once the error that dense
        # reaches by spinning to the timeout.
        errors = {}
        for engine in ENGINES:
            network = Network(
                generators.path_graph(3), engine=engine,
                fault_model=FaultModel(timeout=17),
            )
            with pytest.raises(RoundLimitExceededError) as excinfo:
                network.run(_factory(_SilentlyStuck), max_rounds=10_000)
            errors[engine] = (str(excinfo.value), excinfo.value.rounds_completed)
        assert errors["dense"] == errors["sparse"]
        assert errors["sparse"][1] == 17

    def test_wake_requests_are_drained(self):
        node = NodeAlgorithm(0, [1], 2)
        node.wake_next_round()
        node.wake_at(5)
        assert node.consume_wake_requests() == [None, 5]
        assert node.consume_wake_requests() == []

    def test_wake_requests_do_not_pile_up_under_dense(self):
        """The engine drains wake requests even when the scheduler ignores
        them, so re-arming timers cannot grow memory on long dense runs."""

        class _Rearming(NodeAlgorithm):
            def on_round(self, round_number, inbox):
                if round_number >= 6:
                    self.finished = True
                    return {}
                self.wake_at(round_number + 2)
                return {}

        network = Network(generators.path_graph(2), engine="dense")
        holder = {}

        def factory(node, net):
            algorithm = _Rearming(
                node, net.graph.neighbors(node), net.num_nodes, net.node_rng(node)
            )
            holder[node] = algorithm
            return algorithm

        network.run(factory, max_rounds=50)
        assert all(len(a._wake_requests) == 0 for a in holder.values())

    def test_nested_run_preserves_outer_scheduler_state(self):
        """A nested run on the same network must not clobber the outer
        sparse run's pending wakes."""

        class _NestedCaller(NodeAlgorithm):
            def __init__(self, node_id, neighbors, num_nodes, rng, network):
                super().__init__(node_id, neighbors, num_nodes, rng)
                self.network = network
                self.inner_messages = None
                if node_id == 0:
                    self.wake_at(2)
                    self.wake_at(5)
                else:
                    self.finished = True

            def on_round(self, round_number, inbox):
                if self.node_id != 0:
                    return {}
                if round_number == 2:
                    inner = self.network.run(_factory(_TwoPhasePing))
                    self.inner_messages = inner.metrics.messages
                if round_number == 5:
                    self.finished = True
                    self.fired = True
                return {}

            def result(self):
                return (self.inner_messages, getattr(self, "fired", False))

        network = Network(generators.path_graph(3), engine="sparse")
        result = network.run(
            lambda node, net: _NestedCaller(
                node, net.graph.neighbors(node), net.num_nodes,
                net.node_rng(node), net,
            )
        )
        assert result.results[0] == (1, True)


class TestTransportMemoCache:
    def _transport(self, n=8):
        graph = generators.path_graph(n)
        return Transport(graph, bandwidth_bits=64, strict_bandwidth=True)

    def test_measure_matches_reference(self):
        transport = self._transport()
        payloads = [None, True, 7, -7, 3.14, "abc", ("bfs", 5), [1, (2, "x")],
                    {"a": 1}]
        for payload in payloads:
            assert transport.measure(payload) == message_size_bits(payload)

    def test_repeated_payloads_hit_the_cache(self):
        transport = self._transport()
        assert transport.size_cache_entries == 0
        first = transport.measure(("bfs", 5))
        assert transport.size_cache_entries == 1
        second = transport.measure(("bfs", 5))
        assert first == second
        assert transport.size_cache_entries == 1

    def test_cache_distinguishes_equal_but_differently_typed_payloads(self):
        transport = self._transport()
        # 2 == 2.0 and hash(2) == hash(2.0), but they cost 2 vs 64 bits.
        assert transport.measure(2) == message_size_bits(2)
        assert transport.measure(2.0) == message_size_bits(2.0)
        assert transport.measure((2,)) == message_size_bits((2,))
        assert transport.measure((2.0,)) == message_size_bits((2.0,))

    def test_unsupported_payload_still_raises(self):
        transport = self._transport()
        with pytest.raises(TypeError):
            transport.measure(object())

    def test_cache_limit_respected(self):
        graph = generators.path_graph(4)
        transport = Transport(
            graph, bandwidth_bits=64, strict_bandwidth=True, size_cache_limit=2
        )
        for value in range(5):
            transport.measure(("m", value))
        assert transport.size_cache_entries == 2
        # Uncached payloads are still measured correctly.
        assert transport.measure(("m", 4)) == message_size_bits(("m", 4))

    def test_cache_limit_counts_overflows(self):
        graph = generators.path_graph(4)
        transport = Transport(
            graph, bandwidth_bits=64, strict_bandwidth=True, size_cache_limit=2
        )
        for value in range(5):
            transport.measure(("m", value))
        stats = transport.cache_stats()
        assert stats["entries"] == 2
        assert stats["misses"] == 5
        assert stats["overflows"] == 3

    def test_fast_tier_exact_on_numeric_ping_pong(self):
        # Alternating probes that compare equal across types must each get
        # their own size, even though they collide in the value tier.
        transport = self._transport()
        for _ in range(3):
            assert transport.measure((2,)) == message_size_bits((2,))
            assert transport.measure((2.0,)) == message_size_bits((2.0,))
            assert transport.measure((True,)) == message_size_bits((True,))

    def test_nested_tuples_fall_back_to_repr_tier_exactly(self):
        transport = self._transport()
        assert transport.measure((("a", 2),)) == message_size_bits((("a", 2),))
        assert transport.measure((("a", 2.0),)) == message_size_bits(
            (("a", 2.0),)
        )

    def test_unhashable_payloads_are_cached_via_repr(self):
        transport = self._transport()
        first = transport.measure([1, 2, 3])
        entries = transport.size_cache_entries
        assert first == message_size_bits([1, 2, 3])
        assert transport.measure([1, 2, 3]) == first
        assert transport.size_cache_entries == entries


class TestCacheMetricsReporting:
    def test_run_metrics_carry_cache_stats(self):
        network = Network(generators.path_graph(30), engine="sparse")
        tree = run_bfs_tree(network, 0)
        metrics = tree.metrics
        assert metrics.size_cache_misses > 0
        assert metrics.size_cache_hits > 0
        assert (
            metrics.size_cache_hits + metrics.size_cache_misses
            == metrics.messages
        )
        assert metrics.size_cache_overflows == 0

    def test_second_run_on_same_network_is_all_hits(self):
        network = Network(generators.path_graph(20), engine="sparse")
        run_bfs_tree(network, 0)
        metrics = run_bfs_tree(network, 0).metrics
        assert metrics.size_cache_misses == 0
        assert metrics.size_cache_hits == metrics.messages

    def test_cache_stats_do_not_affect_metric_equality(self):
        cold = run_bfs_tree(Network(generators.path_graph(20)), 0).metrics
        network = Network(generators.path_graph(20))
        run_bfs_tree(network, 0)
        warm = run_bfs_tree(network, 0).metrics
        assert cold.size_cache_misses != warm.size_cache_misses
        assert cold == warm  # diagnostics are excluded from equality


class _TwoPhasePing(NodeAlgorithm):
    """Node 0 pings its neighbour once; used to exercise observers."""

    def on_round(self, round_number, inbox):
        self.finished = True
        if round_number == 0 and self.node_id == 0:
            return self.send_to(self.neighbors[0], ("p",))
        return {}


class TestObservers:
    def test_persistent_observer_sees_every_run(self):
        network = Network(generators.path_graph(2))
        log = RunLogObserver()
        network.add_observer(log)
        network.run(_factory(_TwoPhasePing))
        network.run(_factory(_TwoPhasePing))
        assert log.runs == 2
        assert log.messages == 2
        assert log.rounds > 0
        network.remove_observer(log)
        network.run(_factory(_TwoPhasePing))
        assert log.runs == 2

    def test_traffic_log_observer_matches_record_traffic(self):
        network = Network(generators.path_graph(2))
        observer = TrafficLogObserver()
        network.add_observer(observer)
        result = network.run(_factory(_TwoPhasePing), record_traffic=True)
        network.remove_observer(observer)
        assert observer.traffic == result.traffic

    def test_stitched_observer_rebases_phases(self):
        network = Network(generators.path_graph(2))
        stitched = StitchedTrafficObserver()
        network.add_observer(stitched)
        network.run(_factory(_TwoPhasePing))
        network.run(_factory(_TwoPhasePing))
        network.remove_observer(stitched)
        assert len(stitched.traffic) == 2
        first, second = stitched.traffic
        # Phase 2's message is re-based to start after phase 1's last
        # traffic-carrying round (round 0), i.e. at stitched round 1.
        assert first[0] == 0
        assert second[0] == 1

    def test_persistent_observers_skip_nested_runs(self):
        """A nested run must not interleave events into cross-run
        accounting such as the stitched transcript."""

        class _NestingPing(NodeAlgorithm):
            def __init__(self, node_id, neighbors, num_nodes, rng, network):
                super().__init__(node_id, neighbors, num_nodes, rng)
                self.network = network

            def on_round(self, round_number, inbox):
                self.finished = True
                if round_number == 0 and self.node_id == 0:
                    # Simulate a sub-protocol mid-run on the same network.
                    self.network.run(_factory(_TwoPhasePing))
                    return self.send_to(self.neighbors[0], ("p",))
                return {}

        network = Network(generators.path_graph(2))
        log = RunLogObserver()
        network.add_observer(log)
        network.run(
            lambda node, net: _NestingPing(
                node, net.graph.neighbors(node), net.num_nodes,
                net.node_rng(node), net,
            )
        )
        network.remove_observer(log)
        # Only the outer run is reported: one run, one message.
        assert log.runs == 1
        assert log.messages == 1


class _Gossip(NodeAlgorithm):
    """Exercises every delivery shape and logs what it hands the engine.

    Round 0: every node broadcasts one shared payload.  A node hearing
    its first message answers each neighbour with a per-target payload,
    then stops.  Odd nodes report memory; ``log`` records every outbox
    and every non-``None`` memory sample in call order.
    """

    log = None

    def on_round(self, round_number, inbox):
        if round_number == 0:
            outbox = self.broadcast(("hi", self.node_id))
        elif inbox and not self.finished:
            self.finished = True
            outbox = {nbr: (self.node_id, nbr, len(inbox)) for nbr in self.neighbors}
        else:
            outbox = {}
        self.log.append(("out", round_number, self.node_id, dict(outbox)))
        return outbox

    def memory_bits(self):
        if self.node_id % 2 == 0:
            return None
        self.log.append(("mem", self.node_id, 3 * self.node_id))
        return 3 * self.node_id


class _EventRecorder(MetricsObserver):
    def __init__(self):
        self.messages = []
        self.samples = []

    def on_message(self, round_number, sender, receiver, payload, size_bits, violation):
        self.messages.append((round_number, sender, receiver, payload, size_bits, violation))

    def on_memory_sample(self, node, memory_bits):
        self.samples.append((node, memory_bits))


class _MemoryOnly(MetricsObserver):
    def __init__(self):
        self.samples = []

    def on_memory_sample(self, node, memory_bits):
        self.samples.append((node, memory_bits))


class TestBatchedAccounting:
    """Core accounting is batched per outbox and per run; per-event hooks
    still reach every observer that overrides them, unchanged."""

    @pytest.mark.parametrize("engine", ENGINES)
    def test_user_observers_see_every_event_in_order(self, engine):
        graph = generators.clique_chain(3, 4)
        network = Network(graph, engine=engine, bandwidth_bits=20, strict_bandwidth=False)
        recorder, memory_only = _EventRecorder(), _MemoryOnly()
        network.add_observer(recorder)
        network.add_observer(memory_only)
        _Gossip.log = log = []
        result = network.run(_factory(_Gossip))

        expected_messages = [
            (round_number, sender, target, payload,
             message_size_bits(payload), message_size_bits(payload) > 20)
            for kind, round_number, sender, outbox in
            (entry for entry in log if entry[0] == "out")
            for target, payload in outbox.items()
        ]
        expected_samples = [entry[1:] for entry in log if entry[0] == "mem"]
        assert recorder.messages == expected_messages
        assert recorder.samples == memory_only.samples == expected_samples

        metrics = result.metrics
        assert metrics.messages == len(expected_messages)
        assert metrics.total_bits == sum(event[4] for event in expected_messages)
        assert metrics.max_edge_bits_per_round == max(e[4] for e in expected_messages)
        assert metrics.bandwidth_violations == sum(e[5] for e in expected_messages)
        assert metrics.bandwidth_violations > 0
        assert metrics.max_node_memory_bits == max(m for _, m in expected_samples)

    def test_instance_attribute_hook_is_called(self):
        network = Network(generators.path_graph(2))
        observer = MetricsObserver()
        seen = []
        observer.on_message = lambda *event: seen.append(event)
        network.add_observer(observer)
        network.run(_factory(_TwoPhasePing))
        assert seen == [(0, 0, 1, ("p",), message_size_bits(("p",)), False)]

    def test_run_log_only_makes_no_per_message_fan_out(self, monkeypatch):
        calls = []
        record = lambda *args: calls.append(args)
        for owner in (MetricsObserver, CoreMetricsObserver):
            monkeypatch.setattr(owner, "on_message", record)
            monkeypatch.setattr(owner, "on_memory_sample", record)
        monkeypatch.setattr(MetricsPipeline, "on_message", record)
        graph = generators.random_connected_gnp(30, p=0.15, seed=4)
        network = Network(graph)
        log = RunLogObserver()
        network.add_observer(log)
        tree = run_bfs_tree(network, 0)
        monkeypatch.undo()
        reference = run_bfs_tree(Network(graph, engine="dense"), 0)
        assert calls == []
        assert log.runs == 1 and log.messages == tree.metrics.messages > 0
        assert tree.metrics == reference.metrics

    @pytest.mark.parametrize("engine", ENGINES)
    def test_strict_violation_raises_after_observers_saw_it(self, engine):
        network = Network(generators.path_graph(3), bandwidth_bits=16, engine=engine)
        recorder = _EventRecorder()
        network.add_observer(recorder)
        with pytest.raises(BandwidthExceededError):
            network.run(_factory(_Chatterbox))
        # Node 0's only message is the first send of the run: observed,
        # flagged, and nothing after it.
        assert recorder.messages == [
            (0, 0, 1, "x" * 4096, message_size_bits("x" * 4096), True)
        ]


class _Echo(NodeAlgorithm):
    """Round 0: broadcast a shared payload.  On first hearing, record the
    inbox in arrival order, broadcast a reply and stop.  ``as_dict``
    sends the same outboxes as plain dicts; ``stray`` addresses a
    non-neighbour in the middle of the broadcast target list."""

    as_dict = False
    stray = False

    def __init__(self, node_id, neighbors, num_nodes, rng):
        super().__init__(node_id, neighbors, num_nodes, rng)
        self.heard = None
        if self.stray:
            self.neighbors = [self.neighbors[0], 999, *self.neighbors[1:]]

    def on_round(self, round_number, inbox):
        outbox = {}
        if round_number == 0:
            outbox = self.broadcast(("hi", self.node_id))
        elif inbox and self.heard is None:
            self.heard = list(inbox.items())
            self.finished = True
            outbox = self.broadcast((self.node_id, len(inbox), "x" * (self.node_id % 3)))
        return dict(outbox) if self.as_dict else outbox

    def result(self):
        return self.heard


class _EchoDict(_Echo):
    as_dict = True


class _StrayEcho(_Echo):
    stray = True


class _StrayEchoDict(_StrayEcho):
    as_dict = True


class _ChatterboxDict(_Chatterbox):
    def on_round(self, round_number, inbox):
        return dict(super().on_round(round_number, inbox))


def _cache_counters(metrics):
    return (metrics.size_cache_hits, metrics.size_cache_misses,
            metrics.size_cache_overflows)


class _SilentMessageObserver(MetricsObserver):
    """Overrides ``on_message`` with a no-op, which sends every outbox of
    the run through ``Transport.deliver``'s per-message loop."""

    def on_message(self, round_number, sender, receiver, payload, size_bits,
                   violation):
        pass


class TestBroadcastOutbox:
    """``broadcast`` returns a read-only mapping; without a fault plan or
    per-message hook the round loop delivers it in one pass, with every
    observable outcome of the per-message loop."""

    def test_reads_like_the_dict_it_stands_for(self):
        node = NodeAlgorithm(0, (3, 1, 2), 4)
        outbox = node.broadcast("p")
        assert isinstance(outbox, BroadcastOutbox)
        assert outbox == {3: "p", 1: "p", 2: "p"}
        assert list(outbox.items()) == [(3, "p"), (1, "p"), (2, "p")]
        assert len(outbox) == 3 and 1 in outbox and 4 not in outbox
        assert outbox[2] == "p" and outbox.get(4) is None
        with pytest.raises(TypeError):
            outbox[4] = "q"
        assert NodeAlgorithm(0, (), 1).broadcast("p") == {}

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("graph", [
        generators.clique_chain(3, 4),
        generators.random_connected_gnp(24, p=0.2, seed=5),
    ], ids=["clique_chain", "gnp"])
    def test_fast_path_matches_the_hooked_loop(self, engine, graph):
        def run(cls, record_traffic):
            network = Network(graph, engine=engine, bandwidth_bits=20,
                              strict_bandwidth=False)
            return network.run(_factory(cls), record_traffic=record_traffic)

        fast = run(_Echo, False)
        hooked = run(_Echo, True)
        plain = run(_EchoDict, True)
        assert fast.results == hooked.results == plain.results
        assert fast.metrics == hooked.metrics == plain.metrics
        assert (_cache_counters(fast.metrics) == _cache_counters(hooked.metrics)
                == _cache_counters(plain.metrics))
        assert hooked.traffic == plain.traffic
        assert fast.metrics.bandwidth_violations > 0
        assert fast.metrics.size_cache_hits > 0

    @pytest.mark.parametrize("engine", ENGINES)
    def test_strict_bandwidth_error_is_unchanged(self, engine):
        graph = generators.clique_chain(3, 4)
        messages = set()
        for cls, record_traffic in ((_Chatterbox, False), (_Chatterbox, True),
                                    (_ChatterboxDict, False)):
            network = Network(graph, engine=engine, bandwidth_bits=64)
            with pytest.raises(BandwidthExceededError) as error:
                network.run(_factory(cls), record_traffic=record_traffic)
            messages.add(str(error.value))
        assert len(messages) == 1

    @pytest.mark.parametrize("engine", ENGINES)
    def test_non_neighbour_target_raises_protocol_error(self, engine):
        graph = generators.clique_chain(3, 4)
        messages = set()
        for cls in (_StrayEcho, _StrayEchoDict):
            with pytest.raises(ProtocolError) as error:
                Network(graph, engine=engine).run(_factory(cls))
            messages.add(str(error.value))
        assert messages == {"node 0 tried to send to non-neighbour 999"}

    @staticmethod
    def _run_counting_delivers(monkeypatch, network, factory):
        """Run ``factory`` on ``network``; return the result, the per-round
        ``(round, messages, total_bits)`` snapshots the run's core metrics
        show at ``on_round_end``, and the number of ``Transport.deliver``
        calls."""
        snapshots, delivers = [], []
        deliver = Transport.deliver

        def counting_deliver(self, *args):
            delivers.append(args[1])
            return deliver(self, *args)

        def snapshot(self, round_number):
            snapshots.append(
                (round_number, self.metrics.messages, self.metrics.total_bits)
            )

        with monkeypatch.context() as patch:
            patch.setattr(Transport, "deliver", counting_deliver)
            patch.setattr(CoreMetricsObserver, "on_round_end", snapshot)
            result = network.run(factory)
        return result, snapshots, len(delivers)

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("graph", [
        generators.clique_chain(3, 4),
        generators.random_connected_gnp(24, p=0.2, seed=5),
    ], ids=["clique_chain", "gnp"])
    def test_round_loop_delivery_matches_the_per_message_loop(
        self, monkeypatch, engine, graph
    ):
        def network(observed):
            network = Network(graph, engine=engine, bandwidth_bits=20,
                              strict_bandwidth=False)
            if observed:
                network.add_observer(_SilentMessageObserver())
            return network

        clean, clean_rounds, clean_delivers = self._run_counting_delivers(
            monkeypatch, network(False), _factory(_Echo))
        looped, looped_rounds, looped_delivers = self._run_counting_delivers(
            monkeypatch, network(True), _factory(_Echo))
        assert clean_delivers == 0
        assert looped_delivers == graph.num_nodes * 2
        assert clean.results == looped.results
        assert clean.metrics == looped.metrics
        assert _cache_counters(clean.metrics) == _cache_counters(looped.metrics)
        assert clean_rounds == looped_rounds
        assert [messages for _, messages, _ in clean_rounds] == [
            2 * graph.num_edges, 4 * graph.num_edges, 4 * graph.num_edges]
        assert clean.metrics.bandwidth_violations > 0

    @pytest.mark.parametrize("engine", ENGINES)
    def test_round_loop_delivery_raises_the_same_errors(self, engine):
        graph = generators.clique_chain(3, 4)
        for cls, error_type in ((_Chatterbox, BandwidthExceededError),
                                (_StrayEcho, ProtocolError)):
            texts = set()
            for observed in (False, True):
                network = Network(graph, engine=engine, bandwidth_bits=64)
                if observed:
                    network.add_observer(_SilentMessageObserver())
                with pytest.raises(error_type) as error:
                    network.run(_factory(cls))
                texts.add(str(error.value))
            assert len(texts) == 1, texts

