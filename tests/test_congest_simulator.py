"""Unit tests for the CONGEST simulator: messages, metrics and the network."""

from __future__ import annotations

import random
from functools import partial

import pytest

from repro.algorithms.bfs import run_bfs_tree
from repro.algorithms.leader_election import run_leader_election

from repro.congest.errors import (
    BandwidthExceededError,
    ProtocolError,
    RoundLimitExceededError,
)
from repro.congest.message import message_size_bits
from repro.congest.metrics import ExecutionMetrics
from repro.congest.network import Network
from repro.congest.node import NodeAlgorithm
from repro.graphs import generators
from repro.graphs.graph import Graph


class TestMessageSizes:
    def test_none_and_bool(self):
        assert message_size_bits(None) == 1
        assert message_size_bits(True) == 1
        assert message_size_bits(False) == 1

    def test_small_ints(self):
        assert message_size_bits(0) == 1
        assert message_size_bits(1) == 1
        assert message_size_bits(7) == 3
        assert message_size_bits(8) == 4

    def test_negative_ints_cost_a_sign_bit(self):
        assert message_size_bits(-7) == message_size_bits(7) + 1

    def test_large_int_scales_logarithmically(self):
        assert message_size_bits(2 ** 20) == 21

    def test_float(self):
        assert message_size_bits(3.14) == 64

    def test_string(self):
        assert message_size_bits("abc") == 24
        assert message_size_bits("") == 1

    def test_tuple_framing(self):
        assert message_size_bits((1, 1)) == 2 * (2 + 1)

    def test_nested_structures(self):
        nested = ("tag", (1, 2), [3])
        assert message_size_bits(nested) > message_size_bits("tag")

    def test_dict(self):
        assert message_size_bits({"a": 1}) == 2 + 8 + 1

    def test_large_negative_int(self):
        # Sign bit on top of the magnitude, at any scale.
        assert message_size_bits(-(2 ** 20)) == 22
        assert message_size_bits(-(2 ** 200)) == message_size_bits(2 ** 200) + 1
        assert message_size_bits(-1) == 2

    def test_deeply_nested_containers(self):
        # Each nesting level adds 2 bits of framing around the inner value.
        payload = 5
        expected = message_size_bits(5)
        for _ in range(20):
            payload = (payload,)
            expected += 2
        assert message_size_bits(payload) == expected

    def test_nested_mixed_containers(self):
        payload = {"k": [(1, "x"), frozenset([2])], "m": {"inner": None}}
        # Consistency is the contract: the size decomposes into the parts.
        expected = (
            2 + message_size_bits("k")
            + (2 + message_size_bits((1, "x"))) + (2 + message_size_bits(frozenset([2])))
            + 2 + message_size_bits("m") + (2 + message_size_bits("inner") + message_size_bits(None))
        )
        assert message_size_bits(payload) == expected

    def test_dict_payload_framing(self):
        assert message_size_bits({}) == 1
        assert message_size_bits({1: 2, 3: 4}) == (
            (2 + message_size_bits(1) + message_size_bits(2))
            + (2 + message_size_bits(3) + message_size_bits(4))
        )
        # Key and value sizes both count.
        assert message_size_bits({"ab": "cd"}) == 2 + 16 + 16

    def test_unsupported_type_raises(self):
        with pytest.raises(TypeError):
            message_size_bits(object())

    def test_unsupported_type_inside_container_raises(self):
        with pytest.raises(TypeError):
            message_size_bits(("tag", object()))


class TestMetrics:
    def test_merge_adds_and_maxes(self):
        a = ExecutionMetrics(rounds=3, messages=5, total_bits=50,
                             max_edge_bits_per_round=10, max_node_memory_bits=7)
        b = ExecutionMetrics(rounds=2, messages=1, total_bits=5,
                             max_edge_bits_per_round=20, max_node_memory_bits=3)
        merged = a.merged(b)
        assert merged.rounds == 5
        assert merged.messages == 6
        assert merged.total_bits == 55
        assert merged.max_edge_bits_per_round == 20
        assert merged.max_node_memory_bits == 7

    def test_merge_phases(self):
        a = ExecutionMetrics()
        a.record_phase("bfs", 4)
        b = ExecutionMetrics()
        b.record_phase("bfs", 2)
        b.record_phase("waves", 9)
        merged = a.merged(b)
        assert merged.phase_rounds == {"bfs": 6, "waves": 9}

    def test_scaled(self):
        metrics = ExecutionMetrics(rounds=4, messages=10, total_bits=100)
        scaled = metrics.scaled(3)
        assert scaled.rounds == 12
        assert scaled.messages == 30
        assert scaled.total_bits == 300

    def test_scaled_zero(self):
        assert ExecutionMetrics(rounds=4).scaled(0).rounds == 0

    def test_scaled_negative_raises(self):
        with pytest.raises(ValueError):
            ExecutionMetrics().scaled(-1)

    def test_total(self):
        parts = [ExecutionMetrics(rounds=1), ExecutionMetrics(rounds=2),
                 ExecutionMetrics(rounds=3)]
        assert ExecutionMetrics.total(parts).rounds == 6

    def test_bandwidth_limit_merge_takes_minimum(self):
        a = ExecutionMetrics(bandwidth_limit_bits=64)
        b = ExecutionMetrics(bandwidth_limit_bits=32)
        assert a.merged(b).bandwidth_limit_bits == 32
        assert a.merged(ExecutionMetrics()).bandwidth_limit_bits == 64


class _PingPong(NodeAlgorithm):
    """Round 0: node 0 sends a ping; the receiver replies; then both stop."""

    def on_round(self, round_number, inbox):
        if round_number == 0 and self.node_id == 0:
            return self.send_to(self.neighbors[0], ("p",))
        for sender, payload in inbox.items():
            if payload == ("p",):
                self.finished = True
                return self.send_to(sender, ("q",))
            if payload == ("q",):
                self.received_pong = True
        self.finished = True
        return {}

    def result(self):
        return getattr(self, "received_pong", False)


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


class TestNetwork:
    def _factory(self, cls):
        return lambda node, net: cls(
            node, net.graph.neighbors(node), net.num_nodes, net.node_rng(node)
        )

    def test_requires_connected_graph(self):
        graph = Graph(nodes=[0, 1, 2], edges=[(0, 1)])
        with pytest.raises(ValueError):
            Network(graph)

    def test_requires_nonempty_graph(self):
        with pytest.raises(ValueError):
            Network(Graph())

    def test_default_bandwidth_is_logarithmic(self):
        small = Network(generators.path_graph(8))
        large = Network(generators.path_graph(900))
        assert small.bandwidth_bits < large.bandwidth_bits
        assert large.bandwidth_bits <= 16 * 10

    def test_ping_pong_round_trip(self):
        network = Network(generators.path_graph(2))
        result = network.run(self._factory(_PingPong))
        assert result.results[0] is True
        assert result.metrics.messages == 2
        assert result.rounds >= 2

    def test_bandwidth_enforcement_strict(self):
        network = Network(generators.path_graph(3), strict_bandwidth=True)
        with pytest.raises(BandwidthExceededError):
            network.run(self._factory(_Chatterbox))

    def test_bandwidth_violations_counted_when_not_strict(self):
        network = Network(generators.path_graph(3), strict_bandwidth=False)
        result = network.run(self._factory(_Chatterbox))
        assert result.metrics.bandwidth_violations >= 1
        assert result.metrics.max_edge_bits_per_round > network.bandwidth_bits

    def test_protocol_error_on_non_neighbor(self):
        network = Network(generators.path_graph(3))
        with pytest.raises(ProtocolError):
            network.run(self._factory(_BadSender))

    def test_round_limit(self):
        network = Network(generators.path_graph(3))
        with pytest.raises(RoundLimitExceededError):
            network.run(self._factory(_NeverFinishes), max_rounds=5)

    def test_exact_rounds_mode(self):
        network = Network(generators.path_graph(3))
        result = network.run(self._factory(_NeverFinishes), exact_rounds=4)
        assert result.rounds == 4

    def test_traffic_recording(self):
        network = Network(generators.path_graph(2))
        result = network.run(self._factory(_PingPong), record_traffic=True)
        assert result.traffic is not None
        assert len(result.traffic) == 2
        rounds = [entry[0] for entry in result.traffic]
        assert rounds == sorted(rounds)

    def test_traffic_not_recorded_by_default(self):
        network = Network(generators.path_graph(2))
        result = network.run(self._factory(_PingPong))
        assert result.traffic is None

    def test_invalid_bandwidth(self):
        with pytest.raises(ValueError):
            Network(generators.path_graph(3), bandwidth_bits=0)

    def test_node_rng_deterministic(self):
        network = Network(generators.path_graph(3), seed=5)
        assert network.node_rng(1).random() == network.node_rng(1).random()


class _Dice(NodeAlgorithm):
    """Draws three numbers from ``self.rng`` as its result."""

    def on_round(self, round_number, inbox):
        self.finished = True
        return {}

    def result(self):
        return [self.rng.random() for _ in range(3)]


class TestLazyNodeRng:
    def test_builder_draws_the_node_rng_stream(self):
        network = Network(generators.cycle_graph(6), seed=11)
        result = network.run(lambda node, net: _Dice(
            node, net.neighbors(node), net.num_nodes, partial(net.node_rng, node)
        ))
        for node, draws in result.results.items():
            reference = network.node_rng(node)
            assert draws == [reference.random() for _ in range(3)]

    def test_generator_and_default_sources(self):
        assert _Dice(0, [1], 2, random.Random(5)).rng.random() == random.Random(5).random()
        assert _Dice(0, [1], 2).rng.random() == random.Random(0).random()
        built = []
        node = _Dice(0, [1], 2, lambda: built.append(1) or random.Random(3))
        assert built == []
        assert node.rng is node.rng
        assert built == [1]
        node.rng = replacement = random.Random(9)
        assert node.rng is replacement

    def test_runs_that_never_draw_build_no_generator(self, monkeypatch):
        network = Network(generators.random_connected_gnp(30, p=0.15, seed=4), seed=2)
        built = []
        original = random.Random.__init__

        def counting(self, *args, **kwargs):
            built.append(args)
            original(self, *args, **kwargs)

        monkeypatch.setattr(random.Random, "__init__", counting)
        run_bfs_tree(network, 0)
        run_leader_election(network)
        assert built == []
        network.node_rng(0)
        assert len(built) == 1
