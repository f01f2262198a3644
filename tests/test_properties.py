"""Property-based tests (hypothesis) for the core data structures and the
paper's key invariants."""

from __future__ import annotations

import math

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.algorithms.bfs import run_bfs_tree
from repro.algorithms.dfs_traversal import (
    CyclicTour,
    run_full_euler_tour,
    run_windowed_euler_tour,
    sequential_euler_tour,
)
from repro.congest.message import message_size_bits
from repro.congest.network import Network
from repro.core.coverage import coverage_probability, window_set
from repro.engine import Transport
from repro.graphs import generators
from repro.graphs.gadgets_achk import ACHKGadget
from repro.graphs.gadgets_hw12 import HW12Gadget
from repro.graphs.graph import Graph
from repro.lowerbounds.disjointness import disjointness
from repro.quantum.amplitude_amplification import grover_success_probability

# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------

settings.register_profile(
    "repro",
    deadline=None,
    max_examples=25,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
settings.load_profile("repro")


@st.composite
def connected_graphs(draw, min_nodes=2, max_nodes=14):
    """A random connected graph built from a random tree plus extra edges."""
    n = draw(st.integers(min_value=min_nodes, max_value=max_nodes))
    graph = Graph(nodes=range(n))
    for node in range(1, n):
        parent = draw(st.integers(min_value=0, max_value=node - 1))
        graph.add_edge(node, parent)
    extra = draw(st.integers(min_value=0, max_value=n))
    for _ in range(extra):
        u = draw(st.integers(min_value=0, max_value=n - 1))
        v = draw(st.integers(min_value=0, max_value=n - 1))
        if u != v:
            graph.add_edge(u, v)
    return graph


bitstrings = st.lists(st.integers(min_value=0, max_value=1), min_size=1, max_size=9)


# ----------------------------------------------------------------------
# Graph invariants
# ----------------------------------------------------------------------
class TestGraphProperties:
    @given(connected_graphs())
    def test_triangle_inequality(self, graph):
        nodes = graph.nodes()
        u, v, w = nodes[0], nodes[len(nodes) // 2], nodes[-1]
        assert graph.distance(u, w) <= graph.distance(u, v) + graph.distance(v, w)

    @given(connected_graphs())
    def test_distance_symmetry(self, graph):
        nodes = graph.nodes()
        u, v = nodes[0], nodes[-1]
        assert graph.distance(u, v) == graph.distance(v, u)

    @given(connected_graphs())
    def test_diameter_is_max_eccentricity_and_bounded(self, graph):
        diameter = graph.diameter()
        eccentricities = graph.all_eccentricities()
        assert diameter == max(eccentricities.values())
        assert diameter <= graph.num_nodes - 1
        # Radius <= diameter <= 2 * radius.
        radius = min(eccentricities.values())
        assert radius <= diameter <= 2 * radius

    @given(connected_graphs())
    def test_bfs_tree_has_n_minus_one_edges(self, graph):
        parent = graph.bfs_tree(graph.nodes()[0])
        tree_edges = [(node, par) for node, par in parent.items() if par is not None]
        assert len(tree_edges) == graph.num_nodes - 1


# ----------------------------------------------------------------------
# Distributed primitives against the sequential oracle
# ----------------------------------------------------------------------
class TestDistributedProperties:
    @given(connected_graphs(max_nodes=12))
    def test_distributed_bfs_matches_oracle(self, graph):
        network = Network(graph, seed=0)
        root = graph.nodes()[0]
        tree = run_bfs_tree(network, root)
        assert tree.distance == graph.bfs_distances(root)

    @given(connected_graphs(max_nodes=12), st.integers(min_value=0, max_value=11))
    def test_euler_tour_walk_property(self, graph, start_index):
        network = Network(graph, seed=0)
        root = graph.nodes()[0]
        tree = run_bfs_tree(network, root)
        start = graph.nodes()[start_index % graph.num_nodes]
        window = 2 * max(1, tree.depth)
        times = sequential_euler_tour(tree, start, window=window)
        for v, tv in times.items():
            for w, tw in times.items():
                if tv < tw:
                    assert graph.distance(v, w) <= tw - tv

    @given(
        connected_graphs(min_nodes=1, max_nodes=12),
        st.integers(min_value=0, max_value=11),
        st.sampled_from([None, 1, 2]),
    )
    def test_cyclic_tour_matches_distributed_token(self, graph, root_index, radius):
        network = Network(graph, seed=0)
        tree = run_bfs_tree(network, graph.nodes()[root_index % graph.num_nodes])
        members = None
        if radius is not None:
            members = {v for v, d in tree.distance.items() if d <= radius}
        tour = CyclicTour(tree, members)
        full = run_full_euler_tour(network, tree, members=members)
        assert tour.window(tree.root) == full.visit_time
        starts = sorted(members) if members is not None else graph.nodes()
        beyond_full_tour = 2 * len(starts) + 1
        for start in starts:
            for window in (0, 1, 2, 2 * tree.depth, beyond_full_tour):
                distributed = run_windowed_euler_tour(
                    network, tree, start, window, members=members
                )
                assert tour.window(start, window) == distributed.visit_time

    @given(connected_graphs(max_nodes=12))
    def test_lemma1_coverage(self, graph):
        network = Network(graph, seed=0)
        root = graph.nodes()[0]
        tree = run_bfs_tree(network, root)
        d = max(1, tree.depth)
        n = graph.num_nodes
        target = graph.nodes()[-1]
        assert coverage_probability(tree, target, 2 * d) >= d / (2.0 * n) - 1e-12

    @given(connected_graphs(max_nodes=12), st.integers(min_value=0, max_value=30))
    def test_window_set_monotone_in_window(self, graph, window):
        network = Network(graph, seed=0)
        tree = run_bfs_tree(network, graph.nodes()[0])
        u0 = graph.nodes()[-1]
        small = window_set(tree, u0, window)
        large = window_set(tree, u0, window + 3)
        assert small <= large


# ----------------------------------------------------------------------
# Messages, gadgets and quantum algebra
# ----------------------------------------------------------------------
class _Count(int):
    """An ``int`` subclass: sized as an int, but off the exact-int fast path."""


def _reference_size_bits(payload) -> int:
    """The recursive size definition documented on ``message_size_bits``."""
    if payload is None or isinstance(payload, bool):
        return 1
    if isinstance(payload, int):
        if payload == 0:
            return 1
        return abs(payload).bit_length() + (1 if payload < 0 else 0)
    if isinstance(payload, float):
        return 64
    if isinstance(payload, str):
        return max(1, 8 * len(payload))
    if isinstance(payload, (tuple, list, set, frozenset)):
        return max(1, sum(2 + _reference_size_bits(item) for item in payload))
    return max(1, sum(
        2 + _reference_size_bits(key) + _reference_size_bits(value)
        for key, value in payload.items()
    ))


_scalars = st.one_of(
    st.integers(min_value=-(2 ** 70), max_value=2 ** 70),
    st.integers(min_value=-(2 ** 20), max_value=2 ** 20).map(_Count),
    st.booleans(),
    st.floats(allow_nan=False),
    st.text(max_size=6),
    st.none(),
)
_payloads = st.one_of(
    # Flat int/str tuples: the shape of almost every algorithm message.
    st.lists(
        st.one_of(st.integers(min_value=-(2 ** 40), max_value=2 ** 40),
                  st.text(max_size=4)),
        max_size=5,
    ).map(tuple),
    st.recursive(
        _scalars,
        lambda children: st.one_of(
            st.lists(children, max_size=4).map(tuple),
            st.lists(children, max_size=4),
            st.dictionaries(st.integers(-50, 50), children, max_size=3),
        ),
        max_leaves=10,
    ),
)


class TestMiscellaneousProperties:
    @given(
        st.recursive(
            st.one_of(
                st.integers(min_value=-(2 ** 40), max_value=2 ** 40),
                st.booleans(),
                st.text(max_size=6),
                st.none(),
            ),
            lambda children: st.lists(children, max_size=4).map(tuple),
            max_leaves=8,
        )
    )
    def test_message_sizes_positive_and_monotone_under_nesting(self, payload):
        size = message_size_bits(payload)
        assert size >= 1
        assert message_size_bits((payload,)) >= size

    @settings(max_examples=300)
    @given(_payloads)
    def test_message_size_matches_the_recursive_definition(self, payload):
        assert message_size_bits(payload) == _reference_size_bits(payload)

    @settings(max_examples=300)
    @given(_payloads)
    def test_transport_measure_matches_the_recursive_definition(self, payload):
        """A miss measures the payload in the same pass that signs it; a
        hit must return the same size."""
        transport = Transport(generators.path_graph(2), 64, False)
        expected = _reference_size_bits(payload)
        assert transport.measure(payload) == expected
        assert transport.measure(payload) == expected

    @given(bitstrings, bitstrings)
    def test_disjointness_is_symmetric_and_matches_definition(self, x, y):
        k = min(len(x), len(y))
        x, y = x[:k], y[:k]
        if k == 0:
            return
        assert disjointness(x, y) == disjointness(y, x)
        assert disjointness(x, y) == (0 if any(a and b for a, b in zip(x, y)) else 1)

    @given(st.integers(min_value=1, max_value=3), bitstrings, bitstrings)
    def test_hw12_gadget_promise(self, s, x, y):
        gadget = HW12Gadget(s)
        k = gadget.input_length
        x = (list(x) * k)[:k]
        y = (list(y) * k)[:k]
        graph = gadget.graph_for_inputs(x, y)
        if disjointness(x, y) == 1:
            assert graph.diameter() <= 2
        else:
            assert graph.diameter() >= 3

    @given(st.integers(min_value=1, max_value=6), bitstrings, bitstrings)
    def test_achk_gadget_promise(self, k, x, y):
        gadget = ACHKGadget(k)
        x = (list(x) * k)[:k]
        y = (list(y) * k)[:k]
        graph = gadget.graph_for_inputs(x, y)
        if disjointness(x, y) == 1:
            assert graph.diameter() <= 4
        else:
            assert graph.diameter() >= 5

    @given(
        st.floats(min_value=0.001, max_value=1.0),
        st.integers(min_value=0, max_value=50),
    )
    def test_grover_probability_in_unit_interval(self, p, k):
        probability = grover_success_probability(p, k)
        assert 0.0 <= probability <= 1.0 + 1e-12

    @given(st.floats(min_value=0.001, max_value=0.25))
    def test_one_grover_iteration_never_decreases_small_success(self, p):
        assert grover_success_probability(p, 1) >= p - 1e-12
