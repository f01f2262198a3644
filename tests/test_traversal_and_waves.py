"""Tests for Euler-tour traversals (Definition 1) and the pipelined waves."""

from __future__ import annotations

import pytest

from repro.algorithms.bfs import run_bfs_tree
from repro.algorithms.dfs_traversal import (
    CyclicTour,
    run_full_euler_tour,
    run_windowed_euler_tour,
    sequential_euler_tour,
)
from repro.algorithms.waves import WaveScheduleEntry, run_distance_waves
from repro.congest.network import Network
from repro.core.approx_diameter import quantum_three_halves_diameter
from repro.core.exact_diameter import quantum_exact_diameter
from repro.graphs import generators


class TestFullEulerTour:
    def test_all_nodes_numbered_distinctly(self, small_graph, network_factory):
        network = network_factory(small_graph)
        root = small_graph.nodes()[0]
        tree = run_bfs_tree(network, root)
        tour = run_full_euler_tour(network, tree)
        assert set(tour.visit_time) == set(small_graph.nodes())
        times = sorted(tour.visit_time.values())
        assert len(set(times)) == len(times)
        assert tour.visit_time[root] == 0

    def test_times_bounded_by_tour_length(self, small_graph, network_factory):
        network = network_factory(small_graph)
        tree = run_bfs_tree(network, small_graph.nodes()[0])
        tour = run_full_euler_tour(network, tree)
        assert max(tour.visit_time.values()) <= 2 * (small_graph.num_nodes - 1)

    def test_walk_property(self, small_graph, network_factory):
        """PRT12 Property 1: tau(v) < tau(w) implies d(v, w) <= tau(w) - tau(v)."""
        network = network_factory(small_graph)
        tree = run_bfs_tree(network, small_graph.nodes()[0])
        tour = run_full_euler_tour(network, tree)
        nodes = list(tour.visit_time)
        for v in nodes:
            for w in nodes:
                if tour.visit_time[v] < tour.visit_time[w]:
                    assert (
                        small_graph.distance(v, w)
                        <= tour.visit_time[w] - tour.visit_time[v]
                    )

    def test_round_complexity_linear_in_n(self, network_factory):
        graph = generators.random_tree(25, seed=1)
        network = network_factory(graph)
        tree = run_bfs_tree(network, 0)
        tour = run_full_euler_tour(network, tree)
        assert tour.metrics.rounds <= 2 * graph.num_nodes + 4

    def test_matches_sequential_reference(self, small_graph, network_factory):
        network = network_factory(small_graph)
        tree = run_bfs_tree(network, small_graph.nodes()[0])
        distributed = run_full_euler_tour(network, tree)
        sequential = sequential_euler_tour(tree, tree.root)
        assert distributed.visit_time == sequential

    def test_single_node(self, network_factory):
        graph = generators.path_graph(1)
        network = network_factory(graph)
        tree = run_bfs_tree(network, 0)
        tour = run_full_euler_tour(network, tree)
        assert tour.visit_time == {0: 0}


class TestWindowedEulerTour:
    def test_window_zero_only_start(self, network_factory):
        graph = generators.cycle_graph(8)
        network = network_factory(graph)
        tree = run_bfs_tree(network, 0)
        tour = run_windowed_euler_tour(network, tree, start=3, window=0)
        assert tour.visit_time == {3: 0}

    def test_window_covers_relative_numbers(self, small_graph, network_factory):
        network = network_factory(small_graph)
        root = small_graph.nodes()[0]
        tree = run_bfs_tree(network, root)
        full = run_full_euler_tour(network, tree)
        length = 2 * (small_graph.num_nodes - 1)
        for start in list(small_graph.nodes())[:4]:
            window = max(2, small_graph.num_nodes // 2)
            tour = run_windowed_euler_tour(network, tree, start=start, window=window)
            for node, relative in tour.visit_time.items():
                assert 0 <= relative <= window
                if length > 0:
                    expected = (full.visit_time[node] - full.visit_time[start]) % length
                    assert relative == expected

    def test_matches_sequential_reference(self, small_graph, network_factory):
        network = network_factory(small_graph)
        tree = run_bfs_tree(network, small_graph.nodes()[0])
        for start in list(small_graph.nodes())[:3]:
            window = small_graph.num_nodes
            distributed = run_windowed_euler_tour(
                network, tree, start=start, window=window
            )
            sequential = sequential_euler_tour(tree, start, window=window)
            assert distributed.visit_time == sequential

    def test_full_window_covers_everything(self, network_factory):
        graph = generators.random_tree(12, seed=9)
        network = network_factory(graph)
        tree = run_bfs_tree(network, 0)
        tour = run_windowed_euler_tour(
            network, tree, start=5, window=2 * (graph.num_nodes - 1)
        )
        assert set(tour.visit_time) == set(graph.nodes())

    def test_subtree_restriction(self, network_factory):
        graph = generators.path_graph(10)
        network = network_factory(graph)
        tree = run_bfs_tree(network, 0)
        members = {0, 1, 2, 3}
        tour = run_windowed_euler_tour(
            network, tree, start=1, window=20, members=members
        )
        assert set(tour.visit_time) <= members

    def test_subtree_must_be_parent_closed(self, network_factory):
        graph = generators.path_graph(6)
        network = network_factory(graph)
        tree = run_bfs_tree(network, 0)
        with pytest.raises(ValueError):
            run_windowed_euler_tour(network, tree, start=3, window=4, members={3, 4})

    def test_start_must_be_member(self, network_factory):
        graph = generators.path_graph(6)
        network = network_factory(graph)
        tree = run_bfs_tree(network, 0)
        with pytest.raises(ValueError):
            run_windowed_euler_tour(network, tree, start=5, window=4, members={0, 1})

    def test_negative_window_raises(self, network_factory):
        graph = generators.path_graph(4)
        network = network_factory(graph)
        tree = run_bfs_tree(network, 0)
        with pytest.raises(ValueError):
            run_windowed_euler_tour(network, tree, start=0, window=-1)

    def test_round_complexity_linear_in_window(self, network_factory):
        graph = generators.random_tree(40, seed=4)
        network = network_factory(graph)
        tree = run_bfs_tree(network, 0)
        tour = run_windowed_euler_tour(network, tree, start=7, window=10)
        assert tour.metrics.rounds <= 10 + 4


class TestCyclicTour:
    def test_single_node_tree(self, network_factory):
        network = network_factory(generators.path_graph(1))
        tree = run_bfs_tree(network, 0)
        tour = CyclicTour(tree)
        for window in (None, 0, 1, 5):
            assert tour.window(0, window) == {0: 0}
        assert tour.window(0) == run_full_euler_tour(network, tree).visit_time

    def test_non_member_start_raises(self, network_factory):
        tree = run_bfs_tree(network_factory(generators.path_graph(6)), 0)
        with pytest.raises(ValueError):
            CyclicTour(tree, members={0, 1}).window(5, 4)

    def test_negative_window_raises(self, network_factory):
        tree = run_bfs_tree(network_factory(generators.path_graph(4)), 0)
        with pytest.raises(ValueError):
            CyclicTour(tree).window(0, -1)

    def test_members_must_contain_root(self, network_factory):
        tree = run_bfs_tree(network_factory(generators.path_graph(6)), 0)
        with pytest.raises(ValueError):
            CyclicTour(tree, members={1, 2})

    def test_members_must_be_parent_closed(self, network_factory):
        tree = run_bfs_tree(network_factory(generators.path_graph(6)), 0)
        with pytest.raises(ValueError):
            CyclicTour(tree, members={0, 1, 3})

    @staticmethod
    def _count_tours(monkeypatch):
        built = []
        original = CyclicTour.__init__

        def counting_init(self, *args, **kwargs):
            built.append(args)
            original(self, *args, **kwargs)

        monkeypatch.setattr(CyclicTour, "__init__", counting_init)
        return built

    def test_theorem1_reference_run_builds_one_tour(self, monkeypatch):
        built = self._count_tours(monkeypatch)
        graph = generators.clique_chain(24, 4)
        result = quantum_exact_diameter(graph, oracle_mode="reference", seed=1)
        assert result.diameter == graph.diameter()
        assert result.optimization.distinct_evaluations > 1
        assert len(built) == 1

    def test_theorem4_reference_run_builds_one_tour(self, monkeypatch):
        built = self._count_tours(monkeypatch)
        graph = generators.cycle_graph(40)
        result = quantum_three_halves_diameter(
            graph, oracle_mode="reference", seed=3
        )
        assert result.optimization.distinct_evaluations > 1
        assert len(built) == 1


class TestDistanceWaves:
    def _schedule_from_tour(self, network, tree):
        tour = run_full_euler_tour(network, tree)
        return {
            node: WaveScheduleEntry(start_round=2 * time, tag=time)
            for node, time in tour.visit_time.items()
        }

    def test_single_source_gives_eccentricity(self, small_graph, network_factory):
        network = network_factory(small_graph)
        root = small_graph.nodes()[0]
        schedule = {root: WaveScheduleEntry(start_round=0, tag=0)}
        duration = 2 * small_graph.num_nodes + 4
        waves = run_distance_waves(network, schedule, duration)
        distances = small_graph.bfs_distances(root)
        assert waves.max_distance == distances
        assert waves.overall_max == small_graph.eccentricity(root)

    def test_all_sources_give_diameter(self, small_graph, network_factory):
        network = network_factory(small_graph)
        root = small_graph.nodes()[0]
        tree = run_bfs_tree(network, root)
        schedule = self._schedule_from_tour(network, tree)
        max_tag = max(entry.tag for entry in schedule.values())
        duration = 2 * max_tag + 2 * tree.depth + 2
        waves = run_distance_waves(network, schedule, duration)
        assert waves.overall_max == small_graph.diameter()

    def test_per_node_values_are_max_over_sources(self, network_factory):
        graph = generators.cycle_graph(9)
        network = network_factory(graph)
        tree = run_bfs_tree(network, 0)
        schedule = self._schedule_from_tour(network, tree)
        max_tag = max(entry.tag for entry in schedule.values())
        waves = run_distance_waves(network, schedule, 2 * max_tag + 2 * tree.depth + 2)
        for node in graph.nodes():
            expected = max(graph.distance(source, node) for source in schedule)
            assert waves.max_distance[node] == expected

    def test_memory_is_logarithmic(self, network_factory):
        graph = generators.random_connected_gnp(30, 0.12, seed=2)
        network = network_factory(graph)
        tree = run_bfs_tree(network, graph.nodes()[0])
        schedule = self._schedule_from_tour(network, tree)
        max_tag = max(entry.tag for entry in schedule.values())
        waves = run_distance_waves(network, schedule, 2 * max_tag + 2 * tree.depth + 2)
        assert waves.metrics.max_node_memory_bits <= 6 * 8

    def test_duplicate_tags_rejected(self, network_factory):
        network = network_factory(generators.path_graph(4))
        schedule = {
            0: WaveScheduleEntry(start_round=0, tag=1),
            1: WaveScheduleEntry(start_round=2, tag=1),
        }
        with pytest.raises(ValueError):
            run_distance_waves(network, schedule, 10)

    def test_start_after_duration_rejected(self, network_factory):
        network = network_factory(generators.path_graph(4))
        schedule = {0: WaveScheduleEntry(start_round=20, tag=0)}
        with pytest.raises(ValueError):
            run_distance_waves(network, schedule, 10)

    def test_naive_schedule_can_be_wrong(self, network_factory):
        """Ablation: starting every wave at round 0 breaks correctness.

        With the all-at-once schedule the Figure-2 filtering rule drops
        waves, so at least one node ends up with an underestimated maximum
        on a long path (where waves collide head-on).
        """
        graph = generators.path_graph(12)
        network = network_factory(graph)
        naive = {
            node: WaveScheduleEntry(start_round=0, tag=index)
            for index, node in enumerate(graph.nodes())
        }
        waves = run_distance_waves(network, naive, 4 * graph.num_nodes)
        expected = {
            node: max(graph.distance(source, node) for source in graph.nodes())
            for node in graph.nodes()
        }
        assert any(
            waves.max_distance[node] < expected[node] for node in graph.nodes()
        )


#: ``run_distance_waves`` on a non-strict network, as measured before the
#: wave node kept a running best instead of a list of fresh messages:
#: ``(graph, schedule, forward_all) -> (d_v in node order, (rounds,
#: messages, total bits, largest message, violations, peak memory,
#: size-cache hits, size-cache misses))``.  The ``"dfs"`` schedule is the
#: Figure-2 one (``start = 2 * tau``); the ``"naive"`` one starts every
#: wave at round 0, so waves collide and ``forward_all`` sends lists.  The
#: ``"hand"`` schedule on a 6-path (pinned before the wave node built its
#: one payload directly) makes nodes 2 and 4 start their own wave in the
#: round a higher-tag wave reaches them, so each broadcasts the ``[start,
#: forward]`` list.
_PINNED_WAVES = {
    ("clique_chain", "naive", True): (
        [5, 5, 5, 4, 3, 3, 3, 2, 1, 0, 1, 1], (60, 149, 5427, 70, 40, 24, 116, 33)),
    ("clique_chain", "naive", False): (
        [5, 5, 5, 4, 3, 3, 3, 2, 1, 0, 1, 1], (60, 149, 2908, 22, 0, 24, 122, 27)),
    ("clique_chain", "dfs", True): (
        [5, 5, 5, 4, 3, 3, 3, 3, 4, 5, 5, 5], (60, 480, 9120, 22, 0, 24, 418, 62)),
    ("clique_chain", "dfs", False): (
        [5, 5, 5, 4, 3, 3, 3, 3, 4, 5, 5, 5], (60, 480, 9120, 22, 0, 24, 418, 62)),
    ("gnp", "naive", True): (
        [3, 3, 2, 2, 2, 2, 2, 1, 2, 0, 3, 2, 3, 2, 1, 2, 2, 1, 1, 3],
        (88, 262, 12983, 185, 61, 30, 213, 49)),
    ("gnp", "naive", False): (
        [3, 3, 2, 2, 2, 2, 2, 1, 2, 0, 3, 2, 3, 2, 1, 2, 2, 1, 1, 3],
        (88, 262, 5365, 22, 0, 30, 229, 33)),
    ("gnp", "dfs", True): (
        [3, 3, 3, 2, 3, 3, 3, 2, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3],
        (88, 1920, 37954, 22, 0, 30, 1842, 78)),
    ("gnp", "dfs", False): (
        [3, 3, 3, 2, 3, 3, 3, 2, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3],
        (88, 1920, 37954, 22, 0, 30, 1842, 78)),
    ("path", "hand", False): (
        [0, 1, 2, 3, 4, 5], (16, 13, 336, 41, 0, 18, 5, 8)),
    ("path", "hand", True): (
        [0, 1, 2, 3, 4, 5], (16, 13, 420, 62, 2, 18, 5, 8)),
}

_WAVE_GRAPHS = {
    "clique_chain": lambda: generators.clique_chain(3, 4),
    "gnp": lambda: generators.random_connected_gnp(20, p=0.15, seed=7),
    "path": lambda: generators.path_graph(6),
}

#: Node 0's tag-9 wave reaches node 2 in round 2 and node 4 in round 4,
#: the rounds in which those two start their own (lower-tag) waves.
_HAND_SCHEDULE = {
    0: WaveScheduleEntry(start_round=0, tag=9),
    5: WaveScheduleEntry(start_round=1, tag=4),
    2: WaveScheduleEntry(start_round=2, tag=3),
    4: WaveScheduleEntry(start_round=4, tag=1),
}


@pytest.mark.parametrize("engine", ["dense", "sparse"])
@pytest.mark.parametrize("key", sorted(_PINNED_WAVES))
def test_waves_match_pinned_results_and_metrics(key, engine):
    graph_name, schedule_kind, forward_all = key
    graph = _WAVE_GRAPHS[graph_name]()
    if schedule_kind == "hand":
        schedule, duration = _HAND_SCHEDULE, 16
    else:
        network = Network(graph, seed=0, strict_bandwidth=False, engine=engine)
        tree = run_bfs_tree(network, graph.nodes()[0])
        tour = run_full_euler_tour(network, tree)
        naive = schedule_kind == "naive"
        schedule = {
            node: WaveScheduleEntry(start_round=0 if naive else 2 * time, tag=time)
            for node, time in tour.visit_time.items()
        }
        duration = 4 * graph.num_nodes + 2 * tree.depth + 2
    waves = run_distance_waves(
        Network(graph, seed=0, strict_bandwidth=False, engine=engine),
        schedule, duration, forward_all=forward_all,
    )
    metrics = waves.metrics
    assert (
        [waves.max_distance[node] for node in graph.nodes()],
        (metrics.rounds, metrics.messages, metrics.total_bits,
         metrics.max_edge_bits_per_round, metrics.bandwidth_violations,
         metrics.max_node_memory_bits, metrics.size_cache_hits,
         metrics.size_cache_misses),
    ) == _PINNED_WAVES[key]
