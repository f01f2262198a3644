"""End-to-end integration tests across the whole stack.

These tests exercise the full pipelines the README advertises: classical
baseline vs quantum algorithm on the same graphs, the approximation
algorithms' guarantees, the lower-bound reductions fed by real CONGEST
executions, and the Table-1 regeneration helpers.
"""

from __future__ import annotations

import math

import pytest

from repro.algorithms import (
    run_classical_exact_diameter,
    run_classical_two_approximation,
    run_hprw_three_halves_approximation,
)
from repro.analysis.tables import render_table1
from repro.congest.network import Network
from repro.core import quantum_exact_diameter, quantum_three_halves_diameter
from repro.core.complexity import quantum_exact_upper
from repro.graphs import generators
from repro.lowerbounds.bounds import theorem2_lower_bound, theorem3_lower_bound
from repro.lowerbounds.congest_to_two_party import (
    simulate_congest_algorithm_as_two_party_protocol,
)
from repro.lowerbounds.disjointness import random_intersecting_instance
from repro.lowerbounds.reductions import achk_reduction
from repro.lowerbounds.simulation import (
    make_disjointness_path_protocol,
    simulate_path_protocol_as_two_party,
)


class TestExactPipelines:
    @pytest.mark.parametrize(
        "builder",
        [
            lambda: generators.clique_chain(4, 4),
            lambda: generators.cycle_graph(17),
            lambda: generators.grid_graph(4, 4),
            lambda: generators.lollipop_graph(7, 6),
            lambda: generators.random_connected_gnp(22, 0.12, seed=5),
        ],
    )
    def test_classical_and_quantum_agree_with_oracle(self, builder):
        graph = builder()
        truth = graph.diameter()
        classical = run_classical_exact_diameter(Network(graph, seed=1))
        quantum = quantum_exact_diameter(graph, oracle_mode="reference", seed=1)
        assert classical.diameter == truth
        assert quantum.diameter == truth

    def test_quantum_round_counts_track_sqrt_nd_shape(self):
        """The measured quantum rounds, normalised by sqrt(n D), stay within a
        narrow band while n grows (whereas rounds / n would shrink)."""
        normalised = []
        for blocks in (3, 5, 7, 9):
            graph = generators.clique_chain(blocks, 4)
            result = quantum_exact_diameter(graph, oracle_mode="reference", seed=2)
            n, diameter = graph.num_nodes, graph.diameter()
            normalised.append(result.rounds / quantum_exact_upper(n, diameter))
        spread = max(normalised) / min(normalised)
        assert spread <= 6.0

    def test_classical_rounds_scale_linearly(self):
        pytest.importorskip("numpy")
        from repro.analysis.fitting import fit_power_law

        sizes = [12, 24, 48]
        rounds = []
        for n in sizes:
            graph = generators.cycle_graph(n)
            rounds.append(run_classical_exact_diameter(Network(graph, seed=0)).rounds)
        fit = fit_power_law(sizes, rounds)
        assert 0.8 <= fit.exponent <= 1.2


class TestApproximationPipelines:
    def test_all_estimators_respect_their_guarantees(self):
        graph = generators.random_connected_gnp(28, 0.1, seed=13)
        truth = graph.diameter()
        two = run_classical_two_approximation(Network(graph, seed=0))
        assert two.estimate <= truth <= 2 * two.estimate
        three_halves = run_hprw_three_halves_approximation(Network(graph, seed=0), seed=4)
        assert math.floor(2 * truth / 3) <= three_halves.estimate <= truth
        quantum = quantum_three_halves_diameter(graph, oracle_mode="reference", seed=4)
        assert math.floor(2 * truth / 3) <= quantum.estimate <= truth

    def test_quantum_approx_uses_fewer_rounds_than_quantum_exact_on_long_paths(self):
        """On high-diameter graphs the 3/2-approximation (with its D-dominated
        cost) beats the exact algorithm's sqrt(n D) term constants aside."""
        graph = generators.path_graph(40)
        exact = quantum_exact_diameter(graph, oracle_mode="reference", seed=1)
        approx = quantum_three_halves_diameter(graph, oracle_mode="reference", seed=1)
        assert approx.rounds < exact.rounds


class TestLowerBoundPipelines:
    def test_reduction_round_trip_with_real_congest_execution(self):
        reduction = achk_reduction(5)
        x, y = random_intersecting_instance(5, seed=21)
        outcome = simulate_congest_algorithm_as_two_party_protocol(reduction, x, y)
        assert outcome.correct
        assert outcome.diameter == 5
        # The implied statement of Theorem 10: r * b >= Omega(k / r) would be
        # contradicted if the transcript were impossibly small.
        assert outcome.transcript.total_bits >= reduction.input_length / max(
            1, outcome.transcript.num_messages
        )

    def test_path_simulation_consistent_with_theorem3_accounting(self):
        x, y = random_intersecting_instance(24, seed=2)
        d = 6
        protocol = make_disjointness_path_protocol(x, y, path_length=d)
        result = simulate_path_protocol_as_two_party(protocol)
        assert result.bob_output == 0
        # Message count ~ r / d and communication ~ r (bw + s).
        assert result.num_messages <= 2 * (result.distributed_rounds // d) + 4
        assert result.total_communication_bits <= 4 * result.distributed_rounds * (
            protocol.bandwidth_bits + result.max_relay_memory_bits
        )

    def test_upper_bounds_respect_lower_bounds(self):
        for n, diameter in ((10 ** 4, 4), (10 ** 5, 32), (10 ** 6, 10 ** 3)):
            upper = quantum_exact_upper(n, diameter)
            assert upper * math.log2(n) ** 2 >= theorem2_lower_bound(n, diameter)
            assert upper * math.log2(n) ** 2 >= theorem3_lower_bound(
                n, diameter, memory_qubits=int(math.log2(n) ** 2)
            )


class TestReporting:
    def test_table1_snapshot_renders(self):
        text = render_table1(n=4096, diameter=64)
        assert "quantum" in text
        assert str(4096) in text

    def test_quantum_result_reports_all_accounting_fields(self):
        graph = generators.cycle_graph(12)
        result = quantum_exact_diameter(graph, oracle_mode="reference", seed=0)
        assert result.counts.setup_calls > 0
        assert result.counts.evaluation_calls > 0
        assert result.metrics.phase_rounds["setup"] > 0
        assert result.metrics.phase_rounds["evaluation"] > 0
        assert result.metrics.phase_rounds["initialization"] > 0
        assert result.memory_bits_per_node > 0
