"""Tests for the centralized quantum primitives (Section 2.3 / Theorem 6)."""

from __future__ import annotations

import math
import random

import pytest

from repro.quantum.amplitude_amplification import (
    amplitude_amplification_search,
    grover_success_probability,
    optimal_grover_iterations,
    theorem6_query_budget,
)
from repro.quantum.cost_model import (
    QuantumCostModel,
    QuantumResourceCount,
    leader_memory_bits,
)
from repro.quantum.grover import grover_search
from repro.quantum.maximum_finding import find_maximum, uniform_amplitudes
from repro.congest.metrics import ExecutionMetrics

try:  # the state-vector simulator needs numpy; only its tests skip
    from repro.quantum.state import StateVector, cnot_copy_register
except ImportError:
    pass


class TestGroverRotationAlgebra:
    def test_zero_iterations_gives_initial_probability(self):
        assert grover_success_probability(0.25, 0) == pytest.approx(0.25)

    def test_probability_is_exact_rotation(self):
        p = 0.04
        theta = math.asin(math.sqrt(p))
        for k in range(6):
            expected = math.sin((2 * k + 1) * theta) ** 2
            assert grover_success_probability(p, k) == pytest.approx(expected)

    def test_single_marked_item_in_four_is_found_after_one_iteration(self):
        # The textbook case: N = 4, one marked item, one iteration succeeds
        # with certainty.
        assert grover_success_probability(0.25, 1) == pytest.approx(1.0)

    def test_optimal_iterations_scale_as_inverse_sqrt(self):
        small = optimal_grover_iterations(1 / 16)
        large = optimal_grover_iterations(1 / 1024)
        assert large > small
        assert large == pytest.approx(math.pi / 4 * math.sqrt(1024), rel=0.2)

    def test_invalid_probability_rejected(self):
        with pytest.raises(ValueError):
            grover_success_probability(1.5, 1)
        with pytest.raises(ValueError):
            grover_success_probability(0.5, -1)
        with pytest.raises(ValueError):
            optimal_grover_iterations(0.0)

    def test_budget_scales_with_eps_and_delta(self):
        assert theorem6_query_budget(0.01, 0.1) > theorem6_query_budget(0.25, 0.1)
        assert theorem6_query_budget(0.1, 0.001) > theorem6_query_budget(0.1, 0.1)
        with pytest.raises(ValueError):
            theorem6_query_budget(0.0, 0.1)
        with pytest.raises(ValueError):
            theorem6_query_budget(0.1, 1.0)


class TestAmplitudeAmplificationSearch:
    def _uniform(self, n):
        return {i: 1.0 / math.sqrt(n) for i in range(n)}

    def test_finds_marked_item_with_high_probability(self):
        amplitudes = self._uniform(64)
        marked = {7, 21}
        successes = 0
        for seed in range(30):
            outcome = amplitude_amplification_search(
                amplitudes, lambda x: x in marked, random.Random(seed),
                eps=2 / 64, delta=0.05,
            )
            if outcome.found is not None:
                assert outcome.found in marked
                successes += 1
        assert successes >= 25

    def test_reports_empty_when_nothing_marked(self):
        amplitudes = self._uniform(32)
        outcome = amplitude_amplification_search(
            amplitudes, lambda x: False, random.Random(1), eps=1 / 32, delta=0.1
        )
        assert outcome.found is None
        assert outcome.oracle_calls <= theorem6_query_budget(1 / 32, 0.1)

    def test_query_count_scales_as_sqrt(self):
        calls = {}
        for n in (16, 256):
            amplitudes = self._uniform(n)
            total = 0
            for seed in range(20):
                outcome = amplitude_amplification_search(
                    amplitudes, lambda x: x == 0, random.Random(seed),
                    eps=1 / n, delta=0.1,
                )
                total += outcome.oracle_calls
            calls[n] = total / 20
        # sqrt(256/16) = 4; allow generous slack around it.
        assert 1.5 <= calls[256] / calls[16] <= 12.0

    def test_unnormalised_amplitudes_rejected(self):
        with pytest.raises(ValueError):
            amplitude_amplification_search(
                {0: 1.0, 1: 1.0}, lambda x: True, random.Random(0), eps=0.5, delta=0.1
            )

    def test_respects_conditional_distribution(self):
        # Marked items with unequal amplitudes should be sampled according
        # to their squared amplitudes.
        amplitudes = {"a": math.sqrt(0.64), "b": math.sqrt(0.16), "c": math.sqrt(0.2)}
        counts = {"a": 0, "b": 0}
        for seed in range(200):
            outcome = amplitude_amplification_search(
                amplitudes, lambda x: x in ("a", "b"), random.Random(seed),
                eps=0.5, delta=0.1,
            )
            if outcome.found is not None:
                counts[outcome.found] += 1
        assert counts["a"] > counts["b"]


class TestGroverSearch:
    def test_finds_unique_element(self):
        items = list(range(50))
        result = grover_search(items, lambda x: x == 37, rng=random.Random(3))
        assert result.found == 37
        assert result.oracle_calls >= 1

    def test_no_marked_items(self):
        result = grover_search(list(range(20)), lambda x: False, rng=random.Random(0))
        assert not result.succeeded

    def test_empty_collection_rejected(self):
        with pytest.raises(ValueError):
            grover_search([], lambda x: True)


class TestMaximumFinding:
    def test_finds_maximum_with_high_probability(self):
        values = {i: (i * 7) % 23 for i in range(40)}
        true_max = max(values.values())
        hits = 0
        for seed in range(20):
            result = find_maximum(
                uniform_amplitudes(values), lambda x: values[x],
                eps=1 / 40, delta=0.05, rng=random.Random(seed),
            )
            if result.best_value == true_max:
                hits += 1
        assert hits >= 16

    def test_unique_maximum_found_reliably(self):
        values = {i: (100 if i == 13 else 1) for i in range(30)}
        hits = sum(
            find_maximum(
                uniform_amplitudes(values), lambda x: values[x],
                eps=1 / 30, delta=0.05, rng=random.Random(seed),
            ).best_item == 13
            for seed in range(20)
        )
        assert hits >= 15

    def test_constant_function(self):
        values = {i: 5 for i in range(10)}
        result = find_maximum(
            uniform_amplitudes(values), lambda x: values[x],
            eps=0.5, delta=0.1, rng=random.Random(0),
        )
        assert result.best_value == 5

    def test_call_counts_reported(self):
        values = {i: i for i in range(16)}
        result = find_maximum(
            uniform_amplitudes(values), lambda x: values[x],
            eps=1 / 16, delta=0.1, rng=random.Random(5),
        )
        assert result.setup_calls >= result.measurements >= 1
        assert result.evaluation_calls >= 1

    def test_larger_eps_means_fewer_calls(self):
        values = {i: i % 5 for i in range(64)}
        few = find_maximum(
            uniform_amplitudes(values), lambda x: values[x],
            eps=0.5, delta=0.1, rng=random.Random(2),
        )
        many = find_maximum(
            uniform_amplitudes(values), lambda x: values[x],
            eps=1 / 64, delta=0.1, rng=random.Random(2),
        )
        assert few.evaluation_calls <= many.evaluation_calls * 2

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            find_maximum({}, lambda x: 0, eps=0.5)
        with pytest.raises(ValueError):
            find_maximum({0: 1.0}, lambda x: 0, eps=0.0)


class TestCostModel:
    def test_total_rounds_formula(self):
        model = QuantumCostModel(
            initialization=ExecutionMetrics(rounds=10),
            setup=ExecutionMetrics(rounds=3),
            evaluation=ExecutionMetrics(rounds=7),
        )
        counts = QuantumResourceCount(setup_calls=4, evaluation_calls=5)
        assert model.total_rounds(counts) == 10 + 12 + 35
        metrics = model.total_metrics(counts)
        assert metrics.rounds == 57
        assert metrics.phase_rounds["setup"] == 12
        assert metrics.phase_rounds["evaluation"] == 35

    def test_counts_merge(self):
        a = QuantumResourceCount(setup_calls=1, evaluation_calls=2, measurements=3)
        b = QuantumResourceCount(setup_calls=4, evaluation_calls=5, measurements=6)
        merged = a.merged(b)
        assert (merged.setup_calls, merged.evaluation_calls, merged.measurements) == (5, 7, 9)

    def test_leader_memory_is_polylog(self):
        small = leader_memory_bits(64, 1 / 64)
        large = leader_memory_bits(4096, 1 / 4096)
        assert small <= large
        assert large <= (math.ceil(math.log2(4097)) ** 2) * 2
        with pytest.raises(ValueError):
            leader_memory_bits(0, 0.5)
        with pytest.raises(ValueError):
            leader_memory_bits(8, 0.0)


class TestStateVector:
    @pytest.fixture(autouse=True)
    def _numpy_required(self):
        pytest.importorskip("numpy")

    def test_initial_state(self):
        state = StateVector(2)
        assert state.probability_of([0, 0]) == pytest.approx(1.0)
        assert state.is_normalised()

    def test_hadamard_creates_uniform(self):
        state = StateVector(3)
        for qubit in range(3):
            state.apply_hadamard(qubit)
        probabilities = state.probabilities()
        assert len(probabilities) == 8
        assert all(p == pytest.approx(1 / 8) for p in probabilities.values())

    def test_x_and_z_gates(self):
        state = StateVector.from_basis_state([0, 1])
        state.apply_x(0)
        assert state.probability_of([1, 1]) == pytest.approx(1.0)
        state.apply_z(0)  # only a phase; probabilities unchanged
        assert state.probability_of([1, 1]) == pytest.approx(1.0)

    def test_cnot(self):
        state = StateVector.from_basis_state([1, 0])
        state.apply_cnot(0, 1)
        assert state.probability_of([1, 1]) == pytest.approx(1.0)

    def test_cnot_on_superposition_creates_bell_pair(self):
        state = StateVector(2)
        state.apply_hadamard(0)
        state.apply_cnot(0, 1)
        probabilities = state.probabilities()
        assert probabilities[(0, 0)] == pytest.approx(0.5)
        assert probabilities[(1, 1)] == pytest.approx(0.5)

    def test_cnot_copy_register_on_basis_state(self):
        """The CNOT copy of Section 2: |u>|0> -> |u>|u>."""
        state = StateVector.from_basis_state([1, 0, 1, 0, 0, 0])
        cnot_copy_register(state, source=[0, 1, 2], target=[3, 4, 5])
        assert state.probability_of([1, 0, 1, 1, 0, 1]) == pytest.approx(1.0)

    def test_cnot_copy_register_entangles_superposition(self):
        """On a superposition the CNOT copy entangles rather than clones."""
        state = StateVector(2)
        state.apply_hadamard(0)
        cnot_copy_register(state, source=[0], target=[1])
        probabilities = state.probabilities()
        assert set(probabilities) == {(0, 0), (1, 1)}

    def test_cnot_copy_validation(self):
        state = StateVector(4)
        with pytest.raises(ValueError):
            cnot_copy_register(state, [0, 1], [1, 2])
        with pytest.raises(ValueError):
            cnot_copy_register(state, [0], [1, 2])

    def test_grover_on_state_vector(self):
        """One explicit Grover iteration on 2 qubits finds the marked item."""
        state = StateVector.uniform_superposition(2)
        state.apply_phase_oracle(lambda bits: bits == (1, 0))
        state.apply_diffusion()
        assert state.probability_of([1, 0]) == pytest.approx(1.0)

    def test_measure_respects_born_rule(self):
        state = StateVector.from_basis_state([0, 1])
        assert state.measure(random.Random(0)) == (0, 1)

    def test_too_many_qubits_rejected(self):
        with pytest.raises(ValueError):
            StateVector(25)

    def test_qubit_index_validation(self):
        state = StateVector(2)
        with pytest.raises(ValueError):
            state.apply_hadamard(5)
        with pytest.raises(ValueError):
            state.apply_cnot(0, 0)
