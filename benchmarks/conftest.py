"""Pytest fixtures for the benchmark harnesses."""

from __future__ import annotations

import pytest

from repro.config import current_config, use_config
from repro.engine import ENGINE_NAMES
from repro.quantum.backend import BACKEND_NAMES
from repro.tier import TIER_NAMES


def pytest_addoption(parser):
    parser.addoption(
        "--engine",
        default=None,
        choices=ENGINE_NAMES,
        help=(
            "execution engine for all CONGEST networks built by the "
            "benchmarks: 'dense' (seed behaviour) or 'sparse' (event-driven; "
            "identical metrics, idle nodes skipped)"
        ),
    )
    parser.addoption(
        "--backend",
        default=None,
        choices=BACKEND_NAMES,
        help=(
            "quantum schedule backend for all quantum workloads: "
            "'sampling' (seed behaviour) or 'batched' (precomputed "
            "rotation statistics; identical results, faster schedules)"
        ),
    )
    parser.addoption(
        "--tier",
        default=None,
        choices=TIER_NAMES,
        help=(
            "compute tier for the graph oracles: 'stdlib' (seed behaviour) "
            "or 'numpy' (vectorized bitset kernels; byte-identical results)"
        ),
    )
    parser.addoption(
        "--jobs",
        type=int,
        default=1,
        help=(
            "worker processes for batch-submitted benchmark grids "
            "(1 = serial, 0 = one per CPU).  Parallel results are "
            "byte-identical to serial; only wall-clock changes."
        ),
    )
    parser.addoption(
        "--store",
        default=None,
        metavar="PATH",
        help=(
            "persist measured benchmark rows to this JSONL experiment "
            "store (appended across tests; see repro.store)"
        ),
    )


@pytest.fixture(autouse=True)
def _execution_config(request):
    """Honour ``--engine``/``--backend``/``--tier`` with one installed config.

    The benchmarks build their networks, quantum schedules and oracles
    deep inside workload helpers, so the selections ride on the current
    :class:`repro.config.ExecutionConfig` (which the batch runner ships
    to its pool workers) rather than a parameter threaded through every
    call; the previous config is restored after each test.
    """
    option = request.config.getoption
    config = current_config().override(
        engine=option("--engine"),
        backend=option("--backend"),
        tier=option("--tier"),
    )
    with use_config(config):
        yield


@pytest.fixture
def jobs(request):
    """The ``--jobs`` worker count for batch-submitted grids."""
    return request.config.getoption("--jobs")


@pytest.fixture
def store(request):
    """The ``--store`` experiment store for persisted rows, or ``None``."""
    path = request.config.getoption("--store")
    if path is None:
        return None
    from repro.store import ExperimentStore

    return ExperimentStore(path)


@pytest.fixture
def run_once(benchmark):
    """Run the measured callable exactly once.

    The workloads are heavy, deterministic sweeps; statistical repetition
    would only multiply the wall-clock time without changing the measured
    round counts, which are the quantities of interest.
    """

    def runner(function, *args, **kwargs):
        return benchmark.pedantic(function, args=args, kwargs=kwargs, rounds=1, iterations=1)

    return runner
