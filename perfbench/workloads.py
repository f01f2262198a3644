"""The benchmark's workloads: fixed sweep grids run through the public API.

Every workload is a ``(specs x algorithms)`` grid built from the workload
seed, which feeds both the ``GraphSpec`` seeds and ``base_seed``.  A pass
runs the grid the way ``repro sweep --out`` does -- process-default
engine, schedule backend and tier, a fresh checkpoint store -- and then
exports the store as canonical JSONL.  After each pass the same store is
resumed once, which recomputes nothing; its export must match the fresh
one, and on ``checkpointed_pool`` its time is ``resume_s``.

Module attributes are looked up at call time (``sweep.run_sweep_grid``,
``export.render_records``, ...) so that a traced run sees the wrappers
:mod:`spans` installs.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import repro.analysis.sweep as sweep
import repro.store.export as export
import repro.store.merge as merge
from repro.dispatch.backend import RemoteDispatch
from repro.dispatch.coordinator import DispatchCoordinator
from repro.runner.algorithms import EXACT, TWO_APPROX, resolve_algorithms
from repro.runner.spec import GraphSpec, clear_worker_caches
from repro.store import ExperimentStore

import spans

_perf = time.perf_counter
HERE = os.path.dirname(os.path.abspath(__file__))

#: Dispatch workers started for every ``remote_shards`` pass.
REMOTE_WORKERS = 2


@dataclass(frozen=True)
class Workload:
    """One named grid and how a pass executes it.

    ``nominal_pass_s`` is what a pass and its checks cost on a 2-vCPU
    x86 VM (Python 3.11, numpy 2.4) at the commit that defined the
    workload; it only sizes the fixed pass count of a run.
    """

    name: str
    nominal_pass_s: float
    families: Tuple[str, ...]
    sizes: Tuple[int, ...]
    algorithms: Tuple[str, ...]
    graph_seed_offsets: Tuple[int, ...] = (0,)
    jobs: int = 1
    fault_model: Optional[str] = None
    remote: bool = False
    reports_resume: bool = False

    def specs(self, seed: int) -> List[GraphSpec]:
        return [
            GraphSpec(family=family, num_nodes=n, seed=seed + offset)
            for family in self.families
            for n in self.sizes
            for offset in self.graph_seed_offsets
        ]


_POOL_GRID = dict(
    families=("cycle", "clique_chain", "random_sparse", "tree"),
    sizes=tuple(range(16, 97, 8)),
    algorithms=("two_approx_retry",),
    graph_seed_offsets=(0, 1),
    fault_model="flaky",
)

WORKLOADS: Dict[str, Workload] = {
    "theorem1_quantum": Workload(
        name="theorem1_quantum",
        nominal_pass_s=5.0,
        families=("clique_chain", "cycle", "random_sparse"),
        sizes=(192, 384),
        algorithms=("quantum_exact",),
    ),
    "checkpointed_pool": Workload(
        name="checkpointed_pool", nominal_pass_s=1.0, jobs=2, reports_resume=True,
        **_POOL_GRID),
    "remote_shards": Workload(
        name="remote_shards", nominal_pass_s=7.0, remote=True, **_POOL_GRID),
}


@dataclass
class PassResult:
    """What one pass measured, and digests of the exports it produced.

    ``digests`` maps each view of the pass's records -- ``fresh`` (the
    checkpoint store), ``streamed`` (the list ``run_sweep_grid``
    returned), ``merged`` (remote only), ``resumed`` and ``reloaded`` --
    to the sha256 of its canonical JSONL export; all must be equal.
    ``wait_s`` is the part of ``wall_s`` spent in the coordinator's
    ``stop()``, a timed join that does not run faster on a faster host.
    """

    wall_s: float
    gaps_s: List[float]
    resume_s: float
    records: list
    digests: Dict[str, str] = field(default_factory=dict)
    dispatch_stats: Optional[dict] = None
    wait_s: float = 0.0


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class Runner:
    """Executes passes of one workload inside a scratch directory."""

    def __init__(self, workload: Workload, seed: int, scratch: str) -> None:
        self.workload = workload
        self.seed = seed
        self.scratch = scratch
        self.specs = workload.specs(seed)
        self.passes = 0

    def run_pass(self) -> PassResult:
        index = self.passes
        self.passes += 1
        directory = os.path.join(self.scratch, f"pass-{index}")
        os.makedirs(directory)
        if spans.TRACER is not None:
            spans.TRACER.pass_index = index
        clear_worker_caches()
        # Resolved per pass: a traced pass must pick up the traced kernels.
        algorithms = resolve_algorithms(self.workload.algorithms)
        ticks: List[float] = []

        def progress(done: int, total: int) -> None:
            ticks.append(_perf())

        store = ExperimentStore(os.path.join(directory, "store.jsonl"))
        merged_path = os.path.join(directory, "merged.jsonl")
        digests: Dict[str, str] = {}
        stats, wait = None, 0.0
        start = _perf()
        with spans.span("bench.pass"):
            if self.workload.remote:
                records, merged, stats, wait = self._remote(
                    algorithms, store, progress, directory, merged_path, index)
                result_store = ExperimentStore(merged_path)
                export.render_records(merged, "jsonl")
            else:
                records = sweep.run_sweep_grid(
                    self.specs, algorithms,
                    jobs=self.workload.jobs,
                    base_seed=self.seed,
                    store=store,
                    fault_model=self.workload.fault_model,
                    progress=progress,
                )
                result_store = store
                export.render_records(store.load_records(), "jsonl")
        wall = _perf() - start
        if self.workload.remote:
            digests["merged"] = digest(export.render_jsonl(merged))
        digests["streamed"] = digest(export.render_jsonl(records))
        digests["fresh"] = digest(export.render_jsonl(store.load_records()))
        began = _perf()
        with spans.span("bench.resume"):
            resumed = sweep.run_sweep_grid(
                self.specs, algorithms,
                base_seed=self.seed,
                store=result_store,
                resume=True,
                fault_model=self.workload.fault_model,
            )
            export.render_records(resumed, "jsonl")
        resume_s = _perf() - began
        digests["resumed"] = digest(export.render_jsonl(resumed))
        digests["reloaded"] = digest(export.render_jsonl(result_store.load_records()))
        gaps = [later - earlier for earlier, later in zip(ticks, ticks[1:])]
        return PassResult(wall, gaps, resume_s, records, digests, stats, wait)

    def _remote(self, algorithms, store, progress, directory, merged_path, index):
        """Mirror ``repro sweep --dispatch remote --out``, then merge.

        Returns the records streamed to the client, the merged records,
        the coordinator's counters and the seconds ``stop()`` took.
        """
        shard_dir = os.path.join(directory, "shards")
        os.makedirs(shard_dir)
        procs: List[subprocess.Popen] = []
        coordinator = DispatchCoordinator()
        try:
            with spans.span("dispatch.register"):
                coordinator.start()
                host, port = coordinator.address
                procs = _spawn_workers(f"{host}:{port}", shard_dir, index)
                coordinator.wait_for_workers(REMOTE_WORKERS, timeout=60.0)
            streamed = sweep.run_sweep_grid(
                self.specs, algorithms,
                base_seed=self.seed,
                store=store,
                fault_model=self.workload.fault_model,
                progress=progress,
                dispatch=RemoteDispatch(
                    coordinator=coordinator, workers=REMOTE_WORKERS),
            )
            stats = coordinator.stats()
        finally:
            began = _perf()
            coordinator.stop()
            stop_s = _perf() - began
            _reap(procs)
        shards = sorted(
            os.path.join(shard_dir, name)
            for name in os.listdir(shard_dir)
            if name.endswith(".jsonl")
        )
        merged = merge.merge_shards(shards, out_path=merged_path)
        return streamed, merged, stats, stop_s


def _spawn_workers(address: str, shard_dir: str, index: int):
    """Start the dispatch workers through the benchmark's entry point.

    In a traced run the workers install the same wrappers; their spans
    hang off the span that spawned them.
    """
    env = dict(os.environ)
    tracer = spans.TRACER
    if tracer is not None:
        env["PERFBENCH_TRACE_DIR"] = tracer.sink_dir
        env["PERFBENCH_PASS"] = str(index)
        env["PERFBENCH_PARENT_SPAN"] = tracer.current_span() or ""
    return [
        subprocess.Popen(
            [sys.executable, os.path.join(HERE, "dispatch_worker.py"),
             address, "--shard-dir", shard_dir,
             "--name", f"bench{number + 1}", "--once"],
            env=env,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        for number in range(REMOTE_WORKERS)
    ]


def _reap(procs: List[subprocess.Popen]) -> None:
    for proc in procs:
        try:
            proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


# -- correctness -------------------------------------------------------------
def guarantee_holds(guarantee: Optional[str], value: float, diameter: int) -> bool:
    """The benchmark's own check of one value against its guarantee."""
    if guarantee == EXACT:
        return value == diameter
    if guarantee == TWO_APPROX:
        return 2 * value >= diameter and value <= diameter
    return False


class Checker:
    """Counts failed cells; oracle diameters are computed after timing."""

    def __init__(self, workload: Workload, specs: List[GraphSpec]) -> None:
        self.workload = workload
        self.specs = specs
        self._diameters: Dict[GraphSpec, int] = {}

    def _diameter(self, spec: GraphSpec) -> int:
        value = self._diameters.get(spec)
        if value is None:
            value = self._diameters[spec] = spec.build().compile().diameter()
        return value

    def bad_cells(self, records: list) -> int:
        """Cells that failed, converged to nothing, or broke a guarantee."""
        from repro.runner.algorithms import SWEEP_ALGORITHMS

        tasks = [(spec, name) for spec in self.specs for name in self.workload.algorithms]
        if len(records) != len(tasks):
            return len(tasks)
        bad = 0
        for (spec, name), record in zip(tasks, records):
            if not record.success or record.correct is False:
                bad += 1
                continue
            if record.algorithm != name or record.family != spec.label:
                bad += 1
                continue
            diameter = self._diameter(spec)
            if record.diameter is not None and record.diameter != diameter:
                bad += 1
                continue
            if not guarantee_holds(SWEEP_ALGORITHMS[name].guarantee,
                                   record.value, diameter):
                bad += 1
        return bad
