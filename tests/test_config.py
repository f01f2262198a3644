"""Tests for the execution config and the process boundaries it crosses.

One :class:`repro.config.ExecutionConfig` (engine, schedule backend,
compute tier, fault model) is installed with :func:`use_config` and must
reach every place a cell runs -- spawned pool workers and remote
dispatch workers -- and stamp run headers with unchanged bytes.
"""

from __future__ import annotations

import json
import os
import platform
import re
import subprocess
import sys
import threading

import pytest

import repro.analysis.sweep as sweep
from repro.analysis.sweep import run_sweep_grid
from repro.config import ExecutionConfig, current_config, use_config
from repro.dispatch import DispatchCoordinator, RemoteDispatch
from repro.dispatch.worker import run_worker
from repro.faults import FAULT_MODELS, NULL_FAULT_MODEL, FaultModel
from repro.runner import BatchRunner, GraphSpec, resolve_algorithms
from repro.service import GridRequest
from repro.store import collect_provenance

LOSSY = FaultModel(loss=0.05, timeout=256, seed=4)

SRC = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"
)


def _config_probe(task):
    return current_config()


class TestExecutionConfig:
    def test_defaults(self):
        config = ExecutionConfig()
        assert (config.engine, config.backend, config.tier) == (
            "sparse", "sampling", "stdlib"
        )
        assert config.fault is NULL_FAULT_MODEL

    def test_fault_registry_name_becomes_model(self):
        assert ExecutionConfig(fault="flaky").fault is FAULT_MODELS["flaky"]

    @pytest.mark.parametrize("field, value, message", [
        ("engine", "warp", "unknown engine 'warp' (available: dense, sparse)"),
        ("backend", "bogus",
         "unknown schedule backend 'bogus' (available: batched, sampling)"),
        ("tier", "cupy", "unknown compute tier 'cupy' (available: numpy, stdlib)"),
        ("fault", "hurricane", "unknown fault model 'hurricane' (available: "),
    ])
    def test_unknown_names_raise_and_leave_config(self, field, value, message):
        before = current_config()
        with pytest.raises(ValueError, match=re.escape(message)):
            ExecutionConfig(**{field: value})
        with pytest.raises(ValueError, match=re.escape(message)):
            before.override(**{field: value})
        assert current_config() is before

    def test_numpy_tier_without_numpy_is_actionable(self, monkeypatch):
        monkeypatch.setitem(sys.modules, "numpy", None)
        before = current_config()
        with pytest.raises(ImportError, match=re.escape("repro[numpy]")):
            ExecutionConfig(tier="numpy")
        assert current_config() is before

    def test_override_replaces_only_given_fields(self):
        base = ExecutionConfig(engine="dense", fault="lossy")
        assert base.override() is base
        assert base.override(backend="batched") == ExecutionConfig(
            engine="dense", backend="batched", fault="lossy"
        )
        assert base.override(fault=NULL_FAULT_MODEL).fault.is_null

    def test_dict_round_trip(self):
        config = ExecutionConfig(engine="dense", backend="batched", fault=LOSSY)
        data = json.loads(json.dumps(config.to_dict()))
        assert list(data) == ["engine", "backend", "tier", "fault"]
        assert ExecutionConfig.from_dict(data) == config
        assert ExecutionConfig().to_dict()["fault"] is None
        assert ExecutionConfig.from_dict(ExecutionConfig().to_dict()) == ExecutionConfig()


class TestUseConfig:
    def test_installs_and_restores(self):
        before = current_config()
        config = ExecutionConfig(engine="dense")
        with use_config(config) as installed:
            assert installed is config
            assert current_config() is config
        assert current_config() is before

    def test_restores_when_body_raises(self):
        before = current_config()
        with pytest.raises(RuntimeError, match="boom"):
            with use_config(ExecutionConfig(backend="batched", fault="lossy")):
                assert current_config().backend == "batched"
                raise RuntimeError("boom")
        assert current_config() is before

    def test_nested_configs_unwind_in_order(self):
        outer = ExecutionConfig(engine="dense")
        inner = outer.override(fault="flaky")
        with use_config(outer):
            with use_config(inner):
                assert current_config() is inner
            assert current_config() is outer


class TestProvenance:
    @pytest.fixture(autouse=True)
    def _fixed_git(self, monkeypatch):
        monkeypatch.setattr("repro.store.provenance.git_describe", lambda: "g1")

    def test_default_config_header(self):
        with use_config(ExecutionConfig()):
            header = collect_provenance()
        assert list(header.items()) == [
            ("engine", "sparse"),
            ("schedule_backend", "sampling"),
            ("tier", "stdlib"),
            ("fault_model", "none"),
            ("git", "g1"),
            ("python", platform.python_version()),
        ]

    def test_flaky_config_header(self):
        with use_config(ExecutionConfig(fault="flaky")):
            header = collect_provenance()
        assert list(header.items()) == [
            ("engine", "sparse"),
            ("schedule_backend", "sampling"),
            ("tier", "stdlib"),
            ("fault_model",
             "loss=0.01,delay=0.1,max_delay=3,crash=0.0,crash_window=32,"
             "down_rounds=0,churn=0.0,timeout=None,seed=0"),
            ("git", "g1"),
            ("python", platform.python_version()),
        ]


class TestGridRequestConfig:
    def test_request_fields_override_current_config(self):
        request = GridRequest(
            families=("cycle",), sizes=(8,), algorithms=("two_approx",),
            backend="batched", fault=LOSSY,
        )
        with use_config(ExecutionConfig(engine="dense")):
            assert request.config() == ExecutionConfig(
                engine="dense", backend="batched", fault=LOSSY
            )

    def test_unset_fields_keep_current_config(self):
        request = GridRequest(
            families=("cycle",), sizes=(8,), algorithms=("two_approx",)
        )
        config = ExecutionConfig(engine="dense", fault="lossy")
        with use_config(config):
            assert request.config() is config

    def test_numpy_tier_without_numpy_is_a_validation_error(self, monkeypatch):
        monkeypatch.setitem(sys.modules, "numpy", None)
        request = GridRequest(
            families=("cycle",), sizes=(8,), algorithms=("two_approx",),
            tier="numpy",
        )
        with pytest.raises(ValueError, match=re.escape("repro[numpy]")):
            request.validate()


class TestPoolWorkers:
    def test_spawned_workers_see_every_field(self):
        """``spawn`` workers inherit nothing: the config must arrive
        through the pool initializer."""
        pytest.importorskip("numpy")
        config = ExecutionConfig(
            engine="dense", backend="batched", tier="numpy", fault=LOSSY
        )
        with use_config(config):
            runner = BatchRunner(jobs=2, start_method="spawn")
            seen = runner.map(_config_probe, [1, 2, 3, 4])
        assert seen == [config] * 4


class TestRemoteWorkers:
    SPECS = (GraphSpec("cycle", 12, seed=1), GraphSpec("clique_chain", 16, seed=1))

    def _tasks(self, table):
        return [(spec, name) for spec in self.SPECS for name in table]

    def test_description_keys_and_round_trip(self):
        table = resolve_algorithms(["two_approx"])
        config = ExecutionConfig(engine="dense", backend="batched", fault=LOSSY)
        backend = RemoteDispatch(address=("127.0.0.1", 1))
        with use_config(config):
            description = backend._describe(self._tasks(table), (table, 3))
        assert list(description) == [
            "kind", "specs", "algorithms", "tasks", "base_seed", "signature",
            "engine", "backend", "tier", "fault",
        ]
        wire = json.loads(json.dumps(description))
        assert ExecutionConfig.from_dict(wire) == config
        with use_config(ExecutionConfig()):
            plain = backend._describe(self._tasks(table), (table, 3))
        assert plain["fault"] is None
        assert plain["signature"] != description["signature"]

    def test_worker_runs_shard_under_grid_config_then_restores(
        self, tmp_path, monkeypatch
    ):
        table = resolve_algorithms(["two_approx", "two_approx_retry"])
        tasks = self._tasks(table)
        config = ExecutionConfig(engine="dense", backend="batched", fault=LOSSY)
        with use_config(config):
            serial = run_sweep_grid(self.SPECS, table, base_seed=3)

        seen = []
        original = sweep._sweep_one_grid_cell

        def probe(context, task):
            seen.append(current_config())
            return original(context, task)

        monkeypatch.setattr(sweep, "_sweep_one_grid_cell", probe)
        coordinator = DispatchCoordinator().start()
        host, port = coordinator.address
        worker = threading.Thread(
            target=run_worker,
            args=(host, port, str(tmp_path / "shards")),
            kwargs=dict(worker_id="w1", once=True, connect_wait=15.0,
                        heartbeat_interval=0.5),
            daemon=True,
        )
        worker.start()
        before = current_config()
        try:
            coordinator.wait_for_workers(1, timeout=30.0)
            backend = RemoteDispatch(coordinator=coordinator)
            with use_config(config):
                description = backend._describe(tasks, (table, 3))
            # Streamed outside the config: only the description carries it.
            records = list(backend._stream(description, len(tasks)))
        finally:
            coordinator.stop()
        worker.join(timeout=15.0)
        assert not worker.is_alive()
        assert records == serial
        assert seen and all(item == config for item in seen)
        assert current_config() is before


def test_import_repro_cli_does_not_load_numpy():
    code = "import sys, repro.cli; print('numpy' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=SRC)
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env=env, check=True,
    )
    assert result.stdout.strip() == "False"
