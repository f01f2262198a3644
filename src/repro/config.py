"""The execution config: engine, schedule backend, compute tier, fault model.

Four choices decide *how* a run executes but -- except for the fault
model, which is part of the experiment -- never *what* it computes:

* ``engine`` -- the CONGEST scheduler (:mod:`repro.engine`): ``sparse``
  (default) or the ``dense`` differential reference;
* ``backend`` -- the quantum schedule backend
  (:mod:`repro.quantum.backend`): ``sampling`` (default) or ``batched``;
* ``tier`` -- the compute tier of the graph oracles (:mod:`repro.tier`):
  ``stdlib`` (default) or ``numpy``;
* ``fault`` -- the injected :class:`repro.faults.FaultModel` (the null
  model by default, byte-identical to the fault-free simulator).

One frozen :class:`ExecutionConfig` holds all four.  Every ``None``
default of an entry point (``Network(engine=None)``,
``resolve_schedule_backend(None)``, ``active_numpy()``, ...) reads
:func:`current_config`, and :func:`use_config` is the only way to change
it, for the duration of a ``with`` block::

    from repro.config import ExecutionConfig, use_config

    with use_config(ExecutionConfig(engine="dense", fault="lossy")):
        ...

Process boundaries carry the config explicitly: the
:class:`repro.runner.batch.BatchRunner` pool initializer ships it to
local workers, remote grid descriptions embed :meth:`ExecutionConfig.to_dict`
and dispatch workers rebuild it with :meth:`ExecutionConfig.from_dict`,
and run headers stamp :meth:`ExecutionConfig.provenance`.
"""

from __future__ import annotations

import contextlib
import dataclasses
from typing import Any, Dict, Iterator, Mapping, Optional, Union

from repro._numpy import require_numpy
from repro.engine.scheduler import validate_engine_name
from repro.faults import NULL_FAULT_MODEL, FaultModel, validate_fault_model
from repro.quantum.backend import validate_backend_name
from repro.tier import TIER_NUMPY, validate_tier_name


@dataclasses.dataclass(frozen=True)
class ExecutionConfig:
    """One validated engine / backend / tier / fault-model selection.

    Validation runs once, here: unknown names raise ``ValueError`` with
    the registries' messages, ``tier="numpy"`` without numpy installed
    raises the actionable :class:`ImportError` of
    :func:`repro._numpy.require_numpy`, and ``fault`` may be given as a
    :data:`repro.faults.FAULT_MODELS` registry name.
    """

    engine: str = "sparse"
    backend: str = "sampling"
    tier: str = "stdlib"
    fault: FaultModel = NULL_FAULT_MODEL

    def __post_init__(self) -> None:
        validate_engine_name(self.engine)
        validate_backend_name(self.backend)
        validate_tier_name(self.tier)
        if self.tier == TIER_NUMPY:
            require_numpy("the 'numpy' compute tier")
        object.__setattr__(self, "fault", validate_fault_model(self.fault))

    def override(
        self,
        engine: Optional[str] = None,
        backend: Optional[str] = None,
        tier: Optional[str] = None,
        fault: Union[FaultModel, str, None] = None,
    ) -> "ExecutionConfig":
        """This config with every field given as non-``None`` replaced."""
        changes = {
            name: value
            for name, value in (
                ("engine", engine), ("backend", backend),
                ("tier", tier), ("fault", fault),
            )
            if value is not None
        }
        return dataclasses.replace(self, **changes) if changes else self

    def to_dict(self) -> Dict[str, Any]:
        """Flat plain-JSON form; ``fault`` is ``None`` for the null model."""
        fault = None
        if not self.fault.is_null:
            fault = {
                item.name: getattr(self.fault, item.name)
                for item in dataclasses.fields(self.fault)
            }
        return {
            "engine": self.engine,
            "backend": self.backend,
            "tier": self.tier,
            "fault": fault,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ExecutionConfig":
        """Rebuild a config from :meth:`to_dict` output (extra keys ignored)."""
        fault = data.get("fault")
        return cls(
            engine=data["engine"],
            backend=data["backend"],
            tier=data["tier"],
            fault=NULL_FAULT_MODEL if fault is None else FaultModel(**fault),
        )

    def provenance(self) -> Dict[str, str]:
        """The run-header fields (:func:`repro.store.collect_provenance`)."""
        return {
            "engine": self.engine,
            "schedule_backend": self.backend,
            "tier": self.tier,
            "fault_model": self.fault.describe(),
        }


_CURRENT = ExecutionConfig()


def current_config() -> ExecutionConfig:
    """The config in force (the defaults outside any :func:`use_config`)."""
    return _CURRENT


@contextlib.contextmanager
def use_config(config: ExecutionConfig) -> Iterator[ExecutionConfig]:
    """Install ``config`` for the ``with`` block, then restore the previous one.

    The config is process-wide, so threads share it.  The previous
    config comes back even if the body raises.
    """
    global _CURRENT
    previous = _CURRENT
    _CURRENT = config
    try:
        yield config
    finally:
        _CURRENT = previous
