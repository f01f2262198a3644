"""Analysis utilities: parameter sweeps, scaling fits and table rendering.

The benchmark harnesses use these helpers to turn raw measurements
(rounds as a function of ``n`` and ``D``) into the quantities the paper's
Table 1 talks about: scaling exponents, classical/quantum ratios and
crossover points.  The fits (:mod:`repro.analysis.fitting`) need numpy,
so they are imported from their submodule and not re-exported here.
"""

from repro.analysis.sweep import (
    SweepRecord,
    grid_signature,
    run_sweep,
    run_sweep_grid,
    sweep_table,
    sweep_task_key,
)
from repro.analysis.tables import render_table

__all__ = [
    "SweepRecord",
    "run_sweep",
    "run_sweep_grid",
    "sweep_table",
    "sweep_task_key",
    "grid_signature",
    "render_table",
]
