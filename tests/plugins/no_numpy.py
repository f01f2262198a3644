"""Pytest plugin: run the suite as if numpy were not installed.

CI loads this with ``pytest -p no_numpy`` (with ``tests/plugins`` on
``PYTHONPATH``) for a tier-1 shard that checks the promise of
``pyproject.toml``: the core package is pure stdlib, so ``import repro``,
the CLI and the stdlib tier work without numpy, and only numpy-dependent
tests skip (via ``pytest.importorskip("numpy")``).

The plugin replaces :class:`importlib.machinery.PathFinder` in
``sys.meta_path`` with a subclass that finds no ``numpy`` module, so
every ``import numpy`` (and ``importlib.util.find_spec("numpy")``) in
this process behaves as on a machine without it.  Poisoning
``sys.modules["numpy"] = None`` instead would not do: hypothesis still
tries to import ``numpy.random`` then, and its property tests fail.
Subprocesses started by tests still see numpy.
"""

from __future__ import annotations

import importlib.machinery
import sys


class _NoNumpyPathFinder(importlib.machinery.PathFinder):
    """The standard path finder, blind to ``numpy`` and its submodules."""

    @classmethod
    def find_spec(cls, fullname, path=None, target=None):
        if fullname == "numpy" or fullname.startswith("numpy."):
            return None
        return super().find_spec(fullname, path, target)


if "numpy" in sys.modules:
    raise RuntimeError("no_numpy: numpy was imported before the plugin loaded")
sys.meta_path[:] = [
    _NoNumpyPathFinder if finder is importlib.machinery.PathFinder else finder
    for finder in sys.meta_path
]
