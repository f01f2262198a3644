"""Pytest plugin: run the whole suite with the numpy compute tier forced.

CI loads this with ``pytest -p force_numpy_tier`` (with ``tests/plugins``
on ``PYTHONPATH``) for a second tier-1 shard: every oracle call in every
test then goes through the vectorized dispatch (:mod:`repro.tier`), and
the suite must pass byte-identically -- the strongest whole-system
statement of the tier contract.  The config is installed at configure
time, so even collection-time graph work runs under the tier, and
restored at unconfigure.
"""

from __future__ import annotations

import contextlib

_SCOPE = contextlib.ExitStack()


def pytest_configure(config):
    from repro.config import current_config, use_config

    _SCOPE.enter_context(use_config(current_config().override(tier="numpy")))


def pytest_unconfigure(config):
    _SCOPE.close()
