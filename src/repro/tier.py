"""Compute-tier selection: ``stdlib`` (reference) vs ``numpy``.

The repository keeps two implementations of its hot graph oracles:

* ``"stdlib"`` -- the reference tier.  Pure-stdlib kernels (big-int
  bitsets, Takes-Kosters pruning); always available, and the behaviour
  the numpy tier is proven byte-identical against.
* ``"numpy"`` -- the vectorized tier.  uint64-word bitset multi-source
  BFS and batched-pruning all-eccentricities kernels over the CSR arrays
  (:mod:`repro.graphs.vector`).  Requires the optional ``repro[numpy]``
  extra; selecting it without numpy installed raises the actionable
  :class:`ImportError` of :func:`repro._numpy.require_numpy`.

The tier is the ``tier`` field of :class:`repro.config.ExecutionConfig`:
the CLI ``--tier`` flag and the benchmark conftest install it with
:func:`repro.config.use_config`, and dispatch points consult it via
:func:`active_numpy`.  Dispatch points treat the tier as a *performance*
choice only: every tier returns byte-identical values, dict orders and
exceptions, so switching tiers can never change a result -- the
differential suite in ``tests/test_vector_tier.py`` holds the tiers to
that contract.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro._numpy import numpy_or_none

#: The reference tier (always available; the seed behaviour).
TIER_STDLIB = "stdlib"

#: The vectorized tier (requires the ``repro[numpy]`` extra).
TIER_NUMPY = "numpy"

#: Stable name tuple for argparse ``choices``.
TIER_NAMES: Tuple[str, ...] = (TIER_NUMPY, TIER_STDLIB)


def validate_tier_name(name: str) -> str:
    """Return ``name`` if it is a known tier, else raise ``ValueError``."""
    if name not in TIER_NAMES:
        known = ", ".join(TIER_NAMES)
        raise ValueError(f"unknown compute tier {name!r} (available: {known})")
    return name


def get_default_tier() -> str:
    """The tier of the current :class:`repro.config.ExecutionConfig`."""
    # Local import: repro.config imports this module for validation.
    from repro.config import current_config

    return current_config().tier


def resolve_tier(tier: Optional[str] = None) -> str:
    """Map an explicit tier name or ``None`` (the configured tier) to a name."""
    if tier is None:
        return get_default_tier()
    return validate_tier_name(tier)


def active_numpy(tier: Optional[str] = None):
    """The numpy module when the (resolved) tier is ``numpy``, else ``None``.

    This is the one-line guard the dispatch points use::

        np = active_numpy()
        if np is not None:
            ...vectorized kernel...

    It returns ``None`` both when the stdlib tier is selected and when
    numpy is unimportable (the config constructor verifies importability,
    but kernels should degrade, not crash, if an exotic environment
    unloads numpy mid-process).
    """
    if resolve_tier(tier) != TIER_NUMPY:
        return None
    return numpy_or_none()
