"""Window sets ``S(u)`` (Definition 2) and the coverage bound of Lemma 1.

The final algorithm of Section 3.2 does not optimize ``ecc`` directly but
the function ``f(u) = max_{v in S(u)} ecc(v)``, where ``S(u)`` is the set of
nodes whose DFS-traversal number falls within a window of length ``2 d``
starting at ``u``.  Lemma 1 shows that a uniformly random ``u0`` covers any
fixed node with probability at least ``d / (2 n)``; since some node has
eccentricity ``D``, the mass ``P_opt`` of maximisers of ``f`` is at least
``d / (2 n)``, which is what buys the ``sqrt(n / d)``-iteration (hence
``sqrt(n d)``-round) bound of Theorem 1.

Every window is a slice of one cyclic DFS traversal, so the functions here
build one :class:`~repro.algorithms.dfs_traversal.CyclicTour` (the same
numbering the distributed token follows) and read each ``S(u0)`` off it in
``O(window)``.  They give the exact window sets and the empirical
counterparts of the Lemma-1 bound used by the tests and the ablation
benchmark.
"""

from __future__ import annotations

from typing import Dict, Optional, Set

from repro.algorithms.bfs import BFSTreeResult
from repro.algorithms.dfs_traversal import CyclicTour
from repro.graphs.graph import Graph, NodeId


def window_set(
    tree: BFSTreeResult,
    u0: NodeId,
    window: int,
    members: Optional[Set[NodeId]] = None,
) -> Set[NodeId]:
    """The set ``S(u0)`` of Definition 2: the window of the DFS traversal.

    ``window`` is the number of traversal steps (``2 d`` in the paper).
    """
    return set(CyclicTour(tree, members).window(u0, window))


def coverage_probability(
    tree: BFSTreeResult,
    target: NodeId,
    window: int,
    members: Optional[Set[NodeId]] = None,
) -> float:
    """``Pr_{u0 uniform}[target in S(u0)]`` computed exactly.

    Lemma 1 guarantees this is at least ``d / (2 n)`` when
    ``window = 2 d``.
    """
    tour = CyclicTour(tree, members)
    candidates = list(members) if members is not None else list(tree.parent)
    hits = sum(1 for u0 in candidates if target in tour.window(u0, window))
    return hits / len(candidates)


def popt_lower_bound(num_candidates: int, d: int) -> float:
    """The Lemma-1 lower bound ``d / (2 n)`` on ``P_opt`` (capped at 1)."""
    if num_candidates < 1:
        raise ValueError(f"need at least one candidate, got {num_candidates}")
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    return min(1.0, d / (2.0 * num_candidates))


def empirical_optimum_mass(
    graph: Graph,
    tree: BFSTreeResult,
    window: int,
    members: Optional[Set[NodeId]] = None,
) -> float:
    """The true ``P_opt``: the fraction of ``u0`` whose window reaches a
    maximum-eccentricity node.

    The benchmark harness compares this against the Lemma-1 lower bound to
    show how much slack the bound leaves on concrete graph families.
    """
    eccentricities = graph.compile().all_eccentricities()
    if members is not None:
        relevant = {node: eccentricities[node] for node in members}
    else:
        relevant = eccentricities
    target_value = max(relevant.values())
    best_nodes = {node for node, value in relevant.items() if value == target_value}
    tour = CyclicTour(tree, members)
    candidates = list(members) if members is not None else list(tree.parent)
    hits = sum(
        1 for u0 in candidates if not best_nodes.isdisjoint(tour.window(u0, window))
    )
    return hits / len(candidates)
