"""Host-speed probe: a fixed pure-Python kernel, timed in a fresh process.

Usage::

    python3 perfbench/probe.py [CPU]

prints the seconds the kernel took, pinned to logical CPU ``CPU`` if one
is given.  The kernel uses only the standard
library, so no change to the program can move it; it runs in its own
interpreter, so the state a measuring process has built up cannot either.
What moves it is the host: the machines this benchmark was tuned on run
the same code up to ~1.9x slower for stretches of seconds to minutes.
``run.py`` samples the probe between passes and divides the time the
program spent computing by the probe's mean, relative to
``NOMINAL_S``.
"""

from __future__ import annotations

import os
import random
import sys
import time

#: The probe's mean time on a 2-vCPU x86 VM (Xeon, 2.0 GHz, Python 3.11)
#: over 10 runs; a host running at that speed reports normalised times
#: equal to wall times.
NOMINAL_S = 0.29
#: Kernel repetitions in one probe.
ROUNDS = 500

#: A graph as small as the workloads' working sets: on the hosts above, a
#: sweep cell's time moves with this kernel's by a factor of 0.9-1.1 (a
#: 2000-node graph overreacts, 0.5-0.6; an arithmetic loop underreacts).
_NODES = 300


def _graph():
    rng = random.Random(20181)
    adjacency = {node: [] for node in range(_NODES)}
    for _ in range(3 * _NODES):
        a, b = rng.randrange(_NODES), rng.randrange(_NODES)
        adjacency[a].append(b)
        adjacency[b].append(a)
    return adjacency


def kernel(adjacency) -> int:
    """Breadth-first search from four sources; returns the nodes reached."""
    total = 0
    for source in range(0, _NODES, _NODES // 4):
        distance = {source: 0}
        frontier = [source]
        while frontier:
            following = []
            for node in frontier:
                for neighbour in adjacency[node]:
                    if neighbour not in distance:
                        distance[neighbour] = distance[node] + 1
                        following.append(neighbour)
            frontier = following
        total += len(distance)
    return total


def main(argv) -> int:
    if argv:
        os.sched_setaffinity(0, {int(argv[0])})
    adjacency = _graph()
    started = time.perf_counter()
    for _ in range(ROUNDS):
        kernel(adjacency)
    print(repr(time.perf_counter() - started))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
