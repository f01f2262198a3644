"""Micro-benchmark: the numpy compute tier vs the stdlib reference path.

The numpy tier (:mod:`repro.tier`) exists because the bitset regime of the
all-eccentricities oracle -- the correctness gate of every large sweep --
spends its time OR-ing reachability sets, and a 64-source batched
Takes-Kosters sweep over ``uint64`` words (:mod:`repro.graphs.vector`)
covers the same ground in a handful of vectorized passes.

This harness measures the headline ``all_eccentricities`` oracle on an
n>=4000 clique chain, numpy tier vs the stdlib dispatch (the acceptance
bar: >= 5x), results asserted identical.  Engine equivalence (dense ==
sparse) is gated by ``tests/test_engine_differential.py``.

Run as a script, ``--out BENCH_vector.json`` refreshes the committed
report at the repository root; without ``--out`` (and under pytest)
nothing is written.

Run it standalone (no pytest plugins needed)::

    PYTHONPATH=src python benchmarks/bench_vector.py
    PYTHONPATH=src python benchmarks/bench_vector.py --smoke

or through pytest (the ``test_`` wrappers assert the speedup bars)::

    PYTHONPATH=src python -m pytest benchmarks/bench_vector.py -q
"""

from __future__ import annotations

import argparse
import json
import time

from repro.config import current_config, use_config
from repro.graphs import generators

#: Node count of the headline all-eccentricities workload (>= 4000 so the
#: batched sweep amortises its block setup).
ORACLE_NODES = 4096

#: Acceptance bar for the headline oracle (full mode).
TARGET_SPEEDUP = 5.0

#: Relaxed bar asserted in ``--smoke`` mode (n=1500; smaller graphs
#: amortise the per-block numpy overhead less, and CI boxes are noisy).
SMOKE_TARGET_SPEEDUP = 1.5


def _time(fn):
    start = time.perf_counter()
    value = fn()
    return time.perf_counter() - start, value


def _time_tier(nodes: int, tier: str):
    """End-to-end oracle timing (fresh graph + compile) under ``tier``."""
    graph = generators.family_for_sweep("clique_chain", nodes, seed=3)
    with use_config(current_config().override(tier=tier)):
        return _time(lambda: graph.compile().all_eccentricities())


def _bench_all_eccentricities(nodes: int) -> dict:
    """Headline workload: the full eccentricity oracle, stdlib vs numpy.

    Both timings go through the public dispatch (``--tier`` flips exactly
    this switch), include ``compile()`` and run on freshly built graphs,
    so the reported speedup is what a sweep's correctness gate sees.
    """
    stdlib_seconds, stdlib_result = _time_tier(nodes, "stdlib")
    numpy_seconds, numpy_result = _time_tier(nodes, "numpy")
    if numpy_result != stdlib_result or list(numpy_result) != list(stdlib_result):
        raise AssertionError("numpy and stdlib eccentricity oracles disagree")
    graph = generators.family_for_sweep("clique_chain", nodes, seed=3)
    return {
        "nodes": graph.num_nodes,
        "edges": graph.num_edges,
        "family": "clique_chain",
        "diameter": max(stdlib_result.values()),
        "stdlib_seconds": round(stdlib_seconds, 6),
        "numpy_seconds": round(numpy_seconds, 6),
        "speedup": round(stdlib_seconds / max(numpy_seconds, 1e-9), 2),
    }


def run_benchmark(smoke: bool = False) -> dict:
    """Measure all workloads; return the report."""
    oracle_nodes = 1500 if smoke else ORACLE_NODES
    report = {
        "smoke": smoke,
        "workloads": {
            "all_eccentricities_clique_chain": _bench_all_eccentricities(
                oracle_nodes
            ),
        },
    }
    report["headline_speedup"] = report["workloads"][
        "all_eccentricities_clique_chain"
    ]["speedup"]
    return report


def write_report(report: dict, path: str) -> str:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def test_vector_oracle_speedup():
    """The numpy tier's acceptance bar: >= 5x on the n>=4000 clique-chain
    all-eccentricities oracle, byte-identical results (the identity is
    asserted inside the workload)."""
    report = run_benchmark()
    assert report["headline_speedup"] >= TARGET_SPEEDUP, report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small sizes for CI (relaxed speedup bar)",
    )
    parser.add_argument(
        "--out",
        default=None,
        metavar="PATH",
        help="write the JSON report here (nothing is written without it)",
    )
    args = parser.parse_args(argv)
    report = run_benchmark(smoke=args.smoke)
    print(json.dumps(report, indent=2, sort_keys=True))
    if args.out is not None:
        print(f"written to {write_report(report, args.out)}")
    bar = SMOKE_TARGET_SPEEDUP if args.smoke else TARGET_SPEEDUP
    if report["headline_speedup"] < bar:
        print(
            f"FAIL: headline speedup {report['headline_speedup']}x "
            f"is below the {bar}x bar"
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
