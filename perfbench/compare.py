"""Compare two benchmark results written with ``run.py --out DIR``.

Usage (from the repository root)::

    python3 perfbench/compare.py BASE/result.json NEW/result.json

Prints every end-to-end metric of both results, the ratio new/base and
whether the change exceeds the metric's bound in ``BENCHMARK.json``.
Absolute times are only comparable on the same machine with the same
process defaults, so the comparison is flagged -- and the exit status is
3 -- when the fingerprints differ in anything but the ``git`` revision.
Exit status 1 means some metric got worse by more than its bound.
"""

from __future__ import annotations

import json
import os
import sys

from run import end_to_end

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fingerprint_differences(base: dict, new: dict) -> list:
    """Fingerprint fields, other than ``git``, on which two results differ."""
    fields = sorted(set(base) | set(new))
    return [name for name in fields
            if name != "git" and base.get(name) != new.get(name)]


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        metrics = {item["name"]: item for item in json.load(handle)["end_to_end"]}
    results = []
    for path in argv:
        with open(path, encoding="utf-8") as handle:
            results.append(json.load(handle))
    base, new = results
    status = 0
    differing = fingerprint_differences(base["fingerprint"], new["fingerprint"])
    if differing:
        print("WARNING: fingerprints differ in " + ", ".join(differing)
              + "; absolute times are not comparable")
        for name in differing:
            print(f"  {name}: {base['fingerprint'].get(name)!r} -> "
                  f"{new['fingerprint'].get(name)!r}")
        status = 3
    if (base["workload"], base["seed"]) != (new["workload"], new["seed"]):
        print(f"WARNING: comparing {base['workload']} seed {base['seed']} "
              f"with {new['workload']} seed {new['seed']}")
    print(f"git {base['fingerprint'].get('git')} -> {new['fingerprint'].get('git')}")
    before, after = end_to_end(base), end_to_end(new)
    for name, spec in metrics.items():
        ratio = after[name] / before[name] if before[name] else float("inf")
        worse = ratio - 1 if spec["better"] == "lower" else 1 - ratio
        verdict = "WORSE" if worse > spec["bound"] else "ok"
        if verdict == "WORSE" and status == 0:
            status = 1
        print(f"{name:13s} {before[name]:12.5g} -> {after[name]:12.5g} {spec['unit']:3s} "
              f"x{ratio:.3f}  bound {spec['bound']}  {verdict}")
    return status


if __name__ == "__main__":
    raise SystemExit(main())
