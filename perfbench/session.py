"""One measuring interpreter of the benchmark (spawned by ``run.py``).

Protocol on stdout: after set-up -- importing ``repro.cli``, generating
the workload's inputs and creating its temp dir -- the process prints
``READY <passes>``, the fixed number of passes it will time.  It then
reads commands from stdin, one a line: ``pass`` runs the next pass and
answers ``DONE``; ``end`` answers ``RESULT <json>`` and exits.  End of
input before any command (a set-up sample) exits at once.  Diagnostics
go to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time

_perf = time.perf_counter
HERE = os.path.dirname(os.path.abspath(__file__))

#: Fewest passes behind one ``pass_s`` (a traced run times at least two
#: untraced and two traced passes).
MIN_PASSES = 3


def plan(workload, seconds: float, trace: int):
    """(untraced, traced) pass counts for a run of ``seconds``.

    The counts follow from ``--seconds`` and the workload's nominal pass
    cost alone, never from how fast this run goes, so every commit's
    ``pass_s`` is the median of the same number of passes.
    """
    total = max(MIN_PASSES, round(seconds / workload.nominal_pass_s))
    if not trace:
        return total, 0
    untraced = max(2, total // 2)
    return untraced, max(2, total - untraced)


def _check(workload, runner, checker, passes, pinned):
    """Count attempted and failed cells; list what went wrong."""
    cells = len(runner.specs) * len(workload.algorithms)
    failed, problems, digests = 0, [], []
    expected = pinned["export_sha256"].get(workload.name)
    for index, result in enumerate(passes):
        bad = checker.bad_cells(result.records)
        if bad:
            problems.append(f"pass {index}: {bad} cell(s) failed their checks")
        value = result.digests["fresh"]
        differing = sorted(name for name, other in result.digests.items() if other != value)
        digests.append(value)
        if differing:
            problems.append(f"pass {index}: exports {differing} differ from the fresh store's")
            bad = cells
        if value != digests[0]:
            problems.append(f"pass {index}: export digest differs from pass 0")
            bad = cells
        if runner.seed == pinned["default_seed"] and value != expected:
            problems.append(
                f"pass {index}: export sha256 {value} != pinned {expected}")
            bad = cells
        failed += bad
    return cells * len(passes), failed, problems, digests[0]


def _percentile_tail(samples):
    """The highest whole percentile with at least 10 samples beyond it."""
    count = len(samples)
    percentile = int(100 * (1 - 10 / count)) if count > 10 else 0
    if percentile < 1:
        return 0, max(samples)
    return percentile, statistics.quantiles(samples, n=100)[percentile - 1]


def _fingerprint():
    """The machine and the process defaults the numbers were taken on."""
    import importlib.util
    import platform

    from repro.engine import get_default_engine
    from repro.faults import get_default_fault_model
    from repro.quantum.backend import get_default_schedule_backend
    from repro.tier import get_default_tier

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    numpy = "absent"
    if importlib.util.find_spec("numpy") is not None:
        from importlib.metadata import PackageNotFoundError, version

        try:
            numpy = version("numpy")
        except PackageNotFoundError:
            numpy = "unknown"
    return {
        "cpu_model": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy,
        "defaults": {
            "engine": get_default_engine(),
            "schedule_backend": get_default_schedule_backend(),
            "tier": get_default_tier(),
            "fault_model": get_default_fault_model().describe(),
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/session.py")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tmp", required=True)
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)

    import repro.cli  # noqa: F401  (what every ``repro`` invocation pays)
    import workloads

    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"unknown workload {args.workload!r} (available: "
              f"{', '.join(workloads.WORKLOADS)})", file=sys.stderr)
        return 2
    untraced_count, traced_count = plan(workload, args.seconds, args.trace)
    scratch = tempfile.mkdtemp(prefix="session-", dir=args.tmp)
    try:
        runner = workloads.Runner(workload, args.seed, scratch)
        print(f"READY {untraced_count + traced_count}", flush=True)
        return _measure(args, workload, runner, scratch, untraced_count)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def _measure(args, workload, runner, scratch, untraced_count) -> int:
    """Run a pass per ``pass`` command; ``end`` reports the result."""
    import layers
    import spans
    import workloads

    passes, tracer = [], None
    sink = os.path.join(scratch, "spans")
    started = _perf()
    for line in sys.stdin:
        command = line.strip()
        if command == "end":
            break
        if command != "pass":
            print(f"unknown command {command!r}", file=sys.stderr)
            return 2
        if args.trace and tracer is None and len(passes) == untraced_count:
            os.makedirs(sink)
            tracer = spans.Tracer(sink)
            spans.install(tracer)
        passes.append(runner.run_pass())
        print("DONE", flush=True)
    else:
        return 0  # a set-up sample, or run.py went away
    if tracer is not None:
        tracer.flush()
    measured_s = _perf() - started

    with open(os.path.join(HERE, "pinned.json"), encoding="utf-8") as handle:
        pinned = json.load(handle)
    checker = workloads.Checker(workload, runner.specs)
    attempted, failed, problems, export_digest = _check(
        workload, runner, checker, passes, pinned)
    rss_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                 resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    # A traced run's end-to-end figures come from its untraced passes.
    untraced, traced = passes[:untraced_count], passes[untraced_count:]
    walls = [item.wall_s for item in untraced]
    gaps = [gap for item in untraced for gap in item.gaps_s]
    tail_percentile, tail = _percentile_tail(gaps)
    result = {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "measured_s": measured_s,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "export_sha256": export_digest,
        "fingerprint": _fingerprint(),
        "pass_s": {"passes": len(walls), "values": walls,
                   "waits": [item.wait_s for item in untraced]},
        "cell_ms_p50": statistics.median(gaps) * 1e3,
        "cell_ms_tail": {"value": tail * 1e3, "percentile": tail_percentile,
                         "samples": len(gaps)},
        "peak_rss_mb": rss_kb / 1024.0,
    }
    if workload.reports_resume:
        resumes = [item.resume_s for item in untraced]
        result["resume_s"] = {"median": statistics.median(resumes),
                              "samples": len(resumes)}
    if traced:
        traced_indices = range(untraced_count, len(passes))
        result["layers"] = layers.per_layer(
            spans.load_spans(sink),
            traced_indices,
            {index: passes[index].dispatch_stats for index in traced_indices},
            [item.wall_s for item in traced],
            walls,
        )
        if args.out is not None:
            os.makedirs(args.out, exist_ok=True)
            with open(os.path.join(args.out, "spans.jsonl"), "w",
                      encoding="utf-8") as handle:
                for record in spans.load_spans(sink):
                    handle.write(json.dumps(record, sort_keys=True) + "\n")
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
