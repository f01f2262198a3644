"""Wall-time benchmark of the paper's sweep grids.

Usage (from the repository root)::

    python3 perfbench/run.py --workload theorem1_quantum --seed 0 \\
        --seconds 25 --trace 0 [--out DIR]

Each run starts a measuring interpreter (``session.py``) that times a
fixed number of passes of the workload, sized to fill ``--seconds``.
Between its passes further fresh interpreters only set up, and the
host-speed probe (``probe.py``) runs, so set-up times and probes sample
the same stretch of the run as the passes do.

Each vCPU of the 2-vCPU VMs this benchmark was tuned on switches
between two speeds, ~1.9x apart, every second or so, and the share of
slow time drifts over minutes; whole runs moved by up to ~37% between
sets of runs taken 20 minutes apart.  ``setup_s`` and ``pass_s`` are
therefore host-normalised: the computing part of each time is divided by
the run's mean probe time over ``probe.NOMINAL_S``.  ``setup_s`` is the
median over the set-up samples; ``pass_s`` the median over the passes,
where the coordinator's timed ``stop()`` join on ``remote_shards`` is
kept as measured.  The raw wall times are printed next to them and kept
in ``result.json``.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` times untraced and then traced passes and reports the
per-layer metrics.  The last line of stdout is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

The benchmark writes only under ``.perfbench_tmp/`` in the repository
root, which it removes again, and, with ``--out DIR``, ``DIR/result.json``
(plus ``DIR/spans.jsonl`` for a traced run).  Exit status: 0 when every
cell and every export checked out, 1 when a check failed, 2 when the
benchmark could not run.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time

import layers
import probe

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: Fresh interpreters whose set-up is timed (the first one also measures).
SETUP_SAMPLES = 7
#: Host-speed probes at each set-up sample, each pinned to another CPU: the
#: vCPUs of the hosts above change speed independently of each other.
PROBES_PER_SAMPLE = 2
#: A run that has not finished by then is killed and reported as failed.
DEADLINE_S = 170.0


def _benchmark():
    """``BENCHMARK.json``: the gated metrics and the run length."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def _git_describe():
    try:
        done = subprocess.run(
            ["git", "describe", "--always", "--dirty"], cwd=ROOT,
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    if done.returncode != 0:
        return None
    return done.stdout.strip() or None


class _Session:
    """One spawned ``session.py`` interpreter."""

    def __init__(self, args, tmp: str) -> None:
        env = dict(os.environ)
        src = os.path.join(ROOT, "src")
        env["PYTHONPATH"] = os.pathsep.join(
            part for part in (src, env.get("PYTHONPATH")) if part)
        command = [
            sys.executable, os.path.join(HERE, "session.py"),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--tmp", tmp,
        ]
        if args.out is not None:
            command += ["--out", os.path.abspath(args.out)]
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            command, cwd=ROOT, env=env, text=True,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        )

    def wait_ready(self) -> float:
        """Seconds from spawn to ``READY``; raises if the session died."""
        words = self.proc.stdout.readline().split()
        if len(words) != 2 or words[0] != "READY":
            raise RuntimeError("benchmark session failed during set-up")
        self.passes = int(words[1])
        return time.perf_counter() - self.started

    def run_pass(self) -> None:
        self.proc.stdin.write("pass\n")
        self.proc.stdin.flush()
        if self.proc.stdout.readline().strip() != "DONE":
            raise RuntimeError("benchmark session failed during a pass")

    def finish(self, measured: bool):
        """Release the session; when ``measured`` return its ``RESULT``."""
        if measured:
            self.proc.stdin.write("end\n")
            self.proc.stdin.flush()
        self.proc.stdin.close()
        result = None
        for line in self.proc.stdout:
            if line.startswith("RESULT "):
                result = json.loads(line[len("RESULT "):])
        if self.proc.wait() != 0:
            raise RuntimeError(
                f"benchmark session exited with status {self.proc.returncode}")
        if measured and result is None:
            raise RuntimeError("benchmark session printed no result")
        return result

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


def _probe(cpu: int) -> float:
    """One host-speed probe in a fresh interpreter on ``cpu``, in seconds."""
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "probe.py"), str(cpu)],
        capture_output=True, text=True, timeout=60,
    )
    if done.returncode != 0:
        raise RuntimeError("host-speed probe failed")
    return float(done.stdout)


def normalise(result: dict, setups: list, probes: list) -> None:
    """Add the host-normalised ``setup_s`` and ``pass_s`` to ``result``."""
    host = statistics.mean(probes) / probe.NOMINAL_S
    result["host"] = {"factor": host, "probe_s": probes,
                      "nominal_probe_s": probe.NOMINAL_S}
    result["setup_s"] = {"value": statistics.median(setups) / host,
                         "wall_median": statistics.median(setups),
                         "values": setups}
    passes = result["pass_s"]
    normalised = [wait + (wall - wait) / host
                  for wall, wait in zip(passes["values"], passes["waits"])]
    q1, q3 = (statistics.quantiles(normalised, n=4)[::2]
              if len(normalised) > 1 else normalised * 2)
    passes.update(value=statistics.median(normalised), q1=q1, q3=q3,
                  wall_median=statistics.median(passes["values"]))


def measure(args) -> dict:
    """Time the passes, interleaved with set-up samples and probes."""
    os.makedirs(os.path.join(ROOT, ".perfbench_tmp"), exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="run-", dir=os.path.join(ROOT, ".perfbench_tmp"))
    sessions = []
    timer = threading.Timer(DEADLINE_S, lambda: [s.kill() for s in list(sessions)])
    timer.start()
    try:
        measurer = _Session(args, tmp)
        sessions.append(measurer)
        setups, probes = [measurer.wait_ready()], []
        cpus = sorted(os.sched_getaffinity(0))

        def probe_host():
            for _ in range(PROBES_PER_SAMPLE):
                probes.append(_probe(cpus[len(probes) % len(cpus)]))

        extra = SETUP_SAMPLES - 1
        # Set-up sample and probes i are taken before pass i * passes // extra;
        # more probes follow the last pass.
        before = [number * measurer.passes // extra for number in range(extra)]
        for index in range(measurer.passes):
            for _ in range(before.count(index)):
                sample = _Session(args, tmp)
                sessions.append(sample)
                setups.append(sample.wait_ready())
                sample.finish(measured=False)
                probe_host()
            measurer.run_pass()
        probe_host()
        result = measurer.finish(measured=True)
        normalise(result, setups, probes)
        result["fingerprint"]["git"] = _git_describe()
        return result
    finally:
        timer.cancel()
        for session in sessions:
            session.kill()
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(os.path.join(ROOT, ".perfbench_tmp"))
        except OSError:
            pass


def metrics_of(result: dict, benchmark: dict) -> dict:
    """The metrics object of the final line, by name with units."""
    if result["trace"]:
        return {name: {"value": value, "unit": layers.unit(name)}
                for name, value in result["layers"].items()}
    values = end_to_end(result)
    return {item["name"]: {"value": values[item["name"]], "unit": item["unit"]}
            for item in benchmark["end_to_end"]}


def end_to_end(result: dict) -> dict:
    """The gated end-to-end values of a result."""
    return {
        "setup_s": result["setup_s"]["value"],
        "pass_s": result["pass_s"]["value"],
        "peak_rss_mb": result["peak_rss_mb"],
    }


def summary(result: dict) -> str:
    """Human-readable lines for the top of the report."""
    lines = [
        f"workload {result['workload']}  seed {result['seed']}  "
        f"trace {result['trace']}",
        "fingerprint " + json.dumps(result["fingerprint"], sort_keys=True),
        f"host          x{result['host']['factor']:.3f} (mean of "
        f"{len(result['host']['probe_s'])} probes over {probe.NOMINAL_S} s)",
        f"setup_s       {result['setup_s']['value']:.4f} s host-normalised "
        f"(median of {len(result['setup_s']['values'])} fresh interpreters; "
        f"wall {result['setup_s']['wall_median']:.4f} s)",
    ]
    passes = result["pass_s"]
    lines += [
        f"pass_s        {passes['value']:.4f} s host-normalised (median of "
        f"{passes['passes']} passes; q1 {passes['q1']:.4f}, q3 {passes['q3']:.4f}; "
        f"wall {passes['wall_median']:.4f} s)",
        f"cell_ms_p50   {result['cell_ms_p50']:.3f} ms",
        f"cell_ms_tail  {result['cell_ms_tail']['value']:.3f} ms "
        f"(p{result['cell_ms_tail']['percentile']} of "
        f"{result['cell_ms_tail']['samples']} cells)",
    ]
    if "resume_s" in result:
        lines.append(f"resume_s      {result['resume_s']['median']:.4f} s "
                     f"(median of {result['resume_s']['samples']})")
    lines += [
        f"peak_rss_mb   {result['peak_rss_mb']:.1f} MB",
        f"failed_frac   {result['failed'] / result['attempted']:.4f} "
        f"({result['failed']} of {result['attempted']} cells)",
        f"export sha256 {result['export_sha256']}",
    ]
    if result["trace"]:
        for name, value in result["layers"].items():
            lines.append(f"{name:30s} {value:.6g} {layers.unit(name)}")
    for problem in result["problems"]:
        lines.append(f"FAILED: {problem}")
    return "\n".join(lines)


def main(argv=None) -> int:
    benchmark = _benchmark()
    parser = argparse.ArgumentParser(
        prog="perfbench/run.py", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0,
                        help="workload seed (default 0, the pinned one)")
    parser.add_argument("--seconds", type=float, default=benchmark["run_seconds"],
                        help="how long the passes are timed (sizes the pass count)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None,
                        help="directory for result.json (and spans.jsonl)")
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print("perfbench: no src/repro next to the benchmark; run it from "
              "a checkout of the repository", file=sys.stderr)
        return 2
    try:
        result = measure(args)
    except RuntimeError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2
    correct = result["failed"] == 0 and not result["problems"]
    if args.out is not None:
        os.makedirs(args.out, exist_ok=True)
        with open(os.path.join(args.out, "result.json"), "w", encoding="utf-8") as handle:
            json.dump(result, handle, indent=2, sort_keys=True)
            handle.write("\n")
    print(summary(result))
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics_of(result, benchmark),
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
