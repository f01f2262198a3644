"""The benchmark's dispatch worker: ``repro.dispatch.worker`` plus tracing.

Takes the arguments of ``python -m repro.dispatch.worker``.  When the
spawning pass is traced, ``PERFBENCH_TRACE_DIR`` names the span sink,
``PERFBENCH_PASS`` the pass index and ``PERFBENCH_PARENT_SPAN`` the span
that spawned the worker; the worker then installs the same wrappers as
the benchmark process before it joins the coordinator.
"""

from __future__ import annotations

import os
import sys


def main(argv=None) -> int:
    tracer = None
    sink = os.environ.get("PERFBENCH_TRACE_DIR")
    if sink:
        import spans

        tracer = spans.Tracer(
            sink,
            flush_top_level=True,
            pass_index=int(os.environ["PERFBENCH_PASS"]),
            remote_parent=os.environ.get("PERFBENCH_PARENT_SPAN") or None,
        )
        spans.install(tracer)
    from repro.dispatch.worker import main as worker_main

    try:
        return worker_main(argv)
    finally:
        if tracer is not None:
            tracer.flush()


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
