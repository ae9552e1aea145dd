"""One benchmark op in a fresh process; prints one JSON line.

    python3 perfbench/op.py WORKLOAD SEED MODE

MODE is ``setup`` (import and build the workload, then stop before its
first simulated event), ``run`` (build and run it) or ``trace`` (build
and run it under :class:`tracer.LayerTracer`).  ``ready_at`` is
``time.monotonic()`` at the first simulated event, so the parent can
time set-up from the moment it launched this process.

Run from the root of a checkout; the simulator is imported from ``src/``
there.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
from typing import Dict, List


def main(argv: List[str]) -> int:
    workload_name, seed, mode = argv[0], int(argv[1]), argv[2]
    if mode not in ("setup", "run", "trace"):
        raise SystemExit(f"unknown mode {mode!r}")
    start = time.perf_counter()
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import workloads

    tracer = None
    if mode == "trace":
        from tracer import LayerTracer

        tracer = LayerTracer().install()
    workload = workloads.WORKLOADS[workload_name]
    imported = time.perf_counter()
    state = workload.setup(seed)
    built = time.perf_counter()
    out: Dict[str, object] = {
        "ready_at": time.monotonic(),
        "import_s": imported - start,
        "system_s": built - imported,
    }
    if mode != "setup":
        out.update(workload.run(state))
        out["wall_s"] = time.perf_counter() - built
        # ru_maxrss is in KiB on Linux.
        out["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        tracer.restore()
        out["trace"] = {
            "counts": tracer.counts(),
            "self_s": tracer.self_seconds(),
            # The tracer is installed before the system is built, so its
            # spans cover set-up and run.
            "top_s": tracer.top_seconds,
        }
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
