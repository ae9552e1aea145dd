"""Commit reference schedule digests for the benchmark's workloads.

    python3 perfbench/reference.py [--seeds 1 2 ...] [--workloads soak64 ...]

Run from the root of a checkout.  For each workload and seed this runs
the workload once with the default features, and once with the
reference features (``SchedFeatures().with_fastpath(False)``: the
recompute-everything path).  Only when the two schedules agree is the
default run's digest written to ``perfbench/references.json``; a
disagreement is reported and exits 1 with nothing written for that
seed.  The benchmark then fails every op whose digest differs from the
committed one.  This check runs here, once, not on every benchmark run.

For ``report`` the reference side runs the same trial specs with the
``fastpath_off`` feature token and compares every trial's schedule
digest.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
REFERENCES = HERE / "references.json"
sys.path.insert(0, os.path.join(os.getcwd(), "src"))
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from repro.experiments.reportgen import report_sections  # noqa: E402
from repro.perf.orchestrator import run_trials  # noqa: E402
from repro.sched.features import SchedFeatures  # noqa: E402


def reference_digests(name: str, seed: int) -> List[str]:
    """Schedule digests under the reference features (one per trial for
    ``report``)."""
    if name == "report":
        specs = [
            dataclasses.replace(spec, features=spec.features + ("fastpath_off",))
            for _, section in report_sections(workloads.REPORT_SCALE, seed=seed)
            for spec in section
        ]
        return run_trials(specs, jobs=1, cache=None).digests()
    sim = workloads.WORKLOADS[name].setup(seed, SchedFeatures().with_fastpath(False))
    return [workloads.simulate(sim)["digest"]]  # type: ignore[list-item]


def load() -> Dict[str, Dict[str, object]]:
    if REFERENCES.is_file():
        return json.loads(REFERENCES.read_text())
    return {}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[1])
    parser.add_argument(
        "--workloads", nargs="+", default=list(workloads.WORKLOADS),
        choices=list(workloads.WORKLOADS),
    )
    args = parser.parse_args()
    refs = load()
    status = 0
    for name in args.workloads:
        params = workloads.PARAMS[name]
        entry = refs.get(name)
        if entry is None or entry.get("params") != params:
            entry = {"params": params, "seeds": {}}
            refs[name] = entry
        for seed in args.seeds:
            workload = workloads.WORKLOADS[name]
            result = workload.run(workload.setup(seed))
            default = result.get("trial_digests", [result["digest"]])
            if default != reference_digests(name, seed):
                print(f"{name} seed {seed}: default and reference features "
                      "disagree; not committed", file=sys.stderr)
                status = 1
                continue
            entry["seeds"][str(seed)] = {  # type: ignore[index]
                "digest": result["digest"], "units": result["units"],
            }
            print(f"{name} seed {seed}: {result['digest']} (reference features agree)")
        entry["seeds"] = dict(  # type: ignore[index]
            sorted(entry["seeds"].items(), key=lambda kv: int(kv[0]))  # type: ignore[union-attr]
        )
        REFERENCES.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    return status


if __name__ == "__main__":
    sys.exit(main())
