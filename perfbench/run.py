"""The repository's benchmark: end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload {soak64,wakeup,report} \\
        [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout.  Every op runs in a fresh process
(``perfbench/op.py``), one at a time: no pool, no result cache.

``--trace 0`` runs ops back to back for ``--seconds``, tracing off, and
reports the end-to-end metrics as medians over the ops: ``wall_s`` (host
seconds for the workload's fixed simulated horizon),
``sim_s_per_host_s``, ``setup_s`` (from launching a process to its first
simulated event, over at least ``SETUP_SAMPLES`` launches) and
``peak_rss_mb`` (of each op's process).

``--trace 1`` runs untraced ops for half the time, then ``TRACED_OPS``
traced ops (:mod:`tracer`), and reports the per-layer metrics of the
first.  The traced ops are cross-checked
against the program: same schedule digest as the untraced ops, wrapper
counts equal to the program's own counters, and identical counts in
both traced ops.

An op fails when it raises, when its schedule digest differs from the
other ops of the run, or when it differs from the digest committed in
``references.json`` for the seed.  A report op is one report trial.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Everything else
the run measured, with its provenance, goes to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
OP = HERE / "op.py"
REFERENCES = HERE / "references.json"
OUT = HERE / "out"
WORKLOAD_NAMES = ("soak64", "wakeup", "report")
DEFAULT_SEED = 1
#: Set-up is timed at least this many times per run.
SETUP_SAMPLES = 7
#: Set-up-only launches before the ops; the first is an untimed warm-up.
SETUP_PROBES = 3
TRACED_OPS = 2
#: No ``op.py`` process may take longer than this.
PROCESS_TIMEOUT_S = 170
REPORT_SECTIONS = ("table1", "table2", "table3", "figure2", "figure3", "figure5")

#: What one ``op.py`` process measured (or ``{"error": ...}``).
Op = Dict[str, object]


class BenchmarkError(Exception):
    """The benchmark cannot run here at all."""


# -- ops ------------------------------------------------------------------------


def launch(workload: str, seed: int, mode: str) -> Op:
    """Run ``op.py`` in a fresh process; ``error`` is set when it failed."""
    cmd = [sys.executable, str(OP), workload, str(seed), mode]
    launched = time.monotonic()
    try:
        proc = subprocess.run(
            cmd, capture_output=True, text=True, timeout=PROCESS_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        return {"error": f"{mode} process exceeded {PROCESS_TIMEOUT_S}s"}
    if proc.returncode != 0:
        return {"error": proc.stderr.strip()[-2000:] or f"exit {proc.returncode}"}
    try:
        op: Op = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        return {"error": f"{mode} process printed no result"}
    op["setup_s"] = float(op["ready_at"]) - launched  # type: ignore[arg-type]
    return op


def timed_ops(workload: str, seed: int, budget_s: float) -> List[Op]:
    """Untraced ops back to back; after the first, one starts only if it
    should end within the budget."""
    ops: List[Op] = []
    start = time.monotonic()
    while True:
        began = time.monotonic()
        ops.append(launch(workload, seed, "run"))
        now = time.monotonic()
        if now - start + (now - began) > budget_s:
            return ops


# -- correctness ------------------------------------------------------------------


def count_failures(
    ops: List[Op], reference: Optional[List[str]]
) -> Tuple[int, int]:
    """(attempted, failed) units over ``ops``.

    The expected unit digests are the committed reference when there is
    one, else the most common digest at each position among the ops.
    """
    done = [op["units"] for op in ops if "error" not in op]
    width = max((len(u) for u in done), default=1)  # type: ignore[arg-type]
    expected = reference
    if expected is None:
        expected = [
            Counter(u[i] for u in done if i < len(u)).most_common(1)[0][0]  # type: ignore[index]
            for i in range(width)
        ] if done else []
    attempted = failed = 0
    for op in ops:
        attempted += width
        if "error" in op:
            failed += width
            continue
        units: List[str] = op["units"]  # type: ignore[assignment]
        failed += sum(
            1 for i in range(width)
            if i >= len(units) or i >= len(expected) or units[i] != expected[i]
        )
    return attempted, failed


def cross_check(workload: str, traced: Op) -> List[str]:
    """Where a traced op's wrapper counts disagree with the program."""
    c: Dict[str, int] = traced["trace"]["counts"]  # type: ignore[index]
    prog: Dict[str, int] = traced["program"]  # type: ignore[assignment]
    tick_periodic = c.get("calls.periodic_balance", 0) - c.get(
        "outcome.periodic.from_nohz", 0
    )
    migrations = c.get("outcome.balance.migrations", 0) + c.get(
        "outcome.wakeup.migrations", 0
    )
    verdicts = sum(
        c.get(f"outcome.balance.{k}", 0) for k in ("balanced", "blocked", "moved")
    )
    checks = [
        ("every attempt has one verdict",
         verdicts == c.get("calls.balance_domain", 0)
         == c.get("calls.find_busiest_group", 0)),
        ("balance_calls <= periodic_balance calls",
         prog["balance_calls"] <= c.get("calls.periodic_balance", 0)),
    ]
    if workload == "report":
        # The report's counters sum only what its trials report, which is
        # not every system they build, so they bound the wrappers' counts.
        checks += [
            ("events_fired <= events", prog["events_fired"] <= c["events"]),
            ("balance_calls <= tick periodic_balance calls",
             prog["balance_calls"] <= tick_periodic),
            ("migrations <= balance + wakeup migrations",
             prog["migrations"] <= migrations),
        ]
    else:
        checks += [
            ("events_fired == events", prog["events_fired"] == c["events"]),
            ("balance_calls == tick periodic_balance calls",
             prog["balance_calls"] == tick_periodic),
            ("migrations == balance + wakeup migrations",
             prog["migrations"] == migrations),
            ("busy-core wakeups == busy targets",
             prog["busy_wakeups"] == c.get("outcome.wakeup.busy_target", 0)),
        ]
    return [name for name, ok in checks if not ok]


# -- metrics ------------------------------------------------------------------------


def median(ops: List[Op], key: str) -> float:
    values = [float(op[key]) for op in ops if key in op]  # type: ignore[arg-type]
    return statistics.median(values) if values else 0.0


def end_to_end(ops: List[Op], setups: List[Op]) -> Dict[str, Tuple[float, str]]:
    done = [op for op in ops if "error" not in op]
    rates = [float(op["sim_s"]) / float(op["wall_s"]) for op in done]  # type: ignore[arg-type]
    return {
        "wall_s": (median(done, "wall_s"), "s"),
        "sim_s_per_host_s": (statistics.median(rates) if rates else 0.0, "s/s"),
        "setup_s": (median(setups, "setup_s"), "s"),
        "peak_rss_mb": (median(done, "rss_mb"), "MB"),
    }


def per_layer(
    ops: List[Op], setups: List[Op], traced: Op
) -> Dict[str, Tuple[float, str]]:
    trace: Dict[str, Dict[str, float]] = traced["trace"]  # type: ignore[assignment]
    c = trace["counts"]
    self_s = trace["self_s"]
    # The tracer is installed before the system is built, so its spans
    # cover set-up and run.
    traced_s = float(traced["system_s"]) + float(traced["wall_s"])  # type: ignore[arg-type]
    sim_self = traced_s - float(trace["top_s"])  # type: ignore[arg-type]

    def calls(*names: str) -> float:
        return float(sum(c.get(f"calls.{n}", 0) for n in names))

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    balance_self = sum(v for k, v in self_s.items() if k.startswith("sched.balance."))
    attempts = calls("balance_domain")
    newidle = calls("newidle_balance")
    picks = calls("pick_next_task")
    done = [op for op in ops if "error" not in op]
    m: Dict[str, Tuple[float, str]] = {
        "sim.events": (float(c["events"]), "count"),
        "sim.self_s": (sim_self, "s"),
        "sim.us_per_event": (ratio(sim_self * 1e6, c["events"]), "us"),
        "sched.tick.calls": (calls("tick"), "count"),
        "sched.tick.self_s": (self_s.get("sched.tick", 0.0), "s"),
        "sched.account.calls": (calls("account", "deschedule"), "count"),
        "sched.account.self_s": (self_s.get("sched.account", 0.0), "s"),
        "sched.pick.calls": (picks, "count"),
        "sched.pick.self_s": (self_s.get("sched.pick", 0.0), "s"),
        "sched.pick.idle_ratio": (ratio(c.get("outcome.pick.idle", 0), picks), "ratio"),
        "sched.wakeup.calls": (calls("wake_task", "place_new_task"), "count"),
        "sched.wakeup.self_s": (self_s.get("sched.wakeup", 0.0), "s"),
        "sched.wakeup.busy_target_ratio": (
            ratio(c.get("outcome.wakeup.busy_target", 0), calls("select_task_rq_wake")),
            "ratio",
        ),
    }
    for kind, fn in (("periodic", "periodic_balance"), ("nohz", "nohz_idle_balance"),
                       ("newidle", "newidle_balance")):
        m[f"sched.balance.{kind}.calls"] = (calls(fn), "count")
        m[f"sched.balance.{kind}.self_s"] = (
            self_s.get(f"sched.balance.{kind}", 0.0), "s"
        )
    m.update({
        "sched.balance.newidle.useful_ratio": (
            ratio(c.get("outcome.newidle.useful", 0), newidle), "ratio"
        ),
        "sched.balance.domain.self_s": (self_s.get("sched.balance.domain", 0.0), "s"),
        "sched.balance.attempts": (attempts, "count"),
        "sched.balance.balanced": (float(c.get("outcome.balance.balanced", 0)), "count"),
        "sched.balance.blocked": (float(c.get("outcome.balance.blocked", 0)), "count"),
        "sched.balance.moved": (float(c.get("outcome.balance.moved", 0)), "count"),
        "sched.balance.useful_ratio": (
            ratio(c.get("outcome.balance.moved", 0), attempts), "ratio"
        ),
        "sched.balance.find_busiest.self_s": (
            self_s.get("sched.balance.find_busiest", 0.0), "s"
        ),
        "sched.balance.move.self_s": (self_s.get("sched.balance.move", 0.0), "s"),
        "sched.balance.migrations": (
            float(c.get("outcome.balance.migrations", 0)), "count"
        ),
        "sched.balance.share": (ratio(balance_self, traced_s), "ratio"),
        "core.checker.calls": (calls("checker_tick"), "count"),
        "core.checker.self_s": (self_s.get("core.checker", 0.0), "s"),
    })
    # Section times come from the untraced ops, so they add up to wall_s.
    for section in REPORT_SECTIONS:
        m[f"experiments.{section}.s"] = (
            statistics.median(
                [float(op["sections"][section]) for op in done]  # type: ignore[index]
            ) if done and "sections" in done[0] else 0.0,
            "s",
        )
    m.update({
        "perf.orchestrator.trials": (float(traced.get("trials", 0)), "count"),  # type: ignore[arg-type]
        "setup.import_s": (median(setups, "import_s"), "s"),
        "setup.system_s": (median(setups, "system_s"), "s"),
        "trace.wall_s": (traced_s, "s"),
        "trace.overhead_ratio": (
            ratio(float(traced["wall_s"]), median(done, "wall_s")), "ratio"  # type: ignore[arg-type]
        ),
    })
    return m


# -- provenance -------------------------------------------------------------------------


def provenance(workload: str, seed: int, params: object) -> Dict[str, object]:
    """What produced this result: inputs, features, host and source tree."""
    from repro.perf.orchestrator import source_tree_digest
    from repro.sched.features import SchedFeatures

    try:
        import numpy
        numpy_version: Optional[str] = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "workload": workload,
        "seed": seed,
        "params": params,
        "features": SchedFeatures().describe(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "cpu_count": os.cpu_count(),
        "git": git_state(),
        "source_tree_digest": source_tree_digest(),
    }


def git_state() -> Dict[str, object]:
    """Commit and dirtiness, when the checkout is a git work tree."""
    try:
        top = subprocess.run(
            ["git", "rev-parse", "--show-toplevel"],
            capture_output=True, text=True, timeout=30,
        )
        if top.returncode != 0 or Path(top.stdout.strip()) != Path.cwd().resolve():
            return {"commit": None, "dirty": None}
        head = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30
        )
        status = subprocess.run(
            ["git", "status", "--porcelain", "--untracked-files=no"],
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return {"commit": None, "dirty": None}
    return {"commit": head.stdout.strip() or None, "dirty": bool(status.stdout.strip())}


# -- main --------------------------------------------------------------------------------


def check_checkout() -> None:
    if not (Path.cwd() / "src" / "repro" / "__init__.py").is_file():
        raise BenchmarkError(
            "run from the root of a checkout: src/repro is missing here"
        )


def load_reference(workload: str, seed: int, params: object) -> Optional[List[str]]:
    if not REFERENCES.is_file():
        return None
    entry = json.loads(REFERENCES.read_text()).get(workload)
    if not entry or entry.get("params") != params:
        return None
    ref = entry["seeds"].get(str(seed))
    return ref["units"] if ref else None


def run(workload: str, seed: int, seconds: float, trace: bool) -> Dict[str, object]:
    check_checkout()
    sys.path.insert(0, str(HERE))
    sys.path.insert(0, str(Path.cwd() / "src"))
    from workloads import PARAMS

    params = PARAMS[workload]
    # Set-up probes before and after the ops, so the set-up samples are
    # spread over the run (the first also warms the bytecode and page
    # caches).  Every untraced op's own set-up is a sample too.
    probes = [launch(workload, seed, "setup") for _ in range(SETUP_PROBES)]
    ops = timed_ops(workload, seed, seconds / 2 if trace else seconds)
    setups = [p for p in probes[1:] + ops if "error" not in p]
    while len(setups) < SETUP_SAMPLES:
        probes.append(launch(workload, seed, "setup"))
        if "error" in probes[-1]:
            break
        setups.append(probes[-1])
    traced = [launch(workload, seed, "trace") for _ in range(TRACED_OPS if trace else 0)]

    reference = load_reference(workload, seed, params)
    attempted, failed = count_failures(ops + traced, reference)
    problems = [
        f"process failed: {p['error']}" for p in probes + ops + traced if "error" in p
    ]
    ok_traced = [op for op in traced if "error" not in op]
    for op in ok_traced:
        problems += [f"cross-check failed: {c}" for c in cross_check(workload, op)]
    if len({json.dumps(op["trace"]["counts"]) for op in ok_traced}) > 1:  # type: ignore[index]
        problems.append("per-layer counts differ between traced runs of one seed")
    correct = failed == 0 and not problems

    metrics: Dict[str, Tuple[float, str]] = {}
    if trace and ok_traced:
        metrics = per_layer(ops, setups, ok_traced[0])
    elif not trace:
        metrics = end_to_end(ops, setups)
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "problems": problems,
        "reference_checked": reference is not None,
        "provenance": provenance(workload, seed, params),
        "setup_probes": probes,
        "ops": ops,
        "traced": traced,
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    out_file = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    for problem in result["problems"]:  # type: ignore[attr-defined]
        print(f"PROBLEM {problem}")
    prov = result["provenance"]
    print(f"provenance: {json.dumps(prov, sort_keys=True)}")
    print(f"ops_failed {result['failed']} / ops_attempted {result['attempted']}"
          f" (reference digest {'checked' if result['reference_checked'] else 'not committed for this seed'})")
    for name, metric in result["metrics"].items():  # type: ignore[attr-defined]
        print(f"{name:40s} {metric['value']:>16.6f} {metric['unit']}")
    print(f"details: {os.path.relpath(out_file)}")
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
