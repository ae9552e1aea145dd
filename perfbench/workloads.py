"""The benchmark's workloads, built only from repro's public entry points.

Every workload runs with the default ``SchedFeatures()`` -- the
configuration ``repro report``, the tables and the SLO runs ship with --
and derives all of its inputs from one seed.  A workload is split into
``setup`` (everything before the first simulated event) and ``run`` (the
fixed simulated horizon), so the two can be timed apart.

* ``soak64`` -- 64-CPU Bulldozer, 48 hogs and 32 1 ms/2 ms sleepers
  forked from seeded parent CPUs, sanity checker attached: steady-state
  periodic, NOHZ and newidle balancing that almost never moves a task.
* ``wakeup`` -- two NUMA nodes of four CPUs, 24 fine-grained sleepers
  with seeded 50-300 us runs and 100-600 us sleeps (stratified, so each
  seed draws the same spread of values): wakeup placement,
  pick, accounting and event dispatch, with runqueues changing on every
  event.
* ``report`` -- the full serial ``repro report`` at quick scale: many
  short systems, NAS spin barriers and TPC-H newidle bursts.
"""

from __future__ import annotations

import hashlib
import random
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.core.sanity_checker import SanityChecker
from repro.experiments.harness import schedule_digest
from repro.experiments.reportgen import (
    QUICK_SCALE,
    generate_report,
    report_sections,
)
from repro.sched.features import SchedFeatures
from repro.sim.system import System
from repro.topology import amd_bulldozer_64, two_nodes
from repro.workloads.base import Program, Run, Sleep, TaskSpec

MS = 1_000
SEC = 1_000_000

#: Simulated horizon of one soak64 / wakeup op, in microseconds.
SOAK64_HORIZON_US = 1 * SEC
WAKEUP_HORIZON_US = 1 * SEC
#: The report's scale: ``repro report --quick``.
REPORT_SCALE = QUICK_SCALE


def _cycle(name: str, run_us: int, sleep_us: int) -> TaskSpec:
    """A task that runs ``run_us`` then sleeps ``sleep_us``, forever
    (``sleep_us == 0``: a CPU hog in ``run_us`` slices)."""

    def factory() -> Program:
        while True:
            yield Run(run_us)
            if sleep_us:
                yield Sleep(sleep_us)

    return TaskSpec(name, factory)


@dataclass
class Simulation:
    """A built system, ready for its first event."""

    system: System
    horizon_us: int


def soak64_setup(seed: int, features: Optional[SchedFeatures] = None) -> Simulation:
    rng = random.Random(seed)
    system = System(amd_bulldozer_64(), features or SchedFeatures(), seed=seed)
    for i in range(48):
        system.spawn(_cycle(f"hog{i}", 5 * MS, 0), parent_cpu=rng.randrange(64))
    for i in range(32):
        system.spawn(
            _cycle(f"sleep{i}", 1 * MS, 2 * MS), parent_cpu=rng.randrange(64)
        )
    SanityChecker().attach(system)
    return Simulation(system, SOAK64_HORIZON_US)


def _stratified(rng: random.Random, low: int, high: int, n: int) -> List[int]:
    """``n`` draws from [low, high), one from each of ``n`` equal strata,
    in seeded order: every seed gets the same spread of values, so the
    total load varies little from seed to seed."""
    width = (high - low) / n
    values = [int(low + (i + rng.random()) * width) for i in range(n)]
    rng.shuffle(values)
    return values


def wakeup_setup(seed: int, features: Optional[SchedFeatures] = None) -> Simulation:
    rng = random.Random(seed)
    system = System(two_nodes(cores_per_node=4), features or SchedFeatures(), seed=seed)
    runs = _stratified(rng, 50, 300, 24)
    sleeps = _stratified(rng, 100, 600, 24)
    for i in range(24):
        system.spawn(
            _cycle(f"w{i}", runs[i], sleeps[i]), parent_cpu=rng.randrange(8)
        )
    return Simulation(system, WAKEUP_HORIZON_US)


def unit_key(text: str) -> str:
    """A short, stable key for one op's outcome (compared, never parsed)."""
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def simulate(sim: Simulation) -> Dict[str, object]:
    system = sim.system
    system.run_for(sim.horizon_us)
    digest = schedule_digest(system)
    return {
        "digest": digest,
        "units": [unit_key(digest)],
        "sim_s": system.now / SEC,
        "program": {
            "events_fired": system.loop.events_fired,
            "balance_calls": system.scheduler.balance_calls,
            "migrations": system.scheduler.total_migrations,
            "busy_wakeups": sum(
                t.stats.wakeups_on_busy_core for t in system.spawned
            ),
        },
    }


@dataclass
class Report:
    """The report's trial specs, generated from the seed."""

    seed: int
    #: The report section of each trial, in spec order.
    sections: List[str]


def report_setup(seed: int) -> Report:
    return Report(
        seed,
        [
            name
            for name, specs in report_sections(REPORT_SCALE, seed=seed)
            for _ in specs
        ],
    )


def report_run(report: Report) -> Dict[str, object]:
    # Serial trials complete in spec order, so the n-th progress call
    # closes the n-th trial; the time since the previous call is its own.
    owner = report.sections
    section_s = dict.fromkeys(owner, 0.0)
    last = [time.perf_counter()]

    def progress(done: int, total: int, outcome: object) -> None:
        now = time.perf_counter()
        section_s[owner[done - 1]] += now - last[0]
        last[0] = now

    result = generate_report(
        scale=REPORT_SCALE, seed=report.seed, jobs=1, cache=None,
        progress=progress,
    )
    markdown = hashlib.sha256(result.markdown.encode()).hexdigest()
    digest = hashlib.sha256(
        "".join(result.digests + [markdown]).encode()
    ).hexdigest()
    counters = result.counters
    return {
        "digest": digest,
        # One unit per trial; a trial also fails when the rendered
        # markdown differs.
        "units": [unit_key(f"{d}/{markdown}") for d in result.digests],
        "trial_digests": result.digests,
        "sim_s": counters.get("sim_us", 0) / SEC,
        "trials": result.stats.total,
        "sections": section_s,
        "program": {
            "events_fired": counters.get("events_fired", 0),
            "balance_calls": counters.get("balance_calls", 0),
            "migrations": counters.get("migrations", 0),
        },
    }


@dataclass(frozen=True)
class Workload:
    setup: Callable[..., object]
    run: Callable[..., Dict[str, object]]


#: What a committed reference digest depends on besides the seed.
PARAMS: Dict[str, Dict[str, object]] = {
    "soak64": {"horizon_us": SOAK64_HORIZON_US},
    "wakeup": {"horizon_us": WAKEUP_HORIZON_US},
    "report": {"scale": REPORT_SCALE},
}

WORKLOADS: Dict[str, Workload] = {
    "soak64": Workload(soak64_setup, simulate),
    "wakeup": Workload(wakeup_setup, simulate),
    "report": Workload(report_setup, report_run),
}
