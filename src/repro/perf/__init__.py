"""Performance harness: deterministic macro-benchmarks of the simulator.

The fast path this package measures (``repro bench``) is the memoized
runqueue loads, the struct-of-arrays balance mirror, and event-loop
compaction behind :meth:`repro.sched.features.SchedFeatures.with_fastpath`.
Each benchmark runs the same seeded scenario in one of two variants --
*baseline* (fast path off, reproducing the historical implementations)
and *fast* (the default every command ships with) -- and a short traced
run digests the schedule so both variants can be proven byte-identical
(``repro bench --check-digests``).

Results append to a ``BENCH_*.json`` trajectory file, so the measured
speedups (and the determinism digests) are tracked over the repository's
history.  Wall-clock reads are legal here: this package is outside the
simulation hot scope the ``det-wallclock`` lint rule protects.
"""

from repro.perf.bench import (
    BENCHMARKS,
    VARIANTS,
    BenchResult,
    ModeMetrics,
    benchmark_names,
    profile_benchmark,
    run_benchmark,
)
from repro.perf.orchestrator import (
    OrchestratorRun,
    PoolStats,
    ResultCache,
    TrialOutcome,
    TrialResult,
    TrialSpec,
    resolve_jobs,
    run_trials,
    source_tree_digest,
)
from repro.perf.store import (
    append_run,
    check_digests,
    format_results,
    format_trend,
    load_trajectory,
)

__all__ = [
    "BENCHMARKS",
    "VARIANTS",
    "BenchResult",
    "ModeMetrics",
    "benchmark_names",
    "profile_benchmark",
    "run_benchmark",
    "OrchestratorRun",
    "PoolStats",
    "ResultCache",
    "TrialOutcome",
    "TrialResult",
    "TrialSpec",
    "resolve_jobs",
    "run_trials",
    "source_tree_digest",
    "append_run",
    "check_digests",
    "format_results",
    "format_trend",
    "load_trajectory",
]
