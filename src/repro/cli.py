"""Command-line interface: run the paper's experiments from a terminal.

::

    python -m repro bugs                     # Table 4 (registry)
    python -m repro topology                 # Table 5 / Figures 1 & 4
    python -m repro table1 [--scale 0.2] [--apps lu cg]
    python -m repro table2 [--scale 1.0] [--runs 3]
    python -m repro table3 [--scale 0.2] [--apps ...]
    python -m repro figure2 [--scale 0.5] [--svg-dir DIR]
    python -m repro figure3 [--scale 1.0] [--svg-dir DIR]
    python -m repro figure5 [--svg-dir DIR]
    python -m repro overhead [--threads 512]
    python -m repro demo <group-imbalance|group-construction|
                          overload-on-wakeup|missing-domains>
                         [--sanitize] [--effect-check] [--alloc-check]
    python -m repro trace <bug> [--variant buggy|fixed] [--out trace.json]
    python -m repro metrics <bug> [--variant buggy|fixed]
    python -m repro report [--quick] [-j N] [--no-cache] [--cache-dir DIR]
                           [--utilization-out FILE] [--digests-out FILE]
    python -m repro lint [paths ...] [--format json|text|sarif]
                         [--sarif FILE] [--baseline FILE]
                         [--cost-report FILE] [--write-cost-baseline]
    python -m repro bench [--quick] [--compare] [--only NAME] [-j N]
                          [--variant baseline|fast]
                          [--out BENCH_sim.json] [--check-digests [FILE]]
                          [--profile] [--trend [FILE]]
    python -m repro slo run [--registry PATH] [--scenario NAME] [--scale F]
                            [-j N] [--json FILE]
    python -m repro slo check [--baseline SLO_baseline.json]
                              [--write-baseline] [-j N]
    python -m repro replay record [--scenario NAME] [--scale F] [--out DIR]
    python -m repro replay diff FILE [FILE ...]
    python -m repro --version
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional


def _cmd_bugs(args) -> int:
    from repro.experiments.table4 import bug_descriptions, format_table4

    print(format_table4())
    print()
    print(bug_descriptions())
    return 0


def _cmd_topology(args) -> int:
    from repro.experiments.figures_topology import (
        format_bulldozer_domains,
        format_figure1,
        format_figure4,
        format_table5,
    )

    print(format_table5())
    print()
    print(format_figure4())
    print()
    print(format_figure1())
    print()
    print("domains of cpu 0 on the experimental machine:")
    print(format_bulldozer_domains(0))
    return 0


def _cmd_table1(args) -> int:
    from repro.experiments.table1 import format_table1, run_table1

    rows = run_table1(
        scale=args.scale, apps=args.apps or None,
        obs=getattr(args, "obs", False),
    )
    print(format_table1(rows))
    return 0


def _cmd_table2(args) -> int:
    from repro.experiments.table2 import format_table2, run_table2

    rows = run_table2(scale=args.scale, runs=args.runs)
    print(format_table2(rows))
    return 0


def _cmd_table3(args) -> int:
    from repro.experiments.table3 import format_table3, run_table3

    rows = run_table3(scale=args.scale, apps=args.apps or None)
    print(format_table3(rows))
    return 0


def _cmd_figure2(args) -> int:
    from repro.experiments.figure2 import render_figure2, run_figure2

    result = run_figure2(scale=args.scale)
    print(render_figure2(result, svg_dir=args.svg_dir))
    return 0


def _cmd_figure3(args) -> int:
    from repro.experiments.figure3 import render_figure3, run_figure3

    result = run_figure3(scale=args.scale)
    print(render_figure3(result, svg_dir=args.svg_dir))
    return 0


def _cmd_figure5(args) -> int:
    from repro.experiments.figure5 import render_figure5, run_figure5

    result = run_figure5()
    print(render_figure5(result, svg_dir=args.svg_dir))
    return 0


def _cmd_overhead(args) -> int:
    from repro.experiments.overhead import format_overhead, run_overhead

    result = run_overhead(threads=args.threads)
    print(format_overhead(result))
    return 0


def _cmd_demo(args) -> int:
    """Run one bug's minimal scenario live, with the sanity checker on."""
    from repro.experiments.scenarios import build_bug_scenario
    from repro.stats.metrics import node_busy_times

    transform = None
    if args.sanitize:
        transform = lambda f: f.with_sanitizer()  # noqa: E731

    alloc_session = None
    if args.alloc_check:
        from repro.analysis.alloctrack import AllocCheckSession

        # The default fast path runs the balance mirror, so the demos
        # already exercise every declared root.
        alloc_session = AllocCheckSession()

    effect_session = None
    if args.effect_check:
        from repro.analysis.effectcheck import EffectCheckSession

        effect_session = EffectCheckSession()
        effect_session.install()
    if alloc_session is not None:
        alloc_session.install()
    try:
        for variant in ("buggy", "fixed"):
            scenario = build_bug_scenario(
                args.bug, variant, features_transform=transform
            )
            scenario.run()
            system = scenario.system
            print(f"--- {scenario.bug} [{variant}]")
            print(f"  {system.scheduler.features.describe()}")
            busy = node_busy_times(system)
            print(f"  node busy core-seconds: "
                  f"{ {n: round(v / 1e6, 2) for n, v in busy.items()} }")
            print(f"  idle-while-overloaded fraction: "
                  f"{scenario.sampler.violation_fraction:.1%}")
            print(f"  {scenario.checker.summary()}")
            print()
    finally:
        if alloc_session is not None:
            alloc_session.uninstall()
        if effect_session is not None:
            effect_session.uninstall()
    if effect_session is not None:
        print(effect_session.summary())
        effect_session.check()  # raises EffectDivergence on any divergence
    if alloc_session is not None:
        print(alloc_session.summary())
        alloc_session.check()  # raises AllocDivergence on any divergence
    return 0


def _cmd_trace(args) -> int:
    """Capture one bug scenario as a Chrome trace-event / Perfetto file."""
    from repro.experiments.scenarios import build_bug_scenario
    from repro.obs import ObsSession

    holder = {}

    def instrument(system):
        holder["obs"] = ObsSession.attach_to(system, trace=True)

    scenario = build_bug_scenario(args.bug, args.variant, instrument=instrument)
    obs = holder["obs"]
    try:
        scenario.run(args.duration_us)
    finally:
        obs.close()
    events = obs.write_chrome_trace(args.out)
    print(
        f"{scenario.bug} [{args.variant}]: {events} trace events "
        f"({scenario.system.now / 1e6:.2f}s simulated) -> {args.out}"
    )
    print("open in https://ui.perfetto.dev or chrome://tracing")
    print(f"  {scenario.checker.summary()}")
    print(f"  {obs.recorder.latency_line()}")
    return 0


def _cmd_metrics(args) -> int:
    """Run one bug scenario and print its metrics table."""
    from repro.experiments.scenarios import build_bug_scenario
    from repro.obs import ObsSession

    holder = {}

    def instrument(system):
        holder["obs"] = ObsSession.attach_to(system, trace=False)

    scenario = build_bug_scenario(args.bug, args.variant, instrument=instrument)
    obs = holder["obs"]
    try:
        scenario.run(args.duration_us)
    finally:
        obs.close()
    print(f"--- {scenario.bug} [{args.variant}] "
          f"({scenario.system.now / 1e6:.2f}s simulated)")
    print(obs.snapshot().render())
    print(f"  {scenario.checker.summary()}")
    print(f"  {obs.recorder.latency_line()}")
    return 0


def _resolve_cache(args):
    """The ResultCache the CLI flags ask for (None when disabled)."""
    from repro.perf.orchestrator import ResultCache

    if getattr(args, "no_cache", False):
        return None
    return ResultCache(root=args.cache_dir)


def _cmd_report(args) -> int:
    """Regenerate a full markdown report of every experiment.

    Trials fan out across ``--jobs`` worker processes and previously
    computed rows are answered from the content-addressed cache under
    ``.repro-cache/`` (``--no-cache`` disables it); the rendered report
    is byte-identical for any ``--jobs`` value.
    """
    import json

    from repro.experiments.reportgen import QUICK_SCALE, generate_report

    scale = QUICK_SCALE if args.quick else args.scale

    def progress(done: int, total: int, outcome) -> None:
        origin = "cache" if outcome.cached else outcome.worker
        print(
            f"[{done}/{total}] {outcome.spec.label} "
            f"({origin}, {outcome.wall_seconds:.2f}s)",
            file=sys.stderr,
        )

    result = generate_report(
        scale=scale,
        jobs=args.jobs,
        cache=_resolve_cache(args),
        progress=progress,
    )
    print(result.stats.summary(), file=sys.stderr)
    if args.utilization_out:
        with open(args.utilization_out, "w", encoding="utf-8") as f:
            json.dump(result.stats.to_json(), f, indent=2, sort_keys=True)
            f.write("\n")
        print(f"utilization summary written to {args.utilization_out}",
              file=sys.stderr)
    if args.digests_out:
        with open(args.digests_out, "w", encoding="utf-8") as f:
            f.write("\n".join(result.digests) + "\n")
        print(f"schedule digests written to {args.digests_out}",
              file=sys.stderr)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as f:
            f.write(result.markdown)
        print(f"report written to {args.output}")
    else:
        print(result.markdown)
    return 0


def _cmd_lint(args) -> int:
    """Run the offline static invariant checker (see repro.analysis)."""
    from repro.analysis.runner import run_lint

    return run_lint(
        paths=args.paths or None,
        fmt=args.format,
        baseline_path=args.baseline,
        write_baseline=args.write_baseline,
        sarif_path=args.sarif,
        jobs=args.jobs,
        cost_report=args.cost_report,
        write_cost_baseline=args.write_cost_baseline,
    )


def _cmd_bench(args) -> int:
    """Run the deterministic macro-benchmarks (see repro.perf)."""
    from repro.perf import (
        append_run,
        benchmark_names,
        check_digests,
        format_results,
        run_benchmark,
    )

    if args.trend is not None:
        from repro.perf import format_trend, load_trajectory

        try:
            trajectory = load_trajectory(args.trend)
        except (OSError, ValueError) as exc:
            print(f"cannot read trajectory {args.trend}: {exc}",
                  file=sys.stderr)
            return 2
        print(format_trend(trajectory))
        return 0

    names = args.only or benchmark_names()
    unknown = [n for n in names if n not in benchmark_names()]
    if unknown:
        print(f"unknown benchmark(s): {', '.join(unknown)} "
              f"(known: {', '.join(benchmark_names())})", file=sys.stderr)
        return 2
    cross_check = args.check_digests is not None
    results = []
    for name in names:
        print(f"running {name}{' (quick)' if args.quick else ''} ...",
              file=sys.stderr)
        results.append(
            run_benchmark(
                name, quick=args.quick, compare=args.compare,
                jobs=args.jobs, variant=args.variant,
                check_digests=cross_check,
            )
        )
    print(format_results(results))

    status = 0
    if any(r.digest_match is False for r in results):
        status = 1
    if cross_check:
        bad = [r.name for r in results if r.digest_match is False]
        if bad:
            print(f"digest cross-check FAILED: {', '.join(bad)}")
        else:
            print("digest cross-check passed: all variants identical")
    if isinstance(args.check_digests, str) and args.check_digests:
        mismatches = check_digests(args.check_digests, results)
        for name, stored, fresh in mismatches:
            print(
                f"DIGEST DRIFT: {name}: stored {stored[:16]}... != "
                f"fresh {fresh[:16]}... (schedule changed since "
                f"{args.check_digests})"
            )
            status = 1
        if not mismatches:
            print(f"digests match {args.check_digests}")
    if args.profile:
        from pathlib import Path

        from repro.perf import profile_benchmark

        base = Path(args.out) if args.out else Path("bench")
        for name in names:
            print(f"profiling {name} ...", file=sys.stderr)
            text = profile_benchmark(
                name, quick=args.quick, jobs=args.jobs,
                variant=args.variant,
            )
            target = base.with_name(f"{base.stem}.profile.{name}.txt")
            target.write_text(text)
            print(f"wrote profile to {target}")
    if args.out:
        append_run(args.out, results, label=args.label, jobs=args.jobs)
        print(f"appended run to {args.out}")
    return status


def _slo_progress(done: int, total: int, outcome) -> None:
    origin = "cache" if outcome.cached else outcome.worker
    print(
        f"[{done}/{total}] {outcome.spec.label} "
        f"({origin}, {outcome.wall_seconds:.2f}s)",
        file=sys.stderr,
    )


def _load_slo_registry(args):
    """The scenario set the slo/replay flags select."""
    from repro.slo.registry import find_scenarios, load_registry

    scenarios = load_registry(args.registry or None)
    if args.scenario:
        scenarios = find_scenarios(scenarios, args.scenario)
    return scenarios


def _cmd_slo_run(args) -> int:
    """Run the scenario registry and print per-scenario SLO verdicts."""
    import json

    from repro.slo.registry import run_registry

    scenarios = _load_slo_registry(args)
    report, run = run_registry(
        scenarios,
        scale=args.scale,
        jobs=args.jobs,
        cache=_resolve_cache(args),
        progress=_slo_progress if args.progress else None,
    )
    print(run.stats.summary(), file=sys.stderr)
    print(report.render())
    if args.json:
        with open(args.json, "w", encoding="utf-8") as f:
            json.dump(report.to_json(), f, indent=2, sort_keys=True)
            f.write("\n")
        print(f"SLO report written to {args.json}", file=sys.stderr)
    return 0


def _cmd_slo_check(args) -> int:
    """Gate: compare current SLO verdicts against the committed baseline."""
    import json

    from repro.slo.registry import run_registry

    scenarios = _load_slo_registry(args)
    report, _ = run_registry(
        scenarios,
        scale=args.scale,
        jobs=args.jobs,
        cache=_resolve_cache(args),
    )
    verdicts = report.verdicts()
    if args.json:
        with open(args.json, "w", encoding="utf-8") as f:
            json.dump(report.to_json(), f, indent=2, sort_keys=True)
            f.write("\n")
        print(f"SLO report written to {args.json}", file=sys.stderr)
    if args.write_baseline:
        with open(args.baseline, "w", encoding="utf-8") as f:
            json.dump(
                {"version": 1, "scale": args.scale, "verdicts": verdicts},
                f, indent=2, sort_keys=True,
            )
            f.write("\n")
        print(f"baseline written to {args.baseline}")
        return 0
    try:
        with open(args.baseline, encoding="utf-8") as f:
            baseline = json.load(f)
    except FileNotFoundError:
        print(f"no baseline at {args.baseline}; run with --write-baseline "
              "to record one", file=sys.stderr)
        return 2
    expected = baseline.get("verdicts", {})
    status = 0
    for key in sorted(set(expected) | set(verdicts)):
        if key not in verdicts:
            print(f"SLO REGRESSION: {key} in baseline but not evaluated")
            status = 1
        elif key not in expected:
            print(f"SLO REGRESSION: {key} evaluated but not in baseline "
                  "(re-baseline with --write-baseline)")
            status = 1
        elif expected[key] != verdicts[key]:
            was = "PASS" if expected[key] else "FAIL"
            now = "PASS" if verdicts[key] else "FAIL"
            print(f"SLO REGRESSION: {key}: baseline {was}, now {now}")
            status = 1
    if status == 0:
        print(f"SLO verdicts match {args.baseline} "
              f"({len(verdicts)} scenario variants)")
    else:
        print(report.render())
    return status


def _cmd_replay_record(args) -> int:
    """Record registry scenarios' runs as versioned JSONL trace files."""
    from repro.slo.registry import compile_specs
    from repro.slo.replay import record_trace, trace_filename

    scenarios = _load_slo_registry(args)
    os.makedirs(args.out, exist_ok=True)
    count = 0
    for scenario in scenarios:
        for spec in compile_specs(scenario, scale=args.scale, record=True):
            path = os.path.join(args.out, trace_filename(spec))
            record_trace(spec, path)
            print(f"recorded {path}")
            count += 1
    print(f"{count} recording(s) written to {args.out}")
    return 0


def _cmd_replay_diff(args) -> int:
    """Re-drive recordings through the engine; exit 1 on any divergence."""
    from repro.slo.replay import replay_trace

    status = 0
    for path in args.traces:
        diff = replay_trace(path)
        print(diff.format())
        if diff.divergent:
            status = 1
    return status


def _version() -> str:
    """Package version, from installed metadata when available."""
    try:
        from importlib.metadata import version

        return version("repro")
    except Exception:
        from repro import __version__

        return __version__


def _bug_name(value: str) -> str:
    """argparse type: normalize/validate a bug name (either spelling)."""
    from repro.experiments.scenarios import canonical_bug_name

    try:
        return canonical_bug_name(value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def build_parser() -> argparse.ArgumentParser:
    """The argparse tree for ``python -m repro``."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduce 'The Linux Scheduler: a Decade of Wasted Cores' "
            "(EuroSys 2016)"
        ),
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {_version()}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("bugs", help="Table 4: the bug registry").set_defaults(
        func=_cmd_bugs
    )
    sub.add_parser(
        "topology", help="Table 5 / Figures 1 and 4: the machine"
    ).set_defaults(func=_cmd_topology)

    for name, func, default_scale, has_apps in (
        ("table1", _cmd_table1, 0.2, True),
        ("table3", _cmd_table3, 0.2, True),
    ):
        p = sub.add_parser(name, help=f"reproduce {name}")
        p.add_argument("--scale", type=float, default=default_scale)
        if has_apps:
            p.add_argument("--apps", nargs="*", default=None)
        if name == "table1":
            p.add_argument(
                "--obs", action="store_true",
                help="attach the obs registry and report wakeup-to-run "
                "latency percentiles",
            )
        p.set_defaults(func=func)

    p = sub.add_parser("table2", help="reproduce table 2 (TPC-H)")
    p.add_argument("--scale", type=float, default=1.0)
    p.add_argument("--runs", type=int, default=1)
    p.set_defaults(func=_cmd_table2)

    for name, func, default_scale in (
        ("figure2", _cmd_figure2, 0.5),
        ("figure3", _cmd_figure3, 1.0),
    ):
        p = sub.add_parser(name, help=f"reproduce {name}")
        p.add_argument("--scale", type=float, default=default_scale)
        p.add_argument("--svg-dir", default=None)
        p.set_defaults(func=func)

    p = sub.add_parser("figure5", help="reproduce figure 5")
    p.add_argument("--svg-dir", default=None)
    p.set_defaults(func=_cmd_figure5)

    p = sub.add_parser("overhead", help="sanity-checker overhead")
    p.add_argument("--threads", type=int, default=512)
    p.set_defaults(func=_cmd_overhead)

    p = sub.add_parser(
        "report", help="regenerate a full markdown report of every "
        "experiment"
    )
    p.add_argument("--scale", type=float, default=0.2)
    p.add_argument("--output", default=None)
    p.add_argument(
        "--quick", action="store_true",
        help="shrink every experiment to smoke-run scale (CI gate)",
    )
    p.add_argument(
        "-j", "--jobs", type=int, default=None, metavar="N",
        help="worker processes for trial execution (default: REPRO_JOBS "
        "or serial; 0 = one per core); output is byte-identical for "
        "any N",
    )
    p.add_argument(
        "--no-cache", action="store_true",
        help="recompute every trial instead of consulting the "
        "content-addressed result cache",
    )
    p.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="result-cache directory (default: REPRO_CACHE_DIR or "
        ".repro-cache)",
    )
    p.add_argument(
        "--utilization-out", default=None, metavar="FILE",
        help="write the orchestrator utilization summary as JSON to FILE",
    )
    p.add_argument(
        "--digests-out", default=None, metavar="FILE",
        help="write every trial's schedule digest (spec order) to FILE; "
        "diffing two runs' files proves -jN equivalence",
    )
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser(
        "lint",
        help="offline static invariant checker (determinism, layering, "
        "tracepoints, flag discipline)",
    )
    p.add_argument(
        "paths", nargs="*", default=None,
        help="files or directories to check (default: the repro package)",
    )
    p.add_argument(
        "--format", choices=["text", "json", "sarif"], default="text"
    )
    p.add_argument(
        "--sarif", default=None, metavar="FILE",
        help="also write a SARIF 2.1.0 log of every finding to FILE",
    )
    p.add_argument(
        "--baseline", default=None,
        help="baseline file of grandfathered findings (default: "
        "lint-baseline.json in the working directory, if present)",
    )
    p.add_argument(
        "--write-baseline", action="store_true",
        help="record current findings as the new baseline and exit 0",
    )
    p.add_argument(
        "-j", "--jobs", type=int, default=None, metavar="N",
        help="shard per-file rules across N worker processes (0 = one "
        "per core; default REPRO_JOBS or serial); stdout is "
        "byte-identical to a serial run",
    )
    p.add_argument(
        "--cost-report", default=None, metavar="FILE",
        help="write the hot-path cost & allocation report (per-root "
        "cost expressions and allocation sites with provenance) to FILE",
    )
    p.add_argument(
        "--write-cost-baseline", action="store_true",
        help="rewrite COST_baseline.json from the fresh analysis; use "
        "when a complexity change is intentional and justified",
    )
    p.set_defaults(func=_cmd_lint)

    p = sub.add_parser(
        "bench",
        help="deterministic macro-benchmarks of the simulator fast paths",
    )
    p.add_argument(
        "--quick", action="store_true",
        help="shortened horizons for CI smoke runs",
    )
    p.add_argument(
        "--compare", action="store_true",
        help="also measure with the fast paths disabled and report the "
        "speedup plus a fast-vs-baseline schedule-digest check",
    )
    p.add_argument(
        "--only", nargs="*", default=None, metavar="NAME",
        help="run only these benchmarks (default: all)",
    )
    p.add_argument(
        "--out", default=None, metavar="FILE",
        help="append results to this BENCH_*.json trajectory file",
    )
    p.add_argument(
        "--check-digests", nargs="?", const=True, default=None,
        metavar="FILE",
        help="recompute every benchmark's schedule digest in both "
        "variants (baseline, fast) and require them identical; with FILE, additionally compare against the most "
        "recent run stored there; exit 1 on any mismatch",
    )
    p.add_argument(
        "--variant", default="fast",
        choices=("baseline", "fast"),
        help="the variant the primary wall-clock measurement runs "
        "(default: fast, the path every command ships with)",
    )
    p.add_argument(
        "--profile", action="store_true",
        help="rerun each benchmark under cProfile and write the top-20 "
        "cumulative report next to --out "
        "(<out-stem>.profile.<bench>.txt)",
    )
    p.add_argument(
        "--trend", nargs="?", const="BENCH_sim.json", default=None,
        metavar="FILE",
        help="print the per-benchmark history table (run id, variant, "
        "wall seconds, speedup, digest_match) of a BENCH_*.json "
        "trajectory and exit without running anything "
        "(default FILE: BENCH_sim.json)",
    )
    p.add_argument(
        "--label", default="",
        help="label recorded with the appended run (e.g. a commit sha)",
    )
    p.add_argument(
        "-j", "--jobs", type=int, default=1, metavar="N",
        help="worker processes for the report_wall benchmark's fast "
        "mode (1 = one per core there); recorded in --out trajectories",
    )
    p.set_defaults(func=_cmd_bench)

    def _slo_common(p, with_cache: bool = True) -> None:
        p.add_argument(
            "--registry", nargs="*", default=None, metavar="PATH",
            help="scenario TOML files or directories (default: the "
            "shipped registry under repro/slo/scenarios/)",
        )
        p.add_argument(
            "--scenario", nargs="*", default=None, metavar="NAME",
            help="run only these scenarios (default: all in the registry)",
        )
        p.add_argument(
            "--scale", type=float, default=1.0,
            help="multiply every scenario's duration by this factor",
        )
        if with_cache:
            p.add_argument(
                "-j", "--jobs", type=int, default=None, metavar="N",
                help="worker processes (default: REPRO_JOBS or serial; "
                "0 = one per core); verdicts are identical for any N",
            )
            p.add_argument("--no-cache", action="store_true")
            p.add_argument("--cache-dir", default=None, metavar="DIR")

    p = sub.add_parser(
        "slo", help="SLO reports: percentile/jitter verdicts per scenario"
    )
    slo_sub = p.add_subparsers(dest="slo_command", required=True)

    p = slo_sub.add_parser(
        "run", help="run the scenario registry and print SLO verdicts"
    )
    _slo_common(p)
    p.add_argument(
        "--json", default=None, metavar="FILE",
        help="also write the full SLO report as JSON to FILE",
    )
    p.add_argument(
        "--progress", action="store_true",
        help="print per-trial progress to stderr",
    )
    p.set_defaults(func=_cmd_slo_run)

    p = slo_sub.add_parser(
        "check", help="fail when SLO verdicts drift from the baseline"
    )
    _slo_common(p)
    p.add_argument(
        "--baseline", default="SLO_baseline.json", metavar="FILE",
        help="committed verdict baseline (default: SLO_baseline.json)",
    )
    p.add_argument(
        "--write-baseline", action="store_true",
        help="record current verdicts as the new baseline and exit 0",
    )
    p.add_argument(
        "--json", default=None, metavar="FILE",
        help="also write the full SLO report as JSON to FILE",
    )
    p.set_defaults(func=_cmd_slo_check)

    p = sub.add_parser(
        "replay", help="record scheduler traces and regression-diff replays"
    )
    replay_sub = p.add_subparsers(dest="replay_command", required=True)

    p = replay_sub.add_parser(
        "record", help="record registry scenarios to JSONL trace files"
    )
    _slo_common(p, with_cache=False)
    p.add_argument(
        "--out", default="slo-traces", metavar="DIR",
        help="directory for the .trace.jsonl recordings",
    )
    p.set_defaults(func=_cmd_replay_record)

    p = replay_sub.add_parser(
        "diff", help="re-drive recordings through the engine and diff"
    )
    p.add_argument("traces", nargs="+", metavar="FILE")
    p.set_defaults(func=_cmd_replay_diff)

    p = sub.add_parser("demo", help="run one bug's live demo")
    p.add_argument("bug", type=_bug_name, metavar="bug")
    p.add_argument(
        "--sanitize", action="store_true",
        help="run with the coherence sanitizer on: every fast-path memo "
        "hit is cross-checked against a from-scratch recompute",
    )
    p.add_argument(
        "--effect-check", action="store_true",
        help="run with the effect sanitizer on: every attribute write to "
        "scheduler-state objects is cross-checked against the static "
        "effect summaries; any undeclared write raises",
    )
    p.add_argument(
        "--alloc-check", action="store_true",
        help="run with the allocation tracker on: "
        "observed allocations inside hot-root frames are cross-checked "
        "against each root's declared class in repro.sched.allocdecl; "
        "any allocation in a declared alloc-free root raises",
    )
    p.set_defaults(func=_cmd_demo)

    for name, func, help_text in (
        ("trace", _cmd_trace,
         "capture one bug scenario as a Perfetto/Chrome trace"),
        ("metrics", _cmd_metrics,
         "run one bug scenario and print its metrics table"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("bug", type=_bug_name, metavar="bug")
        p.add_argument(
            "--variant", choices=["buggy", "fixed"], default="buggy"
        )
        p.add_argument(
            "--duration-us", type=int, default=None,
            help="simulated time to run (default: the scenario's 1s)",
        )
        if name == "trace":
            p.add_argument(
                "--out", default="trace.json",
                help="output path for the trace-event JSON",
            )
        p.set_defaults(func=func)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return int(args.func(args))
    except BrokenPipeError:
        # Output piped into head/grep and the reader went away first; the
        # conventional quiet exit (subcommands like lint compose in shell
        # pipelines and pre-commit hooks).
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
