"""The ``repro lint`` entry point: walk, apply suppressions, render, exit.

Composes with pre-commit hooks and CI: exit status is 0 on a clean tree
(or when every finding is excused -- grandfathered by the baseline or
silenced by an inline ``# repro: noqa[...]`` directive) and 1 when any
new finding exists.  ``--format json`` emits a stable machine-readable
document, ``--format sarif`` (or ``--sarif FILE``) a SARIF 2.1.0 log for
code-scanning consumers, and ``--write-baseline`` records the current
active findings as the new grandfather set.
"""

from __future__ import annotations

import hashlib
import json
import sys
import time
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple

if TYPE_CHECKING:
    from repro.perf.orchestrator.spec import TrialResult, TrialSpec

from repro.analysis.baseline import Baseline, BaselineError
from repro.analysis.core import Analyzer, Finding, iter_python_files
from repro.analysis.rules import HotPathCostRule, default_rules, split_rules
from repro.analysis.sarif import render_sarif

#: Default baseline filename, looked up in the current directory.
DEFAULT_BASELINE = "lint-baseline.json"

#: Schema version of the ``--format json`` document.  Version 2 split the
#: old two-way new/suppressed partition into three sections: ``findings``
#: (fail the run), ``baseline`` (grandfathered), ``noqa`` (inline).
REPORT_VERSION = 2


def default_target() -> Path:
    """The installed ``repro`` package tree (lint's default subject)."""
    import repro

    return Path(repro.__file__).resolve().parent


def partition_noqa(
    findings: Sequence[Finding],
) -> Tuple[List[Finding], List[Finding]]:
    """Split findings into (active, inline-suppressed)."""
    active = [f for f in findings if not f.suppressed]
    noqa = [f for f in findings if f.suppressed]
    return active, noqa


def render_json(
    new: Sequence[Finding],
    baselined: Sequence[Finding],
    noqa: Sequence[Finding],
) -> str:
    report = {
        "version": REPORT_VERSION,
        "findings": [f.to_dict() for f in new],
        "baseline": [f.to_dict() for f in baselined],
        "noqa": [f.to_dict() for f in noqa],
        "counts": {
            "new": len(new),
            "baseline": len(baselined),
            "noqa": len(noqa),
        },
    }
    return json.dumps(report, indent=2, sort_keys=True)


def render_text(
    new: Sequence[Finding],
    baselined: Sequence[Finding],
    noqa: Sequence[Finding],
) -> str:
    lines = [f.format() for f in new]
    if new:
        lines.append("")
    noun = "finding" if len(new) == 1 else "findings"
    summary = f"{len(new)} {noun}"
    extras = []
    if baselined:
        extras.append(f"{len(baselined)} suppressed by baseline")
    if noqa:
        extras.append(f"{len(noqa)} suppressed inline")
    if extras:
        summary += f" ({', '.join(extras)})"
    lines.append(summary)
    return "\n".join(lines)


def _finding_from_dict(data: Dict[str, object]) -> Finding:
    """Rebuild a :class:`Finding` from its :meth:`Finding.to_dict` form."""
    return Finding(
        rule_id=str(data["rule"]),
        path=str(data["path"]),
        line=int(data["line"]),  # type: ignore[call-overload]
        col=int(data["col"]),  # type: ignore[call-overload]
        message=str(data["message"]),
        snippet=str(data.get("snippet", "")),
        severity=str(data.get("severity", "warning")),
        suppressed=bool(data.get("suppressed", False)),
    )


def lint_shard_trial(spec: TrialSpec) -> TrialResult:
    """Pool worker: run every per-file rule over one shard of files.

    The spec's ``files`` param is a JSON list of absolute paths.  Only
    per-file rules run here -- cross-file rules need the whole tree and
    stay in the parent -- so a shard's findings depend on nothing but its
    own files, which is what makes any shard partition merge-equivalent
    to the serial walk.  Results opt out of the cache (``cache=False``):
    lint output depends on file *content*, which the spec fingerprint
    does not capture.
    """
    from repro.perf.orchestrator.spec import TrialResult

    files = json.loads(spec.param("files") or "[]")
    per_file, _ = split_rules(default_rules())
    analyzer = Analyzer(per_file)
    findings = analyzer.run([Path(f) for f in files])
    payload = [f.to_dict() for f in findings]
    digest = hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode("utf-8")
    ).hexdigest()
    return TrialResult(
        row={"findings": payload, "files": len(files)},
        schedule_digest=digest,
    )


def _parallel_findings(
    targets: Sequence[Path], jobs: int
) -> Tuple[List[Finding], Optional[Dict[str, object]]]:
    """The ``--jobs N`` walk: shard per-file rules, keep cross-file local.

    Workers each run the per-file rules over a round-robin shard of the
    file list; the parent runs the cross-file rules (whole-program state)
    over every file itself.  The merged, sorted result is byte-identical
    to the serial walk: per-file findings keep their within-file emission
    order (one file lives in exactly one shard), cross-file finalize
    findings sort after visit findings on ties exactly as the serial
    accumulator ordered them, and the parent's duplicate parse-error
    findings are dropped in favor of the workers' copies.

    Returns ``(findings, cost_report)``.
    """
    from repro.perf.orchestrator.pool import run_pool
    from repro.perf.orchestrator.spec import TrialSpec

    files = list(iter_python_files(targets))
    shards: List[List[Path]] = [[] for _ in range(min(jobs, len(files)) or 1)]
    for index, path in enumerate(files):
        shards[index % len(shards)].append(path)
    shards = [s for s in shards if s]

    start = time.perf_counter()
    specs = [
        (
            index,
            TrialSpec(
                kind="repro.analysis.runner:lint_shard_trial",
                scenario=f"lint-shard-{index}",
                seed=0,
                params=(
                    ("files", json.dumps([str(p) for p in shard])),
                ),
                cache=False,
            ),
        )
        for index, shard in enumerate(shards)
    ]
    done = 0

    def _progress(record: object) -> None:
        nonlocal done
        done += 1
        print(
            f"lint: shard {done}/{len(specs)} done",
            file=sys.stderr,
            flush=True,
        )

    executed = run_pool(specs, jobs=jobs, on_result=_progress)
    findings: List[Finding] = []
    for record in executed:
        for data in record.result.row["findings"]:  # type: ignore[index]
            findings.append(_finding_from_dict(data))

    _, cross = split_rules(default_rules())
    analyzer = Analyzer(cross)
    for finding in analyzer.run(files):
        if finding.rule_id == "parse-error":
            continue  # the owning shard already reported it
        findings.append(finding)
    cost = _take_cost_report(cross)
    findings.sort(key=Finding.sort_key)
    elapsed = time.perf_counter() - start
    print(
        f"lint: {len(files)} files in {len(specs)} shards "
        f"across {jobs} workers in {elapsed:.2f}s",
        file=sys.stderr,
        flush=True,
    )
    return findings, cost


def _take_cost_report(
    rules: Sequence[object],
) -> Optional[Dict[str, object]]:
    """The cost/allocation report stashed by the hot-path cost rule."""
    for rule in rules:
        if isinstance(rule, HotPathCostRule) and rule.report is not None:
            return rule.report
    return None


def run_lint(
    paths: Optional[Sequence[str]] = None,
    fmt: str = "text",
    baseline_path: Optional[str] = None,
    write_baseline: bool = False,
    sarif_path: Optional[str] = None,
    jobs: Optional[int] = None,
    cost_report: Optional[str] = None,
    write_cost_baseline: bool = False,
    out: Callable[[str], None] = print,
) -> int:
    """Run the offline checker; returns the process exit code.

    ``paths`` defaults to the installed ``repro`` package.  A baseline is
    consulted when ``baseline_path`` is given, or when the default
    ``lint-baseline.json`` exists in the working directory.  When
    ``sarif_path`` is given a SARIF 2.1.0 log of *every* finding
    (including suppressed ones, flagged as such) is also written there.
    ``jobs`` > 1 shards the per-file rules across a worker pool (stdout
    stays byte-identical; progress goes to stderr); ``cost_report``
    names a file to receive the cost and allocation analysis computed
    by the ``hot-path-alloc`` rule.  ``write_cost_baseline`` rewrites
    ``COST_baseline.json`` from the fresh analysis -- the cost analogue
    of ``write_baseline``.
    """
    targets = (
        [Path(p) for p in paths] if paths else [default_target()]
    )
    missing = [t for t in targets if not t.exists()]
    if missing:
        out(f"error: no such path: {', '.join(str(m) for m in missing)}")
        return 2

    from repro.perf.orchestrator.pool import resolve_jobs

    try:
        workers = resolve_jobs(jobs)
    except ValueError as exc:
        out(f"error: {exc}")
        return 2

    rules = default_rules()
    if workers > 1:
        findings, cost = _parallel_findings(targets, workers)
    else:
        analyzer = Analyzer(rules)
        findings = analyzer.run(targets)
        cost = _take_cost_report(rules)

    if cost_report is not None:
        if cost is None:
            out(
                "error: no cost report produced "
                "(no repro.sched/sim/core files in the analyzed set)"
            )
            return 2
        Path(cost_report).write_text(
            json.dumps(cost, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )

    if write_cost_baseline:
        if cost is None:
            out(
                "error: no cost report produced "
                "(no repro.sched/sim/core files in the analyzed set)"
            )
            return 2
        from repro.analysis.rules.cost import (
            DEFAULT_COST_BASELINE,
            build_cost_baseline,
        )

        target = Path(DEFAULT_COST_BASELINE)
        document = build_cost_baseline(cost)
        target.write_text(
            json.dumps(document, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        out(f"cost baseline written to {target}")

    active, noqa = partition_noqa(findings)

    explicit = baseline_path is not None
    resolved_baseline = Path(baseline_path or DEFAULT_BASELINE)
    if write_baseline:
        # Only active findings need grandfathering; a noqa'd finding is
        # already excused at its source line.
        Baseline.from_findings(active).save(resolved_baseline)
        noun = "finding" if len(active) == 1 else "findings"
        out(
            f"baseline written to {resolved_baseline} "
            f"({len(active)} {noun} grandfathered)"
        )
        return 0

    new: List[Finding] = active
    baselined: List[Finding] = []
    if explicit or resolved_baseline.exists():
        try:
            baseline = Baseline.load(resolved_baseline)
        except BaselineError as exc:
            out(f"error: {exc}")
            return 2
        new, baselined = baseline.split(active)

    baseline_fps = {f.fingerprint() for f in baselined}
    if sarif_path is not None:
        Path(sarif_path).write_text(
            render_sarif(findings, rules, baseline_fps) + "\n",
            encoding="utf-8",
        )

    if fmt == "json":
        out(render_json(new, baselined, noqa))
    elif fmt == "sarif":
        out(render_sarif(findings, rules, baseline_fps))
    else:
        out(render_text(new, baselined, noqa))
    return 1 if new else 0
