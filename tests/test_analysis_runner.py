"""End-to-end tests for ``repro lint``: exit codes, JSON schema, baseline."""

import json
from pathlib import Path

import pytest

from repro.analysis import run_lint
from repro.analysis.runner import (
    REPORT_VERSION,
    _finding_from_dict,
    render_text,
)

REPO = Path(__file__).resolve().parents[1]
SRC = REPO / "src"

#: Trips UnseededRandomRule, whose scope is the whole tree -- no module
#: override needed, so it exercises the real CLI path.
BAD_SOURCE = "import random\n\njitter = random.random()\n"
CLEAN_SOURCE = "import random\n\nrng = random.Random(7)\n"


def _capture():
    lines = []
    return lines, lines.append


def test_clean_tree_exits_zero(tmp_path):
    target = tmp_path / "ok.py"
    target.write_text(CLEAN_SOURCE)
    lines, out = _capture()
    assert run_lint(paths=[str(target)], out=out) == 0
    assert lines[-1] == "0 findings"


def test_findings_exit_nonzero(tmp_path):
    target = tmp_path / "bad.py"
    target.write_text(BAD_SOURCE)
    lines, out = _capture()
    assert run_lint(paths=[str(target)], out=out) == 1
    assert any("det-unseeded-random" in line for line in lines)


def test_missing_path_exits_two(tmp_path):
    lines, out = _capture()
    assert run_lint(paths=[str(tmp_path / "nope")], out=out) == 2
    assert any("no such path" in line for line in lines)


def test_json_report_schema(tmp_path):
    target = tmp_path / "bad.py"
    target.write_text(BAD_SOURCE)
    lines, out = _capture()
    assert run_lint(paths=[str(target)], fmt="json", out=out) == 1
    report = json.loads("\n".join(lines))
    assert report["version"] == REPORT_VERSION
    assert report["counts"] == {"new": 1, "baseline": 0, "noqa": 0}
    assert report["baseline"] == []
    assert report["noqa"] == []
    (finding,) = report["findings"]
    assert finding["rule"] == "det-unseeded-random"
    assert finding["line"] == 3
    assert finding["snippet"] == "jitter = random.random()"
    assert finding["fingerprint"]


def test_write_baseline_then_suppress(tmp_path):
    target = tmp_path / "bad.py"
    target.write_text(BAD_SOURCE)
    baseline = tmp_path / "lint-baseline.json"

    lines, out = _capture()
    assert (
        run_lint(
            paths=[str(target)],
            baseline_path=str(baseline),
            write_baseline=True,
            out=out,
        )
        == 0
    )
    assert baseline.exists()
    assert "grandfathered" in lines[-1]

    # Grandfathered finding no longer fails the run...
    lines, out = _capture()
    assert (
        run_lint(paths=[str(target)], baseline_path=str(baseline), out=out)
        == 0
    )
    assert "suppressed by baseline" in lines[-1]

    # ...but a new violation alongside it still does.
    target.write_text(BAD_SOURCE + "more = random.randrange(4)\n")
    lines, out = _capture()
    assert (
        run_lint(paths=[str(target)], baseline_path=str(baseline), out=out)
        == 1
    )
    assert any("random.randrange" in line for line in lines)


def test_corrupt_baseline_exits_two(tmp_path):
    target = tmp_path / "ok.py"
    target.write_text(CLEAN_SOURCE)
    baseline = tmp_path / "b.json"
    baseline.write_text("{broken")
    lines, out = _capture()
    assert (
        run_lint(paths=[str(target)], baseline_path=str(baseline), out=out)
        == 2
    )


def test_repository_tree_is_lint_clean(shipped_lint_json):
    """Acceptance: ``repro lint`` runs clean on the shipped source tree.

    "Clean" means zero *active* findings; the tree's own deliberate
    ``# repro: noqa[...]`` exemptions (e.g. ``RunQueue.requeue``) are
    reported as inline-suppressed and never fail the run.
    """
    sections = [
        [_finding_from_dict(f) for f in shipped_lint_json.report[key]]
        for key in ("findings", "baseline", "noqa")
    ]
    text = render_text(*sections)
    assert shipped_lint_json.code == 0, text
    assert text.splitlines()[-1].startswith("0 findings")


def test_parallel_lint_byte_identical(tmp_path, capsys):
    """-j2 output (stdout and exit code) matches the serial run exactly.

    Lint over the analysis subpackage (cross-file rules included) with a
    bad file mixed in, so both per-file shards and the parent's
    cross-file pass contribute findings to the merge.
    """
    bad = tmp_path / "bad.py"
    bad.write_text(BAD_SOURCE)
    targets = [str(SRC / "repro" / "analysis"), str(bad)]

    serial_lines, serial_out = _capture()
    serial_code = run_lint(paths=targets, fmt="json", out=serial_out)
    parallel_lines, parallel_out = _capture()
    parallel_code = run_lint(
        paths=targets, fmt="json", jobs=2, out=parallel_out
    )
    assert parallel_code == serial_code
    assert parallel_lines == serial_lines
    # Progress and timing go to stderr, never stdout.
    err = capsys.readouterr().err
    assert "shard" in err and "workers" in err


def test_parallel_lint_reports_parse_errors_once(tmp_path):
    broken = tmp_path / "broken.py"
    broken.write_text("def nope(:\n")
    serial_lines, serial_out = _capture()
    run_lint(paths=[str(broken)], fmt="json", out=serial_out)
    parallel_lines, parallel_out = _capture()
    run_lint(paths=[str(broken)], fmt="json", jobs=2, out=parallel_out)
    assert parallel_lines == serial_lines
    report = json.loads("\n".join(parallel_lines))
    parse_errors = [
        f for f in report["findings"] if f["rule"] == "parse-error"
    ]
    assert len(parse_errors) == 1  # the shard's copy, not the parent's too


def test_negative_jobs_rejected(tmp_path):
    target = tmp_path / "ok.py"
    target.write_text(CLEAN_SOURCE)
    lines, out = _capture()
    assert run_lint(paths=[str(target)], jobs=-1, out=out) == 2
    assert any("jobs" in line for line in lines)


def test_split_rules_keeps_finalizers_in_parent():
    """Any rule with a finalize() override must run in the parent process.

    The original partition only looked at ``cross_file``, so a per-file
    rule that accumulates state in visit() and reports in finalize()
    would have emitted per-shard findings under -jN -- a different
    answer than -j1.  The partition now keys on behavior, not the flag.
    """
    from repro.analysis.core import Rule
    from repro.analysis.rules import default_rules, split_rules

    rules = default_rules()
    per_file, cross = split_rules(rules)
    assert len(per_file) + len(cross) == len(rules)
    for rule in per_file:
        assert not rule.cross_file
        assert type(rule).finalize is Rule.finalize, type(rule).__name__
    names = {type(r).__name__ for r in cross}
    # The interprocedural passes all finalize in the parent.
    assert {"CoherenceRule", "TaintRule", "PureHotPathRule",
            "HotPathCostRule"} <= names


def test_cost_report_written(shipped_lint_json):
    assert shipped_lint_json.code == 0, "\n".join(shipped_lint_json.lines)
    report = json.loads(shipped_lint_json.cost_path.read_text())
    assert report["version"] == 1
    assert report["summary"]["roots"] > 0


def test_cost_report_requires_certifiable_files(tmp_path):
    target = tmp_path / "ok.py"
    target.write_text(CLEAN_SOURCE)
    lines, out = _capture()
    code = run_lint(
        paths=[str(target)],
        cost_report=str(tmp_path / "report.json"),
        out=out,
    )
    assert code == 2
    assert any("no cost report" in line for line in lines)


def test_parallel_reports_byte_identical(tmp_path, shipped_lint_json):
    """-j2 must reproduce the serial cost artifact exactly.

    The cross-file finalizers run once in the parent either way; this
    pins the contract that sharding changes scheduling, never results.
    The serial side is the shared whole-tree run.
    """
    parallel_cost = tmp_path / "cost-parallel.json"
    parallel_lines, parallel_out = _capture()
    parallel_code = run_lint(
        paths=[str(SRC / "repro")],
        fmt="json",
        jobs=2,
        cost_report=str(parallel_cost),
        out=parallel_out,
    )
    assert parallel_code == shipped_lint_json.code == 0
    assert parallel_lines == shipped_lint_json.lines
    assert (
        parallel_cost.read_bytes() == shipped_lint_json.cost_path.read_bytes()
    )


def test_self_lint_suppressions_are_exactly_the_declared_ones(
    shipped_lint_json,
):
    """The gate stays honest: every inline noqa in the tree is accounted.

    Intentional churn must be suppressed at the site with a
    justification; this test pins the full list so a new suppression
    (or a rule silently going blind) shows up as a diff here.
    """
    assert shipped_lint_json.code == 0
    report = shipped_lint_json.report
    assert report["findings"] == []
    suppressed = sorted(
        (f["rule"], Path(f["path"]).name) for f in report["noqa"]
    )
    assert suppressed == [
        ("coherence-unbumped-write", "runqueue.py"),
        ("coherence-unbumped-write", "runqueue.py"),
        ("hot-path-alloc", "vecstate.py"),
        # The load invariance flag's convergence test reads raw util on
        # purpose: util == target is decay-invariant, so the bypass
        # cannot observe staleness.
        ("perf-load-bypass", "runqueue.py"),
    ]


def test_planning_outputs_are_retired(tmp_path, capsys):
    """The cost baseline pins only root bounds, and the retired report
    and weight options are rejected by the argument parser."""
    from repro.cli import main

    committed = json.loads((REPO / "COST_baseline.json").read_text())
    assert set(committed) == {"version", "roots"}
    # Each command line names a missing target, so an implementation
    # that still accepted the option would return early instead of
    # exiting through the parser.
    missing = str(tmp_path / "missing.py")
    for argv in (
        ["lint", missing, "--effects-report", str(tmp_path / "x.json")],
        ["lint", missing, "--profile-weights", str(tmp_path / "w.json")],
        ["bench", "--only", "missing", "--cost-baseline", missing],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
        assert "unrecognized arguments" in capsys.readouterr().err
