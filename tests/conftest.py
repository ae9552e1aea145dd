"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import pytest

from repro.sched.features import SchedFeatures
from repro.sim.system import System
from repro.sim.timebase import MS
from repro.topology import amd_bulldozer_64, single_node, two_nodes
from repro.workloads.base import Run, Sleep, TaskSpec


@pytest.fixture(scope="session")
def shipped_engine():
    """The whole-program EffectEngine over the installed tree, built once.

    Building it walks and summarizes every module (seconds), so the
    analyzer and runtime-sanitizer tests share one.  They only read it:
    a ``CostModel`` keeps its caches on itself, and the sanitizer
    sessions build their own indexes from it.
    """
    from repro.analysis.effectcheck import installed_files
    from repro.analysis.effects import EffectEngine

    return EffectEngine(installed_files())


@pytest.fixture(scope="session")
def shipped_lint_json(tmp_path_factory):
    """One serial whole-tree ``repro lint --format json --cost-report``
    run, shared by the tests that gate the tree's own lint result.

    ``code`` is the exit code, ``lines`` the stdout lines, ``report``
    the parsed JSON document and ``cost_path`` the written cost report.
    """
    import json
    from pathlib import Path
    from types import SimpleNamespace

    from repro.analysis import run_lint

    src = Path(__file__).resolve().parents[1] / "src" / "repro"
    cost_path = tmp_path_factory.mktemp("lint") / "cost-report.json"
    lines = []
    code = run_lint(
        paths=[str(src)], fmt="json", cost_report=str(cost_path),
        out=lines.append,
    )
    return SimpleNamespace(
        code=code,
        lines=lines,
        report=json.loads("\n".join(lines)),
        cost_path=cost_path,
    )


@pytest.fixture
def small_system():
    """A 2-node, 8-core machine with the buggy scheduler, autogroups off."""
    return System(
        two_nodes(cores_per_node=4),
        SchedFeatures().without_autogroup(),
        seed=1,
    )


@pytest.fixture
def uma_system():
    """A single-node 4-core machine (no NUMA effects)."""
    return System(single_node(4), SchedFeatures().without_autogroup(), seed=1)


@pytest.fixture
def bulldozer():
    """The paper's 64-core machine topology."""
    return amd_bulldozer_64()


def hog_spec(name: str = "hog", total_us=None, **kwargs) -> TaskSpec:
    """An endless (or bounded) CPU burner."""

    def factory():
        def program():
            if total_us is None:
                while True:
                    yield Run(5 * MS)
            else:
                remaining = total_us
                while remaining > 0:
                    chunk = min(5 * MS, remaining)
                    remaining -= chunk
                    yield Run(chunk)

        return program()

    return TaskSpec(name=name, program=factory, **kwargs)


def sleeper_spec(
    name: str = "sleeper",
    run_us: int = 1 * MS,
    sleep_us: int = 1 * MS,
    cycles: int = 10,
    **kwargs,
) -> TaskSpec:
    """A run/sleep cycler."""

    def factory():
        def program():
            for _ in range(cycles):
                yield Run(run_us)
                yield Sleep(sleep_us)

        return program()

    return TaskSpec(name=name, program=factory, **kwargs)
