"""Tests for the hot-path cost & allocation analyzer.

Three layers:

* unit tests over the symbolic polynomial algebra (render, baseline
  domination) -- the vocabulary every report field is built from;
* escape-classification tests over small synthetic trees, pinning the
  memo-guard heuristic (pre-guard allocation is per-call, post-guard is
  amortized, ``__init__`` is init-only);
* real-tree invariants: every shipped hot root's inferred allocation
  class matches its declaration in ``repro.sched.allocdecl``, and the
  report is a deterministic pure function of the tree.
"""

import ast
import json

from repro.analysis.costmodel import (
    CostModel,
    cost_report,
    dominated,
    render_poly,
)
from repro.analysis.effects import EffectEngine
from repro.sched.allocdecl import DECLARED_ALLOC

# ------------------------------------------------------------ polynomials


def test_render_poly_orders_terms_by_degree_then_name():
    # Big-O rendering: coefficients are dropped, degree-major order.
    poly = {(): 1, ("tasks",): 1, ("cpus", "tasks"): 2, ("cpus",): 1}
    assert render_poly(poly) == "O(cpus*tasks + cpus + tasks + 1)"


def test_render_poly_empty_is_constant():
    assert render_poly({}) == "O(1)"


def test_dominated_is_multiset_inclusion():
    base = [["cpus", "tasks"], []]
    assert dominated((), base)
    assert dominated(("tasks",), base)
    assert dominated(("cpus", "tasks"), base)
    # A squared factor is NOT covered by a single linear factor.
    assert not dominated(("tasks", "tasks"), base)
    assert not dominated(("heap",), base)


# ------------------------------------------------ escape classification

TOY = '''
class RunQueue:
    def __init__(self):
        self._cached_load = None
        self._table = {}

    def load(self, now):
        if self._cached_load is not None:
            return self._cached_load
        self._cached_load = sum([1, 2, 3])
        return self._cached_load

    def eager(self, now):
        box = [now, now]
        if self._cached_load is not None:
            return self._cached_load
        return box[0]
'''


def toy_model():
    engine = EffectEngine([("repro.sched.toy", "<toy>", ast.parse(TOY))])
    return CostModel(engine)


def q(name):
    return f"repro.sched.toy.{name}"


def test_init_sites_are_init_only():
    model = toy_model()
    scan = model.scan(q("RunQueue.__init__"))
    assert scan is not None
    assert {s.escape for s in scan.sites} == {"init-only"}


def test_post_guard_allocation_is_amortized():
    model = toy_model()
    scan = model.scan(q("RunQueue.load"))
    assert scan is not None
    assert scan.guard_line is not None
    assert [s.escape for s in scan.sites] == ["amortized"]


def test_pre_guard_allocation_is_per_call():
    model = toy_model()
    scan = model.scan(q("RunQueue.eager"))
    assert scan is not None
    assert [s.escape for s in scan.sites] == ["per-call"]


# ------------------------------------------------------------ real tree


def fresh_engine():
    from repro.analysis.effectcheck import installed_files

    return EffectEngine(installed_files())


def test_shipped_roots_match_declarations(shipped_engine):
    """Static inference agrees with every shipped allocation declaration.

    The one structural exception: vec-find-busiest carries the
    intentional-churn site suppressed inline in vecstate.py.
    """
    model = CostModel(shipped_engine)
    roots = model.hot_roots()
    assert set(roots) == set(DECLARED_ALLOC)
    for label, qual in sorted(roots.items()):
        cert = model.certify(label, qual)
        assert cert is not None, label
        declared = DECLARED_ALLOC[label]
        if label == "vec-find-busiest":
            # The noqa'd _singleton_stats GroupStats freelist seed.
            assert cert.alloc_class == "allocating"
        else:
            assert cert.alloc_class == declared, (
                label,
                declared,
                cert.alloc_class,
            )


def test_shipped_alloc_free_roots_have_no_sites(shipped_engine):
    model = CostModel(shipped_engine)
    roots = model.hot_roots()
    for label, declared in DECLARED_ALLOC.items():
        if declared != "alloc-free":
            continue
        cert = model.certify(label, roots[label])
        certifiable = [
            r for r in cert.records
            if r.site.certifiable and r.site.escape != "init-only"
        ]
        assert certifiable == [], (label, certifiable)


def test_cost_report_is_deterministic():
    # Two independently built engines, not the shared session one.
    a = cost_report(fresh_engine())
    b = cost_report(fresh_engine())
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_cost_report_shape(shipped_engine):
    report = cost_report(shipped_engine)
    assert report["version"] == 1
    assert report["summary"]["roots"] == len(DECLARED_ALLOC)
    for label, info in report["roots"].items():
        assert info["declared"] == DECLARED_ALLOC[label]
        for key in ("worst", "steady", "worst_terms", "steady_terms"):
            assert key in info["cost"], (label, key)
        for site in info["allocation_sites"]:
            assert site["escape"] in ("per-call", "amortized")
            assert site["chain"], (label, site)  # provenance never empty


def test_committed_cost_baseline_matches_fresh_analysis(shipped_engine):
    """Drift gate: COST_baseline.json is regenerated, never hand-edited.

    Every root's committed cost terms, declared class, and inferred
    class must match a fresh analysis exactly.  When a cost change is
    intentional, re-run ``repro lint src/repro --write-cost-baseline``
    and justify the new bound in the PR; this test keeps the committed
    document from rotting silently.
    """
    from pathlib import Path

    from repro.analysis.rules.cost import (
        build_cost_baseline,
        load_cost_baseline,
    )

    path = Path(__file__).resolve().parents[1] / "COST_baseline.json"
    committed = load_cost_baseline(str(path))
    assert committed is not None, "COST_baseline.json missing at repo root"
    fresh = build_cost_baseline(cost_report(shipped_engine))
    assert fresh == committed
