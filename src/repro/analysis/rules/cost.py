"""Hot-path allocation & complexity certification.

Two static gates over the :mod:`~repro.analysis.costmodel` analysis:

``hot-path-alloc`` (severity: error)
    A hot root whose declared class (:mod:`repro.sched.allocdecl`) is
    *stronger* than the inferred one: a per-call allocation site is
    reachable from a root declared ``alloc-free``/``amortized``, or an
    amortized site from a root declared ``alloc-free``.  The finding
    lands on the allocation site itself and carries the provenance
    chain (root -> ... -> owning function) so the churn is attributable
    without re-running the analysis.  A root with no declaration at all
    is also an error -- certification is opt-out by declaring
    ``allocating``, never by silence.

``hot-path-complexity`` (severity: warning)
    A hot root's cost expression grew a term the committed
    ``COST_baseline.json`` does not dominate -- e.g. an ``O(cpus)`` scan
    sneaking into an ``O(1)`` memo hit path.  Both the worst-case and
    the steady-state expression are gated; roots absent from the
    baseline are skipped (the drift test pins the baseline itself).

Like the coherence rule, one class emits both finding kinds.  The rule
is ``cross_file`` and stashes the analysis document on ``self.report``
for the runner's ``--cost-report`` writer.
"""

from __future__ import annotations

import ast
import json
import os
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.analysis.core import FileContext, Finding, Rule
from repro.analysis.costmodel import cost_report, dominated
from repro.analysis.effects import EffectEngine

#: Where the committed cost/alloc baseline lives, relative to the
#: invocation directory (same convention as ``lint-baseline.json``).
DEFAULT_COST_BASELINE = "COST_baseline.json"

#: How many chain hops one finding spells out before eliding.
_MAX_CHAIN = 4

#: Lattice order for declaration-vs-inference comparison.
_RANK = {"alloc-free": 0, "amortized": 1, "allocating": 2}


def load_cost_baseline(path: str) -> Optional[Dict[str, object]]:
    """The committed baseline document, or None when absent (fresh
    checkouts and fixture runs gate on declarations only)."""
    if not os.path.exists(path):
        return None
    with open(path, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    return data if isinstance(data, dict) else None


class HotPathCostRule(Rule):
    """Certify hot-root allocation classes and cost expressions."""

    rule_id = "hot-path-alloc"
    description = (
        "hot roots must not allocate beyond their declared class "
        "(hot-path-alloc), and their cost expressions must stay within "
        "the committed baseline (hot-path-complexity)"
    )
    scope: Tuple[str, ...] = ("repro.sched", "repro.sim", "repro.core")
    cross_file = True

    def __init__(self, baseline_path: Optional[str] = None) -> None:
        self._files: List[Tuple[str, str, ast.Module]] = []
        self._lines: Dict[str, List[str]] = {}
        self._baseline_path = (
            baseline_path if baseline_path is not None
            else DEFAULT_COST_BASELINE
        )
        #: The cost-report document, populated by finalize() and
        #: consumed by the runner's ``--cost-report`` writer.
        self.report: Optional[Dict[str, object]] = None

    def visit(self, ctx: FileContext) -> Iterator[Finding]:
        self._files.append((ctx.module, ctx.display_path, ctx.tree))
        self._lines[ctx.display_path] = ctx.lines
        return iter(())

    def finalize(self) -> Iterator[Finding]:
        if not self._files:
            return
        engine = EffectEngine(sorted(self._files))
        baseline = load_cost_baseline(self._baseline_path)
        declared = self._declarations()
        report = cost_report(engine, declared=declared)
        self.report = report
        roots = report["roots"]
        assert isinstance(roots, dict)
        for label in sorted(roots):
            root = roots[label]
            assert isinstance(root, dict)
            for finding in self._check_alloc(label, root):
                yield finding
            for finding in self._check_complexity(label, root, baseline):
                yield finding

    # -- hot-path-alloc ----------------------------------------------------

    def _declarations(self) -> Dict[str, str]:
        """Real-tree runs certify against the shipped declarations;
        fixture trees (no hot roots resolve) still flow through them
        harmlessly because certification is keyed by resolved roots."""
        from repro.sched.allocdecl import DECLARED_ALLOC

        return dict(DECLARED_ALLOC)

    def _check_alloc(
        self, label: str, root: Dict[str, object]
    ) -> Iterator[Finding]:
        declared = root.get("declared")
        inferred = str(root.get("inferred"))
        if declared is None:
            line = int(str(root.get("line", 0)))
            yield self._finding(
                "hot-path-alloc",
                str(root.get("path", "")),
                line,
                (
                    f"hot root [{label}] ({root.get('function')}) has no "
                    "declared allocation class -- add it to "
                    "repro.sched.allocdecl.DECLARED_ALLOC (declare "
                    "'allocating' to opt out of certification "
                    "explicitly)"
                ),
                severity="error",
            )
            return
        declared_rank = _RANK.get(str(declared), 2)
        inferred_rank = _RANK.get(inferred, 2)
        if inferred_rank <= declared_rank:
            return
        sites = root.get("allocation_sites")
        assert isinstance(sites, list)
        breach = (
            "per-call" if str(declared) in ("alloc-free", "amortized")
            else ""
        )
        seen: Set[Tuple[str, int]] = set()
        for site in sites:
            assert isinstance(site, dict)
            if not site.get("certifiable", True):
                continue
            effective = str(site.get("escape"))
            if str(declared) == "alloc-free":
                bad = effective in ("per-call", "amortized")
            else:
                bad = effective == breach
            if not bad:
                continue
            path = str(site.get("path", ""))
            line = int(str(site.get("line", 0)))
            if (path, line) in seen:
                continue
            seen.add((path, line))
            chain = site.get("chain")
            hops = [str(h) for h in chain] if isinstance(chain, list) else []
            shown = hops[:_MAX_CHAIN]
            via = " -> ".join(shown) + (
                " -> ..." if len(hops) > len(shown) else ""
            )
            yield self._finding(
                "hot-path-alloc",
                path,
                line,
                (
                    f"{effective} {site.get('kind')} allocation reachable "
                    f"from hot root [{label}] declared {declared} "
                    f"(via {via}) -- hoist it behind the memo guard, "
                    "reuse scratch state, or weaken the declaration in "
                    "repro.sched.allocdecl (suppress with "
                    "'# repro: noqa[hot-path-alloc]' only with a comment "
                    "justifying the churn)"
                ),
                severity="error",
            )

    # -- hot-path-complexity -----------------------------------------------

    def _check_complexity(
        self,
        label: str,
        root: Dict[str, object],
        baseline: Optional[Dict[str, object]],
    ) -> Iterator[Finding]:
        if baseline is None:
            return
        base_roots = baseline.get("roots")
        if not isinstance(base_roots, dict):
            return
        base_root = base_roots.get(label)
        if not isinstance(base_root, dict):
            return  # new root: pinned by the baseline drift test instead
        pinned = base_root.get("function")
        if pinned is not None and pinned != root.get("function"):
            # The baseline pins a *specific* function (the real tree's);
            # a fixture or refactored tree resolving the same root label
            # to a different qualname cannot be judged against it.  A
            # rename in the real tree surfaces in the drift test.
            return
        cost = root.get("cost")
        assert isinstance(cost, dict)
        for which in ("worst", "steady"):
            terms = cost.get(f"{which}_terms")
            base_terms = base_root.get(f"{which}_terms")
            if not isinstance(terms, list) or not isinstance(
                base_terms, list
            ):
                continue
            base_seq: List[Sequence[str]] = [
                [str(f) for f in t] for t in base_terms
                if isinstance(t, list)
            ]
            degraded = [
                tuple(str(f) for f in t) for t in terms
                if isinstance(t, list)
                and not dominated(tuple(str(f) for f in t), base_seq)
            ]
            if not degraded:
                continue
            grown = " + ".join(
                "*".join(t) if t else "1" for t in sorted(degraded)
            )
            committed = " + ".join(
                "*".join(t) if t else "1" for t in base_terms
            ) or "1"
            yield self._finding(
                "hot-path-complexity",
                str(root.get("path", "")),
                int(str(root.get("line", 0))),
                (
                    f"hot root [{label}] ({root.get('function')}) "
                    f"{which}-case cost grew term(s) O({grown}) beyond "
                    f"the committed baseline O({committed}) -- either "
                    "restore the bound or re-baseline COST_baseline.json "
                    "with a justification in the PR"
                ),
                severity="warning",
            )

    # -- shared ------------------------------------------------------------

    def _finding(
        self,
        rule_id: str,
        path: str,
        line: int,
        message: str,
        severity: str,
    ) -> Finding:
        lines = self._lines.get(path, [])
        snippet = (
            lines[line - 1].strip() if 1 <= line <= len(lines) else ""
        )
        return Finding(
            rule_id=rule_id,
            path=path,
            line=line,
            col=0,
            message=message,
            snippet=snippet,
            severity=severity,
        )


def build_cost_baseline(report: Dict[str, object]) -> Dict[str, object]:
    """The committable ``COST_baseline.json`` derived from a cost report:
    every root's pinned function, classes and cost terms."""
    roots_in = report.get("roots")
    assert isinstance(roots_in, dict)
    roots_out: Dict[str, object] = {}
    for label in sorted(roots_in):
        root = roots_in[label]
        assert isinstance(root, dict)
        cost = root.get("cost")
        assert isinstance(cost, dict)
        roots_out[label] = {
            "function": root.get("function"),
            "declared": root.get("declared"),
            "inferred": root.get("inferred"),
            "worst": cost.get("worst"),
            "steady": cost.get("steady"),
            "worst_terms": cost.get("worst_terms"),
            "steady_terms": cost.get("steady_terms"),
        }
    return {"version": report.get("version"), "roots": roots_out}
