"""Effect-boundedness certification for the fast-path read closure.

The fast path memoizes the hot loops' reads; a memo is only sound when
every function it caches is *effect-bounded* -- nothing it does can be
observed outside its own receiver.  This rule certifies that statically.

``pure-hot-path`` (severity: error)
    Every function reachable (via calls and property accesses) from the
    :data:`~repro.analysis.effects.HOT_ROOTS` -- the accessors
    ``SchedFeatures.with_fastpath`` memoizes: the runqueue load memo,
    the balance mirror's sync/fold/election memos, the event-loop
    pending counter -- must classify as

    * **pure** (reads only), or
    * **bounded** (writes confined to the receiver's own state: memo
      cells, dirty counters, incremental mirrors -- state that nothing
      outside the object can observe mid-flight).

    A function with **escaping** effects -- foreign-object writes,
    module-global mutation, nondeterminism sources, I/O -- is reported:
    caching or reordering its callers would change observable behavior.
    One narrow idiom is recognized as bounded rather than escaping:
    ``id(x)`` / ``hash(x)`` used *directly* as a private memo key
    (subscript index or ``.get``/``.pop``/``.setdefault`` argument) --
    the identity value never escapes the lookup, interning keeps it
    stable within a pass, and the memo's values are what flow onward.

The findings travel in the normal SARIF export.  The runtime
counterpart (:mod:`repro.analysis.effectcheck`) cross-checks the
underlying write summaries against observed attribute mutations during
the bug demos.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Set, Tuple

from repro.analysis.core import FileContext, Finding, Rule
from repro.analysis.effects import (
    EffectEngine,
    HOT_ROOTS,
    classify_function,
    root_function,
)

#: How many reasons one finding spells out before eliding the rest.
_MAX_REASONS = 3


class PureHotPathRule(Rule):
    """Certify the fast-path closure as pure/bounded; flag escapes."""

    rule_id = "pure-hot-path"
    description = (
        "functions reachable from the with_fastpath hot loops must be "
        "effect-bounded (pure, or self-writes only) so memoizing them "
        "cannot change observable behavior"
    )
    scope: Tuple[str, ...] = ("repro.sched", "repro.sim", "repro.core")
    cross_file = True

    def __init__(self) -> None:
        self._files: List[Tuple[str, str, ast.Module]] = []
        self._lines: Dict[str, List[str]] = {}

    def visit(self, ctx: FileContext) -> Iterator[Finding]:
        self._files.append((ctx.module, ctx.display_path, ctx.tree))
        self._lines[ctx.display_path] = ctx.lines
        return iter(())

    def finalize(self) -> Iterator[Finding]:
        if not self._files:
            return
        engine = EffectEngine(self._files)
        roots: Dict[str, str] = {}
        for label in sorted(HOT_ROOTS):
            cls, name = HOT_ROOTS[label]
            fn = root_function(engine, cls, name)
            if fn is not None:
                roots[fn.qualname] = label
        if not roots:
            return  # partial tree (fixtures without any hot root)
        # Which root(s) reach each member: reported so a finding names
        # the hot loop it would poison, not just the leaf function.
        reached_by: Dict[str, Set[str]] = {}
        for root_qual, label in sorted(roots.items()):
            for member in engine.closure([root_qual]):
                reached_by.setdefault(member, set()).add(label)
        for member in sorted(reached_by):
            category, reasons = classify_function(engine, member)
            if category != "escaping":
                continue
            summary = engine.summaries.get(member)
            if summary is None:
                continue
            line = getattr(summary.fn.node, "lineno", 0)
            lines = self._lines.get(summary.fn.display_path, [])
            snippet = (
                lines[line - 1].strip() if 1 <= line <= len(lines) else ""
            )
            shown = reasons[:_MAX_REASONS]
            more = len(reasons) - len(shown)
            detail = "; ".join(shown) + (
                f"; (+{more} more)" if more > 0 else ""
            )
            via = ", ".join(sorted(reached_by[member]))
            yield Finding(
                rule_id=self.rule_id,
                path=summary.fn.display_path,
                line=line,
                col=0,
                message=(
                    f"{summary.fn.qualname} is reachable from fast-path "
                    f"hot loop(s) [{via}] but has escaping effects: "
                    f"{detail} -- the fast path cannot memoize through "
                    "it; make the effect self-confined or lift "
                    "it out of the hot closure (suppress with "
                    "'# repro: noqa[pure-hot-path]' only with a comment "
                    "proving the effect is replay-invariant)"
                ),
                snippet=snippet,
                severity="error",
            )
