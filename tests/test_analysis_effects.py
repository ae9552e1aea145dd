"""The effect engine: summaries and the purity lattice.

Toy-project tests pin each classification mechanism (sources, global
writes, bounded memo writes, the id()-as-memo-key exemption); the
real-tree tests are the acceptance criteria -- the shipped fast-path
closure certifies with zero escaping members.
"""

import ast

from repro.analysis.effects import (
    EffectEngine,
    HOT_ROOTS,
    classify_function,
    root_function,
)

TOY = '''
import random
import time

_LOG = []


class RunQueue:
    def __init__(self):
        self._tasks = []
        self._cached_load = None
        self.mutations = 0

    def load(self):
        if self._cached_load is None:
            self._cached_load = plain_sum(self._tasks)
        return self._cached_load

    def noisy_load(self):
        _LOG.append(time.time())
        return plain_sum(self._tasks)


class Registry:
    def __init__(self):
        self._memo = {}

    def lookup(self, group):
        # id() used directly as a private memo key: the sanctioned
        # interned-object idiom, not a nondeterminism source.
        entry = self._memo.get(id(group))
        if entry is None:
            entry = len(self._memo)
            self._memo[id(group)] = entry
        return entry

    def leak(self, group):
        # id() escaping into a returned value IS a source.
        return id(group)


def plain_sum(items):
    total = 0
    for item in items:
        total += item
    return total


def draw():
    return random.random()
'''

MOD = "repro.core.toy"


def toy_engine():
    return EffectEngine([(MOD, "<toy>", ast.parse(TOY))])


def q(name):
    return f"{MOD}.{name}"


# ------------------------------------------------------------- summaries


def test_summary_sources_and_globals():
    engine = toy_engine()
    noisy = engine.summaries[q("RunQueue.noisy_load")]
    kinds = {e.kind for e in noisy.sources}
    assert "wallclock" in kinds
    assert len(noisy.globals_written) == 1
    assert "_LOG" in noisy.globals_written[0].detail
    draw = engine.summaries[q("draw")]
    assert {e.kind for e in draw.sources} == {"rng"}


def test_memo_key_idiom_is_not_a_source():
    engine = toy_engine()
    lookup = engine.summaries[q("Registry.lookup")]
    assert lookup.sources == ()
    leak = engine.summaries[q("Registry.leak")]
    assert {e.kind for e in leak.sources} == {"idhash"}


# -------------------------------------------------------- classification


def test_purity_lattice():
    engine = toy_engine()
    assert classify_function(engine, q("plain_sum"))[0] == "pure"
    # Self-confined memo write + nothing else: bounded.
    category, reasons = classify_function(engine, q("RunQueue.load"))
    assert category == "bounded", reasons
    # Wall clock + module-global append: escaping, with named reasons.
    category, reasons = classify_function(engine, q("RunQueue.noisy_load"))
    assert category == "escaping"
    text = " ".join(reasons)
    assert "_LOG" in text
    assert "wall" in text or "wallclock" in text
    # The memo-key idiom classifies bounded despite the id() calls.
    assert classify_function(engine, q("Registry.lookup"))[0] == "bounded"


def test_transitive_closure_reaches_helpers():
    engine = toy_engine()
    members = engine.closure([q("RunQueue.load")])
    assert q("plain_sum") in members
    assert q("draw") not in members


# ---------------------------------------------------------- real tree


def hot_closure(engine):
    """Every function reachable from a shipped hot root."""
    quals = []
    for label in sorted(HOT_ROOTS):
        cls, name = HOT_ROOTS[label]
        fn = root_function(engine, cls, name)
        if fn is not None:
            quals.append(fn.qualname)
    return sorted(engine.closure(quals))


def test_shipped_hot_roots_all_found(shipped_engine):
    for label in sorted(HOT_ROOTS):
        cls, name = HOT_ROOTS[label]
        fn = root_function(shipped_engine, cls, name)
        assert fn is not None, f"hot root {label} not found in the tree"


def test_shipped_fast_path_closure_certifies(shipped_engine):
    # The acceptance criterion of the pure-hot-path rule: every function
    # reachable from the with_fastpath memo accessors is pure or bounded.
    members = hot_closure(shipped_engine)
    assert members
    escaping = [
        qual for qual in members
        if classify_function(shipped_engine, qual)[0] == "escaping"
    ]
    assert escaping == []


def test_shipped_report_function_entries_are_complete(shipped_engine):
    for qual in hot_closure(shipped_engine):
        category, reasons = classify_function(shipped_engine, qual)
        assert category in ("pure", "bounded", "escaping")
        if category == "escaping":
            assert reasons
