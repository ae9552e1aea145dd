"""Declared allocation classes for the hot roots.

Each :data:`~repro.analysis.effects.HOT_ROOTS` label commits to a tier
on the ``alloc-free`` < ``amortized`` < ``allocating`` lattice (see
:mod:`repro.analysis.costmodel`):

``alloc-free``
    No Python-level allocation on any reachable path.  Certified
    statically by the ``hot-path-alloc`` rule *and* enforced at runtime
    by ``repro demo <bug> --alloc-check`` -- a single tracked allocation
    event inside the root's frames fails the soak.
``amortized``
    Allocations happen only on memo/epoch miss paths; the steady state
    (hit path) is allocation-free.  Certified statically; the runtime
    tracker reports hit/miss allocation counts for these roots but does
    not gate on them, because hit rates are workload-dependent (e.g.
    ``RunQueue.load`` under the balance mirror is *only* invoked on
    staleness, so every observed call allocates by design).
``allocating``
    Per-call allocation is part of the contract (fold scratch state,
    result lists).  Listed so a future PR that tightens
    one of these shows up as an improvement in the committed baseline
    rather than silent drift.

Declarations are allowed to be conservative, never optimistic: a root
whose declaration is *stronger* than the inference is a
``hot-path-alloc`` error.  Every shipped declaration matches its
inference exactly (pinned by ``tests/test_costmodel.py``) except one:
``vec-find-busiest`` is declared ``amortized`` but infers
``allocating``.  The per-call ``GroupStats`` that
``VecState._singleton_stats`` builds on the two-singleton path is
intentional churn, suppressed inline with ``# repro: noqa[hot-path-alloc]``
instead of weakening the declaration, and ``repro demo <bug>
--alloc-check`` observes the root allocating on 49-98% of its calls.
"""

from __future__ import annotations

from typing import Dict

#: label -> declared allocation class, one entry per hot root.
DECLARED_ALLOC: Dict[str, str] = {
    # Per-cpu load memo: O(1) hit path reading the incremental mirror;
    # the miss path re-folds the queued set (a genexp).
    "runqueue-load": "amortized",
    # Incremental total-weight mirror, same shape as load.
    "runqueue-total-weight": "amortized",
    # The scalar fold materializes a fresh GroupStats each miss; it is
    # only ever invoked *from* the memoized paths above.
    "group-stats-fold": "allocating",
    # Pure arithmetic over a cached tuple -- the strongest tier, and
    # the runtime-gated one.
    "designated-election": "alloc-free",
    # ``return self._live``: a field read.
    "event-pending": "alloc-free",
    # Dirty-set drain: allocates only for dirtied cpus (miss work).
    "vec-sync": "amortized",
    # Columnar group stats behind the epoch signature check.
    "vec-group-stats": "amortized",
    # The columnar fold builds its stats row per entry -- unless its
    # generation-sum probe revalidates the stale-stamped memo in place,
    # which allocates nothing; the row build is the probe's miss path.
    "vec-fold": "amortized",
    # Busiest-group scan over cached folds; the singleton-stats bridge
    # on the pair path is inline-suppressed churn (see vecstate.py).
    "vec-find-busiest": "amortized",
    # Designated memo over the columnar mirror.
    "vec-designated": "amortized",
    # Whole-walk balance gate: two field reads.
    "vec-balance-gate": "alloc-free",
    # The due-CPU scan materializes the ascending id list per call.
    "vec-balance-due": "allocating",
}
