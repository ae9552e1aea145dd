"""Pick tie-breaking: equal-vruntime picks in exact rbtree order.

The runqueue's tree key is the composite ``(vruntime, tid)``, so
equal-vruntime tasks must pick in tid order.  These tests drain
adversarial tie-heavy populations through :class:`RunQueue` and check
the order against the sorted keys; a full traced run then proves the
whole scheduler picks identically on the reference and fast paths, with
the replay differ naming the first divergent event on failure.
"""

import hashlib

import pytest

from repro.sched.features import SchedFeatures
from repro.sched.runqueue import RunQueue
from repro.sched.task import Task
from repro.sim.system import System
from repro.sim.timebase import MS
from repro.slo.replay import diff_events, serialize_buffer
from repro.topology import two_nodes
from repro.viz.events import TraceBuffer, TraceProbe


def _task(tid):
    return Task(name=f"t{tid}", program=None, tid=tid)


def _population(n, ties):
    """n tasks over ``ties`` distinct vruntimes, tids shuffled
    deterministically so insertion order fights the pick order."""
    tasks = []
    for i in range(n):
        tid = (i * 7919) % (n * 13) + 1  # coprime stride: unique, shuffled
        tasks.append((i % ties, tid, _task(tid)))
    return tasks


def _drain(rq):
    """Take tasks from the queue in pick order."""
    order = []
    while rq.nr_queued:
        picked = rq.pick_next()
        assert picked is not None
        assert rq.leftmost_vruntime() == picked.vruntime
        order.append(rq.take(picked, now=0))
    assert rq.pick_next() is None
    return order


@pytest.mark.parametrize("n,ties", [(12, 3), (200, 5), (96, 1)])
def test_equal_vruntime_drain_matches_rbtree_order(n, ties):
    # ties=1 makes every key a tie, so tid alone decides every pick.
    rq = RunQueue(cpu_id=0, sanitize=True)
    for vr, tid, task in _population(n, ties):
        task.vruntime = vr
        rq.enqueue(task, now=0)
    order = _drain(rq)
    keys = [(t.vruntime, t.tid) for t in order]
    assert keys == sorted(keys)
    assert len(order) == n


def test_removing_the_minimum_preserves_tie_order():
    # Removing the leftmost task must re-break the remaining all-equal
    # keys by tid, for small and large queues alike.
    for n in (8, 150):
        rq = RunQueue(cpu_id=0)
        tids = [(i * 31) % (n * 3) + 1 for i in range(n)]
        assert len(set(tids)) == n
        for tid in tids:
            task = _task(tid)
            task.vruntime = 5
            rq.enqueue(task, now=0)
        for expected in sorted(tids):
            picked = rq.pick_next()
            assert picked.tid == expected
            rq.take(picked, now=0)
        assert rq.pick_next() is None


def test_requeue_moves_tie_position_exactly_like_tree():
    # A requeue (vruntime change of a queued task) re-sorts the tree;
    # with the sanitizer on, every load memo hit is cross-checked too.
    rq = RunQueue(cpu_id=0, sanitize=True)
    tasks = [_task(tid) for tid in (3, 1, 2, 5, 4)]
    for task in tasks:
        task.vruntime = 10
        rq.enqueue(task, now=0)
    assert rq.pick_next() is tasks[1]  # tid 1 wins the 5-way tie
    # Push tid 1 to the back, pull tid 4 to the front, re-tie tid 5.
    rq.requeue(tasks[1], 20, now=0)
    rq.requeue(tasks[4], 1, now=0)
    assert rq.pick_next() is tasks[4]
    rq.take(tasks[4], now=0)
    assert rq.pick_next() is tasks[2]  # the (10, 2) tie resumes
    # put_prev / set_current round trip lands back in tie order too.
    rq.take(tasks[2], now=0)
    rq.set_current(tasks[2], now=0)
    rq.put_prev(tasks[2], now=0)
    assert rq.pick_next() is tasks[2]
    drained = []
    while rq.pick_next() is not None:
        drained.append(rq.take(rq.pick_next(), now=0).tid)
    assert drained == [2, 3, 5, 1]


def _traced_stream(fastpath, seed=13):
    features = SchedFeatures().with_fastpath(fastpath)
    system = System(two_nodes(4, smt_width=2), features, seed=seed)
    buffer = TraceBuffer()
    system.attach_probe(TraceProbe(buffer=buffer, record_load=False))
    from repro.perf.bench import _hog, _sleeper

    for i in range(6):
        system.spawn(_hog(f"hog{i}"), parent_cpu=(i * 3) % 8)
    for i in range(4):
        system.spawn(_sleeper(f"sleep{i}"), parent_cpu=(i * 5) % 8)
    system.run_for(40 * MS)
    return serialize_buffer(buffer)


def _digest(stream):
    h = hashlib.sha256()
    for event in stream:
        h.update(repr(event).encode())
    return h.hexdigest()


def test_pick_paths_schedule_identically_across_variants():
    # The end-to-end tie-order claim: the reference path and the fast
    # path must produce byte-identical trace streams.  On failure the
    # replay differ names the first divergent event -- the actionable
    # form of "digests differ".
    reference = _traced_stream(False)
    assert len(reference) > 0
    stream = _traced_stream(True)
    divergence = diff_events(stream, reference)
    if divergence is not None:
        got = stream[divergence] if divergence < len(stream) else None
        want = (
            reference[divergence] if divergence < len(reference) else None
        )
        pytest.fail(
            f"first divergence at event {divergence}: "
            f"fast={got!r} baseline={want!r}"
        )
    assert _digest(stream) == _digest(reference)


def test_sanitized_soak_survives_migration_and_hotplug():
    # A sanitized fast-path soak with a mid-run hotplug cycle: every
    # load memo hit, mirror fold and election is cross-checked against a
    # recompute, so any coherence break under the migration drain or
    # the offline/online rebuild raises.
    features = SchedFeatures().with_sanitizer(True)
    system = System(two_nodes(4, smt_width=2), features, seed=17)
    from repro.perf.bench import _hog, _sleeper

    for i in range(8):
        system.spawn(_hog(f"hog{i}"), parent_cpu=i % 8)
    for i in range(4):
        system.spawn(_sleeper(f"sleep{i}"), parent_cpu=(i * 5) % 8)
    system.run_for(10 * MS)
    system.hotplug_cpu(2, False)  # drains cpu 2's queue via take()
    system.run_for(10 * MS)
    system.hotplug_cpu(2, True)
    system.run_for(10 * MS)
    assert system.loop.events_fired > 0
    for cpu in system.scheduler.cpus:
        rq = cpu.rq
        assert rq.nr_queued == len(list(rq.queued_tasks()))
        leftmost = rq._tree.leftmost()
        assert rq.pick_next() is (leftmost[1] if leftmost else None)
