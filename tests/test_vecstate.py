"""Tests for the struct-of-arrays balance mirror (repro.sched.vecstate).

The end-to-end guarantee -- byte-identical schedule digests on the
baseline and fast paths -- lives in the bench harness (``repro bench
--check-digests``) and test_determinism_trace.py.  Pinned here are the
layer's local obligations: the mirror is built exactly on the fast
path, it must be exact against the queues, every invalidation trigger
(dirty marks, new timestamps, idle transitions, divisor bumps, hotplug)
must actually drop what it claims to, and its folds must produce the
exact objects the reference fold produces.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.sched.balance import _fold_group_stats, find_busiest_group
from repro.sched.features import SchedFeatures
from repro.sched.scheduler import Scheduler
from repro.sched.task import Task
from repro.sched.vecstate import VecState
from repro.sim.system import System
from repro.sim.timebase import MS
from repro.topology import two_nodes


def _vec_system(seed=7):
    system = System(two_nodes(4, smt_width=2), SchedFeatures(), seed=seed)
    return system, system.scheduler


def _spawn_some(system, n=6):
    from repro.perf.bench import _hog

    for i in range(n):
        system.spawn(_hog(f"hog{i}"), parent_cpu=(i * 3) % 8)


# ----------------------------------------------------------- construction


def test_default_features_build_vecstate():
    # The mirror is the default fast path; the reference path has none.
    _, sched = _vec_system()
    assert isinstance(sched.vec, VecState)
    assert sched.vec_pass(0) is sched.vec
    # Every runqueue is wired to the mirror's dirty tracking.
    for cpu in sched.cpus:
        assert cpu.rq.vec is sched.vec
    reference = Scheduler(
        two_nodes(4, smt_width=2), SchedFeatures().with_fastpath(False)
    )
    assert reference.vec is None
    assert reference.vec_pass(0) is None
    assert all(cpu.rq.vec is None for cpu in reference.cpus)


def test_simulator_imports_leave_numpy_unloaded():
    # No array library is imported by the simulator or the report
    # generator: the mirror runs on builtin lists.
    import repro

    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    prog = (
        "import sys\n"
        "import repro.sim.system, repro.experiments.reportgen\n"
        "print('numpy' in sys.modules)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", prog],
        capture_output=True, text=True, check=True, env=env,
    ).stdout
    assert out.strip() == "False"


# ------------------------------------------------------------ mirror sync


def test_snapshot_mirror_is_exact_against_queues():
    system, sched = _vec_system()
    _spawn_some(system)
    system.run_for(20 * MS)
    snap = sched.vec.begin(system.now).snapshot()
    now = system.now
    for cpu in sched.cpus:
        i = cpu.cpu_id
        assert snap["load"][i] == float(cpu.rq.load(now))
        assert snap["nr_running"][i] == cpu.rq.nr_running
        assert snap["idle"][i] == (cpu.rq.nr_running == 0)
        assert snap["vruntime_floor"][i] == cpu.rq.min_vruntime
        assert snap["online"][i] == cpu.online
    assert snap["now"] == now


def test_group_folds_match_scalar_fold_exactly():
    system, sched = _vec_system()
    _spawn_some(system)
    system.run_for(10 * MS)
    now = system.now
    vstate = sched.vec.begin(now)
    for domain in sched.domain_builder.domains_of(0):
        for group in domain.groups:
            got = vstate.group_stats(group)
            want = _fold_group_stats(sched, group, now)
            if want is None:
                assert got is None
                continue
            # Exact equality, field by field -- including int-vs-float
            # type (the digest distinguishes them).
            for field in (
                "avg_load", "min_load", "max_load",
                "nr_running", "capacity", "min_nr", "max_nr",
            ):
                g, w = getattr(got, field), getattr(want, field)
                assert g == w and type(g) is type(w), (
                    f"{group}: {field}: {g!r} != {w!r}"
                )


def test_dirty_mark_resamples_only_after_mutation():
    system, sched = _vec_system()
    _spawn_some(system)
    system.run_for(10 * MS)
    now = system.now
    vstate = sched.vec.begin(now)
    vstate._sync()
    rq = sched.cpus[0].rq
    before = vstate._loads[0]
    task = Task("late", nice=0)
    rq.enqueue(task, now)  # mutator bumps mark_dirty via the wiring
    assert vstate._dirty[0]
    vstate._sync()
    assert not vstate._dirty[0]
    assert vstate._loads[0] == rq.load(now)
    assert vstate._loads[0] != before
    rq.take(task, now)  # restore


def test_new_timestamp_stales_every_load_slot():
    system, sched = _vec_system()
    _spawn_some(system)
    system.run_for(10 * MS)
    vstate = sched.vec.begin(system.now)
    vstate._sync()
    assert vstate._loads_at == system.now
    later = system.now + 1_000
    vstate.begin(later)
    vstate._sync()
    assert vstate._loads_at == later
    for cpu in sched.cpus:
        assert vstate._loads[cpu.cpu_id] == cpu.rq.load(later)


# ------------------------------------------------------ election memoing


def _wide_group(sched):
    """A group whose balance mask spans more than one CPU."""
    for domain in reversed(sched.domain_builder.domains_of(0)):
        try:
            local = domain.local_group(0)
        except ValueError:
            continue
        if len(local.sorted_balance_mask()) > 1:
            return local
    pytest.skip("topology has no multi-CPU balance mask")


def test_designated_memo_invalidated_per_cpu_on_idle_change():
    system, sched = _vec_system()
    _spawn_some(system)
    system.run_for(10 * MS)
    vstate = sched.vec.begin(system.now)
    group = _wide_group(sched)
    winner = vstate.designated_for(group)
    assert id(group) in vstate._designated
    assert vstate.designated_for(group) == winner  # memo hit
    # An idle<->busy transition on a mask member drops exactly the
    # entries registered against that CPU.
    member = group.sorted_balance_mask()[0]
    vstate.mark_idle_change(member)
    assert id(group) not in vstate._designated
    # Non-members are untouched: re-memoize, poke an unrelated CPU.
    vstate.designated_for(group)
    outside = [
        c.cpu_id for c in sched.cpus
        if c.cpu_id not in group.sorted_balance_mask()
    ]
    if outside:
        vstate.mark_idle_change(outside[0])
        assert id(group) in vstate._designated


def test_hotplug_drops_interned_indices_and_balance_plans():
    system, sched = _vec_system()
    _spawn_some(system)
    system.run_for(10 * MS)
    vstate = sched.vec.begin(system.now)
    vstate._sync()
    group = _wide_group(sched)
    vstate.group_stats(group)
    vstate.designated_for(group)
    assert vstate._gidx and vstate._gstats
    gen_before = sched.domain_builder.generation
    plan_before = sched.cpus[0].balance_plan
    system.hotplug_cpu(1, False)
    assert sched.domain_builder.generation > gen_before
    assert not vstate._gidx
    assert not vstate._gstats
    assert not vstate._designated
    # The per-CPU periodic plans are generation-keyed: the stale plan
    # object may linger but can never be used again.
    if plan_before is not None:
        assert sched.cpus[0].balance_plan_gen != (
            sched.domain_builder.generation
        )
    system.hotplug_cpu(1, True)


# ------------------------------------------------- busiest-group selection


def test_find_busiest_agrees_with_scalar_selection():
    system, sched = _vec_system()
    _spawn_some(system)
    system.run_for(15 * MS)
    now = system.now
    vstate = sched.vec.begin(now)
    for dst in range(len(sched.cpus)):
        for domain in sched.domain_builder.domains_of(dst):
            busiest, local, _ = vstate.find_busiest(domain, dst)
            s_busiest, s_local = find_busiest_group(
                sched, domain, dst, now, bpass=None
            )
            if s_busiest is None:
                assert busiest is None
            else:
                assert busiest is not None
                assert busiest.group is s_busiest.group
                assert busiest.avg_load == s_busiest.avg_load
                assert busiest.min_load == s_busiest.min_load
            if busiest is not None:
                # A found busiest group always carries local stats.
                assert local is not None
                assert s_local is not None
                assert local.group is s_local.group


def test_find_busiest_need_local_skips_balanced_materialization():
    system, sched = _vec_system()
    _spawn_some(system)
    system.run_for(15 * MS)
    vstate = sched.vec.begin(system.now)
    for dst in range(len(sched.cpus)):
        for domain in sched.domain_builder.domains_of(dst):
            b_on, l_on, ex_on = vstate.find_busiest(
                domain, dst, need_local=True
            )
            b_off, l_off, ex_off = vstate.find_busiest(
                domain, dst, need_local=False
            )
            assert ex_on == ex_off
            # The busiest decision is identical either way ...
            assert (b_on is None) == (b_off is None)
            if b_on is not None:
                # ... and a found group always returns both stats.
                assert l_off is not None and l_on is not None
            else:
                # Balanced outcome: the inert-probe path skips local.
                assert l_off is None


def test_sanitized_vectorized_soak_raises_nothing():
    # The coherence sanitizer cross-checks every mirror fold and
    # election against a from-scratch recompute -- a soak under it is a
    # dense exactness test of the whole mirror protocol.
    features = SchedFeatures().with_sanitizer(True)
    system = System(two_nodes(4, smt_width=2), features, seed=11)
    _spawn_some(system)
    system.run_for(30 * MS)
    assert system.loop.events_fired > 0
