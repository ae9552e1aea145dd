"""The simulated machine: event loop + scheduler + program executor.

:class:`System` wires together the event engine, the scheduler facade, and
the workload phase interpreter:

* a global 1 ms tick drives accounting, tick preemption, periodic balancing
  and the NOHZ kick (busy CPUs tick; idle CPUs are tickless);
* per-CPU one-shot events mark the completion of compute phases;
* sleeps are timer wakeups (the "waker" is the CPU the task slept on,
  like a local timer interrupt);
* spinlock/spin-barrier waiters *occupy their CPU and burn cycles* until
  granted or preempted -- the mechanism behind the paper's super-linear
  slowdowns;
* blocking primitives (mutexes, channels, blocking barriers) put tasks to
  sleep and wake them through the scheduler's wakeup-placement path, with
  the releasing task's CPU as the waker (the Overload-on-Wakeup trigger).

Everything is deterministic for a fixed seed.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, List, Optional

from repro.sched.features import SchedFeatures
from repro.sched.scheduler import Scheduler
from repro.sched.task import Task, TaskState, reset_tid_counter
from repro.sim.engine import EventHandle, EventLoop, SimulationError
from repro.sim.timebase import TICK_US
from repro.topology.machine import MachineTopology
from repro.viz.events import FanoutProbe, Probe
from repro.workloads.base import (
    BarrierWait,
    Exit,
    FlagAdvance,
    FlagWait,
    LockAcquire,
    LockRelease,
    Notify,
    Run,
    Sleep,
    Spawn,
    TaskSpec,
    WaitOn,
)
from repro.workloads.sync import Barrier, SpinFlag, SpinLock

#: Safety bound on zero-duration phases processed back-to-back per task.
_MAX_INLINE_PHASES = 100_000


class System:
    """A simulated multicore machine running workload programs."""

    def __init__(
        self,
        topology: MachineTopology,
        features: Optional[SchedFeatures] = None,
        probe: Optional[Probe] = None,
        seed: int = 0,
    ):
        self.topology = topology
        # Tid allocation is process-global; restart it per system so two
        # same-seed runs in one process replay byte-identical traces.
        reset_tid_counter()
        resolved = features if features is not None else SchedFeatures()
        self.loop = EventLoop(compact=resolved.fastpath)
        if probe is None:
            # A fanout by default, so tools (sanity checker, tracers) can
            # attach and detach mid-run like the paper's on-demand profiler.
            probe = FanoutProbe()
        self.scheduler = Scheduler(topology, features, probe)
        self.rng = random.Random(seed)
        #: Hooks invoked after every tick with the current time (stats,
        #: sanity checker, ...).
        self.tick_hooks: List[Callable[[int], None]] = []
        self._phase_events: Dict[int, EventHandle] = {}
        self._started = False
        #: All tasks ever spawned, for completion queries.
        self.spawned: List[Task] = []
        #: Optional :class:`repro.obs.session.ObsSession` attached by the
        #: experiment harness (``ExperimentConfig(obs=True)``).
        self.obs = None

    # -- conveniences ---------------------------------------------------------

    @property
    def now(self) -> int:
        return self.loop.now

    @property
    def features(self) -> SchedFeatures:
        return self.scheduler.features

    @property
    def probe(self) -> Probe:
        """The scheduler's probe (a fanout unless overridden)."""
        return self.scheduler.probe

    def attach_probe(self, probe: Probe) -> None:
        """Plug a consumer into the probe fanout (profilers, checkers)."""
        root = self.scheduler.probe
        if not isinstance(root, FanoutProbe):
            raise TypeError(
                "system was built with a custom probe; pass a FanoutProbe "
                "to attach more consumers"
            )
        root.add(probe)

    def detach_probe(self, probe: Probe) -> None:
        """Remove a consumer previously attached with :meth:`attach_probe`."""
        root = self.scheduler.probe
        if isinstance(root, FanoutProbe):
            root.remove(probe)

    def cpu(self, cpu_id: int):
        return self.scheduler.cpu(cpu_id)

    # -- lifecycle -------------------------------------------------------------

    def start(self) -> None:
        """Arm the periodic tick; idempotent."""
        if not self._started:
            self._started = True
            self.loop.schedule(TICK_US, self._tick, label="tick")

    def spawn(
        self,
        spec: TaskSpec,
        on_cpu: Optional[int] = None,
        parent_cpu: Optional[int] = None,
    ) -> Task:
        """Create a task from a spec and place it.

        ``on_cpu`` forces the initial runqueue (experiment setup);
        otherwise fork placement runs from ``parent_cpu`` (default CPU 0,
        where a shell would run).
        """
        self.start()
        task = self._create_task(spec)
        if on_cpu is not None:
            self.scheduler.register_task(task)
            self.scheduler.enqueue_task_on(task, on_cpu, self.now)
        else:
            origin = parent_cpu if parent_cpu is not None else 0
            self.scheduler.place_new_task(task, origin, self.now)
        self._drain()
        return task

    def _create_task(self, spec: TaskSpec) -> Task:
        task = Task(
            name=spec.name,
            nice=spec.nice,
            program=spec.program(),
            allowed_cpus=spec.allowed_cpus,
            now=self.now,
        )
        manager = self.scheduler.cgroups
        if spec.cgroup is not None:
            try:
                group = manager.group(spec.cgroup)
            except KeyError:
                group = manager.create_group(spec.cgroup)
        elif spec.tty is not None:
            group = manager.autogroup_for_tty(spec.tty)
        else:
            group = manager.root
        manager.attach(task, group)
        self.spawned.append(task)
        return task

    # -- running -----------------------------------------------------------------

    def run_for(self, duration_us: int) -> None:
        """Advance virtual time by ``duration_us``."""
        self.start()
        self.loop.run_until(self.now + duration_us)

    def run_until(self, deadline_us: int) -> None:
        """Advance virtual time to an absolute deadline."""
        self.start()
        self.loop.run_until(deadline_us)

    def run_until_done(
        self, tasks: List[Task], deadline_us: int
    ) -> bool:
        """Run until every listed task exited; False on deadline."""
        self.start()
        return self.loop.run_while(
            lambda: any(t.alive for t in tasks),
            deadline_us,
            check_interval=TICK_US,
        )

    # -- hotplug --------------------------------------------------------------------

    def hotplug_cpu(self, cpu_id: int, online: bool) -> None:
        """Disable or re-enable a core through the /proc interface analog."""
        self.start()
        now = self.now
        sched = self.scheduler
        displaced: List[Task] = []
        if not online:
            cpu = sched.cpu(cpu_id)
            if cpu.rq.curr is not None:
                task = self._switch_out(cpu_id, requeue=False)
                if task is not None:
                    task.state = TaskState.BLOCKED
                    displaced.append(task)
            displaced.extend(sched.set_cpu_online(cpu_id, False, now))
            for task in displaced:
                sched.wake_task(task, None, now)
        else:
            sched.set_cpu_online(cpu_id, True, now)
        self._drain()

    # -- tick -------------------------------------------------------------------------

    def _tick(self) -> None:
        now = self.now
        self.scheduler.tick(now)
        self._drain()
        for hook in self.tick_hooks:
            hook(now)
        self.loop.schedule(TICK_US, self._tick, label="tick")

    # -- pending-work draining -----------------------------------------------------------

    def _drain(self) -> None:
        """Apply scheduler-requested dispatches and preemptions until quiet."""
        sched = self.scheduler
        for _ in range(10_000):
            dispatch, resched = sched.drain_pending()
            if not dispatch and not resched:
                return
            for cpu_id in sorted(resched):
                cpu = sched.cpu(cpu_id)
                if cpu.rq.curr is not None:
                    self._switch_out(cpu_id, requeue=True)
                self._dispatch(cpu_id)
            for cpu_id in sorted(dispatch):
                cpu = sched.cpu(cpu_id)
                if cpu.online and cpu.rq.curr is None and cpu.rq.nr_queued:
                    self._dispatch(cpu_id)
        raise SimulationError("drain did not quiesce after 10000 rounds")

    # -- context switching -----------------------------------------------------------------

    def _switch_out(self, cpu_id: int, requeue: bool) -> Optional[Task]:
        """Remove the running task from a CPU, settling phase progress."""
        cpu = self.scheduler.cpu(cpu_id)
        task = cpu.rq.curr
        if task is None:
            return None
        now = self.now
        if isinstance(task.current_phase, Run) and task.phase_started_us is not None:
            ran = max(0, now - task.phase_started_us)
            task.phase_left_us = max(0, task.phase_left_us - ran)
        if task.spinning_on is not None and task.spin_started_us is not None:
            task.stats.spin_time_us += max(0, now - task.spin_started_us)
            task.spin_started_us = None
        handle = self._phase_events.pop(cpu_id, None)
        if handle is not None:
            handle.cancel()
        self.scheduler.deschedule(cpu_id, now, requeue=requeue)
        task.phase_started_us = None
        return task

    def _dispatch(self, cpu_id: int) -> None:
        """Pick the next task for an empty CPU and start executing it."""
        task = self.scheduler.pick_next_task(cpu_id, self.now)
        if task is None:
            return
        self._begin_run(cpu_id, task)

    def _begin_run(self, cpu_id: int, task: Task) -> None:
        """Resume a freshly-dispatched task according to its phase state."""
        now = self.now
        if task.spinning_on is not None:
            obj = task.spinning_on
            acquired = False
            if isinstance(obj, SpinLock):
                acquired = obj.try_steal(task)
            elif isinstance(obj, Barrier):
                acquired = obj.has_passed(task.barrier_generation)
            elif isinstance(obj, SpinFlag):
                acquired = obj.satisfied(task.flag_threshold)
            if acquired:
                task.spinning_on = None
                self._advance(cpu_id, task)
            else:
                # Keep burning CPU; no completion event -- the spinner runs
                # until granted, released, or preempted.
                task.spin_started_us = now
            return
        if isinstance(task.current_phase, Run) and task.phase_left_us > 0:
            task.phase_started_us = now
            self._arm_phase_end(cpu_id, task, task.phase_left_us)
            return
        self._advance(cpu_id, task)

    def _arm_phase_end(self, cpu_id: int, task: Task, delay_us: int) -> None:
        handle = self.loop.schedule(
            max(delay_us, 1),
            lambda: self._phase_end(cpu_id, task),
            label=f"phase-end:{task.tid}",
        )
        self._phase_events[cpu_id] = handle

    def _phase_end(self, cpu_id: int, task: Task) -> None:
        cpu = self.scheduler.cpu(cpu_id)
        if cpu.rq.curr is not task:
            return  # stale event (the task was moved); defensive only
        self._phase_events.pop(cpu_id, None)
        task.phase_left_us = 0
        task.phase_started_us = None
        self.scheduler.account(cpu_id, self.now)
        self._advance(cpu_id, task)
        self._drain()

    # -- phase interpretation -------------------------------------------------------------------

    def _advance(self, cpu_id: int, task: Task) -> None:
        """Interpret phases for the running ``task`` until it needs the CPU
        for a while (Run / spin) or leaves it (sleep/block/exit)."""
        now = self.now
        for _ in range(_MAX_INLINE_PHASES):
            try:
                phase = next(task.program)
            except StopIteration:
                phase = Exit()
            task.current_phase = phase

            if isinstance(phase, Run):
                if phase.duration_us <= 0:
                    continue
                task.phase_left_us = phase.duration_us
                task.phase_started_us = now
                self._arm_phase_end(cpu_id, task, phase.duration_us)
                return

            if isinstance(phase, Sleep):
                self._leave_cpu(cpu_id, task, TaskState.SLEEPING)
                self.loop.schedule(
                    max(phase.duration_us, 1),
                    lambda: self._timer_wake(task),
                    label=f"wake:{task.tid}",
                )
                self._dispatch(cpu_id)
                return

            if isinstance(phase, Exit):
                self._leave_cpu(cpu_id, task, TaskState.EXITED)
                self.scheduler.task_exited(task, now)
                self._dispatch(cpu_id)
                return

            if isinstance(phase, LockAcquire):
                if phase.lock.acquire(task):
                    continue
                if phase.lock.kind == "spin":
                    task.spinning_on = phase.lock
                    task.spin_started_us = now
                    return  # spins on-CPU
                task.blocked_on = phase.lock
                self._leave_cpu(cpu_id, task, TaskState.BLOCKED)
                self._dispatch(cpu_id)
                return

            if isinstance(phase, LockRelease):
                granted = phase.lock.release(task)
                if granted is not None:
                    if phase.lock.kind == "spin":
                        self._grant_to_spinner(granted)
                    else:
                        granted.blocked_on = None
                        self.scheduler.wake_task(granted, cpu_id, now)
                continue

            if isinstance(phase, BarrierWait):
                barrier = phase.barrier
                passed, released = barrier.arrive(task)
                if passed:
                    for other in released:
                        self._release_from_barrier(other, barrier, cpu_id)
                    continue
                if barrier.mode == "spin":
                    task.spinning_on = barrier
                    task.barrier_generation = barrier.generation
                    task.spin_started_us = now
                    return  # spins on-CPU
                task.blocked_on = barrier
                self._leave_cpu(cpu_id, task, TaskState.BLOCKED)
                self._dispatch(cpu_id)
                return

            if isinstance(phase, FlagWait):
                if phase.flag.wait(task, phase.threshold):
                    continue
                task.spinning_on = phase.flag
                task.flag_threshold = phase.threshold
                task.spin_started_us = now
                return  # spins on-CPU until the flag advances

            if isinstance(phase, FlagAdvance):
                for waiter in phase.flag.advance(phase.amount):
                    self._release_spinner(waiter)
                continue

            if isinstance(phase, WaitOn):
                if phase.channel.get(task):
                    continue
                task.blocked_on = phase.channel
                self._leave_cpu(cpu_id, task, TaskState.BLOCKED)
                self._dispatch(cpu_id)
                return

            if isinstance(phase, Notify):
                waiter = phase.channel.put()
                if waiter is not None:
                    waiter.blocked_on = None
                    self.scheduler.wake_task(waiter, cpu_id, now)
                continue

            if isinstance(phase, Spawn):
                child = self._create_task(phase.spec)
                self.scheduler.place_new_task(child, cpu_id, now)
                continue

            raise SimulationError(f"unknown phase {phase!r} from {task}")
        raise SimulationError(
            f"{task} produced {_MAX_INLINE_PHASES} zero-cost phases in a row"
        )

    def _leave_cpu(self, cpu_id: int, task: Task, state: TaskState) -> None:
        """Deschedule the running task without requeuing it."""
        self.scheduler.account(cpu_id, self.now)
        handle = self._phase_events.pop(cpu_id, None)
        if handle is not None:
            handle.cancel()
        self.scheduler.deschedule(cpu_id, self.now, requeue=False)
        task.state = state
        task.phase_started_us = None

    def _grant_to_spinner(self, task: Task) -> None:
        """A running spinner just received lock ownership: resume it."""
        now = self.now
        if task.spin_started_us is not None:
            task.stats.spin_time_us += max(0, now - task.spin_started_us)
            task.spin_started_us = None
        task.spinning_on = None
        if task.cpu is None:
            raise SimulationError(f"granted spinner {task} has no CPU")
        self._advance(task.cpu, task)

    def _release_spinner(self, task: Task) -> None:
        """A spinning waiter's condition became true: resume it if on-CPU.

        Preempted spinners resume at their next dispatch (the generation /
        threshold check in :meth:`_begin_run`).
        """
        if task.state is not TaskState.RUNNING:
            return
        now = self.now
        if task.spin_started_us is not None:
            task.stats.spin_time_us += max(0, now - task.spin_started_us)
            task.spin_started_us = None
        task.spinning_on = None
        self._advance(task.cpu, task)

    def _release_from_barrier(
        self, task: Task, barrier: Barrier, waker_cpu: int
    ) -> None:
        now = self.now
        if barrier.mode == "spin":
            if task.state is TaskState.RUNNING:
                if task.spin_started_us is not None:
                    task.stats.spin_time_us += max(
                        0, now - task.spin_started_us
                    )
                    task.spin_started_us = None
                task.spinning_on = None
                self._advance(task.cpu, task)
            # A preempted spinner passes the generation check when it next
            # runs (_begin_run).
            return
        task.blocked_on = None
        self.scheduler.wake_task(task, waker_cpu, now)

    def _timer_wake(self, task: Task) -> None:
        if task.state is not TaskState.SLEEPING:
            return
        self.scheduler.wake_task(task, task.prev_cpu, self.now)
        self._drain()

    def __repr__(self) -> str:
        return (
            f"System(now={self.now}us, cpus={self.topology.num_cpus}, "
            f"tasks={len(self.scheduler.tasks)})"
        )
