"""Outside-in layer tracing: spans around the simulator's public functions.

:class:`LayerTracer` replaces a fixed set of functions with wrappers that
time each call with ``perf_counter_ns``.  Every caller looks these
functions up at call time (``self.tick(...)``, ``lb.balance_domain(...)``,
``wk.select_task_rq_wake(...)``), so the wrappers see every call; nothing
inside the program changes.  Spans stay in memory as per-layer
accumulators: a layer's self time is its spans' duration minus the time
of the spans nested inside them.  :meth:`LayerTracer.restore` puts every
original back.

Balance outcomes are derived from outside as well: an attempt
(``balance_domain``) whose ``find_busiest_group`` found no busiest group
is *balanced*, one that moved nothing is *blocked*, and one that moved a
task is *moved*.
"""

from __future__ import annotations

import time
from collections import Counter
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core.sanity_checker import SanityChecker
from repro.sched import balance, wakeup
from repro.sched.scheduler import Scheduler
from repro.sim.engine import EventLoop

#: (owner, attribute, layer) of every function wrapped in a span.
SPANS: Tuple[Tuple[Any, str, str], ...] = (
    (Scheduler, "tick", "sched.tick"),
    (Scheduler, "account", "sched.account"),
    (Scheduler, "deschedule", "sched.account"),
    (Scheduler, "pick_next_task", "sched.pick"),
    (Scheduler, "wake_task", "sched.wakeup"),
    (Scheduler, "place_new_task", "sched.wakeup"),
    (wakeup, "select_task_rq_wake", "sched.wakeup"),
    (wakeup, "select_task_rq_fork", "sched.wakeup"),
    (balance, "periodic_balance", "sched.balance.periodic"),
    (balance, "nohz_idle_balance", "sched.balance.nohz"),
    (balance, "newidle_balance", "sched.balance.newidle"),
    (balance, "balance_domain", "sched.balance.domain"),
    (balance, "find_busiest_group", "sched.balance.find_busiest"),
    (balance, "move_tasks", "sched.balance.move"),
)

CHECKER_LAYER = "core.checker"


class _HookSpan:
    """A traced stand-in for one ``tick_hooks`` entry.

    Compares equal to the hook it wraps, so ``tick_hooks.remove(hook)``
    (``SanityChecker.detach``) still finds it.
    """

    def __init__(self, hook: Callable[[int], None], traced: Callable[[int], None]):
        self.hook = hook
        self.traced = traced

    def __call__(self, now: int) -> None:
        self.traced(now)

    def __eq__(self, other: object) -> bool:
        return other == self.hook

    __hash__ = None  # type: ignore[assignment]


class LayerTracer:
    """Per-function call counts and self time, plus outcome counts."""

    def __init__(self) -> None:
        #: function name -> [layer, calls, self time in ns].
        self._acc: Dict[str, List[Any]] = {}
        #: Outcome tallies (balance verdicts, idle picks, busy wakeups...).
        self.outcomes: Counter = Counter()
        #: Events fired, counted by wrapping every scheduled callback.
        self._events = [0]
        # Child-span time of each open span; the bottom cell collects the
        # time of spans with no enclosing span.
        self._stack: List[int] = [0]
        self._saved: List[Tuple[Any, str, Any]] = []
        self._busiest_found = False
        self._in_nohz = 0

    # -- spans --------------------------------------------------------------

    def _span(self, name: str, layer: str, fn: Callable[..., Any],
              after: Optional[Callable[..., None]] = None) -> Callable[..., Any]:
        stack = self._stack
        acc = self._acc.setdefault(name, [layer, 0, 0])
        clock = time.perf_counter_ns

        def traced(*args: Any, **kwargs: Any) -> Any:
            stack.append(0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                acc[2] += elapsed - stack.pop()
                stack[-1] += elapsed
            acc[1] += 1
            if after is not None:
                after(result, *args)
            return result

        return traced

    def _patch(self, owner: Any, attr: str, replacement: Any) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    # -- outcome hooks --------------------------------------------------------

    def _after_pick(self, task: Any, sched: Any, cpu_id: int, now: int) -> None:
        if task is None:
            self.outcomes["pick.idle"] += 1

    def _after_select_wake(self, target: int, sched: Any, task: Any, *rest: Any) -> None:
        # Read where wake_task reads them, before it enqueues: is the
        # chosen core busy, and does the task leave its previous CPU?
        if not sched.cpu(target).is_idle:
            self.outcomes["wakeup.busy_target"] += 1
        if task.prev_cpu is not None and task.prev_cpu != target:
            self.outcomes["wakeup.migrations"] += 1

    def _after_find_busiest(self, result: Any, *args: Any) -> None:
        self._busiest_found = result[0] is not None

    def _after_balance_domain(self, moved: int, *args: Any) -> None:
        if not self._busiest_found:
            self.outcomes["balance.balanced"] += 1
        elif moved == 0:
            self.outcomes["balance.blocked"] += 1
        else:
            self.outcomes["balance.moved"] += 1
            self.outcomes["balance.migrations"] += moved

    def _after_periodic(self, moved: int, *args: Any) -> None:
        # Scheduler.balance_calls counts the tick's calls, not the sweep's.
        if self._in_nohz:
            self.outcomes["periodic.from_nohz"] += 1

    def _marking_nohz(self, fn: Callable[..., Any]) -> Callable[..., Any]:
        def nohz(*args: Any, **kwargs: Any) -> Any:
            self._in_nohz += 1
            try:
                return fn(*args, **kwargs)
            finally:
                self._in_nohz -= 1

        return nohz

    def _after_newidle(self, moved: int, *args: Any) -> None:
        if moved:
            self.outcomes["newidle.useful"] += 1

    # -- install / restore ----------------------------------------------------

    def install(self) -> "LayerTracer":
        after = {
            "pick_next_task": self._after_pick,
            "select_task_rq_wake": self._after_select_wake,
            "find_busiest_group": self._after_find_busiest,
            "balance_domain": self._after_balance_domain,
            "newidle_balance": self._after_newidle,
            "periodic_balance": self._after_periodic,
        }
        for owner, attr, layer in SPANS:
            fn = getattr(owner, attr)
            if attr == "nohz_idle_balance":
                fn = self._marking_nohz(fn)
            self._patch(owner, attr, self._span(attr, layer, fn, after.get(attr)))

        schedule_at = EventLoop.schedule_at
        events = self._events

        def counted_schedule_at(loop: EventLoop, when: int,
                                callback: Callable[[], None], label: str = "") -> Any:
            def fire() -> None:
                events[0] += 1
                callback()

            return schedule_at(loop, when, fire, label)

        self._patch(EventLoop, "schedule_at", counted_schedule_at)

        attach = SanityChecker.attach
        checker_span = self._span

        def traced_attach(checker: SanityChecker, system: Any) -> None:
            attach(checker, system)
            hook = system.tick_hooks[-1]
            system.tick_hooks[-1] = _HookSpan(
                hook, checker_span("checker_tick", CHECKER_LAYER, hook)
            )

        self._patch(SanityChecker, "attach", traced_attach)
        return self

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- results ----------------------------------------------------------------

    def counts(self) -> Dict[str, int]:
        """Every host-independent count the run produced."""
        out = {f"calls.{name}": acc[1] for name, acc in self._acc.items()}
        out.update({f"outcome.{k}": v for k, v in self.outcomes.items()})
        out["events"] = self._events[0]
        return dict(sorted(out.items()))

    def self_seconds(self) -> Dict[str, float]:
        """Self time per layer."""
        layers: Counter = Counter()
        for layer, _, self_ns in self._acc.values():
            layers[layer] += self_ns
        return {k: v / 1e9 for k, v in sorted(layers.items())}

    @property
    def top_seconds(self) -> float:
        """Time inside spans that no other span encloses."""
        return self._stack[0] / 1e9
