"""Runtime effect sanitizer: declared write summaries vs observed writes.

The static half (:mod:`repro.analysis.effects`) *declares* what every
function writes; the ``pure-hot-path`` rule certifies the fast-path
closure from those declarations.  Like the coherence sanitizer, the
declaration is only as good as the analysis that produced it -- a write
the dataflow pass failed to attribute (an exotic receiver expression, a
helper the call graph missed) silently punches a hole in that
certification.

This module is the dynamic cross-check.  An :class:`EffectCheckSession`

* builds the same :class:`~repro.analysis.effects.EffectEngine` the lint
  rules use, over the installed ``repro`` tree;
* indexes every analyzed function by ``(filename, first line)`` -- both
  the ``def`` line and any decorator lines, matching how CPython stamps
  ``co_firstlineno`` across versions;
* patches ``__setattr__`` on the scheduler-state classes
  (:data:`CHECKED_CLASSES`: ``RunQueue``, ``Cpu``, ``CGroup``, ``Task``)
  so every attribute write is attributed to the Python
  function executing it via the caller's frame.

A write whose executing function is in the static index but whose
``(class, attr)`` has no matching declaration in that function's
:class:`~repro.analysis.effects.EffectSummary` is a **divergence**: the
static summaries under-declare, and any certification built on them is
unsound.  Frames the index does not know (stdlib internals, generated
dataclass ``__init__``, lambdas, REPL code) are skipped -- the sanitizer
checks the *declared* world, it does not demand the whole interpreter be
analyzable.

Used by ``repro demo <bug> --effect-check`` (the soak harness: the four
paper-bug demos exercise every scheduler path) and the CI sanitizer-soak
job, which fails on any divergence.
"""

from __future__ import annotations

import ast
import importlib
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.analysis.core import iter_python_files, module_for_path
from repro.analysis.effects import EffectEngine

#: ``(module, class)`` pairs whose attribute writes are intercepted.
#: These are the scheduler-state objects the fast-path closure reads and
#: the balancer mutates.
CHECKED_CLASSES: Tuple[Tuple[str, str], ...] = (
    ("repro.sched.runqueue", "RunQueue"),
    ("repro.sched.cpu", "Cpu"),
    ("repro.sched.cgroup", "CGroup"),
    ("repro.sched.task", "Task"),
)


class EffectDivergence(RuntimeError):
    """Observed attribute writes had no matching static declaration."""


@dataclass(frozen=True)
class Divergence:
    """One attribute write the static summaries failed to declare."""

    cls: str
    attr: str
    #: Qualname of the function whose frame executed the write.
    function: str
    filename: str
    line: int

    def format(self) -> str:
        return (
            f"{self.filename}:{self.line}: {self.function} wrote "
            f"{self.cls}.{self.attr} but its static effect summary does "
            "not declare that write"
        )


def installed_files() -> List[Tuple[str, str, ast.Module]]:
    """Parse the installed ``repro`` tree into engine input triples.

    Display paths are absolute and resolved so they can be matched
    against frame code objects' ``co_filename`` at write time.
    """
    import repro

    root = Path(repro.__file__).resolve().parent
    files: List[Tuple[str, str, ast.Module]] = []
    for path in iter_python_files([root]):
        try:
            source = path.read_text(encoding="utf-8")
            tree = ast.parse(source)
        except (OSError, SyntaxError):
            continue  # unreadable/broken files are the lint's problem
        files.append((module_for_path(path), str(path), tree))
    return files


class EffectCheckSession:
    """Patch scheduler-state classes; compare writes against summaries.

    Use as a context manager around the code to soak::

        session = EffectCheckSession()
        with session:
            scenario.run()
        print(session.summary())
        session.check()   # raises EffectDivergence on any divergence
    """

    def __init__(self, engine: Optional[EffectEngine] = None):
        self.engine = engine if engine is not None else EffectEngine(
            installed_files()
        )
        #: Writes observed in an indexed frame and matched to a
        #: declaration.
        self.verified = 0
        #: Writes observed in frames the static index does not cover
        #: (generated code, lambdas, stdlib) -- skipped, not judged.
        self.skipped = 0
        self.divergences: List[Divergence] = []
        #: ``(resolved filename, first line)`` -> qualname.  Both the
        #: ``def`` line and each decorator line map to the function, so
        #: the lookup is robust to where ``co_firstlineno`` points.
        self._index: Dict[Tuple[str, int], str] = {}
        #: qualname -> declared ``(class, attr)`` write set.
        self._declared: Dict[str, Set[Tuple[Optional[str], str]]] = {}
        for qual, summary in self.engine.summaries.items():
            node = summary.fn.node
            path = str(Path(summary.fn.display_path).resolve())
            lines = [getattr(node, "lineno", 0)]
            for deco in getattr(node, "decorator_list", ()):
                lines.append(deco.lineno)
            for lineno in lines:
                self._index[(path, lineno)] = qual
            self._declared[qual] = {
                (w.cls, w.attr) for w in summary.writes
            }
        #: ``co_filename`` -> resolved path, memoized per session.
        self._norm: Dict[str, str] = {}
        #: (class, had own ``__setattr__``, original) patch records.
        self._patched: List[Tuple[type, bool, Callable[..., None]]] = []

    # -- frame attribution -------------------------------------------------

    def _resolve_filename(self, filename: str) -> str:
        cached = self._norm.get(filename)
        if cached is None:
            try:
                cached = str(Path(filename).resolve())
            except OSError:
                cached = filename
            self._norm[filename] = cached
        return cached

    def _observe(self, obj: object, name: str) -> None:
        frame = sys._getframe(2)  # _observe <- checked __setattr__ <- writer
        code = frame.f_code
        qual = self._index.get(
            (self._resolve_filename(code.co_filename), code.co_firstlineno)
        )
        if qual is None:
            self.skipped += 1
            return
        declared = self._declared.get(qual, set())
        owners = {c.__name__ for c in type(obj).__mro__}
        for cls, attr in declared:
            if attr != name:
                continue
            # Exact receiver class (or a base the static pass saw), an
            # unresolved receiver (None), or a builtin/typing head
            # (bracketed) all count as the declaration for this write.
            if cls is None or cls.startswith("<") or cls in owners:
                self.verified += 1
                return
        self.divergences.append(
            Divergence(
                cls=type(obj).__name__,
                attr=name,
                function=qual,
                filename=code.co_filename,
                line=frame.f_lineno,
            )
        )

    # -- patching ----------------------------------------------------------

    def _checked_setattr(
        self, original: Callable[..., None]
    ) -> Callable[..., None]:
        session = self

        def checked(obj: Any, name: str, value: Any) -> None:
            session._observe(obj, name)
            original(obj, name, value)

        return checked

    def install(self) -> None:
        """Patch ``__setattr__`` on every checked class (idempotent)."""
        if self._patched:
            return
        for module_name, cls_name in CHECKED_CLASSES:
            module = importlib.import_module(module_name)
            cls = getattr(module, cls_name)
            had_own = "__setattr__" in cls.__dict__
            original = cls.__setattr__
            self._patched.append((cls, had_own, original))
            cls.__setattr__ = self._checked_setattr(original)

    def uninstall(self) -> None:
        """Restore every patched class to its pre-session behavior."""
        for cls, had_own, original in reversed(self._patched):
            if had_own:
                cls.__setattr__ = original  # type: ignore[method-assign]
            else:
                try:
                    del cls.__setattr__
                except AttributeError:
                    pass
        self._patched.clear()

    def __enter__(self) -> "EffectCheckSession":
        self.install()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.uninstall()

    # -- verdicts ----------------------------------------------------------

    def summary(self) -> str:
        return (
            f"effect-check: {len(self.engine.summaries)} functions "
            f"indexed, {self.verified} writes verified against declared "
            f"summaries, {self.skipped} writes in unindexed frames "
            f"skipped, {len(self.divergences)} divergences"
        )

    def check(self) -> None:
        """Raise :class:`EffectDivergence` if any write diverged."""
        if not self.divergences:
            return
        shown = [d.format() for d in self.divergences[:10]]
        more = len(self.divergences) - len(shown)
        if more > 0:
            shown.append(f"(+{more} more)")
        raise EffectDivergence(
            "static effect summaries diverge from observed writes:\n  "
            + "\n  ".join(shown)
        )
