"""Fixture: a fast-path hot closure with an escaping helper."""

_SAMPLES = []


class RunQueue:
    def __init__(self):
        self._tasks = []
        self._cached_load = None

    def load(self):
        # The runqueue-load hot root: its closure reaches _tally below.
        if self._cached_load is None:
            self._cached_load = _tally(self._tasks)
        return self._cached_load


def _tally(tasks):
    total = 0
    for task in tasks:
        total += 1
    # BAD: records into a module-level list -- an escaping effect the
    # fast path cannot memoize through.
    _SAMPLES.append(total)
    return total
