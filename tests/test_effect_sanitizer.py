"""The runtime effect sanitizer: observed writes vs declared summaries.

Mirrors the coherence sanitizer's test shape from PR 4: a clean soak
over a real scenario (zero divergences -- the static summaries are
sound for everything the demos execute), a tampered-index run proving
the detector actually fires, and patch-hygiene checks.
"""

import pytest

from repro.analysis.effectcheck import (
    CHECKED_CLASSES,
    EffectCheckSession,
    EffectDivergence,
)

@pytest.fixture
def make_session(shipped_engine):
    """Sessions over the shared whole-tree engine (they only read it)."""
    return lambda: EffectCheckSession(engine=shipped_engine)


def short_scenario_run(session, duration_us=100_000):
    from repro.experiments.scenarios import build_bug_scenario

    # Build *inside* the session so constructor writes are checked too.
    with session:
        scenario = build_bug_scenario("group-imbalance", "buggy")
        scenario.run(duration_us)
    return session


def test_clean_soak_verifies_writes(make_session):
    session = short_scenario_run(make_session())
    assert session.verified > 0
    assert session.divergences == [], [
        d.format() for d in session.divergences
    ]
    session.check()  # must not raise
    assert "0 divergences" in session.summary()


def test_unindexed_frames_are_skipped_not_judged(make_session):
    from repro.sched.runqueue import RunQueue

    session = make_session()
    rq = RunQueue(0)
    with session:
        # This test file is not in the static index: the write must be
        # skipped (the sanitizer judges the declared world only).
        rq.test_probe = 1
    assert session.skipped >= 1
    assert session.divergences == []


def test_tampered_summary_is_detected(make_session):
    session = make_session()
    # Erase RunQueue.__init__'s declared writes: the first constructed
    # runqueue now writes attributes its (tampered) summary never
    # declared, which is exactly the divergence shape the sanitizer
    # exists to catch.
    qual = "repro.sched.runqueue.RunQueue.__init__"
    assert qual in session._declared
    session._declared[qual] = set()
    short_scenario_run(session, duration_us=10_000)
    assert session.divergences, "tampered summary went undetected"
    assert session.divergences[0].function == qual
    with pytest.raises(EffectDivergence) as excinfo:
        session.check()
    assert "does not declare that write" in str(excinfo.value)


def test_uninstall_restores_classes(make_session):
    import importlib

    originals = {}
    for module_name, cls_name in CHECKED_CLASSES:
        cls = getattr(importlib.import_module(module_name), cls_name)
        originals[cls] = cls.__setattr__
    session = make_session()
    with session:
        for cls in originals:
            assert cls.__setattr__ is not originals[cls]
    for cls, original in originals.items():
        assert cls.__setattr__ is original


def test_install_is_idempotent(make_session):
    session = make_session()
    session.install()
    patched = {
        cls: cls.__setattr__ for cls, _, _ in session._patched
    }
    session.install()  # second install must not re-wrap
    try:
        for cls, wrapper in patched.items():
            assert cls.__setattr__ is wrapper
    finally:
        session.uninstall()
