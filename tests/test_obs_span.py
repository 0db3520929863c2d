"""Span API: begin/end pairing, nesting, timer charging, null paths."""

from collections import Counter

import pytest

from repro.core.driver import run_streamlines
from repro.obs import NULL_SPAN, Recorder
from repro.obs.span import NullSpan, Span
from repro.sim.metrics import RankMetrics, TimerCategory
from repro.sim.trace import Trace


def make_recorder(enabled):
    clock = {"now": 0.0}
    rec = Recorder(enabled=enabled, clock=lambda: clock["now"])
    return rec, clock


def test_span_records_begin_end_interval():
    rec, clock = make_recorder(True)
    with rec.span(3, "io.read", nbytes=1024):
        clock["now"] = 2.0
    (s,) = rec.spans
    assert s.rank == 3
    assert s.name == "io.read"
    assert s.start == 0.0 and s.end == 2.0 and s.duration == 2.0
    assert s.get("nbytes") == 1024
    assert rec.open_span_count == 0


def test_span_nesting_depth_per_rank():
    rec, clock = make_recorder(True)
    with rec.span(0, "outer"):
        clock["now"] = 1.0
        with rec.span(0, "inner"):
            clock["now"] = 2.0
        with rec.span(1, "other_rank"):  # independent depth counter
            clock["now"] = 3.0
    by_name = {s.name: s for s in rec.spans}
    assert by_name["outer"].depth == 0
    assert by_name["inner"].depth == 1
    assert by_name["other_rank"].depth == 0
    # Inner spans complete (and are appended) before their parents.
    assert [s.name for s in rec.spans] == ["inner", "other_rank", "outer"]
    assert rec.open_span_count == 0


def test_charging_span_feeds_rank_metrics():
    rec, clock = make_recorder(True)
    m = RankMetrics(rank=0)
    with rec.span(0, "compute.advect", category=TimerCategory.COMPUTE,
                  metrics=m):
        clock["now"] = 2.5
    assert m.compute_time == pytest.approx(2.5)
    assert m.busy_time == pytest.approx(2.5)


def test_charging_span_charges_even_when_disabled():
    rec, clock = make_recorder(False)
    m = RankMetrics(rank=0)
    with rec.span(0, "io.read", category=TimerCategory.IO, metrics=m):
        clock["now"] = 1.5
    assert m.io_time == pytest.approx(1.5)
    assert rec.spans == ()  # charged, but not recorded


def test_disabled_recording_span_is_shared_null_singleton():
    rec, _ = make_recorder(False)
    assert rec.span(0, "anything") is NULL_SPAN
    assert rec.span(5, "else", attr=1) is NULL_SPAN


def test_null_span_is_reentrant_noop():
    with NULL_SPAN as a:
        with NULL_SPAN as b:
            assert a is b is NULL_SPAN
            assert NULL_SPAN.set(x=1) is NULL_SPAN
    assert isinstance(NULL_SPAN, NullSpan)


def test_span_set_attrs_merge_and_sort():
    rec, _ = make_recorder(True)
    with rec.span(0, "x", zebra=1) as sp:
        sp.set(alpha=2)
    (s,) = rec.spans
    assert s.attrs == (("alpha", 2), ("zebra", 1))


def test_span_records_on_exception_and_reraises():
    rec, clock = make_recorder(True)
    m = RankMetrics(rank=0)
    with pytest.raises(RuntimeError):
        with rec.span(0, "io.read", category=TimerCategory.IO, metrics=m):
            clock["now"] = 1.0
            raise RuntimeError("boom")
    assert m.io_time == pytest.approx(1.0)
    assert rec.spans[0].end == 1.0
    assert rec.open_span_count == 0


# ---------------------------------------------------------------------- #
# Disabled path: no recording work at all
# ---------------------------------------------------------------------- #

@pytest.mark.parametrize("algorithm", ["hybrid", "static"])
def test_disabled_run_does_no_recording_work(small_problem, small_machine,
                                             monkeypatch, algorithm):
    """With recorder and trace disabled no recording entry point is even
    called: every ``sp.set`` / ``obs.marker`` / ``trace.emit`` site sits
    behind its ``if obs.enabled:`` / ``if trace.enabled:`` guard, so the
    disabled path builds no kwargs.  The same run enabled goes through
    all three (the counters do count)."""
    calls = Counter()

    def counting(cls, name):
        real = getattr(cls, name)

        def wrapper(*args, **kwargs):
            calls[f"{cls.__name__}.{name}"] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(cls, name, wrapper)

    counting(Span, "set")
    counting(Recorder, "marker")
    counting(Trace, "emit")

    obs, trace = Recorder(enabled=False), Trace(enabled=False)
    result = run_streamlines(small_problem, algorithm=algorithm,
                             machine=small_machine, obs=obs, trace=trace)
    assert result.ok
    assert calls == Counter()
    assert obs.spans == () and len(trace) == 0
    assert obs.registry.samples == [] and obs.registry.counters() == {}
    # No trace handed in: the shared NULL_TRACE is a ``Trace`` too.
    assert run_streamlines(small_problem, algorithm=algorithm,
                           machine=small_machine).ok
    assert calls == Counter()

    obs, trace = Recorder(enabled=True), Trace(enabled=True)
    run_streamlines(small_problem, algorithm=algorithm,
                    machine=small_machine, obs=obs, trace=trace)
    assert set(calls) == {"Span.set", "Recorder.marker", "Trace.emit"}
    assert calls["Trace.emit"] == len(trace)
