"""Span API: begin/end pairing, nesting, timer charging, null paths."""

from collections import Counter

import pytest

from repro.core.driver import run_streamlines
from repro.obs import NULL_SPAN, Recorder
from repro.obs.span import NullSpan, Span
from repro.sim.cluster import Cluster
from repro.sim.machine import MachineSpec
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


def test_charge_feeds_rank_metrics_and_records():
    rec, _ = make_recorder(True)
    m = RankMetrics(rank=0)
    with rec.span(0, "outer"):
        rec.charge(0, "compute.advect", TimerCategory.COMPUTE, m, 0.5, 3.0,
                   {"steps": 4})
    assert m.compute_time == pytest.approx(2.5)
    assert m.busy_time == pytest.approx(2.5)
    (s, _) = rec.spans
    assert (s.rank, s.name, s.start, s.end) == (0, "compute.advect", 0.5, 3.0)
    assert s.depth == 1 and s.attrs == (("steps", 4),)


def test_charge_charges_even_when_disabled():
    rec, _ = make_recorder(False)
    m = RankMetrics(rank=0)
    rec.charge(0, "io.read", TimerCategory.IO, m, 0.0, 1.5)
    assert m.io_time == pytest.approx(1.5)
    assert rec.spans == ()  # charged, but not recorded


@pytest.mark.parametrize("enabled", [True, False])
def test_timer_site_charges_when_closed_mid_sleep(enabled):
    """A process closed inside a timer's ``Sleep`` still charges the
    interval it slept, and records it when enabled."""
    cluster = Cluster(MachineSpec(n_ranks=2, seconds_per_step=1.0),
                      obs=Recorder(enabled=enabled))
    ctx = cluster.context(1)

    def program():
        yield from ctx.compute(10)

    engine = cluster.engine
    gen = program()
    engine.spawn("rank1", gen, rank=1)
    engine.call_at(4.0, lambda: None)
    assert engine.run(until=5.0) == 4.0
    gen.close()
    assert ctx.metrics.compute_time == 4.0
    assert ctx.metrics.steps == 0
    if enabled:
        (s,) = cluster.obs.spans
        assert (s.name, s.start, s.end, s.depth) == (
            "compute.advect", 0.0, 4.0, 0)
    else:
        assert cluster.obs.spans == ()


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
    with pytest.raises(RuntimeError):
        with rec.span(0, "io.read"):
            clock["now"] = 1.0
            raise RuntimeError("boom")
    assert rec.spans[0].end == 1.0
    assert rec.open_span_count == 0


# ---------------------------------------------------------------------- #
# Disabled path: no recording work at all
# ---------------------------------------------------------------------- #

@pytest.mark.parametrize("algorithm", ["hybrid", "static"])
def test_disabled_run_does_no_recording_work(small_problem, small_machine,
                                             monkeypatch, algorithm):
    """With recorder and trace disabled no recording entry point is even
    called: no ``Span`` is built, and every ``obs.marker`` /
    ``trace.emit`` site sits behind its ``if obs.enabled:`` /
    ``if trace.enabled:`` guard, so the disabled path builds no kwargs.
    Only the timers run, through ``Recorder.charge``.  The same run
    enabled goes through all of them (the counters do count)."""
    calls = Counter()

    def counting(cls, name):
        real = getattr(cls, name)

        def wrapper(*args, **kwargs):
            calls[f"{cls.__name__}.{name}"] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(cls, name, wrapper)

    counting(Span, "__init__")
    counting(Recorder, "charge")
    counting(Recorder, "marker")
    counting(Trace, "emit")

    obs, trace = Recorder(enabled=False), Trace(enabled=False)
    result = run_streamlines(small_problem, algorithm=algorithm,
                             machine=small_machine, obs=obs, trace=trace)
    assert result.ok
    assert calls.pop("Recorder.charge") > 0  # the timers still charge
    assert calls == Counter()
    assert obs.spans == () and len(trace) == 0
    assert obs.registry.samples == [] and obs.registry.counters() == {}
    # No trace handed in: the shared NULL_TRACE is a ``Trace`` too.
    assert run_streamlines(small_problem, algorithm=algorithm,
                           machine=small_machine).ok
    assert calls.pop("Recorder.charge") > 0
    assert calls == Counter()

    obs, trace = Recorder(enabled=True), Trace(enabled=True)
    run_streamlines(small_problem, algorithm=algorithm,
                    machine=small_machine, obs=obs, trace=trace)
    assert set(calls) == {"Span.__init__", "Recorder.charge",
                          "Recorder.marker", "Trace.emit"}
    assert calls["Trace.emit"] == len(trace)
