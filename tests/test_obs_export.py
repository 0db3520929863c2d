"""Exporters: Perfetto trace_event schema, JSONL streams, text timeline."""

import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.driver import run_streamlines
from repro.obs import (
    NULL_RECORDER,
    NULL_SPAN,
    Recorder,
    jsonable,
    perfetto_json,
    timeline_text,
    write_perfetto,
    write_run_json,
    write_samples_jsonl,
    write_spans_jsonl,
)
from repro.obs.analyze import load_samples_jsonl, load_spans_jsonl
from repro.obs.export import PHASES
from repro.obs.span import SpanRecord
from repro.sim.trace import Trace, TraceRecord


def make_recorder():
    clock = {"now": 0.0}
    rec = Recorder(enabled=True, clock=lambda: clock["now"])
    with rec.span(0, "io.read", nbytes=np.int64(4096)):
        clock["now"] = 1.0
    with rec.span(1, "compute.advect"):
        clock["now"] = 3.0
    rec.registry.add_series("rank.depth", 0, lambda: 2)
    rec.registry.add_series("net.bytes_in_flight", -1, lambda: 100)
    rec.registry.sample(1.5)
    return rec


def test_jsonable_coerces_numpy_and_containers():
    assert jsonable(np.int64(7)) == 7
    assert type(jsonable(np.int64(7))) is int
    assert jsonable(np.float32(0.5)) == 0.5
    assert jsonable(np.array([1, 2])) == [1, 2]
    assert jsonable((1, np.int32(2))) == [1, 2]
    assert jsonable({1: np.float64(2.0)}) == {"1": 2.0}
    assert jsonable(None) is None
    assert isinstance(jsonable(object()), str)  # repr fallback
    json.dumps(jsonable({"a": (np.int64(1), np.arange(2))}))  # round-trips


def test_perfetto_schema():
    rec = make_recorder()
    trace = Trace(enabled=True, clock=lambda: 2.0)
    trace.emit(0, "block_load", block=np.int64(17))
    doc = json.loads(perfetto_json(rec, trace=trace))
    assert set(doc) == {"displayTimeUnit", "traceEvents"}
    events = doc["traceEvents"]
    assert all(ev["ph"] in PHASES for ev in events)

    slices = [ev for ev in events if ev["ph"] == "X"]
    assert {ev["name"] for ev in slices} == {"io.read", "compute.advect"}
    io = next(ev for ev in slices if ev["name"] == "io.read")
    assert io["tid"] == 0 and io["pid"] == 0 and io["cat"] == "io"
    assert io["ts"] == 0 and io["dur"] == 1_000_000  # microseconds
    assert io["args"]["nbytes"] == 4096

    metas = [ev for ev in events if ev["ph"] == "M"]
    assert {ev["args"]["name"] for ev in metas
            if ev["name"] == "thread_name"} == {"rank 0", "rank 1"}

    instants = [ev for ev in events if ev["ph"] == "i"]
    assert instants[0]["name"] == "block_load"
    assert instants[0]["ts"] == 2_000_000
    assert instants[0]["args"]["block"] == 17

    counters = [ev for ev in events if ev["ph"] == "C"]
    assert {ev["name"] for ev in counters} \
        == {"rank.depth", "net.bytes_in_flight"}
    assert all(ev["ts"] == 1_500_000 for ev in counters)


def test_perfetto_json_is_deterministic():
    assert perfetto_json(make_recorder()) == perfetto_json(make_recorder())


def test_jsonl_writers(tmp_path):
    rec = make_recorder()
    spans_path = tmp_path / "spans.jsonl"
    samples_path = tmp_path / "samples.jsonl"
    write_spans_jsonl(spans_path, rec)
    write_samples_jsonl(samples_path, rec)

    spans = [json.loads(l) for l in spans_path.read_text().splitlines()]
    assert [s["name"] for s in spans] == ["io.read", "compute.advect"]
    assert spans[0]["attrs"] == {"nbytes": 4096}
    assert spans[0]["start"] == 0.0 and spans[0]["end"] == 1.0

    samples = [json.loads(l) for l in samples_path.read_text().splitlines()]
    assert samples == [
        {"time": 1.5, "name": "rank.depth", "rank": 0, "value": 2},
        {"time": 1.5, "name": "net.bytes_in_flight", "rank": -1,
         "value": 100},
    ]


def test_write_perfetto_round_trips(tmp_path):
    rec = make_recorder()
    path = tmp_path / "trace.json"
    write_perfetto(path, rec)
    doc = json.loads(path.read_text())
    assert len(doc["traceEvents"]) > 0


def test_timeline_text_buckets_dominant_activity():
    clock = {"now": 0.0}
    rec = Recorder(enabled=True, clock=lambda: clock["now"])
    with rec.span(0, "compute.advect"):
        clock["now"] = 5.0
    with rec.span(0, "wait.message"):
        clock["now"] = 10.0
    with rec.span(1, "io.read"):
        clock["now"] = 10.0  # zero-length: must not paint
    text = timeline_text(rec, wall_clock=10.0, n_ranks=2, width=10)
    lines = text.splitlines()
    assert len(lines) == 3  # header + 2 ranks
    assert "|CCCCC·····|" in lines[1]
    assert "rank    1" in lines[2]


def test_timeline_text_empty_run():
    rec = Recorder(enabled=True)
    assert timeline_text(rec, 0.0, 4) == "(empty timeline)"


# ---------------------------------------------------------------------- #
# Edge cases: empty recorder, disabled recorder, numpy round-trips
# ---------------------------------------------------------------------- #

def test_exporters_handle_empty_recorder(tmp_path):
    rec = Recorder(enabled=True)  # enabled, but nothing ever recorded
    doc = json.loads(perfetto_json(rec))
    assert doc["traceEvents"] == []
    write_spans_jsonl(tmp_path / "spans.jsonl", rec)
    write_samples_jsonl(tmp_path / "samples.jsonl", rec)
    assert (tmp_path / "spans.jsonl").read_text() == ""
    assert (tmp_path / "samples.jsonl").read_text() == ""


def test_exporters_handle_disabled_recorder(tmp_path):
    rec = Recorder(enabled=False)
    # The null paths: spans are the shared NULL_SPAN, nothing accumulates.
    assert rec.span(0, "io.read") is NULL_SPAN
    rec.registry.add_series("x", 0, lambda: 1.0)
    rec.registry.sample(0.0)
    assert rec.spans == ()
    assert rec.registry.samples == []
    assert json.loads(perfetto_json(rec))["traceEvents"] == []
    write_spans_jsonl(tmp_path / "spans.jsonl", rec)
    assert (tmp_path / "spans.jsonl").read_text() == ""


def test_null_recorder_exports_empty(tmp_path):
    assert json.loads(perfetto_json(NULL_RECORDER))["traceEvents"] == []
    write_samples_jsonl(tmp_path / "samples.jsonl", NULL_RECORDER)
    assert (tmp_path / "samples.jsonl").read_text() == ""


def test_jsonl_round_trip_with_numpy_scalars(tmp_path):
    clock = {"now": 0.0}
    rec = Recorder(enabled=True, clock=lambda: clock["now"])
    with rec.span(0, "io.read", nbytes=np.int64(4096),
                  ratio=np.float32(0.5)):
        clock["now"] = 1.0
    rec.registry.add_series("depth", 0, lambda: np.int64(3))
    rec.registry.add_series("load", -1, lambda: np.float64(0.25))
    rec.registry.sample(0.5)

    write_spans_jsonl(tmp_path / "spans.jsonl", rec)
    write_samples_jsonl(tmp_path / "samples.jsonl", rec)

    spans = load_spans_jsonl(tmp_path / "spans.jsonl")
    assert len(spans) == 1
    assert spans[0].name == "io.read"
    attrs = dict(spans[0].attrs)
    assert attrs["nbytes"] == 4096 and type(attrs["nbytes"]) is int
    assert attrs["ratio"] == 0.5 and type(attrs["ratio"]) is float

    samples = load_samples_jsonl(tmp_path / "samples.jsonl")
    assert samples == [(0.5, "depth", 0, 3), (0.5, "load", -1, 0.25)]
    assert all(type(v) in (int, float) for _, _, _, v in samples)


def test_write_run_json_is_deterministic_and_loadable(tmp_path):
    class FakeMetrics:
        def __init__(self, rank):
            self.rank = rank

        def as_dict(self):
            return {"rank": self.rank, "steps": np.int64(10),
                    "io_time": np.float64(1.5)}

    class FakeResult:
        algorithm = "hybrid"
        status = "ok"
        n_ranks = 2
        wall_clock = 2.0
        master_ranks = [0]
        rank_metrics = [FakeMetrics(1), FakeMetrics(0)]

    rec = Recorder(enabled=True)
    write_run_json(tmp_path / "a.json", FakeResult(), rec)
    write_run_json(tmp_path / "b.json", FakeResult(), rec)
    a = (tmp_path / "a.json").read_bytes()
    assert a == (tmp_path / "b.json").read_bytes()
    doc = json.loads(a)
    assert doc["schema"] == 1
    assert doc["master_ranks"] == [0]
    assert [r["rank"] for r in doc["ranks"]] == [0, 1]  # sorted by rank
    assert doc["ranks"][1]["steps"] == 10  # numpy coerced


# ---------------------------------------------------------------------- #
# Codec byte equality.  The oracle is the four writers as they were
# before they stopped walking values ``jsonable`` returns unchanged:
# ``jsonable`` on every attr, detail and sample value, one ``json.dumps``
# and two ``write``s per record.  Bodies kept verbatim (``s.duration``,
# the no-op counter-name conditional and all).
# ---------------------------------------------------------------------- #

def _oracle_us(seconds):
    return round(seconds * 1e6, 3)


def oracle_perfetto_events(spans, samples=(), trace_records=()):
    events = []
    ranks = sorted({s.rank for s in spans}
                   | {r for _, _, r, _ in samples if r >= 0})
    for r in ranks:
        events.append({"ph": "M", "pid": 0, "tid": r, "ts": 0,
                       "name": "thread_name",
                       "args": {"name": f"rank {r}"}})
        events.append({"ph": "M", "pid": 0, "tid": r, "ts": 0,
                       "name": "thread_sort_index",
                       "args": {"sort_index": r}})
    for s in spans:
        events.append({
            "ph": "X", "pid": 0, "tid": s.rank, "name": s.name,
            "cat": s.name.split(".", 1)[0],
            "ts": _oracle_us(s.start), "dur": _oracle_us(s.duration),
            "args": {k: jsonable(v) for k, v in s.attrs},
        })
    for rec in trace_records:
        events.append({
            "ph": "i", "s": "t", "pid": 0, "tid": rec.rank,
            "name": rec.event, "cat": "trace", "ts": _oracle_us(rec.time),
            "args": {k: jsonable(v) for k, v in rec.detail},
        })
    for time, name, rank, value in samples:
        events.append({
            "ph": "C", "pid": rank if rank >= 0 else 0,
            "name": name if rank < 0 else f"{name}",
            "ts": _oracle_us(time),
            "args": {"value": jsonable(value)},
        })
    return events


def oracle_write_perfetto(path, recorder, trace=None):
    doc = {
        "displayTimeUnit": "ms",
        "traceEvents": oracle_perfetto_events(
            recorder.spans, recorder.registry.samples,
            trace if trace is not None else ()),
    }
    with open(path, "w", encoding="utf-8") as f:
        f.write(json.dumps(doc, sort_keys=True, separators=(",", ":")))
        f.write("\n")


def oracle_write_spans_jsonl(path, recorder):
    with open(path, "w", encoding="utf-8") as f:
        for s in recorder.spans:
            f.write(json.dumps({
                "rank": s.rank, "name": s.name, "start": s.start,
                "end": s.end, "depth": s.depth,
                "attrs": {k: jsonable(v) for k, v in s.attrs},
            }, sort_keys=True))
            f.write("\n")


def oracle_write_samples_jsonl(path, recorder):
    with open(path, "w", encoding="utf-8") as f:
        for time, name, rank, value in recorder.registry.samples:
            f.write(json.dumps({
                "time": time, "name": name, "rank": rank,
                "value": jsonable(value),
            }, sort_keys=True))
            f.write("\n")


def oracle_trace_to_jsonl(path, trace):
    def as_dict(rec):
        d = {"time": jsonable(rec.time), "rank": rec.rank,
             "event": rec.event}
        for k, v in rec.detail:
            d[k] = jsonable(v)
        return d

    with open(path, "w", encoding="utf-8") as f:
        for r in trace:
            f.write(json.dumps(as_dict(r), sort_keys=True))
            f.write("\n")


WRITERS = {
    "trace.perfetto.json": (
        lambda path, rec, trace: write_perfetto(path, rec, trace=trace),
        lambda path, rec, trace: oracle_write_perfetto(path, rec, trace)),
    "spans.jsonl": (
        lambda path, rec, trace: write_spans_jsonl(path, rec),
        lambda path, rec, trace: oracle_write_spans_jsonl(path, rec)),
    "samples.jsonl": (
        lambda path, rec, trace: write_samples_jsonl(path, rec),
        lambda path, rec, trace: oracle_write_samples_jsonl(path, rec)),
    "events.jsonl": (
        lambda path, rec, trace: trace.to_jsonl(path),
        lambda path, rec, trace: oracle_trace_to_jsonl(path, trace)),
}


def assert_writers_match_oracle(rec, trace):
    with tempfile.TemporaryDirectory() as tmp:
        for name, (new, old) in WRITERS.items():
            new(Path(tmp) / name, rec, trace)
            old(Path(tmp) / ("oracle-" + name), rec, trace)
            assert (Path(tmp) / name).read_bytes() \
                == (Path(tmp) / ("oracle-" + name)).read_bytes(), name


class OnlyRepr:
    """Something ``jsonable`` can only ``repr``."""

    def __repr__(self):
        return "<OnlyRepr é\x07>"


#: Strings the encoder must escape: non-ASCII, control characters,
#: quotes, and keys that collide with a trace record's fixed fields.
texts = st.one_of(
    st.text(max_size=6),
    st.sampled_from(["", "é", "\x00\x1f", " ퟿", '"\\', "naïve\n",
                     "time", "rank", "event", "sids"]))
floats = st.one_of(st.floats(allow_nan=True, allow_infinity=True),
                   st.sampled_from([0.0, -0.0, 1e-300, 1e22, 0.1]))
ints = st.integers(-2 ** 70, 2 ** 70)
atoms = st.one_of(
    st.none(), st.booleans(), ints, floats, texts,
    # float64 subclasses float; int64, float32 and bool_ subclass nothing
    # the encoder knows.
    floats.map(np.float64), st.integers(-2 ** 40, 2 ** 40).map(np.int64),
    st.integers(-99, 99).map(np.int32), st.booleans().map(np.bool_),
    st.floats(width=32, allow_nan=True).map(np.float32),
    st.just(OnlyRepr()))
int_lists = st.lists(st.integers(0, 10 ** 6), max_size=5)  # a sids payload
arrays = st.one_of(
    st.integers(-9, 9).map(np.array),                       # 0-d
    st.floats(-1, 1).map(np.array),
    st.lists(st.integers(-9, 9), max_size=4).map(np.array),
    st.lists(st.floats(-1, 1), min_size=4, max_size=4).map(
        lambda v: np.array(v).reshape(2, 2)),
    st.lists(st.booleans(), max_size=3).map(np.array))
values = st.recursive(
    st.one_of(atoms, int_lists, arrays,
              # a bool in an otherwise-int list, numpy ints in a list
              st.tuples(int_lists, st.booleans()).map(lambda p: p[0] + [p[1]]),
              st.lists(st.integers(0, 9).map(np.int64), max_size=3)),
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.lists(inner, max_size=3).map(tuple),
        st.dictionaries(
            st.one_of(texts, st.integers(-5, 5), st.booleans(), st.none(),
                      st.floats(-2, 2), st.just((1, 2))),
            inner, max_size=3)),
    max_leaves=6)
attr_dicts = st.dictionaries(texts, values, max_size=4)
#: Fixed numeric fields as the simulator makes them (float) and as a
#: hand-built record may (int).
times = st.one_of(st.floats(0, 1e4), st.integers(0, 10 ** 4))


@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_writers_equal_the_walk_everything_oracle(data):
    rec = Recorder(enabled=True)
    trace = Trace(enabled=True)
    for _ in range(data.draw(st.integers(0, 6))):
        start = data.draw(times)
        rec._spans.append(SpanRecord(
            rank=data.draw(st.integers(0, 3)),
            name=data.draw(st.sampled_from(
                ["io.read", "compute.advect", "comm.send", "seed.own",
                 "wait.message", "nodots", "é.x"])),
            start=start, end=start + data.draw(times),
            depth=data.draw(st.integers(0, 2)),
            attrs=tuple(sorted(data.draw(attr_dicts).items()))))
    for _ in range(data.draw(st.integers(0, 4))):
        rec.registry.samples.append(
            (data.draw(times), data.draw(texts),
             data.draw(st.integers(-1, 3)), data.draw(values)))
    for _ in range(data.draw(st.integers(0, 4))):
        trace._records.append(TraceRecord(
            time=data.draw(st.one_of(times, st.floats(0, 9).map(np.float64))),
            rank=data.draw(st.integers(0, 3)), event=data.draw(texts),
            detail=tuple(sorted(data.draw(attr_dicts).items()))))
    assert_writers_match_oracle(rec, trace)


@given(attrs=attr_dicts)
@settings(max_examples=60, deadline=None)
def test_recorded_and_emitted_attrs_equal_the_oracle(attrs):
    """The same through the live entry points: ``Recorder.span`` /
    ``Span.set`` / ``marker`` / ``Trace.emit`` freeze the attrs (sorting
    only when there are several), and a callback gauge is sampled."""
    attrs = {f"k{i}": v for i, v in enumerate(attrs.values())}
    rec = Recorder(enabled=True)
    trace = Trace(enabled=True)
    with rec.span(1, "io.read", **attrs) as sp:
        sp.set(zz=np.int64(3), **dict(list(attrs.items())[:1]))
    with rec.span(0, "compute.advect"):
        pass                                               # empty attrs
    rec.marker(2, "seed.own", **attrs)
    rec.marker(2, "seed.term")
    for i, v in enumerate(attrs.values()):
        rec.registry.add_series(f"series{i}", i - 1, lambda v=v: v)
    rec.registry.sample(0.5)
    trace.emit(0, "block_load", **attrs)
    trace.emit(3, "master_done")
    assert all(list(s.attrs) == sorted(s.attrs, key=lambda kv: kv[0])
               for s in rec.spans)
    assert_writers_match_oracle(rec, trace)


@pytest.mark.parametrize("algorithm", ["static", "ondemand", "hybrid"])
def test_live_run_artifacts_equal_the_oracle(small_problem, small_machine,
                                             algorithm):
    rec = Recorder(enabled=True, sample_interval=1.0)
    trace = Trace(enabled=True)
    run_streamlines(small_problem, algorithm=algorithm,
                    machine=small_machine, obs=rec, trace=trace)
    assert rec.spans and rec.registry.samples and len(trace)
    assert_writers_match_oracle(rec, trace)
