"""Executor telemetry: event log invariants, host piping, byte-identity."""

import io
import json

import pytest

from repro.analysis.experiments import clear_cache
from repro.exec import (
    MODE_BENCH,
    OUTCOME_CRASHED,
    OUTCOME_OK,
    OUTCOME_TIMEOUT,
    JsonlTelemetry,
    RunSpec,
    SweepExecutor,
    grid_specs,
    load_events,
    merge_run_entries,
    telemetry_report,
    text_progress,
    utilization_table,
    validate_events,
    worker_intervals,
    worker_timeline_text,
)
from repro.exec.telemetry import makespan
from repro.exec.worker import FAULT_ENV


def _sweep(tmp_path, specs, jobs, **kw):
    sink = JsonlTelemetry(tmp_path / "events.jsonl")
    with sink:
        outcomes = SweepExecutor(jobs=jobs, telemetry=sink, **kw).run(specs)
    return outcomes, load_events(sink.path)


# --------------------------------------------------------------------- #
# The acceptance contract: valid event log from a real parallel sweep
# --------------------------------------------------------------------- #

def test_parallel_sweep_event_log_is_valid(tmp_path):
    specs = grid_specs(["astro"], ["sparse"],
                       ["static", "ondemand", "hybrid"], [4], scale=0.02)
    outcomes, events = _sweep(tmp_path, specs, jobs=4)
    assert [o.status for o in outcomes] == [OUTCOME_OK] * 3
    assert validate_events(events) == []
    kinds = [e["event"] for e in events]
    assert kinds[0] == "sweep_begin"
    assert kinds[-1] == "sweep_end"
    assert kinds.count("retire") == len(specs)
    assert kinds.count("start") == kinds.count("finish") == 3
    # Per-worker busy intervals never overlap.
    for worker, ivs in worker_intervals(events).items():
        ordered = sorted(ivs, key=lambda iv: iv.start)
        for prev, cur in zip(ordered, ordered[1:]):
            assert cur.start >= prev.end - 1e-9


def test_inline_serial_sweep_emits_events_too(tmp_path):
    specs = grid_specs(["astro"], ["sparse"], ["ondemand"], [4],
                       scale=0.02)
    outcomes, events = _sweep(tmp_path, specs, jobs=1)
    assert outcomes[0].status == OUTCOME_OK
    assert validate_events(events) == []
    assert all(e.get("worker", 0) == 0 for e in events)


def test_events_are_one_json_object_per_line(tmp_path):
    specs = grid_specs(["astro"], ["sparse"], ["ondemand"], [4],
                       scale=0.02)
    _sweep(tmp_path, specs, jobs=2)
    lines = (tmp_path / "events.jsonl").read_text().splitlines()
    events = [json.loads(line) for line in lines]
    assert all("t" in event for event in events)
    assert [e["event"] for e in events] == [
        "sweep_begin", "start", "finish", "retire", "sweep_end"]


def test_outcomes_carry_child_host_metrics(tmp_path):
    specs = grid_specs(["astro"], ["sparse"], ["ondemand"], [4],
                       scale=0.02, mode=MODE_BENCH)
    outcomes, events = _sweep(tmp_path, specs, jobs=2)
    [o] = outcomes
    assert o.host is not None
    assert o.host["wall_s"] > 0.0
    # Worker tasks label the canonical phases.
    assert {"setup", "advect", "merge"} <= set(o.host["phases"])
    [retire] = [e for e in events if e["event"] == "retire"]
    assert retire["host"]["phases"].keys() == o.host["phases"].keys()


def test_host_is_collected_with_no_sink():
    """One execution path: every run is probed, inline or in a worker,
    listened to or not."""
    specs = grid_specs(["astro"], ["sparse"], ["ondemand"], [4],
                       scale=0.02, mode=MODE_BENCH)
    for jobs in (1, 2):
        [o] = SweepExecutor(jobs=jobs).run(specs)
        assert o.status == OUTCOME_OK
        assert isinstance(o.host, dict) and o.host["wall_s"] > 0.0
        assert {"setup", "advect", "merge"} <= set(o.host["phases"])


# --------------------------------------------------------------------- #
# Satellite 3: deterministic artifacts byte-identical telemetry on/off
# --------------------------------------------------------------------- #

def test_merged_artifact_bytes_unchanged_by_telemetry(tmp_path):
    """No sink, a JSONL sink, and progress + JSONL merge to one byte
    string."""
    specs = grid_specs(["astro"], ["sparse"], ["static", "hybrid"], [4],
                       scale=0.02, mode=MODE_BENCH)

    def merged(outcomes):
        return json.dumps(merge_run_entries(outcomes), sort_keys=True,
                          indent=2).encode()

    plain = merged(SweepExecutor(jobs=2).run(specs))
    clear_cache()
    with_telem, events = _sweep(tmp_path, specs, jobs=2)
    assert validate_events(events) == []
    assert merged(with_telem) == plain
    clear_cache()
    buf = io.StringIO()
    with JsonlTelemetry(tmp_path / "both.jsonl") as sink:
        both = SweepExecutor(jobs=2, telemetry=[text_progress(buf), sink]
                             ).run(specs)
    assert validate_events(load_events(sink.path)) == []
    assert merged(both) == plain
    assert buf.getvalue().count(" real") == len(specs)


# --------------------------------------------------------------------- #
# Failure paths still produce a complete lifecycle
# --------------------------------------------------------------------- #

def test_timeout_emits_finish_and_retire(tmp_path, monkeypatch):
    monkeypatch.setenv(FAULT_ENV, "hang:astro-sparse-ondemand")
    spec = RunSpec(dataset="astro", seeding="sparse",
                   algorithm="ondemand", n_ranks=4, scale=0.02)
    outcomes, events = _sweep(tmp_path, [spec], jobs=2, timeout=1.0)
    assert outcomes[0].status == OUTCOME_TIMEOUT
    assert validate_events(events) == []
    [retire] = [e for e in events if e["event"] == "retire"]
    assert retire["status"] == OUTCOME_TIMEOUT
    assert "host" not in retire  # the child never reported


def test_crash_emits_finish_and_retire(tmp_path, monkeypatch):
    monkeypatch.setenv(FAULT_ENV, "crash:astro-sparse-static")
    specs = grid_specs(["astro"], ["sparse"], ["static", "ondemand"],
                       [4], scale=0.02)
    outcomes, events = _sweep(tmp_path, specs, jobs=2)
    assert outcomes[0].status == OUTCOME_CRASHED
    assert outcomes[1].status == OUTCOME_OK
    assert validate_events(events) == []
    retires = {e["run"]: e for e in events if e["event"] == "retire"}
    assert retires["astro-sparse-static-4"]["status"] == OUTCOME_CRASHED


# --------------------------------------------------------------------- #
# Analyzers
# --------------------------------------------------------------------- #

def _synthetic_events():
    return [
        {"event": "sweep_begin", "t": 0.0, "jobs": 2, "runs": 3},
        {"event": "start", "t": 0.1, "run": "a", "idx": 0, "worker": 0},
        {"event": "start", "t": 0.2, "run": "b", "idx": 1, "worker": 1},
        {"event": "finish", "t": 2.0, "run": "a", "idx": 0, "worker": 0},
        {"event": "retire", "t": 2.1, "run": "a", "idx": 0, "worker": 0,
         "status": "ok", "elapsed": 2.0},
        {"event": "start", "t": 2.2, "run": "c", "idx": 2, "worker": 0},
        {"event": "finish", "t": 3.0, "run": "b", "idx": 1, "worker": 1},
        {"event": "retire", "t": 3.0, "run": "b", "idx": 1, "worker": 1,
         "status": "ok", "elapsed": 2.8},
        {"event": "finish", "t": 4.0, "run": "c", "idx": 2, "worker": 0},
        {"event": "retire", "t": 4.0, "run": "c", "idx": 2, "worker": 0,
         "status": "ok", "elapsed": 1.8},
        {"event": "sweep_end", "t": 4.0, "runs": 3},
    ]


def test_validate_accepts_synthetic_log():
    assert validate_events(_synthetic_events()) == []


def test_validate_flags_broken_logs():
    events = _synthetic_events()
    assert any("unknown kind" in p for p in validate_events(
        events + [{"event": "bogus", "t": 1.0}]))
    assert any("bad timestamp" in p for p in validate_events(
        events + [{"event": "start", "t": -1.0, "run": "z"}]))
    # Drop one retire: count no longer matches the announcement.
    short = [e for e in events
             if not (e["event"] == "retire" and e["run"] == "c")]
    assert any("retire count 2 != announced run count 3" in p
               for p in validate_events(short))
    # Same worker, overlapping runs.
    overlap = [
        {"event": "sweep_begin", "t": 0.0, "jobs": 1, "runs": 2},
        {"event": "start", "t": 0.0, "run": "a", "idx": 0, "worker": 0},
        {"event": "start", "t": 0.5, "run": "b", "idx": 1, "worker": 0},
        {"event": "finish", "t": 1.0, "run": "a", "idx": 0, "worker": 0},
        {"event": "retire", "t": 1.0, "run": "a", "idx": 0, "worker": 0,
         "status": "ok"},
        {"event": "finish", "t": 1.5, "run": "b", "idx": 1, "worker": 0},
        {"event": "retire", "t": 1.5, "run": "b", "idx": 1, "worker": 0,
         "status": "ok"},
    ]
    assert any("overlapping runs" in p for p in validate_events(overlap))
    # A lifecycle must open with ``start``.
    orphan = [{"event": "retire", "t": 1.0, "run": "x", "status": "ok"}]
    assert any("not 'start'" in p for p in validate_events(orphan))


def _row(text, worker):
    """The cells of one worker's row of the per-slot table."""
    return next(ln.split() for ln in text.splitlines()
                if ln.split()[:1] == [str(worker)])


def test_utilization_table_numbers():
    text = utilization_table(_synthetic_events())
    assert "makespan 4.000 s; 3 runs retired on 2 declared slot(s); " \
        "pool utilization 82.5%" in text
    # worker, node, speed, runs, requeues, busy, util
    assert _row(text, 0) == ["0", "local", "1.00", "2", "0", "3.800",
                             "95.0%"]
    assert _row(text, 1) == ["1", "local", "1.00", "1", "0", "2.800",
                             "70.0%"]
    assert "per node: local 82.5%" in text
    assert "lag" not in text


def test_utilization_counts_declared_slots_and_retired_runs():
    """Idle declared slots count against the pool, and a requeued
    attempt is a requeue, not a run."""
    events = [
        {"event": "sweep_begin", "t": 0.0, "jobs": 3, "runs": 2,
         "nodes": [{"node": "n1", "slots": 2, "speed": 1.5},
                   {"node": "n2", "slots": 1, "speed": 0.5}]},
        {"event": "start", "t": 0.0, "run": "a", "worker": 0,
         "node": "n1"},
        {"event": "start", "t": 0.0, "run": "b", "worker": 2,
         "node": "n2"},
        {"event": "requeue", "t": 1.0, "run": "b", "worker": 2,
         "node": "n2", "attempt": 1, "target": "remote"},
        {"event": "finish", "t": 2.0, "run": "a", "worker": 0,
         "node": "n1"},
        {"event": "retire", "t": 2.0, "run": "a", "worker": 0,
         "node": "n1", "status": "ok", "elapsed": 2.0},
        {"event": "start", "t": 2.0, "run": "b", "worker": 0,
         "node": "n1"},
        {"event": "finish", "t": 4.0, "run": "b", "worker": 0,
         "node": "n1"},
        {"event": "retire", "t": 4.0, "run": "b", "worker": 0,
         "node": "n1", "status": "ok", "elapsed": 2.0},
        {"event": "node_lost", "t": 4.0, "node": "n2", "slots": 1,
         "reason": "gone"},
        {"event": "sweep_end", "t": 4.0, "runs": 2},
    ]
    assert validate_events(events) == []
    text = utilization_table(events)
    retires = sum(e["event"] == "retire" for e in events)
    assert f"{retires} runs retired on 3 declared slot(s)" in text
    # busy 4 + 1 over 3 slots x 4 s — not over the 2 slots that ran.
    assert "pool utilization 41.7%" in text
    assert _row(text, 0) == ["0", "n1", "1.50", "2", "0", "4.000",
                             "100.0%"]
    assert _row(text, 2) == ["2", "n2", "0.50", "0", "1", "1.000",
                             "25.0%"]
    assert "per node: n1 50.0%, n2 25.0%; lost: n2" in text


def test_worker_timeline_and_report():
    events = _synthetic_events()
    timeline = worker_timeline_text(events, width=40)
    assert "w0" in timeline and "w1" in timeline
    assert "=a" in timeline  # glyph legend
    assert makespan(events) == 4.0
    report = telemetry_report(events)
    assert report == (utilization_table(events) + "\n\n"
                      + worker_timeline_text(events))


def test_analyzers_handle_empty_logs():
    assert "(no completed runs" in utilization_table([])
    assert "(no completed runs" in worker_timeline_text([])
    assert telemetry_report([]).count("(no completed runs") == 2


def test_load_events_rejects_bad_lines(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"event": "sweep_begin", "t": 0.0}\nnot json\n')
    with pytest.raises(ValueError, match="bad.jsonl:2"):
        load_events(path)


# --------------------------------------------------------------------- #
# Satellite 1: single-writer per-worker progress renderer
# --------------------------------------------------------------------- #

def test_text_progress_worker_labels_and_eta(tmp_path):
    buf = io.StringIO()
    specs = grid_specs(["astro"], ["sparse"],
                       ["static", "ondemand", "hybrid"], [4], scale=0.02)
    sink = JsonlTelemetry(tmp_path / "events.jsonl")
    with sink:
        outcomes = SweepExecutor(
            jobs=2, telemetry=[text_progress(buf), sink]).run(specs)
    assert all(o.ok for o in outcomes)
    lines = buf.getvalue().splitlines()
    # One start + one done line per run, each a complete line.
    starts = [ln for ln in lines if ": start (" in ln]
    dones = [ln for ln in lines if "s real" in ln]
    assert len(starts) == 3 and len(dones) == 3
    assert all(ln.startswith("  [w") for ln in starts)
    # Worker labels stay within the pool width and match the event log.
    events = load_events(sink.path)
    used = {e["worker"] for e in events if e["event"] == "start"}
    assert used <= {0, 1}
    for ln in starts:
        assert ln.split("]")[0].strip("  [w") in {"0", "1"}
    # ETA appears while runs remain, never on the last done line.
    assert any("ETA ~" in ln for ln in dones[:-1])
    assert "ETA ~" not in dones[-1]


def test_text_progress_renders_one_line_per_transition():
    """One line per start / requeue / retire, none for the other kinds;
    a failed retire shows its status; no ETA once nothing remains."""
    buf = io.StringIO()
    sink = text_progress(buf)
    events = [
        {"event": "sweep_begin", "t": 0.0, "jobs": 2, "runs": 2},
        {"event": "start", "t": 0.0, "run": "a", "worker": 0,
         "node": "n1"},
        {"event": "start", "t": 0.0, "run": "b", "worker": 1,
         "node": "local"},
        {"event": "requeue", "t": 1.0, "run": "a", "worker": 0,
         "node": "n1", "attempt": 1, "target": "remote"},
        {"event": "finish", "t": 2.0, "run": "b", "worker": 1},
        {"event": "retire", "t": 2.0, "run": "b", "worker": 1,
         "node": "local", "status": "ok", "elapsed": 2.0},
        {"event": "start", "t": 2.0, "run": "a", "worker": 1,
         "node": "local"},
        {"event": "finish", "t": 3.0, "run": "a", "worker": 1},
        {"event": "retire", "t": 3.0, "run": "a", "worker": 1,
         "node": "local", "status": "crashed", "elapsed": 1.0},
        {"event": "sweep_end", "t": 3.0, "runs": 2},
    ]
    for event in events:
        sink.emit(event)
    lines = buf.getvalue().splitlines()
    assert lines == [
        "  [w0@n1] a: start (1 running, 1 queued)",
        "  [w1] b: start (2 running, 0 queued)",
        "  [w0@n1] a: REQUEUED (worker died; retrying)",
        "    [1/2] [w1] b: status=ok 2.0s real ETA ~1s",
        "  [w1] a: start (1 running, 0 queued)",
        "    [2/2] [w1] a: status=crashed 1.0s real",
    ]
