"""CLI tests: ``repro slowest`` / ``repro streamline``, pre-provenance
trace compatibility, and the broken-pipe guard across report commands."""

import json
import os
import sys

import pytest

from repro.cli import main

ARGS = ["trace", "astro", "--seeding", "sparse", "--algorithm", "hybrid",
        "--ranks", "8", "--scale", "0.1"]

RUN_NAME = "astro-sparse-hybrid-8"


@pytest.fixture(scope="module")
def trace_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("traces")
    assert main(ARGS + ["--out", str(out)]) == 0
    return out / RUN_NAME


@pytest.fixture(scope="module")
def old_trace_dir(trace_dir, tmp_path_factory):
    """The same trace as recorded before per-streamline provenance:
    no ``seed.*`` markers, no ``sids`` attrs — same schema otherwise."""
    out = tmp_path_factory.mktemp("old") / RUN_NAME
    out.mkdir()
    for name in ("run.json", "samples.jsonl"):
        (out / name).write_bytes((trace_dir / name).read_bytes())
    with open(out / "spans.jsonl", "w", encoding="utf-8") as f:
        for line in (trace_dir / "spans.jsonl").read_text().splitlines():
            d = json.loads(line)
            if d["name"].startswith("seed."):
                continue
            d.get("attrs", {}).pop("sids", None)
            f.write(json.dumps(d, sort_keys=True) + "\n")
    return out


# ---------------------------------------------------------------------- #
# repro slowest / repro streamline
# ---------------------------------------------------------------------- #

def test_slowest_reports_top_seeds(trace_dir, capsys):
    assert main(["slowest", str(trace_dir), "--top", "3"]) == 0
    out = capsys.readouterr().out
    assert "slowest 3 of" in out
    header, *rows = [l for l in out.splitlines() if l][1:]
    for kind in ("advect", "load", "queued", "handoff", "inflight"):
        assert kind in header
    # Dense sparse-astro hybrid runs always ping-pong some seeds.
    assert "ping-pong" in out


def test_slowest_writes_seed_perfetto(trace_dir, tmp_path, capsys):
    perf = tmp_path / "seeds.perfetto.json"
    assert main(["slowest", str(trace_dir), "--top", "2",
                 "--perfetto", str(perf)]) == 0
    capsys.readouterr()
    doc = json.loads(perf.read_text())
    slices = [e for e in doc["traceEvents"] if e["ph"] == "X"]
    assert slices and {e["tid"] for e in slices} <= {
        e["args"]["sid"] for e in slices} | {e["tid"] for e in slices}
    assert len({e["tid"] for e in slices}) == 2  # one track per seed


def test_streamline_lifecycle_table(trace_dir, capsys):
    assert main(["streamline", str(trace_dir), "0"]) == 0
    out = capsys.readouterr().out
    assert "streamline 0:" in out
    assert "birth" in out and "termination" in out
    assert "kind" in out


def test_streamline_unknown_sid_exits_2(trace_dir, capsys):
    assert main(["streamline", str(trace_dir), "99999"]) == 2
    assert "no lineage for seed 99999" in capsys.readouterr().err


def test_slowest_missing_dir_exits_2(tmp_path, capsys):
    assert main(["slowest", str(tmp_path / "nope")]) == 2
    assert "not found" in capsys.readouterr().err


# ---------------------------------------------------------------------- #
# Pre-provenance traces stay loadable (trace-schema compatibility)
# ---------------------------------------------------------------------- #

def test_old_trace_analyze_disables_lineage_cleanly(old_trace_dir, capsys):
    assert main(["analyze", str(old_trace_dir)]) == 0
    out = capsys.readouterr().out
    assert "critical path" in out
    assert "no per-seed provenance" in out


def test_old_trace_slowest_explains_and_exits_zero(old_trace_dir, capsys):
    assert main(["slowest", str(old_trace_dir)]) == 0
    assert "no per-seed provenance" in capsys.readouterr().out


def test_old_trace_streamline_exits_2(old_trace_dir, capsys):
    assert main(["streamline", str(old_trace_dir), "0"]) == 2
    assert "no per-seed provenance" in capsys.readouterr().err


def test_old_vs_new_trace_diff_skips_seed_metrics(trace_dir,
                                                  old_trace_dir, capsys):
    # Identical run, one side without seed provenance: the seed_latency
    # metrics exist on one side only, so they are not compared and the
    # diff passes.
    assert main(["diff", str(old_trace_dir), str(trace_dir), "--all"]) == 0
    out = capsys.readouterr().out
    assert "wall_clock" in out
    assert "seed_latency" not in out


def test_new_vs_new_trace_diff_gates_seed_latency(trace_dir, capsys):
    assert main(["diff", str(trace_dir), str(trace_dir), "--all"]) == 0
    out = capsys.readouterr().out
    assert "seed_latency.p95" in out


# ---------------------------------------------------------------------- #
# Broken-pipe guard (`repro ... | head` must exit 0, no warnings)
# ---------------------------------------------------------------------- #

def _run_into_broken_pipe(monkeypatch, argv):
    """Invoke main() with stdout connected to a pipe whose read end is
    already closed — what `repro ... | head -1` leaves behind."""
    r, w = os.pipe()
    os.close(r)
    stream = os.fdopen(w, "w")
    monkeypatch.setattr(sys, "stdout", stream)
    try:
        return main(argv)
    finally:
        monkeypatch.undo()
        try:
            stream.close()
        except OSError:
            pass


def test_analyze_broken_pipe(trace_dir, monkeypatch):
    assert _run_into_broken_pipe(
        monkeypatch, ["analyze", str(trace_dir)]) == 0


def test_slowest_broken_pipe(trace_dir, monkeypatch):
    assert _run_into_broken_pipe(
        monkeypatch, ["slowest", str(trace_dir)]) == 0


def test_streamline_broken_pipe(trace_dir, monkeypatch):
    assert _run_into_broken_pipe(
        monkeypatch, ["streamline", str(trace_dir), "0"]) == 0


def test_diff_broken_pipe(trace_dir, monkeypatch):
    assert _run_into_broken_pipe(
        monkeypatch,
        ["diff", str(trace_dir), str(trace_dir), "--all"]) == 0


def test_trace_broken_pipe(tmp_path, monkeypatch):
    assert _run_into_broken_pipe(
        monkeypatch, ARGS + ["--out", str(tmp_path)]) == 0
