"""CLI smoke tests for ``python -m repro trace``."""

import contextlib
import io
import json

import pytest

from repro.cli import build_parser, main

ARGS = ["trace", "astro", "--seeding", "sparse", "--algorithm", "hybrid",
        "--ranks", "8", "--scale", "0.1"]

ARTIFACTS = ("trace.perfetto.json", "spans.jsonl", "samples.jsonl",
             "events.jsonl", "run.json")


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """One ``repro trace`` run shared by the tests that only read it:
    ``(root, out_dir, what it printed)``."""
    root = tmp_path_factory.mktemp("trace")
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        assert main(ARGS + ["--out", str(root)]) == 0
    return root, root / "astro-sparse-hybrid-8", printed.getvalue()


def test_trace_help_smoke():
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(["trace", "--help"])
    assert exc.value.code == 0


def test_trace_writes_artifacts_and_reports(traced):
    _root, out_dir, printed = traced
    for name in ARTIFACTS:
        assert (out_dir / name).is_file(), name

    doc = json.loads((out_dir / "trace.perfetto.json").read_text())
    assert doc["traceEvents"], "empty Perfetto trace"
    for line in (out_dir / "samples.jsonl").read_text().splitlines():
        json.loads(line)

    assert "wall clock" in printed
    assert "timeline" in printed
    assert "wall-clock decomposition per rank" in printed
    assert "wait:" in printed


def test_trace_artifacts_byte_identical_across_runs(traced, tmp_path, capsys):
    assert main(ARGS + ["--out", str(tmp_path / "b")]) == 0
    capsys.readouterr()
    for name in ARTIFACTS:
        a = (traced[1] / name).read_bytes()
        b = (tmp_path / "b" / "astro-sparse-hybrid-8" / name).read_bytes()
        assert a == b, f"{name} differs between identical runs"


def test_trace_masters_labelled_in_wait_table(traced):
    printed = traced[2]
    # Satellite: hybrid master ranks appear in the wall-clock
    # decomposition with an explicit role, not silently mixed in.
    assert "role" in printed
    assert "master" in printed
    assert "slave" in printed


def test_trace_invalid_scenario_exits_cleanly(tmp_path, capsys):
    # argparse rejects unknown dataset names outright ...
    with pytest.raises(SystemExit) as exc:
        main(["trace", "nonsense", "--out", str(tmp_path)])
    assert exc.value.code == 2
    # ... and so does a bad scale, with a message instead of a
    # traceback.
    with pytest.raises(SystemExit) as exc:
        main(ARGS + ["--out", str(tmp_path), "--scale", "0"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "argument --scale" in err
    assert "Traceback" not in err


def test_slowest_and_streamline_tile_only_what_they_print(traced, tmp_path,
                                                          capsys,
                                                          monkeypatch):
    """``slowest --top K`` ranks by marker-only latency and tiles K
    seeds, ``streamline SID`` tiles one — and both print, and write to
    ``--perfetto``, exactly what tiling every seed first gives (the
    reference built here from ``seed_lineages``, as both commands did)."""
    import repro.obs.lineage as lineage_mod
    from repro.obs import (lifecycle_table, seed_lineages,
                           seed_perfetto_json, slowest_seeds, slowest_table)
    from repro.obs.analyze import load_spans_jsonl

    trace_dir = traced[1]
    full = seed_lineages(load_spans_jsonl(trace_dir / "spans.jsonl"))

    tiled = []
    real_segments = lineage_mod._episode_segments

    def counting(a, b, rank, *rest):
        tiled.append(rank)
        return real_segments(a, b, rank, *rest)

    monkeypatch.setattr(lineage_mod, "_episode_segments", counting)

    top = 3
    picks = slowest_seeds(full, top=top)
    assert main(["slowest", str(trace_dir), "--top", str(top),
                 "--perfetto", str(tmp_path / "slowest.json")]) == 0
    assert capsys.readouterr().out == (
        f"slowest {top} of {len(full)} seeds (birth->termination latency, "
        f"per-segment breakdown):\n{slowest_table(full, top=top)}\n")
    assert (tmp_path / "slowest.json").read_text() \
        == seed_perfetto_json(picks) + "\n"
    episodes = [sum(b > a for a, b, _r in ln.episodes) for ln in full]
    assert len(tiled) == sum(
        n for ln, n in zip(full, episodes) if ln in picks) < sum(episodes)

    sid = picks[-1].sid
    del tiled[:]
    assert main(["streamline", str(trace_dir), str(sid),
                 "--perfetto", str(tmp_path / "one.json")]) == 0
    assert capsys.readouterr().out == lifecycle_table(full[sid]) + "\n"
    assert (tmp_path / "one.json").read_text() \
        == seed_perfetto_json([full[sid]]) + "\n"
    assert len(tiled) == episodes[sid]
