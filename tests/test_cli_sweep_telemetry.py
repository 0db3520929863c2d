"""CLI surface of executor telemetry: ``repro sweep --telemetry DIR``."""

import json

from repro.cli import main

SWEEP_ARGS = ["sweep", "--dataset", "astro", "--seeding", "sparse",
              "--algorithm", "static,ondemand", "--ranks", "4",
              "--scale", "0.02"]


def test_sweep_telemetry_writes_valid_artifacts(tmp_path, capsys):
    from repro.exec import load_events, validate_events

    telem = tmp_path / "telem"
    assert main(SWEEP_ARGS + ["--jobs", "2",
                              "--telemetry", str(telem)]) == 0
    captured = capsys.readouterr()
    assert "telemetry:" in captured.err
    events = load_events(telem / "events.jsonl")
    assert validate_events(events) == []
    retires = [e for e in events if e["event"] == "retire"]
    assert len(retires) == 2
    assert all(e["host"]["wall_s"] > 0 for e in retires)
    util = (telem / "utilization.txt").read_text()
    assert "per-worker timeline" in util
    assert "makespan" in util


def test_sweep_output_identical_with_and_without_telemetry(tmp_path,
                                                           capsys):
    import repro.analysis.experiments as exp

    assert main(SWEEP_ARGS + ["--jobs", "2",
                              "--out", str(tmp_path / "plain.json")]) == 0
    plain_out = capsys.readouterr().out
    exp.clear_cache()
    assert main(SWEEP_ARGS + ["--jobs", "2",
                              "--out", str(tmp_path / "telem.json"),
                              "--telemetry",
                              str(tmp_path / "telem")]) == 0
    telem_out = capsys.readouterr().out
    # stdout table and JSON artifact are byte-identical: telemetry
    # never perturbs deterministic outputs.
    assert plain_out == telem_out
    assert ((tmp_path / "plain.json").read_bytes()
            == (tmp_path / "telem.json").read_bytes())
    assert "host" not in json.loads((tmp_path / "telem.json").read_text())
