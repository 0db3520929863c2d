"""Additional tests of report formatting edge cases."""

import pytest

from repro.analysis.experiments import ExperimentKey, RunSummary
from repro.analysis.report import (critical_path_context_table,
                                  figure_table, format_series,
                                  format_value)


def make_summary(algorithm="static", seeding="sparse", n_ranks=16,
                 status="ok", **metrics):
    key = ExperimentKey(dataset="astro", seeding=seeding,
                        algorithm=algorithm, n_ranks=n_ranks)
    base = dict(wall_clock=1.0, io_time=2.0, comm_time=0.5,
                block_efficiency=0.9)
    base.update(metrics)
    if status != "ok":
        return RunSummary(key=key, status=status)
    return RunSummary(key=key, status=status, **base)


def test_oom_cell_renders_in_table():
    summaries = [
        make_summary("static", n_ranks=16),
        make_summary("static", n_ranks=32, status="oom"),
    ]
    table = figure_table("astro", summaries, "wall_clock")
    assert "OOM" in table
    assert "1.000" in table


def test_missing_rank_renders_dash():
    summaries = [
        make_summary("static", n_ranks=16),
        make_summary("hybrid", n_ranks=32),
    ]
    table = figure_table("astro", summaries, "wall_clock")
    # static has no 32-rank point and hybrid no 16-rank point.
    assert "-" in table


def test_value_formats_per_metric():
    assert format_value("wall_clock", 1.23456) == "1.235"
    assert format_value("io_time", 12.345) == "12.35"
    assert format_value("comm_time", 0.00123) == "0.001"
    assert format_value("block_efficiency", 1.0) == "1.000"


def test_series_keys_cover_algorithm_and_seeding():
    summaries = [
        make_summary("static", "sparse"),
        make_summary("static", "dense"),
        make_summary("hybrid", "sparse"),
    ]
    series = format_series(summaries, "comm_time")
    assert set(series) == {("static", "sparse"), ("static", "dense"),
                           ("hybrid", "sparse")}


def test_table_header_names_figure_and_units():
    summaries = [make_summary()]
    t = figure_table("astro", summaries, "io_time")
    assert t.startswith("Figure 6")
    assert "[s]" in t
    t2 = figure_table("astro", summaries, "block_efficiency")
    assert "[" not in t2.splitlines()[0]  # dimensionless


def test_critical_path_context_table():
    entries = {
        "astro-dense-static-32": {
            "status": "ok", "wall_clock": 10.0,
            "critical_path": {"compute": 6.0, "io": 3.0, "comm": 0.5,
                              "idle": 0.5}},
        "astro-dense-oom-32": {"status": "oom"},
    }
    table = critical_path_context_table(entries)
    assert "astro-dense-static-32" in table
    assert "10.000" in table
    assert "60.0%" in table       # compute share of wall
    assert "OOM" in table         # failed run renders as its status
