"""Tests of the experiment harness, its run memo, and figure tables."""

import os

import pytest

from repro.analysis.experiments import run_experiment, sweep_dataset
from repro.analysis.report import (
    FIGURE_NUMBERS,
    figure_table,
    format_series,
    format_value,
)
from repro.analysis.scenarios import DATASETS, SEEDINGS, make_problem


TINY = dict(scale=0.02)  # a handful of seeds per scenario


def test_make_problem_validation():
    with pytest.raises(ValueError):
        make_problem("nope", "sparse")
    with pytest.raises(ValueError):
        make_problem("astro", "nope")
    with pytest.raises(ValueError):
        make_problem("astro", "sparse", scale=0)
    with pytest.raises(ValueError):
        make_problem("astro", "sparse", scale=float("inf"))


def test_all_scenarios_construct():
    for dataset in DATASETS:
        for seeding in SEEDINGS:
            p = make_problem(dataset, seeding, scale=0.02)
            assert p.n_seeds >= 4
            assert p.n_blocks == 512


def test_run_experiment_caches_in_memory():
    a = run_experiment("astro", "sparse", "ondemand", 4, **TINY)
    b = run_experiment("astro", "sparse", "ondemand", 4, **TINY)
    assert a is b  # exact cache hit


def test_metric_accessor():
    s = run_experiment("astro", "sparse", "ondemand", 4, **TINY)
    assert s.metric("wall_clock") == s.wall_clock
    assert s.metric("block_efficiency") == s.block_efficiency
    with pytest.raises(ValueError):
        s.metric("nonsense")


def test_sweep_covers_grid():
    out = sweep_dataset("astro", scale=0.02, rank_counts=(4, 8),
                        algorithms=("ondemand",), seedings=("sparse",))
    assert len(out) == 2
    assert {s.key.n_ranks for s in out} == {4, 8}


def test_figure_table_renders():
    summaries = sweep_dataset("astro", scale=0.02, rank_counts=(4,),
                              algorithms=("ondemand", "static"),
                              seedings=("sparse",))
    table = figure_table("astro", summaries, "wall_clock")
    assert "Figure 5" in table
    assert "ondemand (sparse)" in table
    assert "static (sparse)" in table


def test_format_value_oom():
    assert format_value("wall_clock", None) == "OOM"
    assert format_value("block_efficiency", 0.5) == "0.500"


def test_format_series_groups_and_sorts():
    summaries = sweep_dataset("astro", scale=0.02, rank_counts=(8, 4),
                              algorithms=("ondemand",),
                              seedings=("sparse",))
    series = format_series(summaries, "io_time")
    pts = series[("ondemand", "sparse")]
    assert [r for r, _ in pts] == [4, 8]
    with pytest.raises(ValueError):
        format_series(summaries, "bogus")


def test_every_figure_number_mapped():
    assert set(FIGURE_NUMBERS.values()) == set(range(5, 17))
    for dataset in DATASETS:
        metrics = [m for (d, m) in FIGURE_NUMBERS if d == dataset]
        assert len(metrics) == 4


def test_sweep_dataset_jobs_zero_means_auto(monkeypatch):
    """jobs=0 must fan out (one worker per CPU), not silently run
    serial — regression guard for the old `if jobs > 1` test."""
    import repro.analysis.experiments as exp

    seen = {}

    class FakeExecutor:
        def __init__(self, jobs, **kw):
            seen["jobs"] = jobs

        def run(self, specs):
            raise RuntimeError("stop here")

    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    monkeypatch.setattr("repro.exec.SweepExecutor", FakeExecutor)
    with pytest.raises(RuntimeError, match="stop here"):
        exp.sweep_dataset("astro", rank_counts=(4,),
                          algorithms=("ondemand",),
                          seedings=("sparse",), jobs=0, scale=0.02)
    assert seen["jobs"] == 3
