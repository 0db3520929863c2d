"""The sweep's one dispatch order (heaviest problem first by the static
cost model) and the warm worker pool."""

import importlib.util
import itertools
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.analysis.experiments import _CACHE, clear_cache, sweep_dataset
from repro.exec import (
    OUTCOME_CRASHED,
    OUTCOME_OK,
    OUTCOME_OOM,
    JsonlTelemetry,
    RunSpec,
    SweepExecutor,
    dry_run_table,
    grid_specs,
    load_events,
    model_estimate,
    plan_schedule,
    validate_events,
)
from repro.exec.worker import FAULT_ENV
from tests.test_exec_sweep import _merged_json, hostbench_specs

REPO = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def bench_mod():
    spec = importlib.util.spec_from_file_location(
        "bench_trajectory_sched",
        REPO / "benchmarks" / "bench_trajectory.py")
    mod = importlib.util.module_from_spec(spec)
    sys.modules.setdefault("bench_trajectory_sched", mod)
    spec.loader.exec_module(mod)
    return mod


def _spec(dataset="astro", seeding="sparse", algorithm="ondemand",
          n_ranks=4, **kw):
    return RunSpec(dataset=dataset, seeding=seeding, algorithm=algorithm,
                   n_ranks=n_ranks, scale=kw.pop("scale", 0.02), **kw)


class _ListSink(list):
    """A telemetry sink that keeps the events in memory."""

    emit = list.append


def _problem_totals(specs):
    totals = {}
    for spec in specs:
        totals[spec.problem_key] = (totals.get(spec.problem_key, 0.0)
                                    + model_estimate(spec))
    return totals


# --------------------------------------------------------------------- #
# Static cost model
# --------------------------------------------------------------------- #

def test_model_orders_by_seed_count():
    dense = _spec(dataset="thermal", seeding="dense", scale=1.0)
    sparse = _spec(dataset="thermal", seeding="sparse", scale=1.0)
    assert model_estimate(dense) > model_estimate(sparse)


def test_model_scales_with_scale_and_discounts_probe():
    big = _spec(scale=1.0)
    small = _spec(scale=0.1)
    assert model_estimate(big) > model_estimate(small)
    probe = _spec(scale=1.0, oom_probe=True)
    assert model_estimate(probe) < model_estimate(big)
    assert model_estimate(probe) > 0.0


# --------------------------------------------------------------------- #
# The plan
# --------------------------------------------------------------------- #

def test_lpt_plan_sorts_longest_first_deterministically():
    specs = [_spec(algorithm=a) for a in ("static", "ondemand", "hybrid")]
    plan = plan_schedule(specs)
    assert [p.idx for p in plan] == [2, 0, 1]  # hybrid > static > ondemand
    assert [p.cost for p in plan] == [model_estimate(specs[i])
                                      for i in (2, 0, 1)]
    # Ties break on original index: stable and deterministic.
    tied = [_spec(tag=tag) for tag in ("a", "b", "c")]
    assert [p.idx for p in plan_schedule(tied)] == [0, 1, 2]


def _grouped(specs, key):
    """``specs`` with each problem's runs back to back: problems by
    ``key`` of their runs, runs by ``key`` inside each."""
    groups = {}
    for spec in specs:
        groups.setdefault(spec.problem_key, []).append(spec)
    batches = [sorted(b, key=key) for b in groups.values()]
    batches.sort(key=lambda b: key(b[0]))
    return [spec for b in batches for spec in b]


def _shuffled_hostbench():
    specs = hostbench_specs()  # 24 specs, 4 problems
    return [specs[i] for i in np.random.default_rng(3).permutation(24)]


def _arranged(order):
    """The shuffled hostbench grid in the order a former dispatch
    policy ran it: ``fifo`` problems by first appearance and spec order
    inside each; ``lpt`` today's plan (LPT on the model); ``auto`` LPT
    on a recorded history unrelated to the model."""
    specs = _shuffled_hostbench()
    if order == "fifo":
        first = {}
        for i, spec in enumerate(specs):
            first.setdefault(spec.problem_key, i)
        return _grouped(specs, lambda s: (first[s.problem_key],
                                          specs.index(s)))
    if order == "lpt":
        return [p.spec for p in plan_schedule(specs)]
    seconds = {s.name: 0.5 + (7 * i) % 11 for i, s in enumerate(specs)}
    totals = {}
    for s in specs:
        totals[s.problem_key] = totals.get(s.problem_key, 0.0) \
            + seconds[s.name]
    return _grouped(specs, lambda s: (-totals[s.problem_key],
                                      -seconds[s.name], s.name))


@pytest.mark.parametrize("order", ["auto", "fifo", "lpt"])
def test_plan_keeps_the_specs_of_a_problem_together(order):
    """A worker holds one problem's traced curves at a time, so however
    the input interleaves problems — shuffled, or already in the order
    a removed ``fifo``/``lpt``/``auto`` policy dispatched it — the plan
    dispatches each problem's specs back to back, heaviest problem
    first and longest run first inside each, the same plan up to ties
    for every input order, and ``--dry-run`` prints that order."""
    specs = _arranged(order)
    plan = plan_schedule(specs)
    assert sorted(p.idx for p in plan) == list(range(len(specs)))
    assert all(p.spec is specs[p.idx] for p in plan)
    batches = [list(batch) for _key, batch in itertools.groupby(
        plan, key=lambda p: p.spec.problem_key)]
    assert len(batches) == len({s.problem_key for s in specs}) == 4
    totals = [sum(p.cost for p in b) for b in batches]
    assert totals == sorted(totals, reverse=True)
    assert all([p.cost for p in b] == sorted((p.cost for p in b),
                                             reverse=True)
               for b in batches)
    reference = plan_schedule(_shuffled_hostbench())
    assert [p.cost for p in plan] == [p.cost for p in reference]

    def runs_by_problem(plan):
        return sorted(sorted((p.cost, p.spec.name) for p in b)
                      for _k, b in itertools.groupby(
                          plan, key=lambda p: p.spec.problem_key))

    assert runs_by_problem(plan) == runs_by_problem(reference)
    rows = dry_run_table(plan).splitlines()[2:2 + len(specs)]
    assert [row.split()[:2] for row in rows] \
        == [[str(pos), p.spec.name] for pos, p in enumerate(plan)]


def test_lpt_ties_between_problems_keep_first_appearance():
    # astro sparse and dense seed sets are the same size: equal totals.
    specs = [_spec(seeding=s, algorithm=a) for a in ("static", "hybrid")
             for s in ("dense", "sparse")]
    assert [p.idx for p in plan_schedule(specs)] == [2, 0, 3, 1]


def test_dry_run_table_lists_plan():
    specs = [_spec(algorithm=a) for a in ("static", "ondemand", "hybrid")]
    lines = dry_run_table(plan_schedule(specs)).splitlines()
    assert lines[0].split() == ["#", "run", "share"]
    rows = lines[2:5]
    assert [row.split()[1] for row in rows] == [
        "astro-sparse-hybrid-4", "astro-sparse-static-4",
        "astro-sparse-ondemand-4"]
    shares = [float(row.split()[2].rstrip("%")) for row in rows]
    assert shares == sorted(shares, reverse=True)
    assert sum(shares) == pytest.approx(100.0, abs=0.2)
    assert lines[-1].startswith("3 runs over 1 problem(s)")
    # Model units are relative: the table claims no seconds.
    assert not any("predicted" in line or "makespan" in line
                   for line in lines)


# --------------------------------------------------------------------- #
# Every sweep runs in that order
# --------------------------------------------------------------------- #

def test_every_sweep_dispatches_the_heaviest_problem_first():
    """Two slots, no schedule argument: the first two dispatches go to
    the two problems with the largest model totals, the given and a
    shuffled spec list dispatch the same (run, problem) sequence up to
    ties, and both merge to the serial bytes."""
    specs = hostbench_specs()
    shuffled = [specs[i] for i in np.random.default_rng(3).permutation(24)]
    totals = _problem_totals(specs)
    problem_of = {s.name: s.problem_key for s in specs}
    serial = _merged_json(SweepExecutor(jobs=1).run(specs))
    sequences = []
    for variant in (specs, shuffled):
        sink = _ListSink()
        outcomes = SweepExecutor(jobs=2, telemetry=sink).run(variant)
        assert validate_events(sink) == []
        assert [o.spec for o in outcomes] == variant
        assert _merged_json(outcomes) == serial
        runs = [e["run"] for e in sink if e["event"] == "start"]
        first, second = (problem_of[r] for r in runs[:2])
        assert first != second
        assert sorted([totals[first], totals[second]]) \
            == sorted(totals.values())[-2:]
        claims = list(dict.fromkeys(problem_of[r] for r in runs))
        per_problem = {key: [r for r in runs if problem_of[r] == key]
                       for key in totals}
        sequences.append(([totals[k] for k in claims], per_problem))
    assert sequences[0][0] == sorted(totals.values(), reverse=True)
    assert sequences[0] == sequences[1]


def test_sweep_begin_logs_resolved_jobs(tmp_path):
    """--jobs auto resolves to a concrete worker count before the
    sweep begins, so the log names the real pool size."""
    import os as _os

    assert SweepExecutor(jobs=0).jobs == (_os.cpu_count() or 1)
    sink = JsonlTelemetry(tmp_path / "events.jsonl")
    SweepExecutor(jobs=2, telemetry=sink).run([_spec()])
    sink.close()
    events = load_events(tmp_path / "events.jsonl")
    begin = next(e for e in events if e["event"] == "sweep_begin")
    assert begin == {"event": "sweep_begin", "t": begin["t"], "jobs": 2,
                     "runs": 1}


# --------------------------------------------------------------------- #
# Determinism: artifacts byte-identical across job counts
# --------------------------------------------------------------------- #

def test_bench_snapshot_byte_identical_across_schedules(bench_mod,
                                                        tmp_path):
    """The acceptance contract: the BENCH snapshot is the same bytes
    whether the plan's order runs on one slot or is spread over four.
    Listing fusion first makes the plan reverse the problems' spec
    order."""
    args = ["--dataset", "fusion,astro", "--scale", "0.05", "--ranks",
            "4", "--sample-interval", "2.0", "--date", "sched"]
    blobs = []
    for jobs in ("1", "4"):
        out = tmp_path / f"j{jobs}"
        assert bench_mod.main(args + ["--out", str(out),
                                      "--jobs", jobs]) == 0
        blobs.append((out / "BENCH_sched.json").read_bytes())
    assert blobs[0] == blobs[1]


def test_sweep_dataset_jobs4_matches_serial():
    serial = sweep_dataset("astro", rank_counts=(4,),
                           algorithms=("ondemand", "static"),
                           seedings=("sparse",), scale=0.02)
    clear_cache()
    pooled = sweep_dataset("astro", rank_counts=(4,),
                           algorithms=("ondemand", "static"),
                           seedings=("sparse",), scale=0.02, jobs=4)
    assert serial == pooled


# --------------------------------------------------------------------- #
# Persistent warm pool
# --------------------------------------------------------------------- #

def test_pool_reuses_one_worker_across_runs(tmp_path):
    """jobs=1 with a timeout runs every spec through a single
    persistent slot; the event log shows one worker doing all runs."""
    specs = grid_specs(["astro"], ["sparse"],
                       ["static", "ondemand", "hybrid"], [4], scale=0.02)
    sink = JsonlTelemetry(tmp_path / "events.jsonl")
    with sink:
        outcomes = SweepExecutor(jobs=1, timeout=120.0,
                                 telemetry=sink).run(specs)
    assert [o.status for o in outcomes] == [OUTCOME_OK] * 3
    events = load_events(sink.path)
    assert validate_events(events) == []
    assert {e["worker"] for e in events if e["event"] == "start"} == {0}


def test_pool_respawns_slot_after_crash(monkeypatch):
    """A crashed worker's slot is respawned: the next spec on the same
    single slot still completes."""
    monkeypatch.setenv(FAULT_ENV, "crash:astro-sparse-static")
    specs = grid_specs(["astro"], ["sparse"], ["static", "ondemand"],
                       [4], scale=0.02)
    outcomes = SweepExecutor(jobs=1, timeout=120.0).run(specs)
    assert outcomes[0].status == OUTCOME_CRASHED
    assert "exit code 3" in outcomes[0].error
    assert outcomes[1].status == OUTCOME_OK


def test_pooled_memoryerror_is_oom_and_pool_survives(monkeypatch):
    """A MemoryError inside a pooled (non-isolated) run reports the
    gated oom outcome; later runs still complete."""
    monkeypatch.setenv(FAULT_ENV, "memerr:astro-sparse-static")
    specs = grid_specs(["astro"], ["sparse"], ["static", "ondemand"],
                       [4], scale=0.02)
    outcomes = SweepExecutor(jobs=2).run(specs)
    assert outcomes[0].status == OUTCOME_OOM
    assert outcomes[0].payload == {"status": "oom"}
    assert outcomes[1].status == OUTCOME_OK


def test_isolate_spec_runs_oneshot_even_from_pool(tmp_path, monkeypatch):
    """isolate specs get a dedicated one-shot child under the pool: a
    real MemoryError there is the probe's measured outcome and the
    pooled runs around it are untouched."""
    monkeypatch.setenv(FAULT_ENV, "memerr:oomprobe")
    probe = RunSpec(dataset="thermal", seeding="dense",
                    algorithm="static", n_ranks=4, scale=0.02,
                    mode="bench", tag="oomprobe", isolate=True,
                    oom_probe=True)
    plain = _spec()
    outcomes = SweepExecutor(jobs=2).run([plain, probe])
    assert outcomes[0].status == OUTCOME_OK
    assert outcomes[1].status == OUTCOME_OOM
    assert outcomes[1].payload == {"status": "oom"}


# --------------------------------------------------------------------- #
# CLI surfaces
# --------------------------------------------------------------------- #

def test_cli_sweep_dry_run_prints_plan_and_runs_nothing(tmp_path,
                                                        capsys):
    from repro.cli import main

    code = main(["sweep", "--dataset", "astro", "--seeding", "sparse",
                 "--algorithm", "ondemand,static", "--ranks", "4",
                 "--scale", "0.02", "--dry-run"])
    assert code == 0
    out = capsys.readouterr().out
    assert "heaviest first" in out
    rows = [line.split()[1] for line in out.splitlines()
            if "astro-sparse" in line]
    assert rows == ["astro-sparse-static-4", "astro-sparse-ondemand-4"]
    # Nothing executed: the run memo stayed empty.
    assert not _CACHE


def test_cli_sweep_schedule_with_telemetry(tmp_path, capsys):
    from repro.cli import main

    telem = tmp_path / "telem"
    code = main(["sweep", "--dataset", "astro", "--seeding", "sparse",
                 "--algorithm", "ondemand,hybrid", "--ranks", "4",
                 "--scale", "0.02", "--jobs", "2",
                 "--telemetry", str(telem)])
    assert code == 0
    events = load_events(telem / "events.jsonl")
    assert validate_events(events) == []
    first = next(e for e in events if e["event"] == "start")
    assert first["run"] == "astro-sparse-hybrid-4"  # the model's heaviest
    report = (telem / "utilization.txt").read_text()
    assert "makespan" in report


def test_bench_dry_run_flag(bench_mod, capsys, tmp_path):
    code = bench_mod.main(["--scale", "0.05", "--ranks", "4",
                           "--dry-run", "--out", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "heaviest first" in out
    assert not list(tmp_path.glob("BENCH_*.json"))
