"""Adaptive sweep scheduling: estimator, LPT planner, warm pool."""

import dataclasses
import importlib.util
import itertools
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.analysis.experiments import (
    ExperimentKey,
    RunSummary,
    _entry_path,
    _save_entry,
    clear_cache,
    run_experiment,
    sweep_dataset,
)
from repro.exec import (
    OUTCOME_CRASHED,
    OUTCOME_OK,
    OUTCOME_OOM,
    JsonlTelemetry,
    RunSpec,
    RuntimeEstimator,
    SweepExecutor,
    grid_specs,
    load_events,
    model_estimate,
    plan_schedule,
    schedule_table,
    validate_events,
)
from repro.exec.estimate import SOURCE_HISTORY, SOURCE_MODEL
from repro.exec.schedule import (
    AUTO_HISTORY_THRESHOLD,
    SCHEDULE_AUTO,
    SCHEDULE_FIFO,
    SCHEDULE_LPT,
    dry_run_table,
)
from repro.exec.worker import FAULT_ENV
from tests.test_exec_sweep import hostbench_specs

REPO = Path(__file__).resolve().parent.parent


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    import repro.analysis.experiments as exp
    exp._DISK_LOADED = False
    clear_cache()
    yield
    clear_cache()
    exp._DISK_LOADED = False


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
# History-backed estimator
# --------------------------------------------------------------------- #

def test_estimator_prefers_history_and_averages():
    est = RuntimeEstimator()
    spec = _spec(scale=0.5)
    assert est.estimate(spec).source == SOURCE_MODEL
    est.record(spec.name, 2.0, scale=0.5)
    est.record(spec.name, 4.0, scale=0.5)
    e = est.estimate(spec)
    assert e.source == SOURCE_HISTORY
    assert e.seconds == pytest.approx(3.0)


def test_estimator_rescales_other_scale_samples():
    est = RuntimeEstimator()
    spec = _spec(scale=1.0)
    est.record(spec.name, 2.0, scale=0.5)  # measured at half scale
    e = est.estimate(spec)
    assert e.source == SOURCE_HISTORY
    assert e.seconds == pytest.approx(4.0)  # linear in scale


def test_estimator_scale_free_telemetry_samples_match_any_scale():
    est = RuntimeEstimator()
    spec = _spec(scale=0.25)
    est.record(spec.name, 7.0, scale=None)
    assert est.estimate(spec).seconds == pytest.approx(7.0)


def test_estimator_loads_cache_dir_elapsed():
    key = ExperimentKey(dataset="astro", seeding="sparse",
                        algorithm="ondemand", n_ranks=4, scale=0.5)
    _save_entry(key, RunSummary(key=key, status="ok", wall_clock=1.0),
                elapsed=3.5)
    # A pre-scheduler entry without elapsed contributes nothing.
    old = ExperimentKey(dataset="astro", seeding="dense",
                        algorithm="static", n_ranks=4, scale=0.5)
    _save_entry(old, RunSummary(key=old, status="ok"))
    est = RuntimeEstimator.from_history()
    spec = _spec(algorithm="ondemand", scale=0.5)
    e = est.estimate(spec)
    assert e.source == SOURCE_HISTORY
    assert e.seconds == pytest.approx(3.5)
    assert est.estimate(_spec(seeding="dense",
                              algorithm="static")).source == SOURCE_MODEL


def test_estimator_loads_event_log_retires(tmp_path):
    log = tmp_path / "events.jsonl"
    events = [
        {"event": "sweep_begin", "t": 0.0, "jobs": 1, "runs": 2},
        {"event": "retire", "t": 1.0, "run": "astro-sparse-ondemand-4",
         "worker": 0, "status": "ok", "elapsed": 2.5},
        {"event": "retire", "t": 2.0, "run": "astro-sparse-static-4",
         "worker": 0, "status": "crashed", "elapsed": 9.9},
    ]
    log.write_text("\n".join(json.dumps(e) for e in events) + "\n")
    est = RuntimeEstimator.from_history(event_logs=[log])
    assert est.estimate(_spec()).seconds == pytest.approx(2.5)
    # Crashed runs are not runtime history.
    assert est.estimate(_spec(algorithm="static")).source == SOURCE_MODEL


def test_run_experiment_persists_elapsed():
    run_experiment("astro", "sparse", "ondemand", 4, scale=0.02)
    key = ExperimentKey(dataset="astro", seeding="sparse",
                        algorithm="ondemand", n_ranks=4, scale=0.02)
    blob = json.loads(_entry_path(key).read_text())
    assert blob["elapsed"] > 0.0
    est = RuntimeEstimator.from_history()
    assert est.has_history(_spec())


# --------------------------------------------------------------------- #
# Schedule planning
# --------------------------------------------------------------------- #

def test_fifo_plan_keeps_spec_order():
    specs = grid_specs(["astro"], ["sparse", "dense"],
                       ["static", "ondemand"], [4], scale=0.02)
    plan = plan_schedule(specs, policy=SCHEDULE_FIFO)
    assert plan.effective == SCHEDULE_FIFO
    assert [i for i, _ in plan.ordered] == list(range(len(specs)))


def test_lpt_plan_sorts_longest_first_deterministically():
    est = RuntimeEstimator()
    specs = [_spec(algorithm=a) for a in ("static", "ondemand", "hybrid")]
    est.record(specs[0].name, 1.0)
    est.record(specs[1].name, 5.0)
    est.record(specs[2].name, 3.0)
    plan = plan_schedule(specs, policy=SCHEDULE_LPT, estimator=est)
    assert [i for i, _ in plan.ordered] == [1, 2, 0]
    # Ties break on original index: stable and deterministic.
    est2 = RuntimeEstimator()
    for s in specs:
        est2.record(s.name, 2.0)
    plan2 = plan_schedule(specs, policy=SCHEDULE_LPT, estimator=est2)
    assert [i for i, _ in plan2.ordered] == [0, 1, 2]


@pytest.mark.parametrize("policy", [SCHEDULE_FIFO, SCHEDULE_LPT,
                                    SCHEDULE_AUTO])
def test_plan_keeps_the_specs_of_a_problem_together(policy):
    """A worker holds one problem's traced curves at a time, so however
    the input interleaves problems, the plan dispatches each problem's
    specs back to back — and ``--dry-run`` prints that order."""
    specs = hostbench_specs()  # 24 specs, 4 problems
    specs = [specs[i] for i in np.random.default_rng(3).permutation(24)]
    est = RuntimeEstimator()
    for i, spec in enumerate(specs):  # full history: auto resolves to lpt
        est.record(spec.name, 0.5 + (7 * i) % 11)
    plan = plan_schedule(specs, policy=policy, estimator=est)
    assert sorted(p.idx for p in plan.runs) == list(range(len(specs)))
    assert all(p.spec is specs[p.idx] for p in plan.runs)
    batches = [list(batch) for _key, batch in itertools.groupby(
        plan.runs, key=lambda p: p.spec.problem_key)]
    assert len(batches) == len({s.problem_key for s in specs}) == 4
    if plan.effective == SCHEDULE_FIFO:
        # Problems by first appearance, spec order inside each.
        assert [b[0].idx for b in batches] \
            == sorted(b[0].idx for b in batches)
        assert batches[0][0].idx == 0
        assert all([p.idx for p in b] == sorted(p.idx for p in b)
                   for b in batches)
    else:
        # Heaviest problem first, longest run first inside each.
        totals = [sum(p.seconds for p in b) for b in batches]
        assert totals == sorted(totals, reverse=True)
        assert all([p.seconds for p in b]
                   == sorted((p.seconds for p in b), reverse=True)
                   for b in batches)
    rows = dry_run_table(plan).splitlines()[3:3 + len(specs)]
    assert [row.split()[:2] for row in rows] \
        == [[str(pos), p.spec.name] for pos, p in enumerate(plan.runs)]


def test_lpt_ties_between_problems_keep_first_appearance():
    specs = [_spec(dataset=d, algorithm=a) for a in ("static", "hybrid")
             for d in ("fusion", "astro")]
    est = RuntimeEstimator()
    for spec in specs:
        est.record(spec.name, 2.0)
    plan = plan_schedule(specs, policy=SCHEDULE_LPT, estimator=est)
    assert [i for i, _ in plan.ordered] == [0, 2, 1, 3]


def test_auto_resolves_on_history_coverage():
    specs = [_spec(algorithm=a) for a in ("static", "ondemand")]
    cold = plan_schedule(specs, policy=SCHEDULE_AUTO,
                         estimator=RuntimeEstimator())
    assert cold.effective == SCHEDULE_FIFO
    est = RuntimeEstimator()
    est.record(specs[0].name, 4.0)  # 50% coverage == threshold
    assert AUTO_HISTORY_THRESHOLD == 0.5
    warm = plan_schedule(specs, policy=SCHEDULE_AUTO, estimator=est)
    assert warm.effective == SCHEDULE_LPT
    assert warm.coverage == pytest.approx(0.5)


def test_auto_stays_fifo_just_below_threshold():
    specs = [_spec(algorithm=a)
             for a in ("static", "ondemand", "hybrid")]
    est = RuntimeEstimator()
    est.record(specs[0].name, 4.0)  # 1/3 coverage, under the 50% bar
    plan = plan_schedule(specs, policy=SCHEDULE_AUTO, estimator=est)
    assert plan.effective == SCHEDULE_FIFO
    assert plan.coverage == pytest.approx(1 / 3)


def test_estimator_zero_scale_sample_falls_back_to_model():
    """A degenerate prior (scale recorded as 0) must not divide by
    zero when rescaling to the requested scale — the static model
    takes over instead."""
    spec = _spec(scale=0.1)
    est = RuntimeEstimator()
    est.record(spec.name, 5.0, scale=0.0)
    e = est.estimate(spec)
    assert e.source == SOURCE_MODEL
    assert e.seconds == pytest.approx(model_estimate(spec))


def test_estimator_ignores_cache_hit_samples():
    """Near-zero elapsed values are sweep-cache hits, not runtimes;
    recording them would teach LPT that everything is instant."""
    spec = _spec()
    est = RuntimeEstimator()
    assert est.record(spec.name, 0.001) is False
    assert not est.has_history(spec)
    assert est.record(spec.name, 0.5) is True
    assert est.estimate(spec).source == SOURCE_HISTORY


def test_schedule_event_logs_resolved_jobs(tmp_path):
    """--jobs auto resolves to a concrete worker count before the
    schedule event is emitted, so the log names the real pool size."""
    import os as _os

    assert SweepExecutor(jobs=0).jobs == (_os.cpu_count() or 1)
    sink = JsonlTelemetry(tmp_path / "events.jsonl")
    SweepExecutor(jobs=2, telemetry=sink).run([_spec()])
    sink.close()
    events = load_events(tmp_path / "events.jsonl")
    assert next(e for e in events
                if e["event"] == "schedule")["jobs"] == 2
    assert next(e for e in events
                if e["event"] == "sweep_begin")["jobs"] == 2


def test_unknown_policy_rejected():
    with pytest.raises(ValueError, match="unknown schedule policy"):
        plan_schedule([_spec()], policy="random")


def test_dry_run_table_lists_plan():
    est = RuntimeEstimator()
    specs = [_spec(algorithm=a) for a in ("static", "ondemand")]
    est.record(specs[1].name, 9.0)
    text = dry_run_table(plan_schedule(specs, policy=SCHEDULE_LPT,
                                       estimator=est), jobs=2)
    lines = text.splitlines()
    assert "schedule lpt" in lines[0]
    assert "history" in text and "model" in text
    assert "predicted total" in lines[-1]
    assert "ideal makespan on 2 workers" in lines[-1]
    # Longest-first: the history-backed 9 s run leads.
    first_row = next(ln for ln in lines if "astro-sparse" in ln)
    assert "ondemand" in first_row


# --------------------------------------------------------------------- #
# Determinism: artifacts byte-identical across schedules and job counts
# --------------------------------------------------------------------- #

def test_bench_snapshot_byte_identical_across_schedules(bench_mod,
                                                        tmp_path):
    """The acceptance contract: BENCH artifacts from --schedule
    fifo/lpt/auto at --jobs 1/4 are all byte-identical."""
    args = ["--scale", "0.05", "--ranks", "4", "--sample-interval", "2.0",
            "--date", "sched"]
    variants = [("fifo", "1"), ("lpt", "1"), ("fifo", "4"), ("lpt", "4"),
                ("auto", "4")]
    blobs = {}
    for schedule, jobs in variants:
        out = tmp_path / f"{schedule}-j{jobs}"
        assert bench_mod.main(args + ["--out", str(out), "--jobs", jobs,
                                      "--schedule", schedule]) == 0
        blobs[(schedule, jobs)] = (out / "BENCH_sched.json").read_bytes()
        clear_cache(disk=True)
    baseline = blobs[("fifo", "1")]
    for variant, blob in blobs.items():
        assert blob == baseline, f"{variant} diverged from serial FIFO"


def test_sweep_dataset_lpt_matches_serial_fifo():
    serial = sweep_dataset("astro", rank_counts=(4,),
                           algorithms=("ondemand", "static"),
                           seedings=("sparse",), scale=0.02)
    clear_cache(disk=True)
    lpt = sweep_dataset("astro", rank_counts=(4,),
                        algorithms=("ondemand", "static"),
                        seedings=("sparse",), scale=0.02,
                        jobs=4, schedule="lpt")
    assert serial == lpt


# --------------------------------------------------------------------- #
# Schedule telemetry: plan event + accuracy analyzer
# --------------------------------------------------------------------- #

def test_schedule_event_emitted_and_log_validates(tmp_path):
    specs = grid_specs(["astro"], ["sparse"], ["static", "ondemand"],
                       [4], scale=0.02)
    sink = JsonlTelemetry(tmp_path / "events.jsonl")
    with sink:
        outcomes = SweepExecutor(jobs=2, telemetry=sink,
                                 schedule="lpt").run(specs)
    assert all(o.ok for o in outcomes)
    events = load_events(sink.path)
    assert validate_events(events) == []
    [sched] = [e for e in events if e["event"] == "schedule"]
    assert sched["policy"] == "lpt" and sched["effective"] == "lpt"
    assert {p["run"] for p in sched["plan"]} == {s.name for s in specs}
    assert all(p["predicted"] > 0.0 for p in sched["plan"])
    begin = events[0]
    assert begin["event"] == "sweep_begin" and begin["schedule"] == "lpt"


def test_schedule_table_reports_mape(tmp_path):
    specs = grid_specs(["astro"], ["sparse"], ["ondemand"], [4],
                       scale=0.02)
    sink = JsonlTelemetry(tmp_path / "events.jsonl")
    with sink:
        SweepExecutor(jobs=2, telemetry=sink, schedule="auto").run(specs)
    events = load_events(sink.path)
    text = schedule_table(events)
    assert "schedule auto" in text
    assert "estimator MAPE" in text
    assert "astro-sparse-ondemand-4" in text
    from repro.exec import telemetry_report
    assert "estimator MAPE" in telemetry_report(events)


def test_schedule_table_without_schedule_event():
    assert "(no schedule event" in schedule_table(
        [{"event": "sweep_begin", "t": 0.0, "jobs": 1, "runs": 0}])


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
                 "--scale", "0.02", "--schedule", "lpt", "--dry-run"])
    assert code == 0
    out = capsys.readouterr().out
    assert "schedule lpt" in out
    assert "predicted total" in out
    assert "astro-sparse-ondemand-4" in out
    # Nothing executed: the sweep cache stayed empty.
    key = ExperimentKey(dataset="astro", seeding="sparse",
                        algorithm="ondemand", n_ranks=4, scale=0.02)
    assert not _entry_path(key).exists()


def test_cli_sweep_schedule_with_telemetry(tmp_path, capsys):
    from repro.cli import main

    telem = tmp_path / "telem"
    code = main(["sweep", "--dataset", "astro", "--seeding", "sparse",
                 "--algorithm", "ondemand", "--ranks", "4",
                 "--scale", "0.02", "--jobs", "2", "--schedule", "lpt",
                 "--telemetry", str(telem)])
    assert code == 0
    events = load_events(telem / "events.jsonl")
    assert validate_events(events) == []
    assert any(e["event"] == "schedule" for e in events)
    report = (telem / "utilization.txt").read_text()
    assert "estimator MAPE" in report


def test_bench_dry_run_flag(bench_mod, capsys, tmp_path):
    code = bench_mod.main(["--scale", "0.05", "--ranks", "4",
                           "--schedule", "lpt", "--dry-run",
                           "--out", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "predicted total" in out
    assert not list(tmp_path.glob("BENCH_*.json"))
