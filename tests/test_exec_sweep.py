"""Parallel sweep executor: determinism, robustness guards, merging."""

import dataclasses
import gc
import importlib.util
import json
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

from repro.analysis import scenarios

from repro.analysis.experiments import (
    _CACHE,
    clear_cache,
    sweep_dataset,
)
from repro.exec import (
    OUTCOME_CRASHED,
    OUTCOME_OK,
    OUTCOME_OOM,
    OUTCOME_TIMEOUT,
    RunSpec,
    SweepExecutor,
    failure_report,
    grid_specs,
    merge_run_entries,
    plan_schedule,
)
from repro.exec.worker import FAULT_ENV
from tests.test_integrate_bank import count_kernel_calls

REPO = Path(__file__).resolve().parent.parent

TINY = dict(scale=0.02)


@pytest.fixture(scope="module")
def bench_mod():
    spec = importlib.util.spec_from_file_location(
        "bench_trajectory_exec", REPO / "benchmarks" / "bench_trajectory.py")
    mod = importlib.util.module_from_spec(spec)
    sys.modules.setdefault("bench_trajectory_exec", mod)
    spec.loader.exec_module(mod)
    return mod


# --------------------------------------------------------------------- #
# Spec plumbing
# --------------------------------------------------------------------- #

def test_run_spec_names():
    spec = RunSpec(dataset="astro", seeding="dense", algorithm="hybrid",
                   n_ranks=8)
    assert spec.name == "astro-dense-hybrid-8"
    probe = dataclasses.replace(spec, tag="oomprobe")
    assert probe.name == "astro-dense-hybrid-8-oomprobe"


def test_grid_specs_order():
    specs = grid_specs(["a", "b"], ["s"], ["x", "y"], [4, 8], scale=0.5)
    names = [s.name for s in specs]
    assert names == ["a-s-x-4", "a-s-x-8", "a-s-y-4", "a-s-y-8",
                     "b-s-x-4", "b-s-x-8", "b-s-y-4", "b-s-y-8"]
    assert all(s.scale == 0.5 for s in specs)


def test_unknown_mode_rejected():
    from repro.exec import run_spec

    with pytest.raises(ValueError, match="unknown run mode"):
        run_spec(RunSpec(dataset="astro", seeding="sparse",
                         algorithm="hybrid", n_ranks=4, mode="nope"))


# --------------------------------------------------------------------- #
# Determinism: jobs=1 vs jobs=4 must merge byte-identically
# --------------------------------------------------------------------- #

def _summary_doc(outcomes):
    return json.dumps(merge_run_entries(outcomes), sort_keys=True).encode()


def test_four_spec_sweep_parallel_matches_serial():
    """The acceptance contract: the same 4-spec sweep merged from a
    4-process pool is byte-equal to the serial merge."""
    specs = grid_specs(["astro"], ["sparse", "dense"],
                       ["ondemand", "static"], [4], scale=0.02)
    assert len(specs) == 4
    serial = SweepExecutor(jobs=1).run(specs)
    clear_cache()  # force the pool to actually re-run
    parallel = SweepExecutor(jobs=4).run(specs)
    assert [o.status for o in serial] == [OUTCOME_OK] * 4
    assert [o.status for o in parallel] == [OUTCOME_OK] * 4
    assert _summary_doc(serial) == _summary_doc(parallel)


def test_sweep_dataset_parallel_matches_serial():
    serial = sweep_dataset("astro", rank_counts=(4,),
                           algorithms=("ondemand",),
                           seedings=("sparse", "dense"), **TINY)
    clear_cache()
    parallel = sweep_dataset("astro", rank_counts=(4,),
                             algorithms=("ondemand",),
                             seedings=("sparse", "dense"), jobs=4, **TINY)
    assert serial == parallel  # frozen dataclasses, exact floats


def test_sweep_dataset_oom_does_not_depend_on_jobs(monkeypatch):
    """Every jobs value runs through the executor: a real MemoryError is
    the same unmemoized oom summary inline as in a pool."""
    monkeypatch.setenv(FAULT_ENV, "memerr:astro")
    grid = dict(rank_counts=(4,), algorithms=("ondemand", "static"),
                seedings=("sparse",), **TINY)
    serial = sweep_dataset("astro", jobs=1, **grid)
    pooled = sweep_dataset("astro", jobs=2, **grid)
    assert serial == pooled
    assert [s.status for s in serial] == ["oom", "oom"]
    assert not any(s.key in _CACHE for s in serial)


#: sha256 of ``repro sweep --dataset astro --seeding sparse --algorithm
#: static,ondemand,hybrid --ranks 4 --scale 0.02``: its ``--out`` bytes
#: and its stdout table, computed with the hand-built merge and table
#: that preceded ``drive_sweep`` and ``merge_run_entries``.  Serial-vs-
#: parallel equality cannot see a change both sides share; this can.
#: Never recompute these to make the test pass.
PINNED_SWEEP = {
    "out": "23a3f71dfbbdd8d016fc784e17741df638fc8d67e208223f59e828d9faa89bb1",
    "stdout":
        "f0c98dda761f448eaff4835c7e44616fb758bf63c11ac674eeae337bd341169b",
}


def test_cli_sweep_outputs_pinned(tmp_path, capsys):
    import hashlib

    from repro.cli import main

    out = tmp_path / "sweep.json"
    assert main(["sweep", "--dataset", "astro", "--seeding", "sparse",
                 "--algorithm", "static,ondemand,hybrid", "--ranks", "4",
                 "--scale", "0.02", "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert {"out": hashlib.sha256(out.read_bytes()).hexdigest(),
            "stdout": hashlib.sha256(stdout.encode()).hexdigest(),
            } == PINNED_SWEEP


@pytest.mark.parametrize("front_end", ["repro sweep", "bench_trajectory"])
def test_telemetry_problems_fail_both_front_ends(front_end, bench_mod,
                                                 tmp_path, capsys,
                                                 monkeypatch):
    """Both front ends validate their --telemetry log through the shared
    driver: a problem is listed on stderr and the exit code is 1, while
    the document and utilization report are still written."""
    import repro.exec.frontend as frontend
    from repro.cli import main as cli_main

    monkeypatch.setattr(frontend, "validate_events",
                        lambda events: ["injected problem"])
    telem = tmp_path / "telem"
    if front_end == "repro sweep":
        code = cli_main(["sweep", "--dataset", "astro", "--seeding",
                         "sparse", "--algorithm", "ondemand", "--ranks",
                         "4", "--scale", "0.02", "--telemetry", str(telem),
                         "--out", str(tmp_path / "doc.json")])
    else:
        code = bench_mod.main(["--scale", "0.02", "--ranks", "4",
                               "--sample-interval", "2.0", "--date", "t",
                               "--telemetry", str(telem),
                               "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 1
    assert "event log FAILED validation" in err
    assert "  injected problem" in err
    assert (telem / "utilization.txt").is_file()
    assert list(tmp_path.glob("*.json"))


def test_bench_trajectory_jobs_byte_identical(bench_mod, tmp_path):
    """End-to-end: the BENCH snapshot is byte-identical for any
    --jobs value (what CI cmp-gates)."""
    args = ["--scale", "0.05", "--ranks", "4", "--sample-interval", "2.0",
            "--date", "par"]
    assert bench_mod.main(args + ["--out", str(tmp_path / "serial"),
                                  "--jobs", "1"]) == 0
    assert bench_mod.main(args + ["--out", str(tmp_path / "pool"),
                                  "--jobs", "4"]) == 0
    a = (tmp_path / "serial" / "BENCH_par.json").read_bytes()
    b = (tmp_path / "pool" / "BENCH_par.json").read_bytes()
    assert a == b


# --------------------------------------------------------------------- #
# One trace per problem: the holder, the plan's grouping, their lifetime
# --------------------------------------------------------------------- #

def hostbench_specs():
    """The 24 specs of the host benchmark's sweep workloads: 4 problems,
    each under 3 algorithms x 2 rank counts."""
    return grid_specs(["astro", "fusion"], ["sparse", "dense"],
                      ["static", "ondemand", "hybrid"], [4, 8],
                      scale=0.005, mode="bench", sample_interval=2.0)


def _merged_json(outcomes):
    from repro.obs import jsonable
    assert all(o.ok for o in outcomes)
    return json.dumps(jsonable(merge_run_entries(outcomes)),
                      sort_keys=True, indent=2)


@pytest.fixture
def kernel_calls(monkeypatch):
    """Batch widths of every lockstep kernel call the banks make, from
    an empty holder."""
    scenarios.release_problem()
    return count_kernel_calls(monkeypatch)


def test_serial_sweep_traces_each_problem_once(kernel_calls):
    """24 specs over 4 problems integrate 4 seed sets, not 24 — in grid
    order and in a shuffled order that interleaves the problems — and
    merge to the same bytes every time."""
    specs = hostbench_specs()
    order = np.random.default_rng(3).permutation(len(specs))
    shuffled = [specs[i] for i in order]
    keys = [s.problem_key for s in shuffled]
    assert sum(a != b for a, b in zip(keys, keys[1:])) > 10
    blobs = []
    for variant in (specs, shuffled):
        del kernel_calls[:]
        blobs.append(_merged_json(SweepExecutor(jobs=1).run(variant)))
        assert len(kernel_calls) == 4
        assert scenarios._HELD == {}
        planned = [p.spec.problem_key for p in plan_schedule(variant)]
        assert sum(a != b for a, b in zip(planned, planned[1:])) == 3
    assert blobs[0] == blobs[1]


def test_two_slots_keep_their_problems(tmp_path):
    """Through two slots each problem is traced by the worker that keeps
    it, plus at most one steal at the tail: 4-5 cold dispatches where
    the problem-blind dispatcher paid 8 — in grid order and shuffled —
    and the merge is the serial one to the byte."""
    from repro.exec import JsonlTelemetry, load_events, validate_events

    specs = hostbench_specs()
    by_name = {s.name: s.problem_key for s in specs}
    order = np.random.default_rng(3).permutation(len(specs))
    shuffled = [specs[i] for i in order]
    serial = _merged_json(SweepExecutor(jobs=1).run(specs))
    for variant in (specs, shuffled):
        with JsonlTelemetry(tmp_path / "events.jsonl") as sink:
            outcomes = SweepExecutor(jobs=2, telemetry=sink).run(variant)
        events = load_events(sink.path)
        assert [o.spec for o in outcomes] == variant
        assert _merged_json(outcomes) == serial
        assert validate_events(events) == []
        cold = {(e["worker"], by_name[e["run"]])
                for e in events if e["event"] == "start"}
        assert {w for w, _ in cold} == {0, 1}
        assert 4 <= len(cold) <= 5, sorted(cold)


def test_sharing_never_changes_a_bench_entry(kernel_calls):
    """Each entry of a sweep that shared banks equals the entry of the
    same spec run alone on a bank of its own."""
    specs = hostbench_specs()[:12:5] + hostbench_specs()[1:12:5]
    shared = SweepExecutor(jobs=1).run(specs)
    assert len(kernel_calls) == 2
    for outcome in shared:
        scenarios.release_problem()
        [alone] = SweepExecutor(jobs=1).run([outcome.spec])
        assert _merged_json([alone]) == _merged_json([outcome])


def test_holder_keeps_one_problem_and_frees_the_last_without_gc():
    scenarios.release_problem()
    gc.collect()
    gc.disable()
    try:
        scenarios.run_scenario("astro", "sparse", 0.005, "ondemand", 4)
        [(problem_a, bank_a)] = scenarios._HELD.values()
        assert bank_a.problem is problem_a and bank_a._seeds
        scenarios.run_scenario("astro", "sparse", 0.005, "static", 8)
        assert [bank for _p, bank in scenarios._HELD.values()] == [bank_a]
        refs = [weakref.ref(problem_a), weakref.ref(bank_a)]
        del problem_a, bank_a
        scenarios.run_scenario("fusion", "sparse", 0.005, "ondemand", 4)
        assert [ref() for ref in refs] == [None, None]
        assert list(scenarios._HELD) == [("fusion", "sparse", 0.005)]
    finally:
        gc.enable()
        scenarios.release_problem()


def test_holder_is_empty_after_the_sweep_returns_or_raises():
    specs = hostbench_specs()[:2]
    scenarios.release_problem()
    assert all(o.ok for o in SweepExecutor(jobs=1).run(specs))
    assert scenarios._HELD == {}

    class Interrupting:
        def emit(self, event):
            if event["event"] == "retire":
                assert len(scenarios._HELD) == 1
                raise KeyboardInterrupt

    with pytest.raises(KeyboardInterrupt):
        SweepExecutor(jobs=1, telemetry=Interrupting()).run(specs)
    assert scenarios._HELD == {}


# --------------------------------------------------------------------- #
# Robustness guards
# --------------------------------------------------------------------- #

def test_per_run_timeout(monkeypatch):
    monkeypatch.setenv(FAULT_ENV, "hang:astro-sparse-ondemand")
    spec = RunSpec(dataset="astro", seeding="sparse",
                   algorithm="ondemand", n_ranks=4, scale=0.02)
    [outcome] = SweepExecutor(jobs=2, timeout=1.0).run([spec])
    assert outcome.status == OUTCOME_TIMEOUT
    assert "1s limit" in outcome.error
    assert failure_report([outcome])


def test_child_crash_does_not_lose_the_sweep(monkeypatch):
    monkeypatch.setenv(FAULT_ENV, "crash:astro-sparse-static")
    specs = grid_specs(["astro"], ["sparse"], ["static", "ondemand"],
                       [4], scale=0.02)
    outcomes = SweepExecutor(jobs=2).run(specs)
    assert [o.spec.name for o in outcomes] == [s.name for s in specs]
    crashed, survived = outcomes
    assert crashed.status == OUTCOME_CRASHED
    assert "exit code 3" in crashed.error
    assert survived.status == OUTCOME_OK
    assert survived.payload.ok
    report = failure_report(outcomes)
    assert "1/2 runs failed" in report
    assert "astro-sparse-static-4: crashed" in report


def test_child_exception_is_reported(monkeypatch):
    monkeypatch.setenv(FAULT_ENV, "raise:astro")
    spec = RunSpec(dataset="astro", seeding="sparse",
                   algorithm="ondemand", n_ranks=4, scale=0.02)
    [outcome] = SweepExecutor(jobs=2).run([spec])
    assert outcome.status == "error"
    assert "injected fault" in outcome.error


def test_real_memoryerror_is_gated_oom_in_child(monkeypatch):
    """The OOM-probe contract: a real MemoryError kills the child, not
    the harness, and surfaces as the gated 'oom' status."""
    monkeypatch.setenv(FAULT_ENV, "memerr:oomprobe")
    probe = RunSpec(dataset="thermal", seeding="dense",
                    algorithm="static", n_ranks=4, scale=0.02,
                    mode="bench", tag="oomprobe", isolate=True,
                    oom_probe=True)
    [outcome] = SweepExecutor(jobs=1).run([probe])  # serial: still a child
    assert outcome.status == OUTCOME_OOM
    assert outcome.payload == {"status": "oom"}
    assert not outcome.failed  # the probe's oom is a result, not a crash


def test_isolated_spec_crash_spares_the_harness(monkeypatch):
    """isolate=True runs in a child even at jobs=1: a hard child death
    cannot take the calling process down."""
    monkeypatch.setenv(FAULT_ENV, "crash:thermal")
    spec = RunSpec(dataset="thermal", seeding="dense", algorithm="static",
                   n_ranks=4, scale=0.02, isolate=True)
    [outcome] = SweepExecutor(jobs=1).run([spec])
    assert outcome.status == OUTCOME_CRASHED


def test_inline_memoryerror_is_gated(monkeypatch):
    monkeypatch.setenv(FAULT_ENV, "memerr:astro")
    spec = RunSpec(dataset="astro", seeding="sparse",
                   algorithm="ondemand", n_ranks=4, scale=0.02)
    [outcome] = SweepExecutor(jobs=1).run([spec])  # inline serial path
    assert outcome.status == OUTCOME_OOM


def test_sweep_dataset_raises_on_failures(monkeypatch):
    monkeypatch.setenv(FAULT_ENV, "crash:astro")
    with pytest.raises(RuntimeError, match="runs failed"):
        sweep_dataset("astro", rank_counts=(4,), algorithms=("ondemand",),
                      seedings=("sparse",), jobs=2, **TINY)


def test_sweep_dataset_memoizes_completed_cells_before_raising(monkeypatch):
    """A retry in the same process re-runs only the failed cells."""
    monkeypatch.setenv(FAULT_ENV, "raise:astro-sparse-static")
    with pytest.raises(RuntimeError, match="runs failed"):
        sweep_dataset("astro", rank_counts=(4,),
                      algorithms=("ondemand", "static"),
                      seedings=("sparse",), jobs=2, **TINY)
    assert {key.algorithm for key in _CACHE} == {"ondemand"}


def test_merge_run_entries_statuses():
    from repro.exec import RunOutcome

    ok = RunOutcome(spec=RunSpec(dataset="a", seeding="s", algorithm="x",
                                 n_ranks=4), status=OUTCOME_OK,
                    payload={"status": "ok", "wall_clock": 1.0})
    oom = RunOutcome(spec=RunSpec(dataset="a", seeding="s", algorithm="y",
                                  n_ranks=4, oom_probe=True),
                     status=OUTCOME_OOM, payload={"status": "oom"})
    dead = RunOutcome(spec=RunSpec(dataset="a", seeding="s",
                                   algorithm="z", n_ranks=4),
                      status=OUTCOME_TIMEOUT, error="too slow")
    runs = merge_run_entries([ok, oom, dead])
    assert list(runs) == ["a-s-x-4", "a-s-y-4", "a-s-z-4"]
    assert runs["a-s-x-4"]["wall_clock"] == 1.0
    assert runs["a-s-y-4"] == {"status": "oom"}
    assert runs["a-s-z-4"] == {"status": "timeout"}
