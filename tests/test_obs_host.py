"""Host-side telemetry: HostProbe phases, sampler, plumbing, Recorder."""

import gc
import json
import re
import time

import pytest

from repro.obs import Recorder
from repro.obs.host import (
    HOST_SCHEMA,
    NO_PHASE,
    NULL_PROBE,
    HostProbe,
    PhaseStats,
    activated,
    charge_child_cpu,
    collapsed_table,
    get_active,
    host_phase,
    host_report,
    load_host_comparable,
    max_rss_kb,
    write_collapsed,
)

#: ``frame;frame;frame count`` — what flamegraph.pl / speedscope parse.
COLLAPSED_LINE = re.compile(r"^\S+(?:;\S+)* \d+$")


def _spin(seconds: float) -> int:
    """Busy-loop so the sampler has something to catch."""
    deadline = time.perf_counter() + seconds
    acc = 0
    while time.perf_counter() < deadline:
        acc += sum(range(200))
    return acc


# --------------------------------------------------------------------- #
# Phase accounting
# --------------------------------------------------------------------- #

def test_phase_accumulates_and_merges_by_label():
    probe = HostProbe()
    with probe:
        for _ in range(3):
            with probe.phase("advect"):
                _spin(0.01)
        with probe.phase("merge"):
            pass
    rows = {ps.label: ps for ps in probe.phases}
    assert set(rows) == {"advect", "merge"}
    assert rows["advect"].count == 3
    assert rows["advect"].wall_s >= 0.03
    assert rows["merge"].count == 1


def test_nested_phases_are_inclusive():
    probe = HostProbe()
    with probe:
        with probe.phase("outer"):
            with probe.phase("inner"):
                _spin(0.02)
    rows = {ps.label: ps for ps in probe.phases}
    assert rows["outer"].wall_s >= rows["inner"].wall_s
    assert rows["inner"].wall_s >= 0.02


def test_gc_pauses_are_counted_and_attributed():
    probe = HostProbe()
    with probe:
        with probe.phase("churn"):
            gc.collect()
            gc.collect()
    [ps] = probe.phases
    assert ps.gc_collections >= 2
    assert ps.gc_pause_s >= 0.0
    doc = probe.to_dict()
    assert doc["gc"]["collections"] >= 2
    # The hook detached on stop: further collections are not counted.
    before = doc["gc"]["collections"]
    gc.collect()
    assert probe.to_dict()["gc"]["collections"] == before
    assert probe._on_gc not in gc.callbacks


def test_tracemalloc_deltas_opt_in():
    probe = HostProbe(trace_malloc=True)
    with probe:
        with probe.phase("alloc"):
            keep = [bytearray(256 * 1024) for _ in range(4)]
    [ps] = probe.phases
    assert ps.alloc_kb > 512  # kept ~1 MiB alive through the phase
    assert ps.alloc_peak_kb >= ps.alloc_kb
    del keep
    import tracemalloc
    assert not tracemalloc.is_tracing()  # probe owned it and stopped it


def test_to_dict_is_json_safe_and_versioned():
    probe = HostProbe()
    with probe:
        with probe.phase("setup"):
            pass
    doc = json.loads(json.dumps(probe.to_dict()))
    assert doc["schema"] == HOST_SCHEMA
    assert doc["wall_s"] >= 0.0
    assert "setup" in doc["phases"]
    assert set(doc["phases"]["setup"]) == {
        "count", "wall_s", "cpu_s", "rss_growth_kb", "alloc_kb",
        "alloc_peak_kb", "gc_collections", "gc_pause_s"}


def test_phase_stats_to_dict_rounding():
    ps = PhaseStats(label="x", count=2, wall_s=1.23456789, cpu_s=0.5)
    d = ps.to_dict()
    assert d["wall_s"] == 1.234568
    assert d["count"] == 2


def test_max_rss_positive_on_unix():
    assert max_rss_kb() > 0


# --------------------------------------------------------------------- #
# Sampling profiler / collapsed stacks
# --------------------------------------------------------------------- #

def test_sampler_collects_collapsed_stacks(tmp_path):
    probe = HostProbe(profile=True, profile_interval=0.001)
    with probe:
        with probe.phase("hot"):
            _spin(0.15)
    assert probe.sample_count > 10
    collapsed = probe.collapsed()
    # Every stack is phase-rooted and flamegraph-parseable.
    hot = {k: v for k, v in collapsed.items() if k.startswith("hot;")}
    assert hot, f"no phase-rooted stacks in {list(collapsed)[:3]}"
    for stack in collapsed:
        assert " " not in stack
    # The busy loop itself dominates the hot-phase samples.
    assert any("_spin" in stack for stack in hot)

    path = tmp_path / "out.collapsed"
    write_collapsed(path, collapsed)
    lines = path.read_text().splitlines()
    assert lines
    for line in lines:
        assert COLLAPSED_LINE.match(line), line
    # Sorted most-sampled first.
    counts = [int(line.rsplit(" ", 1)[1]) for line in lines]
    assert counts == sorted(counts, reverse=True)


def test_samples_outside_phases_use_no_phase_root():
    probe = HostProbe(profile=True, profile_interval=0.001)
    with probe:
        probe.start()
        _spin(0.05)
    assert any(stack.startswith(NO_PHASE.replace(" ", "_"))
               for stack in probe.collapsed())


def test_collapsed_table_renders_and_handles_empty():
    assert "no profiler samples" in collapsed_table({})
    table = collapsed_table({"a;b;c;d;e;f;g": 30, "a;x": 10}, top=1)
    assert "top 1 sampled stacks (40 samples" in table
    assert "75.0%" in table
    assert "a;...;e;f;g" in table  # long stacks are elided


def test_stop_is_idempotent_and_freezes_totals():
    probe = HostProbe(profile=True, profile_interval=0.001)
    with probe.phase("p"):
        _spin(0.02)
    probe.stop()
    wall = probe.to_dict()["wall_s"]
    time.sleep(0.02)
    probe.stop()
    assert probe.to_dict()["wall_s"] == wall
    assert probe._sampler is None


# --------------------------------------------------------------------- #
# Null probe + active-probe plumbing
# --------------------------------------------------------------------- #

def test_null_probe_records_nothing():
    with NULL_PROBE.phase("anything"):
        pass
    assert NULL_PROBE.phases == []
    assert not NULL_PROBE._started
    assert NULL_PROBE.to_dict()["phases"] == {}


def test_activated_scopes_the_active_probe():
    probe = HostProbe()
    assert get_active() is NULL_PROBE
    with activated(probe):
        assert get_active() is probe
        with host_phase("advect"):
            pass
    assert get_active() is NULL_PROBE
    probe.stop()
    assert [ps.label for ps in probe.phases] == ["advect"]
    # Outside any activation, host_phase is a no-op.
    with host_phase("ignored"):
        pass
    assert NULL_PROBE.phases == []


def test_reaped_child_cpu_is_charged_to_the_active_probe():
    """A helper's CPU (a forked tracer's rusage) lands in every open
    phase of the active probe and in its total, and nowhere else."""
    probe = HostProbe()
    charge_child_cpu(5.0)  # no active probe: dropped
    with activated(probe):
        with host_phase("advect"):
            with host_phase("reap"):
                charge_child_cpu(5.0)
        with host_phase("merge"):
            pass
    probe.stop()
    phases = {ps.label: ps.cpu_s for ps in probe.phases}
    assert phases["advect"] >= 5.0 and phases["reap"] >= 5.0
    assert phases["merge"] < 5.0
    assert 5.0 <= probe.to_dict()["cpu_s"] < 10.0
    assert NULL_PROBE.to_dict()["cpu_s"] == 0.0


def test_disabled_recorder_installs_no_engine_hook():
    obs = Recorder(enabled=False)

    class _Engine:
        now = 0.0
        observer = None

    eng = _Engine()
    obs.bind(eng)
    assert eng.observer is None
    assert obs.spans == ()


# --------------------------------------------------------------------- #
# host_report / load_host_comparable
# --------------------------------------------------------------------- #

def test_host_report_labels_machine_dependence():
    probe = HostProbe()
    with probe:
        with probe.phase("advect"):
            pass
    text = host_report(probe.to_dict())
    assert "real machine time" in text
    assert "never part of BENCH snapshots" in text
    assert "advect" in text
    assert "total" in text


def test_load_host_comparable_flattens_phases(tmp_path):
    probe = HostProbe()
    with probe:
        with probe.phase("advect"):
            _spin(0.01)
    doc = {"host_schema": HOST_SCHEMA,
           "scenario": {"name": "astro-sparse-hybrid-8"},
           "host": probe.to_dict()}
    path = tmp_path / "p.json"
    path.write_text(json.dumps(doc))
    table = load_host_comparable(path)
    assert list(table) == ["astro-sparse-hybrid-8"]
    flat = table["astro-sparse-hybrid-8"]
    assert flat["wall_s"] > 0.0
    assert "phase.advect.wall_s" in flat
    assert "gc.collections" in flat
    # Simulated metrics never appear in the host comparison.
    assert not any(k.startswith("wall_clock") for k in flat)


def test_load_host_comparable_rejects_non_profiles(tmp_path):
    path = tmp_path / "bench.json"
    path.write_text(json.dumps({"schema": 3, "runs": {}}))
    with pytest.raises(ValueError, match="not a host profile"):
        load_host_comparable(path)
