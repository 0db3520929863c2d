"""Host-side telemetry: HostProbe phases, plumbing, Recorder."""

import json
import time

from repro.obs import Recorder
from repro.obs.host import (
    HOST_SCHEMA,
    NULL_PROBE,
    HostProbe,
    PhaseStats,
    activated,
    charge_child_cpu,
    get_active,
    host_phase,
    max_rss_kb,
)


def _spin(seconds: float) -> int:
    """Busy-loop for a measurable phase."""
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
        "count", "wall_s", "cpu_s", "rss_growth_kb"}


def test_phase_stats_to_dict_rounding():
    ps = PhaseStats(label="x", count=2, wall_s=1.23456789, cpu_s=0.5)
    d = ps.to_dict()
    assert d["wall_s"] == 1.234568
    assert d["count"] == 2


def test_max_rss_positive_on_unix():
    assert max_rss_kb() > 0


def test_stop_is_idempotent_and_freezes_totals():
    probe = HostProbe()
    with probe.phase("p"):
        _spin(0.02)
    probe.stop()
    wall = probe.to_dict()["wall_s"]
    time.sleep(0.02)
    probe.stop()
    assert probe.to_dict()["wall_s"] == wall


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
