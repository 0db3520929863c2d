"""Batch-queue transport: queue specs, submit templates, TCP
dial-back acquisition, degradation to the local pool, and the
byte-identity contract for ``--queue`` sweeps."""

import os
import sys
from pathlib import Path

import pytest

from repro.analysis.experiments import clear_cache
from repro.exec import (
    LOCAL_NODE,
    OUTCOME_OK,
    JsonlTelemetry,
    QUEUE_PRESETS,
    QueueSource,
    QueueSpec,
    SweepExecutor,
    grid_specs,
    load_events,
    parse_queues,
    queue_table,
    resolve_queue_template,
    validate_events,
)
from repro.exec.transport import (
    QUEUE_ACQUIRE_TIMEOUT_ENV,
    QUEUE_PYTHON_ENV,
    REMOTE_FAULT_ENV,
    TransportError,
    queue_submit_command,
    worker_launch_command,
)
from tests.test_exec_transport import (  # shared loopback idioms
    _spec,
    _summary_doc,
    isolated_cache,  # noqa: F401  (autouse fixture, re-exported)
)

REPO = Path(__file__).resolve().parent.parent

#: Submit template whose "scheduler" accepts the job but never starts
#: a worker — exercises the acquisition timeout without any waiting
#: process to clean up.
BLACKHOLE = "sh -c true"


# --------------------------------------------------------------------- #
# Queue specs and submit templates
# --------------------------------------------------------------------- #

def test_parse_queues_basic():
    assert parse_queues("slurm:16,pbs:8") == [QueueSpec("slurm", 16),
                                              QueueSpec("pbs", 8)]
    assert parse_queues("loopback") == [QueueSpec("loopback", 1)]


def test_parse_queues_rejects_local_and_bad_specs():
    with pytest.raises(ValueError, match="not a queue"):
        parse_queues("local:4")
    with pytest.raises(ValueError, match="listed twice"):
        parse_queues("slurm:2,slurm:4")
    with pytest.raises(ValueError, match="must be positive"):
        parse_queues("slurm:0")


def test_resolve_queue_template_presets_and_override():
    assert resolve_queue_template("slurm") == QUEUE_PRESETS["slurm"]
    assert resolve_queue_template("pbs") == QUEUE_PRESETS["pbs"]
    assert resolve_queue_template("loopback") \
        == QUEUE_PRESETS["loopback"]
    assert resolve_queue_template("slurm", "mysubmit {worker}") \
        == "mysubmit {worker}"
    # Unknown queue names need an explicit template.
    with pytest.raises(ValueError, match="no submit-template preset"):
        resolve_queue_template("condor")
    assert resolve_queue_template("condor", "csub {worker}") \
        == "csub {worker}"


def test_worker_launch_command_shape(monkeypatch):
    cmd = worker_launch_command("slurm", 3, "submit01:4242",
                                cwd="/srv/repo")
    # $PYTHONPATH must expand on the *compute* node, so the command
    # keeps the shell expansion outside any local quoting.
    assert "PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH}" in cmd
    assert cmd.startswith("cd /srv/repo && ")
    assert cmd.endswith("-m repro.exec.remote_worker "
                        "--connect submit01:4242 --queue slurm --job 3")
    monkeypatch.setenv(QUEUE_PYTHON_ENV, "/opt/py/bin/python3")
    assert "/opt/py/bin/python3 -m repro.exec.remote_worker" \
        in worker_launch_command("slurm", 0, "h:1")


def test_queue_submit_command_substitution():
    argv = queue_submit_command(QUEUE_PRESETS["loopback"], "loopback",
                                2, "127.0.0.1:5000", cwd="/tmp/repo")
    assert argv[:2] == ["sh", "-c"]
    # The detached form backgrounds the worker with its output
    # redirected, so the submit command's captured pipes close.
    assert argv[2].endswith(">/dev/null 2>&1 &")
    assert "--queue loopback --job 2" in argv[2]
    assert "--connect 127.0.0.1:5000" in argv[2]

    slurm = queue_submit_command(QUEUE_PRESETS["slurm"], "slurm", 0,
                                 "h:1", cwd="/tmp/repo")
    assert slurm[0] == "sbatch"
    # --wrap takes the whole worker command as one argv token.
    wrap = slurm.index("--wrap")
    assert "repro.exec.remote_worker" in slurm[wrap + 1]
    assert len(slurm) == wrap + 2

    with pytest.raises(TransportError, match="empty"):
        queue_submit_command("   ", "q", 0, "h:1")


# --------------------------------------------------------------------- #
# Loopback acquisition
# --------------------------------------------------------------------- #

def test_queue_source_acquires_every_slot_and_reports_it():
    """Bulk acquisition: one submit per slot, every job dials back and
    handshakes, and each step is reported (the worker client itself is
    covered by test_exec_transport's contract test)."""
    events = []
    source = QueueSource(
        QueueSpec("loopback", 2),
        emit=lambda kind, **kw: events.append((kind, kw)))
    workers = []
    try:
        workers = source.acquire()
        assert len(workers) == 2
        assert all(w.hello["queue"] == "loopback" for w in workers)
        assert sorted(w.hello["job"] for w in workers) == [0, 1]
        assert source.problems == []
    finally:
        for w in workers:
            w.discard(terminate=False)
        source.close()
    kinds = [k for k, _ in events]
    assert kinds.count("queue_submit") == 2
    assert kinds.count("queue_connect") == 2
    connects = [kw for k, kw in events if k == "queue_connect"]
    assert all(kw["queue"] == "loopback" for kw in connects)
    assert all(kw["latency"] >= 0.0 for kw in connects)


def test_queue_sweep_byte_identical_to_serial(tmp_path):
    """The acceptance contract: a loopback:2 queue sweep merges
    byte-identically to the serial sweep."""
    specs = grid_specs(["astro"], ["sparse", "dense"],
                       ["ondemand", "static"], [4], scale=0.02)
    serial = SweepExecutor(jobs=1).run(specs)
    clear_cache(disk=True)  # force the queue workers to really run
    sink = JsonlTelemetry(tmp_path / "events.jsonl")
    queued = SweepExecutor(queues=parse_queues("loopback:2"),
                           schedule="lpt", telemetry=sink).run(specs)
    sink.close()
    assert [o.status for o in queued] == [OUTCOME_OK] * len(specs)
    assert _summary_doc(serial) == _summary_doc(queued)
    events = load_events(tmp_path / "events.jsonl")
    assert validate_events(events) == []
    assert sum(e["event"] == "queue_submit" for e in events) == 2
    assert sum(e["event"] == "queue_connect" for e in events) == 2
    begin = next(e for e in events if e["event"] == "sweep_begin")
    assert [n["node"] for n in begin["nodes"]] == ["loopback"]
    assert {e["node"] for e in events if e["event"] == "retire"} \
        == {"loopback"}


def test_mixed_nodes_and_queue_slots():
    from tests.test_exec_transport import LOOPBACK
    from repro.exec import parse_nodes

    specs = grid_specs(["astro"], ["sparse", "dense"], ["ondemand"],
                       [4], scale=0.02)
    serial = SweepExecutor(jobs=1).run(specs)
    clear_cache(disk=True)
    mixed = SweepExecutor(nodes=parse_nodes("n1:1"),
                          remote_template=LOOPBACK,
                          queues=parse_queues("loopback:1")).run(specs)
    assert [o.status for o in mixed] == [OUTCOME_OK] * len(specs)
    assert _summary_doc(serial) == _summary_doc(mixed)


# --------------------------------------------------------------------- #
# Degradation
# --------------------------------------------------------------------- #

def test_acquisition_timeout_falls_back_to_local(tmp_path, monkeypatch,
                                                 capsys):
    """Submit succeeds but no worker ever dials back: after the
    bounded acquisition timeout the sweep runs on the local pool."""
    monkeypatch.setenv(QUEUE_ACQUIRE_TIMEOUT_ENV, "1.0")
    sink = JsonlTelemetry(tmp_path / "events.jsonl")
    outcomes = SweepExecutor(queues=parse_queues("loopback:2"),
                             queue_template=BLACKHOLE,
                             telemetry=sink).run([_spec()])
    sink.close()
    assert outcomes[0].status == OUTCOME_OK
    err = capsys.readouterr().err
    assert "0/2 worker(s) connected" in err
    assert "no nodes reachable" in err
    events = load_events(tmp_path / "events.jsonl")
    assert validate_events(events) == []
    lost, = (e for e in events if e["event"] == "node_lost")
    assert lost["node"] == "loopback" and lost["slots"] == 2
    assert lost["reason"] == "acquisition timeout"
    retire, = (e for e in events if e["event"] == "retire")
    assert retire["node"] == LOCAL_NODE


def test_submit_failure_drops_queue_whole(tmp_path, capsys):
    """A rejected submit command (scheduler down, bad sbatch flags)
    drops the queue before any waiting — no acquisition timeout."""
    sink = JsonlTelemetry(tmp_path / "events.jsonl")
    outcomes = SweepExecutor(queues=parse_queues("loopback:2"),
                             queue_template="sh -c 'exit 7'",
                             telemetry=sink).run([_spec()])
    sink.close()
    assert outcomes[0].status == OUTCOME_OK
    err = capsys.readouterr().err
    assert "queue loopback unavailable" in err
    events = load_events(tmp_path / "events.jsonl")
    lost, = (e for e in events if e["event"] == "node_lost")
    assert lost["node"] == "loopback" and lost["phase"] == "startup"


def test_queue_worker_death_requeues_and_completes(tmp_path,
                                                   monkeypatch):
    """A queue worker dying mid-run (job preempted / killed): the
    socket EOF requeues the spec exactly like a remote worker death,
    and the die-once token lets the retry succeed."""
    token = tmp_path / "die.tok"
    monkeypatch.setenv(REMOTE_FAULT_ENV,
                       f"die:astro-sparse-static:{token}")
    specs = grid_specs(["astro"], ["sparse"], ["ondemand", "static"],
                       [4], scale=0.02)
    sink = JsonlTelemetry(tmp_path / "events.jsonl")
    outcomes = SweepExecutor(queues=parse_queues("loopback:2"),
                             telemetry=sink).run(specs)
    sink.close()
    assert [o.status for o in outcomes] == [OUTCOME_OK] * 2
    assert token.exists()
    events = load_events(tmp_path / "events.jsonl")
    assert validate_events(events) == []
    requeues = [e for e in events if e["event"] == "requeue"]
    assert len(requeues) == 1
    assert requeues[0]["run"] == "astro-sparse-static-4"
    assert sum(e["event"] == "retire" for e in events) == len(specs)


# --------------------------------------------------------------------- #
# Telemetry
# --------------------------------------------------------------------- #

def test_queue_table_aggregates_per_queue():
    events = [
        {"event": "queue_submit", "queue": "slurm", "job": 0},
        {"event": "queue_submit", "queue": "slurm", "job": 1},
        {"event": "queue_connect", "queue": "slurm", "job": 0,
         "latency": 2.0},
        {"event": "queue_submit", "queue": "pbs", "job": 0},
    ]
    table = queue_table(events)
    assert "per-queue acquisition" in table
    lines = {ln.split()[0]: ln for ln in table.splitlines()
             if ln and ln.split()[0] in ("slurm", "pbs")}
    assert " 2 " in lines["slurm"] and " 1 " in lines["slurm"]
    assert "2.00/2.00/2.00" in lines["slurm"]
    assert " 1 " in lines["pbs"] and " 0 " in lines["pbs"]
    assert queue_table([]) == "(no queue activity in the event log)"


# --------------------------------------------------------------------- #
# CLI integration
# --------------------------------------------------------------------- #

def test_cli_sweep_queue_loopback(tmp_path):
    from repro.cli import main

    out_a = tmp_path / "serial.json"
    out_b = tmp_path / "queue.json"
    base = ["sweep", "--dataset", "astro", "--seeding", "sparse",
            "--algorithm", "ondemand,static", "--ranks", "4",
            "--scale", "0.02"]
    assert main(base + ["--out", str(out_a)]) == 0
    clear_cache(disk=True)
    code = main(base + ["--out", str(out_b),
                        "--queue", "loopback:2",
                        "--telemetry", str(tmp_path / "telem")])
    assert code == 0
    assert out_a.read_bytes() == out_b.read_bytes()
    report = (tmp_path / "telem" / "utilization.txt").read_text()
    assert "per-queue acquisition" in report
    assert "loopback" in report


def test_cli_sweep_rejects_bad_queue_config(capsys):
    from repro.cli import main

    assert main(["sweep", "--queue", "local:2", "--dry-run"]) == 2
    assert "not a queue" in capsys.readouterr().err
    assert main(["sweep", "--queue", "condor:2", "--dry-run"]) == 2
    assert "no submit-template preset" in capsys.readouterr().err
    assert main(["sweep", "--nodes", "n1:1", "--queue", "n1:1",
                 "--queue-template", BLACKHOLE, "--dry-run"]) == 2
    assert "listed in both" in capsys.readouterr().err
