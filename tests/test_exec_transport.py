"""Distributed sweep transport: framing, node specs, loopback remotes,
failover, and the byte-identity contract across transports."""

import io
import json
import os
import shlex
import signal
import struct
import sys
import time
from pathlib import Path

import pytest

from repro.analysis.experiments import (
    ExperimentKey,
    RunSummary,
    clear_cache,
    run_experiment,
)
from repro.exec import (
    LOCAL_NODE,
    OUTCOME_OK,
    PROTOCOL_VERSION,
    JsonlTelemetry,
    NodeSpec,
    RunSpec,
    SweepExecutor,
    TransportError,
    calibration_probe,
    command_worker,
    fork_worker,
    grid_specs,
    load_events,
    merge_run_entries,
    parse_nodes,
    validate_events,
)
from repro.exec.transport import (
    MAX_FRAME_BYTES,
    payload_from_wire,
    payload_to_wire,
    read_frame,
    spec_from_wire,
    spec_to_wire,
    write_frame,
)
from repro.exec.worker import FAULT_ENV
from repro.exec.transport import HANDSHAKE_TIMEOUT_ENV, REMOTE_FAULT_ENV

REPO = Path(__file__).resolve().parent.parent

#: Loopback "remote": the worker protocol over a plain subprocess on
#: this machine — same framing, handshake, and failover paths as ssh,
#: no network needed.
LOOPBACK = f"{sys.executable} -m repro.exec.remote_worker"


@pytest.fixture(autouse=True)
def loopback_pythonpath(monkeypatch):
    """A PYTHONPATH the loopback workers inherit (they are plain
    subprocesses, not multiprocessing children)."""
    src = str(REPO / "src")
    existing = os.environ.get("PYTHONPATH", "")
    if src not in existing.split(os.pathsep):
        monkeypatch.setenv(
            "PYTHONPATH", src + (os.pathsep + existing if existing
                                 else ""))


def _spec(dataset="astro", seeding="sparse", algorithm="ondemand",
          n_ranks=4, **kw):
    return RunSpec(dataset=dataset, seeding=seeding, algorithm=algorithm,
                   n_ranks=n_ranks, scale=kw.pop("scale", 0.02), **kw)


def _summary_doc(outcomes):
    return json.dumps(merge_run_entries(outcomes), sort_keys=True).encode()


# --------------------------------------------------------------------- #
# Node specs
# --------------------------------------------------------------------- #

def test_parse_nodes_basic():
    nodes = parse_nodes("host1:4,host2:8")
    assert nodes == [NodeSpec("host1", 4), NodeSpec("host2", 8)]
    assert parse_nodes("host1") == [NodeSpec("host1", 1)]
    local, = parse_nodes("local:2")
    assert local.is_local and local.slots == 2


def test_parse_nodes_rejects_bad_specs():
    with pytest.raises(ValueError, match="listed twice"):
        parse_nodes("a:1,a:2")
    with pytest.raises(ValueError, match="not an integer"):
        parse_nodes("a:lots")
    with pytest.raises(ValueError, match="must be positive"):
        parse_nodes("a:0")
    with pytest.raises(ValueError, match="no nodes"):
        parse_nodes(",,")
    with pytest.raises(ValueError, match="empty node name"):
        parse_nodes(":4")


# --------------------------------------------------------------------- #
# Frame protocol
# --------------------------------------------------------------------- #

def test_frame_roundtrip_preserves_floats_exactly():
    buf = io.BytesIO()
    obj = {"x": 0.1 + 0.2, "names": ["a", "b"], "n": 7}
    write_frame(buf, obj)
    buf.seek(0)
    back = read_frame(buf)
    assert back == obj
    assert back["x"].hex() == obj["x"].hex()  # bit-exact


def test_read_frame_raises_eoferror_on_bad_streams():
    with pytest.raises(EOFError, match="closed"):
        read_frame(io.BytesIO(b""))
    buf = io.BytesIO()
    write_frame(buf, {"k": 1})
    with pytest.raises(EOFError, match="mid-frame"):
        read_frame(io.BytesIO(buf.getvalue()[:-1]))
    huge = struct.pack(">I", MAX_FRAME_BYTES + 1)
    with pytest.raises(EOFError, match="exceeds"):
        read_frame(io.BytesIO(huge))
    garbled = struct.pack(">I", 4) + b"\xff\xfe\x00\x01"
    with pytest.raises(EOFError, match="undecodable"):
        read_frame(io.BytesIO(garbled))


def test_spec_and_payload_wire_roundtrip():
    spec = _spec(algorithm="hybrid")
    assert spec_from_wire(spec_to_wire(spec)) == spec
    summary = run_experiment("astro", "sparse", "ondemand", 4, scale=0.02)
    wire = payload_to_wire(summary)
    back = payload_from_wire(json.loads(json.dumps(wire)))
    assert isinstance(back, RunSummary)
    assert back == summary  # frozen dataclasses: exact float equality
    entry = {"status": "ok", "wall_clock": 1.25}
    assert payload_from_wire(json.loads(
        json.dumps(payload_to_wire(entry)))) == entry


def test_calibration_probe_is_positive_and_reproducible():
    a = calibration_probe(repeats=1)
    assert a > 0.0


# --------------------------------------------------------------------- #
# The worker client, over each acquisition
# --------------------------------------------------------------------- #

def _open_fork():
    return fork_worker()


def _open_command():
    return command_worker("loop", LOOPBACK)


@pytest.mark.parametrize("acquire", [_open_fork, _open_command])
def test_worker_client_contract(acquire):
    """One client, two acquisitions: several specs round-trip through
    one long-lived worker; ``shutdown`` makes it exit; killing it
    surfaces as ``EOFError`` from ``recv``."""
    worker = acquire()
    victim = acquire()
    try:
        assert worker.hello["protocol"] == PROTOCOL_VERSION
        assert worker.speed > 0.0
        for algorithm in ("ondemand", "static"):
            worker.send(_spec(algorithm=algorithm))
            status, payload, host = worker.recv()
            assert status == OUTCOME_OK
            assert isinstance(payload, RunSummary)
            assert payload.key.algorithm == algorithm
            assert isinstance(host, dict) and host["wall_s"] > 0.0
        worker.shutdown()
        assert worker.reap(10.0) == 0
        assert not worker.alive

        assert victim.alive
        os.kill(victim.hello["pid"], signal.SIGKILL)
        with pytest.raises(EOFError):
            victim.recv()
    finally:
        worker.discard()
        victim.discard()
    assert not worker.alive and not victim.alive


def test_fork_worker_reports_no_calibration():
    """Local speed is 1.0 by definition: a forked worker skips the
    calibration probe."""
    worker = fork_worker()
    try:
        assert "calib" not in worker.hello
        assert worker.speed == 1.0
    finally:
        worker.discard()


def test_unreachable_node_raises_transport_error():
    with pytest.raises(TransportError, match="during the handshake"):
        command_worker("ghost", "sh -c 'exit 7'")
    with pytest.raises(TransportError, match="cannot launch"):
        command_worker("ghost", "/nonexistent/launcher {host}")


def test_handshake_deadline_covers_the_whole_hello(tmp_path,
                                                   monkeypatch):
    """A launcher that writes half a frame header and stalls must not
    hang the sweep: the deadline bounds the whole hello read, and the
    child is terminated and reaped."""
    pidfile = tmp_path / "launcher.pid"
    monkeypatch.setenv(HANDSHAKE_TIMEOUT_ENV, "0.5")
    t0 = time.monotonic()
    with pytest.raises(TransportError, match="timed out after 0.5s"):
        command_worker(
            "stall", f"sh -c 'echo $$ > {pidfile}; printf ab; sleep 60'")
    assert time.monotonic() - t0 < 10.0
    with pytest.raises(ProcessLookupError):  # not even a zombie is left
        os.kill(int(pidfile.read_text()), 0)


#: A "worker" of an older repro: it announces protocol 1, then waits.
OLD_WORKER = """\
import json, struct, sys
hello = json.dumps({"type": "hello", "protocol": 1}).encode()
sys.stdout.buffer.write(struct.pack(">I", len(hello)) + hello)
sys.stdout.flush()
sys.stdin.buffer.read()
"""


def test_protocol_mismatch_is_refused_and_the_sweep_degrades(tmp_path,
                                                            capsys):
    """The handshake refuses a protocol-1 worker; a sweep loses that
    node at startup and finishes on the local fallback, merging to the
    serial bytes."""
    script = tmp_path / "old_worker.py"
    script.write_text(OLD_WORKER)
    template = f"{shlex.quote(sys.executable)} {shlex.quote(str(script))}"
    with pytest.raises(TransportError, match="protocol 1 != 2"):
        command_worker("old", template)
    specs = grid_specs(["astro"], ["sparse"], ["ondemand", "static"],
                       [4], scale=0.02)
    serial = SweepExecutor(jobs=1).run(specs)
    clear_cache()
    with JsonlTelemetry(tmp_path / "events.jsonl") as sink:
        fallback = SweepExecutor(nodes=parse_nodes("old:1"),
                                 remote_template=template,
                                 telemetry=sink).run(specs)
    events = load_events(sink.path)
    assert validate_events(events) == []
    lost, = (e for e in events if e["event"] == "node_lost")
    assert (lost["node"], lost["phase"]) == ("old", "startup")
    assert "protocol 1 != 2" in lost["reason"]
    assert {e["node"] for e in events if e["event"] == "retire"} \
        == {LOCAL_NODE}
    assert _summary_doc(fallback) == _summary_doc(serial)
    assert "no nodes reachable" in capsys.readouterr().err


@pytest.fixture
def start_log(monkeypatch):
    """Call order of the acquisition steps (``calib`` / ``popen`` /
    ``hello <node>``) and every process ``Popen`` started."""
    from repro.exec import transport

    log, procs = [], []
    probe, shake = transport.calibration_probe, transport.handshake

    class LoggedPopen(transport.subprocess.Popen):
        def __init__(self, *args, **kw):
            log.append("popen")
            super().__init__(*args, **kw)
            procs.append(self)

    def logged_probe(*args, **kw):
        log.append("calib")
        return probe(*args, **kw)

    def logged_handshake(worker):
        log.append(f"hello {worker.node}")
        return shake(worker)

    monkeypatch.setattr(transport.subprocess, "Popen", LoggedPopen)
    monkeypatch.setattr(transport, "calibration_probe", logged_probe)
    monkeypatch.setattr(transport, "handshake", logged_handshake)
    transport.reference_calibration.cache_clear()
    yield log, procs
    transport.reference_calibration.cache_clear()


def test_nodes_sweep_byte_identical_to_serial(tmp_path, start_log):
    """The acceptance contract: a 2-node loopback sweep merges
    byte-identically to the serial sweep.  The nodes start side by
    side: both processes exist before the first hello is read, and the
    parent's calibration is taken before either."""
    log, procs = start_log
    specs = grid_specs(["astro"], ["sparse", "dense"],
                       ["ondemand", "static"], [4], scale=0.02)
    serial = SweepExecutor(jobs=1).run(specs)
    clear_cache()  # no memoized summary may stand in for a run
    assert log == []  # an inline sweep starts nothing
    sink = JsonlTelemetry(tmp_path / "events.jsonl")
    distributed = SweepExecutor(
        nodes=parse_nodes("n1:1,n2:1"), remote_template=LOOPBACK,
        telemetry=sink).run(specs)
    sink.close()
    assert log == ["calib", "popen", "popen", "hello n1", "hello n2"]
    assert all(proc.poll() == 0 for proc in procs)  # shut down, reaped
    assert [o.status for o in distributed] == [OUTCOME_OK] * len(specs)
    assert _summary_doc(serial) == _summary_doc(distributed)
    events = load_events(tmp_path / "events.jsonl")
    assert validate_events(events) == []
    begin = next(e for e in events if e["event"] == "sweep_begin")
    assert [n["node"] for n in begin["nodes"]] == ["n1", "n2"]
    assert {e["node"] for e in events if e["event"] == "retire"} \
        <= {"n1", "n2"}


def test_mixed_local_and_remote_slots():
    specs = grid_specs(["astro"], ["sparse", "dense"], ["ondemand"],
                       [4], scale=0.02)
    serial = SweepExecutor(jobs=1).run(specs)
    clear_cache()
    mixed = SweepExecutor(nodes=parse_nodes("local:1,n1:1"),
                          remote_template=LOOPBACK).run(specs)
    assert [o.status for o in mixed] == [OUTCOME_OK] * len(specs)
    assert _summary_doc(serial) == _summary_doc(mixed)


# --------------------------------------------------------------------- #
# Two-phase start: launch every node, then handshake in listed order
# --------------------------------------------------------------------- #

def test_launch_failure_on_one_node_spares_the_others(start_log, tmp_path,
                                                      capsys):
    """A node whose launcher cannot even be executed surfaces at its own
    acquire() as the usual unreachable-node degradation; the node listed
    after it was launched all the same."""
    log, procs = start_log
    sink = JsonlTelemetry(tmp_path / "events.jsonl")
    nodes = [NodeSpec("/nonexistent/python", 2), NodeSpec(sys.executable, 1)]
    outcomes = SweepExecutor(
        nodes=nodes, remote_template="{host} -m repro.exec.remote_worker",
        telemetry=sink).run([_spec(), _spec(algorithm="static")])
    sink.close()
    assert [o.status for o in outcomes] == [OUTCOME_OK] * 2
    assert log[:3] == ["calib", "popen", "popen"] and len(procs) == 1
    err = capsys.readouterr().err
    assert "node /nonexistent/python unreachable (cannot launch" in err
    events = load_events(tmp_path / "events.jsonl")
    assert validate_events(events) == []
    lost, = (e for e in events if e["event"] == "node_lost")
    assert lost["phase"] == "startup" and lost["slots"] == 2
    assert {e["node"] for e in events if e["event"] == "retire"} \
        == {sys.executable}


def test_launched_but_never_handshaken_probes_are_reaped(start_log,
                                                         monkeypatch):
    """An interrupt while the first node is being handshaken: the
    sweep's cleanup leaves no process behind, the second node's — which
    never got as far as its hello — included."""
    from repro.exec import transport

    log, procs = start_log

    def interrupted(worker):
        assert all(proc.poll() is None for proc in procs)  # both run
        raise KeyboardInterrupt

    monkeypatch.setattr(transport, "handshake", interrupted)
    with pytest.raises(KeyboardInterrupt):
        SweepExecutor(nodes=parse_nodes("n1:1,n2:1"),
                      remote_template=LOOPBACK).run([_spec()])
    assert log == ["calib", "popen", "popen"]
    assert [proc.poll() is not None for proc in procs] == [True, True]


def test_source_close_reaps_an_unacquired_probe():
    from repro.exec.transport import WorkerSource

    source = WorkerSource(NodeSpec("n1", 1), LOOPBACK)
    source.launch()
    proc = source._launched.proc
    assert proc.poll() is None
    source.close()
    assert proc.poll() is not None and source._launched is None
    source.close()  # idempotent
    # acquire() hands the probe over: close() then leaves it alone.
    source.launch()
    worker, = source.acquire()
    try:
        source.close()
        assert worker.alive and worker.hello["protocol"] == PROTOCOL_VERSION
    finally:
        worker.discard(terminate=False)


# --------------------------------------------------------------------- #
# Failover
# --------------------------------------------------------------------- #

def test_worker_death_requeues_and_completes(tmp_path, monkeypatch):
    """A remote worker dying mid-run: the run requeues (die-once token
    lets the retry succeed) and the sweep still retires every run."""
    token = tmp_path / "die.tok"
    monkeypatch.setenv(REMOTE_FAULT_ENV,
                       f"die:astro-sparse-static:{token}")
    specs = grid_specs(["astro"], ["sparse"], ["ondemand", "static"],
                       [4], scale=0.02)
    sink = JsonlTelemetry(tmp_path / "events.jsonl")
    outcomes = SweepExecutor(nodes=parse_nodes("n1:1,n2:1"),
                             remote_template=LOOPBACK,
                             telemetry=sink).run(specs)
    sink.close()
    assert [o.status for o in outcomes] == [OUTCOME_OK] * 2
    assert token.exists()
    events = load_events(tmp_path / "events.jsonl")
    assert validate_events(events) == []
    requeues = [e for e in events if e["event"] == "requeue"]
    assert len(requeues) == 1
    assert requeues[0]["run"] == "astro-sparse-static-4"
    assert requeues[0]["target"] == "remote"
    # Exactly one retire per announced run even with the failover.
    assert sum(e["event"] == "retire" for e in events) == len(specs)


def test_retry_exhaustion_falls_back_to_local(tmp_path, monkeypatch):
    """No die-once token: the node kills the run on every attempt, so
    after the retry budget the run finishes on a local fallback."""
    monkeypatch.setenv(REMOTE_FAULT_ENV, "die:astro-sparse-ondemand")
    spec = _spec(algorithm="ondemand")
    sink = JsonlTelemetry(tmp_path / "events.jsonl")
    outcomes = SweepExecutor(nodes=parse_nodes("n1:1"),
                             remote_template=LOOPBACK,
                             telemetry=sink).run([spec])
    sink.close()
    assert outcomes[0].status == OUTCOME_OK
    events = load_events(tmp_path / "events.jsonl")
    assert validate_events(events) == []
    requeues = [e for e in events if e["event"] == "requeue"]
    assert len(requeues) == 2
    assert requeues[-1]["target"] == "local"
    retire, = (e for e in events if e["event"] == "retire")
    assert retire["node"] == LOCAL_NODE


def test_unreachable_node_degrades_to_remaining_nodes(capsys):
    """One dead host in --nodes: warn, drop it, finish on the rest."""
    template = (f"sh -c 'test {{host}} = good && exec {sys.executable}"
                " -m repro.exec.remote_worker || exit 7'")
    specs = grid_specs(["astro"], ["sparse"], ["ondemand", "static"],
                       [4], scale=0.02)
    outcomes = SweepExecutor(nodes=parse_nodes("bad:2,good:1"),
                             remote_template=template).run(specs)
    assert [o.status for o in outcomes] == [OUTCOME_OK] * 2
    assert "bad" in capsys.readouterr().err


def test_all_nodes_unreachable_falls_back_to_local(capsys):
    outcomes = SweepExecutor(nodes=parse_nodes("bad:2"),
                             remote_template="sh -c 'exit 7'",
                             jobs=2).run([_spec()])
    assert outcomes[0].status == OUTCOME_OK
    assert "no nodes reachable" in capsys.readouterr().err


def test_scheduler_launcher_recipe(tmp_path, monkeypatch, capsys):
    """A batch scheduler's workers are reached through the command
    template: a launcher that waits before the worker starts (as
    ``srun`` inside an allocation may) serves both slots of its node
    within the handshake timeout; past the timeout the node degrades
    to the local fallback."""
    launcher = (f"sh -c 'sleep 1; exec {sys.executable} "
                "-m repro.exec.remote_worker'")
    specs = grid_specs(["astro"], ["sparse", "dense"],
                       ["ondemand", "static"], [4], scale=0.02)
    serial = SweepExecutor(jobs=1).run(specs)
    clear_cache()
    monkeypatch.setenv(HANDSHAKE_TIMEOUT_ENV, "10")
    sink = JsonlTelemetry(tmp_path / "events.jsonl")
    outcomes = SweepExecutor(nodes=parse_nodes("q:2"),
                             remote_template=launcher,
                             telemetry=sink).run(specs)
    sink.close()
    assert [o.status for o in outcomes] == [OUTCOME_OK] * len(specs)
    assert _summary_doc(serial) == _summary_doc(outcomes)
    events = load_events(tmp_path / "events.jsonl")
    assert validate_events(events) == []
    retired = [e for e in events if e["event"] == "retire"]
    assert {e["node"] for e in retired} == {"q"}
    assert {e["worker"] for e in retired} == {0, 1}

    monkeypatch.setenv(HANDSHAKE_TIMEOUT_ENV, "0.5")
    sink = JsonlTelemetry(tmp_path / "late.jsonl")
    outcomes = SweepExecutor(nodes=parse_nodes("q:2"),
                             remote_template=launcher,
                             telemetry=sink).run(specs[:1])
    sink.close()
    assert outcomes[0].status == OUTCOME_OK
    assert "no nodes reachable" in capsys.readouterr().err
    events = load_events(tmp_path / "late.jsonl")
    assert validate_events(events) == []
    lost, = (e for e in events if e["event"] == "node_lost")
    assert lost["node"] == "q" and lost["phase"] == "startup"
    assert "timed out after 0.5s" in lost["reason"]
    retire, = (e for e in events if e["event"] == "retire")
    assert retire["node"] == LOCAL_NODE


# --------------------------------------------------------------------- #
# CLI integration
# --------------------------------------------------------------------- #

def test_cli_sweep_nodes_loopback(tmp_path, capsys):
    from repro.cli import main

    out_a = tmp_path / "serial.json"
    out_b = tmp_path / "nodes.json"
    base = ["sweep", "--dataset", "astro", "--seeding", "sparse",
            "--algorithm", "ondemand,static", "--ranks", "4",
            "--scale", "0.02"]
    assert main(base + ["--out", str(out_a)]) == 0
    clear_cache()
    code = main(base + ["--out", str(out_b), "--nodes", "n1:1,n2:1",
                        "--remote-template", LOOPBACK,
                        "--telemetry", str(tmp_path / "telem")])
    assert code == 0
    assert out_a.read_bytes() == out_b.read_bytes()
    report = (tmp_path / "telem" / "utilization.txt").read_text()
    per_node = next(ln for ln in report.splitlines()
                    if ln.startswith("per node: "))
    assert "n1 " in per_node and "n2 " in per_node


def test_cli_sweep_rejects_bad_nodes(capsys):
    from repro.cli import main

    assert main(["sweep", "--nodes", "a:1,a:2", "--dry-run"]) == 2
    assert "listed twice" in capsys.readouterr().err
