"""Worker transport: where a sweep's worker processes live.

The executor (:mod:`repro.exec.executor`) schedules :class:`RunSpec`
dispatch onto *slots*; behind every slot sits one :class:`StreamWorker`
— the single parent-side worker client.  It speaks a length-prefixed
JSON frame protocol over a ``(reader, writer, waitable, process)``
stream and exposes what the executor multiplexes on: ``send(spec)`` /
``recv()`` (one ``(status, payload, host)`` message per spec), a
``waitable`` for :func:`multiprocessing.connection.wait`, and the
``alive`` / ``terminate`` / ``reap`` / ``kill`` / ``shutdown`` /
``close`` lifecycle.  The worker side of every stream is the same serve
loop (:mod:`repro.exec.remote_worker`).

Only **acquisition** — how the stream is obtained — varies:

:func:`fork_worker`
    The in-machine pool (``--jobs N``): a ``multiprocessing`` child on a
    ``socket.socketpair()``.
:func:`command_worker`
    A worker on another machine (``--nodes host:slots``), launched from
    a pluggable **command template** (``ssh {host} ... python -m
    repro.exec.remote_worker`` in production; a plain ``sh -c`` loopback
    template in tests and CI, so no real ssh is ever needed) and spoken
    to over its stdio.
:class:`QueueSource`
    Workers acquired through a **batch scheduler** (``--queue
    slurm:16``): one detached job per slot is submitted from a
    **submit template** (``sbatch`` / ``qsub`` presets plus an ssh-free
    ``sh -c ... &`` loopback preset), and each job runs ``python -m
    repro.exec.remote_worker --connect host:port`` to dial back into a
    TCP **rendezvous listener**.  Acquisition is bounded by a timeout
    and unacquired slots degrade exactly like an unreachable node.

Every acquisition ends in the one :func:`handshake`: the worker
announces its protocol version, feature list, hostname, and a
calibration-probe timing; the parent rejects incompatible protocols,
answers with a ``config`` frame, and derives a per-node **speed
factor** (parent probe seconds / worker probe seconds; forked workers
skip the probe, local speed is 1.0 by definition) that node-aware LPT
uses to steer the longest runs onto the fastest slots.  A
:class:`WorkerSource` names one acquisition target (a node or queue
and its slot count); the executor respawns slots through it and
``repro fleet check`` probes it.

Determinism: acquisition moves *where* a run executes, never what it
produces.  Payloads cross the wire as JSON — Python's ``json``
round-trips floats exactly (shortest-repr), so a merged artifact built
from worker outcomes is byte-identical to a serial in-process one
(test- and CI-``cmp``-gated).

Failure semantics (the executor enforces these, this module reports
them): a target whose workers cannot be launched or fail the handshake
is **unreachable** — the sweep degrades to the remaining slots with a
warning; a worker that dies mid-run surfaces as ``EOFError`` from
``recv`` — a remote death requeues the in-flight spec (bounded
retries, then a dedicated local worker), a local one is ``crashed``.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import multiprocessing
import os
import re
import shlex
import socket
import struct
import subprocess
import sys
import time
from dataclasses import dataclass
from multiprocessing import connection as mp_connection
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.exec.spec import RunSpec
from repro.exec.worker import FAULT_ENV

#: Framed-protocol version.  Bump on incompatible message changes; the
#: handshake rejects a mismatch before any spec is dispatched.
PROTOCOL_VERSION = 1

#: Features this side of the protocol understands (advertised in the
#: handshake; the parent gates optional behavior on the intersection).
PROTOCOL_FEATURES = ("calibration", "host-metrics", "shutdown")

#: Default command template for remote workers.  ``{host}`` and
#: ``{cwd}`` are substituted; the template is ``shlex``-split and
#: executed without a local shell.  Override per sweep with
#: ``--remote-template`` (tests/CI use an ssh-free ``sh -c`` loopback).
DEFAULT_REMOTE_TEMPLATE = (
    "ssh -o BatchMode=yes {host} "
    "cd {cwd} && PYTHONPATH=src python -m repro.exec.remote_worker")

#: Handshake wait limit [real seconds] (override via environment for
#: slow links).
HANDSHAKE_TIMEOUT_ENV = "REPRO_REMOTE_HANDSHAKE_TIMEOUT"
DEFAULT_HANDSHAKE_TIMEOUT = 30.0

#: Environment variable arming the transport-level fault hook (see
#: :mod:`repro.exec.remote_worker`): ``die:<substring>[:<tokenfile>]``
#: hard-exits a remote worker when it receives a matching spec — with a
#: token file, exactly once across all workers (the file is claimed
#: ``O_CREAT | O_EXCL``), which is how tests and CI simulate a node
#: dying mid-sweep without killing anything by hand.
REMOTE_FAULT_ENV = "REPRO_REMOTE_FAULT"

#: Bound on how long :meth:`QueueSource.acquire` waits for submitted
#: batch jobs to dial back in [real seconds].  Batch queues can sit in
#: ``PENDING`` for a while; raise this for busy clusters.
QUEUE_ACQUIRE_TIMEOUT_ENV = "REPRO_QUEUE_ACQUIRE_TIMEOUT"
DEFAULT_QUEUE_ACQUIRE_TIMEOUT = 120.0

#: Bound on one submit-command invocation (``sbatch``/``qsub`` itself,
#: not the job) [real seconds].
QUEUE_SUBMIT_TIMEOUT_ENV = "REPRO_QUEUE_SUBMIT_TIMEOUT"
DEFAULT_QUEUE_SUBMIT_TIMEOUT = 60.0

#: Hostname batch jobs should dial back to.  Defaults to this machine's
#: hostname (``127.0.0.1`` for the loopback preset); set it explicitly
#: when the submit host is multi-homed.
QUEUE_CONNECT_HOST_ENV = "REPRO_QUEUE_CONNECT_HOST"

#: Python interpreter the queue worker command launches on the compute
#: node.  Defaults to this process's interpreter, which is correct when
#: the repo checkout (and venv) is shared; override for heterogeneous
#: fleets.
QUEUE_PYTHON_ENV = "REPRO_QUEUE_PYTHON"

#: Submit-template presets, selected by queue name (``--queue slurm:16``
#: uses the ``slurm`` preset unless ``--queue-template`` overrides it).
#: Placeholders: ``{worker}`` — the shell-quoted worker launch command;
#: ``{worker_raw}`` — the same, unquoted; ``{worker_detached}`` — the
#: quoted command with output discarded and backgrounded (for wrappers
#: that do not detach by themselves); ``{cwd}``, ``{queue}``, ``{job}``,
#: ``{connect}``.  The substituted template is ``shlex``-split and
#: executed without a local shell.
QUEUE_PRESETS: Dict[str, str] = {
    "slurm": ("sbatch --parsable --job-name=repro-{queue}-{job} "
              "--output=/dev/null --error=/dev/null --wrap {worker}"),
    "pbs": ("qsub -N repro-{job} -o /dev/null -e /dev/null "
            "-- /bin/sh -c {worker}"),
    # Test/CI stand-in for a batch scheduler: detach the worker with
    # plain sh.  The output redirection is load-bearing — the submit
    # command's pipes must close when sh exits, not when the worker
    # does.
    "loopback": "sh -c {worker_detached}",
}

#: Upper bound on a single frame; a corrupt length prefix must not ask
#: the parent to allocate gigabytes.
MAX_FRAME_BYTES = 64 * 1024 * 1024

_HEADER = struct.Struct(">I")

#: Name of the pseudo-node whose slots run in the local pool (usable
#: inside ``--nodes`` to mix local and remote capacity).
LOCAL_NODE = "local"


class TransportError(RuntimeError):
    """A worker could not be launched or handshaken (node unreachable,
    protocol mismatch, template failure)."""


# --------------------------------------------------------------------- #
# Node descriptions
# --------------------------------------------------------------------- #

@dataclass(frozen=True)
class NodeSpec:
    """One machine's worth of worker slots in a distributed sweep."""

    name: str
    slots: int

    @property
    def is_local(self) -> bool:
        return self.name == LOCAL_NODE


def parse_nodes(text: str) -> List[NodeSpec]:
    """Parse ``--nodes host1:4,host2:8`` (bare ``host`` means 1 slot).

    ``local:N`` names the in-machine pool, so local and remote capacity
    can be mixed in one sweep.
    """
    nodes: List[NodeSpec] = []
    seen: Dict[str, int] = {}
    for item in (x.strip() for x in text.split(",")):
        if not item:
            continue
        name, sep, count = item.partition(":")
        if not name:
            raise ValueError(f"empty node name in --nodes entry {item!r}")
        if sep:
            try:
                slots = int(count)
            except ValueError:
                raise ValueError(
                    f"--nodes entry {item!r}: slot count {count!r} is "
                    "not an integer")
        else:
            slots = 1
        if slots <= 0:
            raise ValueError(f"--nodes entry {item!r}: slot count must "
                             "be positive")
        if name in seen:
            raise ValueError(f"node {name!r} listed twice")
        seen[name] = slots
        nodes.append(NodeSpec(name=name, slots=slots))
    if not nodes:
        raise ValueError("no nodes specified")
    return nodes


def read_nodes_file(path) -> List[NodeSpec]:
    """Parse a nodes file: one ``host:slots`` (or ``host slots``, or
    bare ``host``) per line; ``#`` comments and blank lines ignored."""
    path = Path(path)
    entries: List[str] = []
    for lineno, raw in enumerate(path.read_text(encoding="utf-8")
                                 .splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) == 1:
            entries.append(parts[0])
        elif len(parts) == 2:
            entries.append(f"{parts[0]}:{parts[1]}")
        else:
            raise ValueError(f"{path}:{lineno}: expected 'host[:slots]' "
                             f"or 'host slots', got {raw!r}")
    if not entries:
        raise ValueError(f"{path}: no nodes listed")
    return parse_nodes(",".join(entries))


#: One batch queue's worth of worker slots (``--queue slurm:16``): the
#: same name-and-count shape as a node.
QueueSpec = NodeSpec


def parse_queues(text: str) -> List[QueueSpec]:
    """Parse ``--queue slurm:16`` / ``--queue loopback:2,slurm:8``.

    Same grammar as ``--nodes`` (bare name means 1 slot).  The queue
    name selects a submit-template preset (:data:`QUEUE_PRESETS`)
    unless ``--queue-template`` overrides it; ``local`` is reserved for
    the in-machine pool and rejected here.
    """
    queues = parse_nodes(text)
    if any(q.is_local for q in queues):
        raise ValueError("'local' is not a queue — use --nodes local:N "
                         "for in-machine slots")
    return queues


def resolve_queue_template(name: str,
                           override: Optional[str] = None) -> str:
    """The submit template for queue *name*: explicit override first,
    then the preset named after the queue."""
    if override:
        return override
    try:
        return QUEUE_PRESETS[name]
    except KeyError:
        raise ValueError(
            f"no submit-template preset for queue {name!r} "
            f"(presets: {', '.join(sorted(QUEUE_PRESETS))}); pass "
            "--queue-template")


def parse_fleet(nodes: Optional[str] = None, nodes_file: Any = None,
                queue: Optional[str] = None,
                queue_template: Optional[str] = None
                ) -> Tuple[List[NodeSpec], List[QueueSpec]]:
    """The fleet a command line describes: ``--nodes`` plus
    ``--nodes-file`` entries, and ``--queue`` entries whose submit
    template resolves.  Raises ``ValueError`` for every configuration
    error — unparsable or unreadable specs, a name listed twice, an
    unknown queue preset — so callers share one rejection path."""
    node_specs = parse_nodes(nodes) if nodes else []
    if nodes_file:
        try:
            node_specs += read_nodes_file(nodes_file)
        except OSError as exc:
            raise ValueError(str(exc))
    names = [n.name for n in node_specs]
    if len(set(names)) != len(names):
        raise ValueError("duplicate node name across --nodes/--nodes-file")
    queue_specs = parse_queues(queue) if queue else []
    for q in queue_specs:
        resolve_queue_template(q.name, queue_template)
    overlap = sorted(set(names) & {q.name for q in queue_specs})
    if overlap:
        raise ValueError(f"duplicate target name: {', '.join(overlap)} "
                         "listed in both --nodes and --queue")
    return node_specs, queue_specs


# --------------------------------------------------------------------- #
# Frame protocol (length-prefixed JSON over byte streams)
# --------------------------------------------------------------------- #

def write_frame(fh, obj: Any) -> None:
    """Write one length-prefixed JSON frame (handles partial writes)."""
    payload = json.dumps(obj, separators=(",", ":")).encode("utf-8")
    if len(payload) > MAX_FRAME_BYTES:
        raise ValueError(f"frame of {len(payload)} bytes exceeds the "
                         f"{MAX_FRAME_BYTES}-byte protocol limit")
    data = memoryview(_HEADER.pack(len(payload)) + payload)
    while data:
        n = fh.write(data)
        if n is None:  # buffered writer: everything was accepted
            break
        data = data[n:]
    flush = getattr(fh, "flush", None)
    if flush is not None:
        flush()


def _read_exact(fh, n: int, ready: Optional[Callable[[], None]]) -> bytes:
    chunks: List[bytes] = []
    got = 0
    while got < n:
        if ready is not None:
            ready()
        chunk = fh.read(n - got)
        if not chunk:
            raise EOFError("connection closed"
                           + (" mid-frame" if chunks else ""))
        chunks.append(chunk)
        got += len(chunk)
    return b"".join(chunks)


def read_frame(fh, ready: Optional[Callable[[], None]] = None) -> Any:
    """Read one frame; raises ``EOFError`` on closed/garbled streams.

    *ready*, when given, is called before every read of an unbuffered
    stream and may raise to abandon a stalled peer — that is how the
    handshake bounds the *whole* hello frame, not just its first byte.
    """
    (length,) = _HEADER.unpack(_read_exact(fh, _HEADER.size, ready))
    if length > MAX_FRAME_BYTES:
        raise EOFError(f"frame length {length} exceeds the protocol "
                       "limit (corrupt stream?)")
    data = _read_exact(fh, length, ready)
    try:
        return json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise EOFError(f"undecodable frame ({exc})")


# --------------------------------------------------------------------- #
# Payload wire encoding
# --------------------------------------------------------------------- #

def spec_to_wire(spec: RunSpec) -> Dict[str, Any]:
    return dataclasses.asdict(spec)


def spec_from_wire(d: Dict[str, Any]) -> RunSpec:
    return RunSpec(**d)


def payload_to_wire(payload: Any) -> Dict[str, Any]:
    """Encode a task payload for the frame protocol.

    ``RunSummary`` (the figure-pipeline payload) gets a typed tag so the
    parent can reconstruct the dataclass; everything else (bench entry
    dicts, error strings) ships as plain JSON via
    :func:`repro.obs.export.jsonable`.  JSON round-trips floats exactly,
    which is what keeps remote merges byte-identical to serial ones.
    """
    from repro.analysis.experiments import RunSummary

    if isinstance(payload, RunSummary):
        return {"kind": "summary", "value": dataclasses.asdict(payload)}
    from repro.obs.export import jsonable
    return {"kind": "json", "value": jsonable(payload)}


def payload_from_wire(obj: Any) -> Any:
    if not isinstance(obj, dict) or "kind" not in obj:
        return obj
    if obj["kind"] == "summary":
        from repro.analysis.experiments import ExperimentKey, RunSummary

        value = dict(obj["value"])
        key = ExperimentKey(**value.pop("key"))
        return RunSummary(key=key, **value)
    return obj["value"]


# --------------------------------------------------------------------- #
# Calibration
# --------------------------------------------------------------------- #

#: Iterations of the calibration loop (fixed, so every node times the
#: same work).
_CALIB_ITERS = 120_000

def calibration_probe(repeats: int = 3) -> float:
    """Time a tiny fixed pure-Python workload [best-of-N seconds].

    Both ends of the handshake run the identical probe; the ratio
    (parent seconds / worker seconds) is the node's relative speed
    factor.  Deliberately interpreter-bound — it measures the machine,
    not NumPy's BLAS."""
    best = float("inf")
    for _ in range(max(1, repeats)):
        t0 = time.perf_counter()
        acc = 0.0
        for i in range(_CALIB_ITERS):
            acc += (i & 7) * 0.5
        best = min(best, time.perf_counter() - t0)
    # acc is unused; keep the loop honest against optimizers.
    return max(best, 1e-9) + (0.0 * acc)


@functools.lru_cache(maxsize=None)
def reference_calibration() -> float:
    """The parent-side probe timing (measured once per process)."""
    return calibration_probe()


def _env_timeout(env: str, default: float) -> float:
    raw = os.environ.get(env, "")
    try:
        value = float(raw)
    except ValueError:
        return default
    return value if value > 0 else default


def hello_speed(hello: Dict[str, Any]) -> float:
    """Relative speed factor from a handshake's calibration timing."""
    calib = hello.get("calib")
    if isinstance(calib, (int, float)) and calib > 0:
        return reference_calibration() / float(calib)
    return 1.0



# --------------------------------------------------------------------- #
# The worker client
# --------------------------------------------------------------------- #

#: How long a dead or discarded worker gets to exit — so that its exit
#: code is collectable, and before it is killed [real seconds].
_REAP_GRACE = 5.0


class StreamWorker:
    """Parent-side handle for one frame-protocol worker.

    The stream is ``(reader, writer, waitable, proc)``: two unbuffered
    binary files, the object :func:`multiprocessing.connection.wait`
    selects on, and the local process handle (``subprocess.Popen`` or a
    ``multiprocessing`` process).  ``proc`` is ``None`` for a dial-back
    worker — the batch scheduler owns that process, the socket is its
    lifeline, and closing it is the termination signal (the worker's
    ``read_frame`` hits EOF and it exits).
    """

    def __init__(self, node: str, reader: Any, writer: Any,
                 waitable: Any, proc: Any = None) -> None:
        self.node = node
        self.reader = reader
        self.writer = writer
        self.waitable = waitable
        self.proc = proc
        self.hello: Dict[str, Any] = {}   # set by the handshake
        self.speed = 1.0
        self.external_id = ""             # the scheduler's job id, if any
        self._open = True

    @property
    def alive(self) -> bool:
        return self._open if self.proc is None else self.reap(0) is None

    def send(self, spec: RunSpec) -> None:
        try:
            write_frame(self.writer,
                        {"type": "run", "spec": spec_to_wire(spec)})
        except OSError as exc:
            raise EOFError(f"worker on {self.node} is gone ({exc})")

    def recv(self) -> Tuple[str, Any, Any]:
        """The next ``(status, payload, host)`` message.  Every way the
        stream can fail — EOF, a reset socket, a garbled or unexpected
        frame — is the one ``EOFError``: the worker is dead to us."""
        try:
            msg = read_frame(self.reader)
        except OSError as exc:
            raise EOFError(f"worker on {self.node} disconnected ({exc})")
        if not isinstance(msg, dict) or msg.get("type") != "result":
            raise EOFError(f"worker on {self.node} sent an unexpected "
                           f"frame: {msg!r}")
        return (str(msg.get("status")),
                payload_from_wire(msg.get("payload")), msg.get("host"))

    def terminate(self) -> None:
        if self.proc is None:
            self.close()
        elif self.alive:
            self.proc.terminate()

    def kill(self) -> None:
        if self.proc is None:
            self.close()
        else:
            self.proc.kill()

    def reap(self, timeout: Optional[float] = _REAP_GRACE
             ) -> Optional[int]:
        """Wait up to *timeout* (``None``: forever) for the process;
        its exit code, or ``None`` while it runs (and always for a
        dial-back worker)."""
        if self.proc is None:
            return None
        if isinstance(self.proc, subprocess.Popen):
            try:
                return self.proc.wait(timeout)
            except subprocess.TimeoutExpired:
                return None
        self.proc.join(timeout)
        return self.proc.exitcode

    def shutdown(self) -> None:
        """Ask the worker to exit (it may already be gone)."""
        try:
            write_frame(self.writer, {"type": "shutdown"})
        except OSError:
            pass

    def close(self) -> None:
        self._open = False
        for fh in (self.reader, self.writer, self.waitable):
            try:
                fh.close()
            except OSError:
                pass

    def discard(self, terminate: bool = True) -> None:
        """Stop, reap, and close a worker: one that died, timed out, or
        is memory-suspect is terminated; a healthy one
        (``terminate=False``) is asked to shut down and given the grace
        period to exit by itself first."""
        if terminate:
            self.terminate()
        else:
            self.shutdown()
        self.reap()
        if self.alive:
            self.kill()
            self.reap(None)
        self.close()


def handshake(worker: StreamWorker, collect_host: bool) -> StreamWorker:
    """hello → protocol check → ``config`` frame: the one handshake
    every acquisition ends in.  The whole hello read is bounded by
    :data:`HANDSHAKE_TIMEOUT_ENV`.  Returns the worker, ready for
    specs; any failure discards it and raises :class:`TransportError`.
    """
    limit = _env_timeout(HANDSHAKE_TIMEOUT_ENV, DEFAULT_HANDSHAKE_TIMEOUT)
    deadline = time.monotonic() + limit

    def ready() -> None:
        remaining = deadline - time.monotonic()
        if remaining <= 0 or not mp_connection.wait(
                [worker.waitable], timeout=remaining):
            raise TimeoutError

    try:
        hello = read_frame(worker.reader, ready)
        if not isinstance(hello, dict) or hello.get("type") != "hello":
            raise TransportError(f"expected a hello frame, got {hello!r}")
        if hello.get("protocol") != PROTOCOL_VERSION:
            raise TransportError(
                f"protocol {hello.get('protocol')!r} != "
                f"{PROTOCOL_VERSION} (mismatched repro versions?)")
        write_frame(worker.writer, {
            "type": "config",
            "collect_host": collect_host,
            "fault": os.environ.get(FAULT_ENV, ""),
            "remote_fault": os.environ.get(REMOTE_FAULT_ENV, ""),
        })
    except TimeoutError:
        failure = f"handshake timed out after {limit:g}s"
    except (EOFError, OSError) as exc:
        failure = f"worker exited during the handshake ({exc})"
    except TransportError as exc:
        failure = str(exc)
    else:
        worker.hello, worker.speed = hello, hello_speed(hello)
        return worker
    worker.discard()
    raise TransportError(failure)


# --------------------------------------------------------------------- #
# Acquisition: fork, command, dial-back
# --------------------------------------------------------------------- #

def fork_worker(collect_host: bool = False) -> StreamWorker:
    """Fork a ``multiprocessing`` child serving a ``socketpair``.

    ``fork`` where the platform offers it (cheap, inherits loaded
    modules), ``spawn`` elsewhere — socket ends survive both, and
    results are identical either way."""
    from repro.exec.remote_worker import serve_socket

    method = ("fork" if "fork" in multiprocessing.get_all_start_methods()
              else "spawn")
    parent, child = socket.socketpair()
    proc = multiprocessing.get_context(method).Process(
        target=serve_socket, args=(child, {}, parent), daemon=True)
    proc.start()
    child.close()  # the child holds its end now
    return handshake(StreamWorker(
        LOCAL_NODE, parent.makefile("rb", buffering=0),
        parent.makefile("wb", buffering=0), parent, proc), collect_host)


def launch_command(host: str, template: str = DEFAULT_REMOTE_TEMPLATE
                   ) -> StreamWorker:
    """Start *template* (``{host}``/``{cwd}`` substituted, ``shlex``-
    split, no local shell) and return at once: the worker's stdio
    stream, its hello not yet read."""
    argv = shlex.split(template.replace("{host}", host)
                       .replace("{cwd}", os.getcwd()))
    if not argv:
        raise TransportError(f"remote template for {host} is empty")
    try:
        proc = subprocess.Popen(argv, stdin=subprocess.PIPE,
                                stdout=subprocess.PIPE, stderr=None,
                                bufsize=0)
    except OSError as exc:
        raise TransportError(f"cannot launch worker on {host}: {exc}")
    return StreamWorker(host, proc.stdout, proc.stdin, proc.stdout, proc)


def command_worker(host: str, template: str = DEFAULT_REMOTE_TEMPLATE,
                   collect_host: bool = False) -> StreamWorker:
    """A handshaken worker launched from *template*, spoken to over its
    stdio."""
    return handshake(launch_command(host, template), collect_host)


class WorkerSource:
    """One acquisition target: a node name and its slot count; forked
    workers for ``local``, the command template's for any other node.

    The executor fills the target's slots from it and, when ``spawn``
    fails, drops them; ``repro fleet check`` probes it.
    """

    kind = "ssh"
    #: How a startup failure is worded in the sweep's warning.
    lost_as = "node {} unreachable"

    def __init__(self, node: NodeSpec, template: Optional[str] = None,
                 collect_host: bool = False) -> None:
        self.node = node
        if node.is_local:
            self.kind = "local"
        self.template = template
        self.collect_host = collect_host
        #: Handshake failures seen while acquiring, for warnings.
        self.problems: List[str] = []
        #: What ``launch()`` started and ``acquire()`` has yet to
        #: handshake: the probe's stream, or why it could not start.
        self._launched: Any = None

    def spawn(self) -> StreamWorker:
        """Open one worker here; launch failure, handshake timeout or
        EOF, and protocol mismatch raise :class:`TransportError`."""
        if self.node.is_local:
            return fork_worker(self.collect_host)
        return command_worker(self.node.name,
                              self.template or DEFAULT_REMOTE_TEMPLATE,
                              self.collect_host)

    def launch(self) -> None:
        """Start a remote node's probe process without waiting for its
        hello, so a fleet launched first and acquired second starts up
        side by side; a launch failure is kept for ``acquire()`` to
        raise.  The parent's calibration is taken before the first
        process exists: later it would compete with the starting
        interpreters and skew every node's speed factor."""
        if self.kind == "ssh" and self._launched is None:
            reference_calibration()
            try:
                self._launched = launch_command(
                    self.node.name,
                    self.template or DEFAULT_REMOTE_TEMPLATE)
            except TransportError as exc:
                self._launched = exc

    def acquire(self) -> List[Optional[StreamWorker]]:
        """One entry per usable slot, before dispatch begins: a held
        worker, or ``None`` for a slot that spawns on first use.  A
        remote node holds one **probe worker** — it detects an
        unreachable node before any spec is dispatched and yields the
        node's calibration speed; forking needs neither.  The probe is
        the process ``launch()`` started, if it was called; its
        handshake deadline starts here, at its own hello read."""
        lazy: List[Optional[StreamWorker]] = [None] * self.node.slots
        if not self.node.is_local:
            self.launch()
            if isinstance(self._launched, TransportError):
                raise self._launched
            lazy[0] = handshake(self._launched, self.collect_host)
            self._launched = None  # handed over; until here close() reaps
        return lazy

    def close(self) -> None:
        """Release source-owned resources: a probe that was launched
        and never acquired is stopped and reaped."""
        probe, self._launched = self._launched, None
        if isinstance(probe, StreamWorker):
            probe.discard()


# --------------------------------------------------------------------- #
# Dial-back acquisition (batch-scheduler workers)
# --------------------------------------------------------------------- #

def worker_launch_command(queue: str, job: int, connect: str,
                          cwd: Optional[str] = None) -> str:
    """The shell command a batch job runs to become a sweep worker.

    It changes into the repo checkout (assumed shared between submit
    and compute nodes, like the ssh template assumes), prepends
    ``src`` to ``PYTHONPATH``, and starts the remote worker in
    connect-back mode.  ``$PYTHONPATH`` expands on the compute node.
    """
    python = os.environ.get(QUEUE_PYTHON_ENV) or sys.executable
    cwd = cwd or os.getcwd()
    return ("cd {cwd} && PYTHONPATH=src${{PYTHONPATH:+:$PYTHONPATH}} "
            "{python} -m repro.exec.remote_worker --connect {connect} "
            "--queue {queue} --job {job}").format(
                cwd=shlex.quote(cwd), python=shlex.quote(python),
                connect=connect, queue=queue, job=job)


_TEMPLATE_PLACEHOLDER = re.compile(
    r"\{(worker_detached|worker_raw|worker|cwd|queue|job|connect)\}")


def queue_submit_command(template: str, queue: str, job: int,
                         connect: str,
                         cwd: Optional[str] = None) -> List[str]:
    """Substitute a submit template's placeholders and split it into an
    argv (executed without a local shell)."""
    raw = worker_launch_command(queue, job, connect, cwd)
    values = {
        "worker": shlex.quote(raw),
        "worker_raw": raw,
        "worker_detached": shlex.quote(f"{raw} >/dev/null 2>&1 &"),
        "cwd": shlex.quote(cwd or os.getcwd()),
        "queue": queue,
        "job": str(job),
        "connect": connect,
    }
    text = _TEMPLATE_PLACEHOLDER.sub(lambda m: values[m.group(1)],
                                     template)
    argv = shlex.split(text)
    if not argv:
        raise TransportError(f"submit template for queue {queue!r} is "
                             "empty")
    return argv


class QueueSource(WorkerSource):
    """Acquisition through a batch scheduler: submit a job, accept its
    TCP dial-back.

    ``acquire()`` submits one job per slot and collects dial-backs on
    the rendezvous listener until every submission connected or the
    acquisition timeout (:data:`QUEUE_ACQUIRE_TIMEOUT_ENV`) expires —
    partial acquisition is not an error; the executor folds the missing
    slots back into the remaining capacity exactly like an unreachable
    node.  ``spawn()`` (mid-sweep respawn after a worker death)
    first drains any late dial-back, then submits a replacement job and
    waits for it, bounded by the same timeout.

    A submit command that fails (non-zero exit, missing binary,
    timeout) is a :class:`TransportError`, which drops the whole queue
    — a broken ``sbatch`` is not going to start working mid-sweep.
    """

    kind = "queue"
    lost_as = "queue {} unavailable"

    def __init__(self, queue: QueueSpec, template: Optional[str] = None,
                 collect_host: bool = False,
                 acquire_timeout: Optional[float] = None,
                 emit: Optional[Callable[..., None]] = None) -> None:
        super().__init__(queue, template, collect_host)
        self.acquire_timeout = (
            acquire_timeout if acquire_timeout and acquire_timeout > 0
            else _env_timeout(QUEUE_ACQUIRE_TIMEOUT_ENV,
                              DEFAULT_QUEUE_ACQUIRE_TIMEOUT))
        #: Submitted jobs yet to dial back: job -> (submit time, the
        #: scheduler's job id).  A dial-back for anything else is stale.
        self._pending: Dict[int, Tuple[float, str]] = {}
        self._jobs = 0
        self._emit = emit if emit is not None else (lambda *a, **k: None)
        self._listener = socket.create_server(("", 0))  # the rendezvous

    def connect_address(self) -> str:
        """``host:port`` batch jobs dial back to."""
        host = os.environ.get(QUEUE_CONNECT_HOST_ENV) or (
            "127.0.0.1" if self.node.name == "loopback"
            else socket.gethostname())
        return f"{host}:{self._listener.getsockname()[1]}"

    def submit(self) -> None:
        """Submit one batch job; raises :class:`TransportError` when
        the submit command itself fails."""
        name = self.node.name
        job = self._jobs
        try:
            argv = queue_submit_command(
                resolve_queue_template(name, self.template),
                name, job, self.connect_address())
            res = subprocess.run(
                argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                timeout=_env_timeout(QUEUE_SUBMIT_TIMEOUT_ENV,
                                     DEFAULT_QUEUE_SUBMIT_TIMEOUT))
        except ValueError as exc:
            raise TransportError(str(exc))
        except (OSError, subprocess.SubprocessError) as exc:
            raise TransportError(
                f"queue {name}: submit command failed ({exc})")
        if res.returncode != 0:
            err = res.stderr.decode("utf-8", "replace").strip()
            tail = err.splitlines()[-1] if err else ""
            raise TransportError(
                f"queue {name}: submit command exited "
                f"{res.returncode}" + (f" ({tail})" if tail else ""))
        out = res.stdout.decode("utf-8", "replace").strip()
        external_id = out.splitlines()[0].strip() if out else ""
        self._jobs += 1
        self._pending[job] = (time.monotonic(), external_id)
        self._emit("queue_submit", queue=name, job=job,
                   external_id=external_id)

    def _accept(self, timeout: float) -> Optional[StreamWorker]:
        """Accept and handshake one dial-back, or return ``None`` if no
        connection arrives within *timeout* (handshake failures are
        recorded in ``problems``, not raised)."""
        self._listener.settimeout(max(0.0, timeout))
        try:
            conn, addr = self._listener.accept()
        except OSError:  # includes the timeout
            return None
        name = self.node.name
        try:
            worker = handshake(StreamWorker(
                name, conn.makefile("rb", buffering=0),
                conn.makefile("wb", buffering=0), conn), self.collect_host)
        except TransportError as exc:
            self.problems.append(
                f"queue {name}: dial-back from {addr[0]}: {exc}")
            return None
        job = worker.hello.get("job")
        if not isinstance(job, int) or job not in self._pending:
            self.problems.append(
                f"queue {name}: unexpected dial-back for job {job!r} "
                f"from {addr[0]} (stale or foreign worker)")
            worker.discard()
            return None
        submitted_at, worker.external_id = self._pending.pop(job)
        self._emit("queue_connect", queue=name, job=job,
                   latency=round(time.monotonic() - submitted_at, 6),
                   host=worker.hello.get("host"),
                   external_id=worker.external_id)
        return worker

    def _collect(self, n: int) -> List[StreamWorker]:
        """Submit *n* jobs, then accept dial-backs until all *n*
        connected or the acquisition timeout expires."""
        for _ in range(n):
            self.submit()
        deadline = time.monotonic() + self.acquire_timeout
        workers: List[StreamWorker] = []
        while len(workers) < n:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                break
            worker = self._accept(min(0.25, remaining))
            if worker is not None:
                workers.append(worker)
        return workers

    def acquire(self) -> List[Optional[StreamWorker]]:
        """Every slot's worker, acquired before dispatch; possibly
        fewer than ``slots`` (the rest never connected in time)."""
        return list(self._collect(self.node.slots))

    def spawn(self) -> StreamWorker:
        # A replacement may already be dialing in (late original job).
        worker = self._accept(0.0)
        if worker is None:
            got = self._collect(1)
            if not got:
                raise TransportError(
                    self.problems[-1] if self.problems else
                    f"queue {self.node.name}: no worker dialed back "
                    f"within {self.acquire_timeout:g}s")
            worker = got[0]
        return worker

    def close(self) -> None:
        self._listener.close()


def worker_sources(nodes: Sequence[NodeSpec] = (),
                   queues: Sequence[QueueSpec] = (),
                   remote_template: Optional[str] = None,
                   queue_template: Optional[str] = None,
                   collect_host: bool = False,
                   acquire_timeout: Optional[float] = None,
                   emit: Optional[Callable[..., None]] = None
                   ) -> List[WorkerSource]:
    """The acquisition targets of a fleet — nodes, then queues, in
    listed order — for the executor to fill slots from and ``repro
    fleet check`` to probe."""
    return ([WorkerSource(node, remote_template, collect_host)
             for node in nodes]
            + [QueueSource(queue, queue_template, collect_host,
                           acquire_timeout, emit) for queue in queues])
