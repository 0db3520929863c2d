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
    repro.exec.remote_worker`` in production; inside a batch allocation
    the scheduler's own launcher, e.g. ``srun --nodelist={host} ...``;
    a plain ``sh -c`` loopback template in tests and CI, so no real ssh
    is ever needed) and spoken to over its stdio.

Every acquisition ends in the one :func:`handshake`: the worker
announces its protocol version, hostname, and a calibration-probe
timing; the parent rejects incompatible protocols, answers with a
``config`` frame, and derives a per-node **speed factor** (parent probe
seconds / worker probe seconds; forked workers skip the probe, local
speed is 1.0 by definition) that orders the free slots, fastest
first.  A :class:`WorkerSource` names one acquisition target (a node
and its slot count); the executor respawns slots through it.

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
import shlex
import socket
import struct
import subprocess
import time
from dataclasses import dataclass
from multiprocessing import connection as mp_connection
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.exec.spec import RunSpec
from repro.exec.worker import FAULT_ENV

#: Framed-protocol version.  Bump on incompatible message changes; the
#: handshake rejects a mismatch before any spec is dispatched.
PROTOCOL_VERSION = 2

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
    ``multiprocessing`` process).
    """

    def __init__(self, node: str, reader: Any, writer: Any,
                 waitable: Any, proc: Any) -> None:
        self.node = node
        self.reader = reader
        self.writer = writer
        self.waitable = waitable
        self.proc = proc
        self.hello: Dict[str, Any] = {}   # set by the handshake
        self.speed = 1.0

    @property
    def alive(self) -> bool:
        return self.reap(0) is None

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
        if self.alive:
            self.proc.terminate()

    def kill(self) -> None:
        self.proc.kill()

    def reap(self, timeout: Optional[float] = _REAP_GRACE
             ) -> Optional[int]:
        """Wait up to *timeout* (``None``: forever) for the process;
        its exit code, or ``None`` while it runs."""
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


def handshake(worker: StreamWorker) -> StreamWorker:
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
# Acquisition: fork, command
# --------------------------------------------------------------------- #

def fork_worker() -> StreamWorker:
    """Fork a ``multiprocessing`` child serving a ``socketpair``.

    ``fork`` where the platform offers it (cheap, inherits loaded
    modules), ``spawn`` elsewhere — socket ends survive both, and
    results are identical either way."""
    from repro.exec.remote_worker import serve_socket

    method = ("fork" if "fork" in multiprocessing.get_all_start_methods()
              else "spawn")
    parent, child = socket.socketpair()
    proc = multiprocessing.get_context(method).Process(
        target=serve_socket, args=(child, parent), daemon=True)
    proc.start()
    child.close()  # the child holds its end now
    return handshake(StreamWorker(
        LOCAL_NODE, parent.makefile("rb", buffering=0),
        parent.makefile("wb", buffering=0), parent, proc))


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


def command_worker(host: str, template: str = DEFAULT_REMOTE_TEMPLATE
                   ) -> StreamWorker:
    """A handshaken worker launched from *template*, spoken to over its
    stdio."""
    return handshake(launch_command(host, template))


class WorkerSource:
    """One acquisition target: a node name and its slot count; forked
    workers for ``local``, the command template's for any other node.

    The executor fills the target's slots from it and, when ``spawn``
    fails, drops them.
    """

    kind = "ssh"

    def __init__(self, node: NodeSpec, template: Optional[str] = None
                 ) -> None:
        self.node = node
        if node.is_local:
            self.kind = "local"
        self.template = template
        #: What ``launch()`` started and ``acquire()`` has yet to
        #: handshake: the probe's stream, or why it could not start.
        self._launched: Any = None

    def spawn(self) -> StreamWorker:
        """Open one worker here; launch failure, handshake timeout or
        EOF, and protocol mismatch raise :class:`TransportError`."""
        if self.node.is_local:
            return fork_worker()
        return command_worker(self.node.name,
                              self.template or DEFAULT_REMOTE_TEMPLATE)

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
            lazy[0] = handshake(self._launched)
            self._launched = None  # handed over; until here close() reaps
        return lazy

    def close(self) -> None:
        """Release source-owned resources: a probe that was launched
        and never acquired is stopped and reaped."""
        probe, self._launched = self._launched, None
        if isinstance(probe, StreamWorker):
            probe.discard()


def worker_sources(nodes: Sequence[NodeSpec],
                   remote_template: Optional[str] = None
                   ) -> List[WorkerSource]:
    """The acquisition targets of a fleet, in listed order, for the
    executor to fill slots from."""
    return [WorkerSource(node, remote_template) for node in nodes]
