"""The sweep worker: ``python -m repro.exec.remote_worker``.

The worker side of every :class:`repro.exec.transport.StreamWorker`.
The parent launches this module on another machine (``ssh`` in
production, a batch scheduler's launcher such as ``srun`` inside an
allocation, any command template — tests use a local ``sh -c``
loopback) and speaks over the process's stdin and stdout; or it forks
:func:`serve_socket` on a ``socketpair`` for an in-machine worker.
Either way the conversation is the same length-prefixed JSON frame
protocol:

1. worker → parent: a ``hello`` frame — protocol version, hostname,
   pid, and a calibration-probe timing the parent turns into this
   node's relative speed factor;
2. parent → worker: a ``config`` frame (fault-injection settings, so
   loopback tests behave identically under every launch template);
3. then a ``run`` / ``result`` loop until a ``shutdown`` frame or EOF;
   every result carries the run's host-metric dict.

stdout hygiene (stdio mode): the frame stream *is* fd 1, so the very
first thing the worker does is duplicate the real stdout away and
point fd 1 at stderr — any stray ``print`` from task code (or an
imported library) lands in the parent's stderr instead of corrupting a
frame.

Execution is :func:`repro.exec.worker._execute` for every worker, so
a spec's payload is byte-identical no matter which machine computed
it.

Fault injection (tests/CI only)
-------------------------------
``REPRO_REMOTE_FAULT=die:<substring>[:<tokenfile>]`` makes a remote
(not forked) worker hard-exit when it *receives* a spec whose name
contains ``<substring>`` — simulating a node dying mid-run.  With a
token file the death is claimed atomically (``O_CREAT | O_EXCL``) so
exactly one worker dies across the whole sweep and the requeued
attempt then succeeds; without one, every matching dispatch dies
(exercises retry exhaustion and the local fallback).
"""

from __future__ import annotations

import os
import socket
import sys
from typing import Any, Dict

from repro.exec.transport import (
    PROTOCOL_VERSION,
    REMOTE_FAULT_ENV,
    calibration_probe,
    payload_to_wire,
    read_frame,
    spec_from_wire,
    write_frame,
)
from repro.exec.worker import FAULT_ENV, _execute

#: Exit code for an injected die-once fault (distinct from the
#: ``crash`` fault's 3, so logs tell them apart).
_DIE_EXIT_CODE = 43


def _bind_stdio():
    """Claim fd 0/1 for the frame protocol; reroute stray stdout.

    Returns unbuffered binary ``(inp, out)`` file objects on private
    duplicates of the original stdin/stdout, then points fd 1 at fd 2 so
    anything task code prints goes to stderr, not into the frame stream.
    """
    inp = os.fdopen(os.dup(0), "rb", buffering=0)
    out = os.fdopen(os.dup(1), "wb", buffering=0)
    os.dup2(2, 1)
    sys.stdout = sys.stderr
    return inp, out


def _maybe_die(spec_name: str) -> None:
    fault = os.environ.get(REMOTE_FAULT_ENV, "")
    if not fault:
        return
    kind, _, rest = fault.partition(":")
    if kind != "die":
        return
    substring, _, token = rest.partition(":")
    if not substring or substring not in spec_name:
        return
    if token:
        try:
            # Claim the one allowed death atomically; once the token
            # file exists every later matching dispatch proceeds, so
            # the requeued attempt succeeds.
            fd = os.open(token, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            return
        os.close(fd)
    os._exit(_DIE_EXIT_CODE)


def _serve(inp: Any, out: Any, local: bool = False) -> int:
    """Announce hello and serve the frame loop.

    A *local* (forked) worker announces no calibration timing — local
    speed is 1.0 by definition — and ignores the node-death fault."""
    hello: Dict[str, Any] = {
        "type": "hello",
        "protocol": PROTOCOL_VERSION,
        "host": socket.gethostname(),
        "pid": os.getpid(),
    }
    if not local:
        hello["calib"] = calibration_probe()
    write_frame(out, hello)
    while True:
        try:
            msg = read_frame(inp)
        except EOFError:
            break  # parent went away; nothing left to serve
        kind = msg.get("type") if isinstance(msg, dict) else None
        if kind == "shutdown":
            break
        if kind == "config":
            # Propagate fault settings explicitly: a real remote shell
            # does not inherit the parent's environment.
            for env, key in ((FAULT_ENV, "fault"),
                             (REMOTE_FAULT_ENV, "remote_fault")):
                value = msg.get(key)
                if value:
                    os.environ[env] = str(value)
            continue
        if kind != "run":
            write_frame(out, {"type": "result", "status": "error",
                              "payload": payload_to_wire(
                                  f"unknown frame type {kind!r}"),
                              "host": None})
            continue
        spec = spec_from_wire(msg["spec"])
        if not local:
            _maybe_die(spec.name)
        status, payload, host = _execute(spec)
        write_frame(out, {"type": "result", "run": spec.name,
                          "status": status,
                          "payload": payload_to_wire(payload),
                          "host": host})
    return 0


def serve_socket(sock: socket.socket, peer: socket.socket) -> int:
    """Serve the frame loop over *sock*, a forked local worker's end of
    a ``socketpair``.  The child drops its inherited copy of *peer*, the
    parent's end, so the parent's death reaches it as EOF."""
    peer.close()
    inp = sock.makefile("rb", buffering=0)
    out = sock.makefile("wb", buffering=0)
    try:
        return _serve(inp, out, local=True)
    finally:
        for fh in (inp, out, sock):
            try:
                fh.close()
            except OSError:
                pass


def main(argv=None) -> int:
    import argparse

    # No options: a stray argument is an error, not a worker that sits
    # waiting for frames on a stdin nobody writes to.
    argparse.ArgumentParser(
        prog="python -m repro.exec.remote_worker",
        description="Frame-protocol sweep worker over stdin/stdout."
    ).parse_args(argv)
    inp, out = _bind_stdio()
    return _serve(inp, out)


if __name__ == "__main__":
    sys.exit(main())
