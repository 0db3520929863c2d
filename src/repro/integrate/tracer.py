"""A forked tracer: one child process that integrates while its parent
replays.

The trajectory bank's seed trace is one long :func:`advance_pool` call,
and the simulator replays it (:mod:`repro.integrate.bank`).  The paper's
algorithms hide block I/O behind advection (§4); one level up, this
module hides the integration behind the replay on a core the run leaves
idle.  The child writes into arrays the parent allocated with
:func:`shared` (anonymous shared memory, inherited across ``os.fork``)
and sends one pipe byte per round it finished; the parent reads only
rounds it was told are finished, so it sees exactly what an in-process
call would have written.  No ``multiprocessing``: one ``os.fork``, one
pipe, and memory mapped before the fork.

Pipe protocol, child to parent: ``r`` per published round, then ``D``
when the call returned, or ``E`` and the exception's text when it
raised.  End of file without either means the child died.
"""

from __future__ import annotations

import gc
import mmap
import os
import signal
from typing import Callable, Optional

import numpy as np

from repro.obs.host import charge_child_cpu

Publish = Callable[[int], None]


def shared(shape, dtype) -> np.ndarray:
    """A zeroed array in anonymous memory that a forked child shares;
    a page becomes resident when first written."""
    dtype = np.dtype(dtype)
    count = int(np.prod(shape))
    buf = mmap.mmap(-1, max(count * dtype.itemsize, 1))
    return np.frombuffer(buf, dtype, count).reshape(shape)


def _send(fd: int, data: bytes) -> None:
    while data:
        data = data[os.write(fd, data):]


def _serve(trace: Callable[[Publish], None], rfd: int, wfd: int) -> None:
    """The child: run ``trace``, report, and leave without running any
    of the parent's exit handlers or finalizers."""
    code = 1
    try:
        os.close(rfd)
        gc.disable()  # short-lived; the parent's garbage is not ours
        sent = 0

        def publish(rounds: int) -> None:
            nonlocal sent
            if rounds > sent:
                _send(wfd, b"r" * (rounds - sent))
                sent = rounds

        trace(publish)
        _send(wfd, b"D")
        code = 0
    except BaseException as exc:  # noqa: BLE001
        # Reported, not re-raised: the child must leave through _exit
        # below, whatever stopped it (an interrupt included).
        try:
            _send(wfd, b"E" + f"{type(exc).__name__}: {exc}".encode())
        except OSError:  # the parent is gone
            pass
    finally:
        os._exit(code)


class Tracer:
    """``trace(publish)`` running in a forked child.

    ``published`` counts the rounds the child reported finished;
    :meth:`pump` blocks until it grows or the child ends.  ``done`` is
    set once ``trace`` returned, and the child is then reaped.  A child
    that raised or died makes :meth:`pump` raise ``RuntimeError`` with
    its message, now and on every later call and :meth:`check`.
    :meth:`close` kills a running child and reaps it (a later
    :meth:`pump` raises, never reading the closed pipe); the reaped
    child's CPU seconds are charged to the active
    :class:`~repro.obs.host.HostProbe`.
    """

    def __init__(self, trace: Callable[[Publish], None]) -> None:
        self.published = 0
        self.done = False
        self._failure: Optional[str] = None
        self._owner = os.getpid()
        rfd, wfd = os.pipe()
        try:
            pid = os.fork()
        except OSError:
            os.close(rfd)
            os.close(wfd)
            raise
        if pid == 0:  # pragma: no cover - the child never returns
            _serve(trace, rfd, wfd)
        os.close(wfd)
        self._pid: Optional[int] = pid
        self._fd = rfd

    def check(self) -> None:
        """Raise the failure of a child that raised, died or was closed
        before it finished."""
        if self._failure is not None:
            raise RuntimeError(self._failure)

    def pump(self) -> int:
        """Wait for the child to publish more rounds or end; returns
        ``published``.  The rounds of a read that ends in a failure are
        not counted."""
        self.check()
        if self.done:
            return self.published
        data = os.read(self._fd, 1 << 16)
        rounds = len(data) - len(data.lstrip(b"r"))
        tail = data[rounds:]
        if tail[:1] == b"E" or not data:
            while data:
                data = os.read(self._fd, 1 << 16)
                tail += data
            status = self.close()
            self._failure = ("trajectory tracer failed: "
                            + tail[1:].decode(errors="replace")
                            if tail else
                            f"trajectory tracer died ({_describe(status)})")
            raise RuntimeError(self._failure)
        self.published += rounds
        if tail[:1] == b"D":
            self.done = True
            self.close()
        return self.published

    def close(self) -> Optional[int]:
        """Kill the child unless it finished, reap it and close the pipe
        (idempotent, and a no-op in any process but the parent).
        Returns the wait status."""
        if self._pid is None or os.getpid() != self._owner:
            return None
        pid, self._pid = self._pid, None
        if not self.done:
            self._failure = "trajectory tracer closed before it finished"
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        status = None
        try:
            _, status, usage = os.wait4(pid, 0)
            charge_child_cpu(usage.ru_utime + usage.ru_stime)
        except ChildProcessError:
            pass
        os.close(self._fd)
        return status


def _describe(status: Optional[int]) -> str:
    if status is None:
        return "already reaped"
    if os.WIFSIGNALED(status):
        return f"signal {os.WTERMSIG(status)}"
    return f"exit status {os.waitstatus_to_exitcode(status)}"
