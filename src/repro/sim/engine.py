"""Deterministic discrete-event engine.

The engine owns a simulated clock and a priority queue of timestamped
callbacks.  Simulated ranks are :class:`Process` objects wrapping Python
generators.  A process communicates with the engine by ``yield``-ing
:class:`Request` objects:

``Sleep(duration)``
    Suspend the process and resume it ``duration`` simulated seconds later.

``Wait(signal)``
    Suspend until ``signal.fire(value)`` is called; the fired value becomes
    the result of the ``yield``.

Composite blocking operations (receiving a message, reading a block from the
simulated filesystem, ...) are ordinary generator functions built from these
two primitives and invoked with ``yield from``.

Determinism
-----------
Events with equal timestamps are ordered by a monotonically increasing
sequence number, so the schedule never depends on hash order or memory
addresses.  Running the same program twice produces bit-identical traces.
"""

from __future__ import annotations

import heapq
import math
import sys
from dataclasses import dataclass
from typing import Any, Callable, Generator, Iterable, Optional


class DeadlockError(RuntimeError):
    """Raised when live processes remain but no future event can wake them."""


class ProcessFailure(RuntimeError):
    """Wraps an exception raised inside a simulated process.

    Attributes
    ----------
    process:
        The :class:`Process` whose coroutine raised.
    cause:
        The original exception (also available as ``__cause__``).
    """

    def __init__(self, process: "Process", cause: BaseException):
        super().__init__(f"process {process.name!r} failed: {cause!r}")
        self.process = process
        self.cause = cause


class Request:
    """Base class for values a process may ``yield`` to the engine.

    The engine dispatches on the exact type: :class:`Sleep`,
    :class:`Wait` or :class:`Signal`.  ``Sleep`` and ``Wait`` are slotted
    records, neither frozen nor hashable.
    """

    __slots__ = ()


@dataclass(slots=True)
class Sleep(Request):
    """Suspend the yielding process for ``duration`` simulated seconds.

    A request must not be changed after it is built; the engine checks a
    yielded ``Sleep``'s duration again all the same.
    """

    duration: float

    def __post_init__(self) -> None:
        if self.duration < 0:
            raise ValueError(f"negative sleep duration: {self.duration}")


class Signal(Request):
    """A wakeup channel processes can wait on.

    ``fire(value)`` resumes every currently-waiting process with ``value``.
    A process that waits *after* a fire does not see past fires (signals are
    edge-triggered); state that must persist belongs in mailboxes or other
    explicit queues.
    """

    __slots__ = ("name", "_waiters")

    def __init__(self, name: str = "") -> None:
        self.name = name
        self._waiters: list[Process] = []

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Signal({self.name!r}, waiters={len(self._waiters)})"

    def fire(self, value: Any = None) -> int:
        """Wake all waiting processes; returns the number woken."""
        waiters, self._waiters = self._waiters, []
        for proc in waiters:
            # Pushed here rather than through ``Engine._schedule``: a
            # resume is due now, so its past-time check cannot fail.
            engine = proc._engine
            engine._seq += 1
            heapq.heappush(engine._queue,
                           (engine.now, engine._seq, proc._step, (value,)))
        return len(waiters)


@dataclass(slots=True)
class Wait(Request):
    """Suspend the yielding process until ``signal`` fires.

    ``reason`` names the wait state for idle-time attribution: when an
    observer is installed on the engine, the blocked interval is
    reported to it as this reason on resume (see
    :class:`repro.obs.WaitStates`).  It does not affect scheduling.
    """

    signal: Signal
    reason: str = "wait"


class Process:
    """A simulated rank: a generator driven by the engine.

    Parameters
    ----------
    engine:
        Owning engine.
    name:
        Stable human-readable identifier (appears in traces and errors).
    program:
        A generator that yields :class:`Request` objects.
    rank:
        Optional simulated-rank number for observability (wait-state
        attribution keys on it); ``None`` for anonymous processes.
    """

    def __init__(self, engine: "Engine", name: str,
                 program: Generator[Request, Any, Any],
                 rank: Optional[int] = None) -> None:
        self._engine = engine
        self.name = name
        self._gen = program
        self.rank = rank
        self.alive = True
        self.result: Any = None
        self.blocked_since: float = 0.0
        self._wait_reason: Optional[str] = None
        self.finished = Signal(f"{name}.finished")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "alive" if self.alive else "done"
        return f"Process({self.name!r}, {state})"

    def _step(self, send_value: Any) -> None:
        engine = self._engine
        if self._wait_reason is not None:
            if engine.observer is not None:
                engine.observer.on_wait_end(
                    self, self._wait_reason, self.blocked_since, engine.now)
            self._wait_reason = None
        try:
            request = self._gen.send(send_value)
        except StopIteration as stop:
            self.alive = False
            self.result = stop.value
            engine._live_processes -= 1
            self.finished.fire(stop.value)
            return
        except Exception as exc:
            self.alive = False
            engine._live_processes -= 1
            failure = ProcessFailure(self, exc)
            failure.__cause__ = exc
            engine._fail(failure)
            return
        self.blocked_since = engine.now
        kind = type(request)
        if kind is Sleep:
            # Pushed here rather than through ``Engine._schedule``, whose
            # past-time check this one comparison stands in for.
            if request.duration < 0:
                self._reject(ValueError(
                    f"negative sleep duration: {request.duration}"))
                return
            engine._seq += 1
            heapq.heappush(engine._queue, (engine.now + request.duration,
                                           engine._seq, self._step, (None,)))
        elif kind is Wait:
            self._wait_reason = request.reason
            request.signal._waiters.append(self)
        elif kind is Signal:
            # Allow ``yield signal`` as shorthand for ``yield Wait(signal)``.
            self._wait_reason = "wait"
            request._waiters.append(self)
        else:
            self._reject(
                TypeError(f"process yielded non-Request: {request!r}"))

    def _reject(self, cause: Exception) -> None:
        """End this process with ``cause`` for a request it cannot make."""
        self.alive = False
        self._engine._live_processes -= 1
        self._engine._fail(ProcessFailure(self, cause))


class Engine:
    """Deterministic discrete-event loop.

    Typical use::

        engine = Engine()
        engine.spawn("rank0", program(...))
        engine.run()
        print(engine.now)   # simulated completion time
    """

    def __init__(self) -> None:
        self.now: float = 0.0
        #: Heap of ``(time, seq, fn, args)`` tuples, compared in C; ``seq``
        #: is unique, so the comparison never reaches ``fn``.
        self._queue: list[tuple] = []
        self._seq = 0
        self._live_processes = 0
        self._processes: list[Process] = []
        self._failure: Optional[ProcessFailure] = None
        self._running = False
        #: Cumulative number of events executed across all ``run`` calls.
        self.event_count = 0
        #: Observability hook (``repro.obs.Recorder`` or anything with
        #: ``on_time_advance(now)`` / ``on_wait_end(proc, reason, t0, t1)``).
        #: ``None`` in production runs, so the disabled cost is one
        #: ``is not None`` check per event.  Observers must only *read*
        #: simulation state — they may not schedule events or fire
        #: signals, which would perturb the deterministic schedule.
        self.observer: Optional[Any] = None

    # ------------------------------------------------------------------ #
    # Scheduling primitives
    # ------------------------------------------------------------------ #
    def _schedule(self, time: float, fn: Callable[..., None],
                  args: tuple = ()) -> None:
        if time < self.now:
            raise ValueError(
                f"cannot schedule event in the past: {time} < {self.now}")
        self._seq += 1
        heapq.heappush(self._queue, (time, self._seq, fn, args))

    def call_at(self, time: float, fn: Callable[..., None],
                *args: Any) -> None:
        """Run ``fn(*args)`` at absolute simulated time ``time``."""
        self._schedule(time, fn, args)

    def call_later(self, delay: float, fn: Callable[[], None]) -> None:
        """Run ``fn()`` after ``delay`` simulated seconds."""
        if delay < 0:
            raise ValueError(f"negative delay: {delay}")
        self._schedule(self.now + delay, fn)

    def _fail(self, failure: ProcessFailure) -> None:
        if self._failure is None:
            self._failure = failure

    # ------------------------------------------------------------------ #
    # Process management
    # ------------------------------------------------------------------ #
    def spawn(self, name: str,
              program: Generator[Request, Any, Any],
              rank: Optional[int] = None) -> Process:
        """Register a new process and schedule its first step at ``now``."""
        proc = Process(self, name, program, rank=rank)
        self._processes.append(proc)
        self._live_processes += 1
        self._schedule(self.now, proc._step, (None,))
        return proc

    @property
    def processes(self) -> Iterable[Process]:
        return tuple(self._processes)

    @property
    def live_process_count(self) -> int:
        return self._live_processes

    @property
    def pending_events(self) -> int:
        """Events currently queued (not yet executed)."""
        return len(self._queue)

    # ------------------------------------------------------------------ #
    # Main loop
    # ------------------------------------------------------------------ #
    def run(self, until: Optional[float] = None,
            max_events: Optional[int] = None) -> float:
        """Drain the event queue; returns the final simulated time.

        Parameters
        ----------
        until:
            If given, stop once the clock would pass this time (the event at
            ``until`` itself still runs).
        max_events:
            Safety valve for tests; raises ``RuntimeError`` when exceeded.

        The observer is read once, when the run starts.  Every push is
        checked not to lie in the past (``_schedule``, and
        ``Process._step`` for a ``Sleep``), so the loop does not check the
        clock; a run without ``until`` or ``max_events`` gets bounds it
        never reaches.

        Raises
        ------
        ProcessFailure
            If any process raised; the first failure wins and is re-raised
            after the loop stops (no further events execute).
        DeadlockError
            If live processes remain but the event queue is empty.
        """
        if self._running:
            raise RuntimeError("engine.run() is not reentrant")
        self._running = True
        queue = self._queue
        pop = heapq.heappop
        observer = self.observer
        stop = math.inf if until is None else until
        limit = (sys.maxsize if max_events is None
                 else self.event_count + max_events)
        try:
            while queue:
                if self._failure is not None:
                    raise self._failure
                event = pop(queue)
                time, _, fn, args = event
                if time > stop:
                    heapq.heappush(queue, event)
                    break
                self.now = time
                if observer is not None:
                    observer.on_time_advance(time)
                fn(*args)
                self.event_count += 1
                if self.event_count > limit:
                    raise RuntimeError(
                        f"exceeded max_events={max_events}; "
                        "likely a livelock in the simulated program")
            if self._failure is not None:
                raise self._failure
            if self._live_processes > 0 and until is None:
                blocked = [p.name for p in self._processes if p.alive]
                raise DeadlockError(
                    f"{self._live_processes} live processes blocked forever: "
                    f"{blocked[:8]}{'...' if len(blocked) > 8 else ''}")
        finally:
            self._running = False
        return self.now
