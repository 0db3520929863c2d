"""Tests of the discrete-event engine: ordering, processes, signals."""

import pytest

from repro.sim.engine import (
    DeadlockError,
    Engine,
    ProcessFailure,
    Signal,
    Sleep,
    Wait,
)


def test_clock_starts_at_zero():
    assert Engine().now == 0.0


def test_sleep_advances_clock():
    engine = Engine()

    def prog():
        yield Sleep(1.5)
        yield Sleep(0.5)

    engine.spawn("p", prog())
    assert engine.run() == 2.0


def test_zero_sleep_is_allowed():
    engine = Engine()

    def prog():
        yield Sleep(0.0)

    engine.spawn("p", prog())
    assert engine.run() == 0.0


def test_negative_sleep_rejected():
    with pytest.raises(ValueError):
        Sleep(-1.0)


def test_processes_interleave_in_time_order():
    engine = Engine()
    log = []

    def prog(name, delay):
        yield Sleep(delay)
        log.append((name, engine.now))

    engine.spawn("slow", prog("slow", 2.0))
    engine.spawn("fast", prog("fast", 1.0))
    engine.run()
    assert log == [("fast", 1.0), ("slow", 2.0)]


def test_equal_time_events_run_in_spawn_order():
    engine = Engine()
    log = []

    def prog(name):
        yield Sleep(1.0)
        log.append(name)

    for name in ("a", "b", "c"):
        engine.spawn(name, prog(name))
    engine.run()
    assert log == ["a", "b", "c"]


def test_process_result_captured():
    engine = Engine()

    def prog():
        yield Sleep(1.0)
        return 42

    proc = engine.spawn("p", prog())
    engine.run()
    assert proc.result == 42
    assert not proc.alive


def test_signal_wakes_waiter_with_value():
    engine = Engine()
    sig = Signal("go")
    got = []

    def waiter():
        value = yield Wait(sig)
        got.append((value, engine.now))

    def firer():
        yield Sleep(3.0)
        sig.fire("hello")

    engine.spawn("w", waiter())
    engine.spawn("f", firer())
    engine.run()
    assert got == [("hello", 3.0)]


def test_signal_wakes_all_waiters():
    engine = Engine()
    sig = Signal()
    woken = []

    def waiter(i):
        yield Wait(sig)
        woken.append(i)

    for i in range(4):
        engine.spawn(f"w{i}", waiter(i))

    def firer():
        yield Sleep(1.0)
        assert sig.fire() == 4

    engine.spawn("f", firer())
    engine.run()
    assert sorted(woken) == [0, 1, 2, 3]


def test_signal_is_edge_triggered():
    """A fire before anyone waits is lost (documented semantics)."""
    engine = Engine()
    sig = Signal()

    def firer():
        sig.fire()
        yield Sleep(0.0)

    def late_waiter():
        yield Sleep(1.0)
        yield Wait(sig)

    engine.spawn("f", firer())
    engine.spawn("w", late_waiter())
    with pytest.raises(DeadlockError):
        engine.run()


def test_yield_signal_shorthand():
    engine = Engine()
    sig = Signal()
    hits = []

    def waiter():
        v = yield sig
        hits.append(v)

    def firer():
        yield Sleep(1.0)
        sig.fire(7)

    engine.spawn("w", waiter())
    engine.spawn("f", firer())
    engine.run()
    assert hits == [7]


def test_deadlock_detected():
    engine = Engine()
    sig = Signal("never")

    def prog():
        yield Wait(sig)

    engine.spawn("stuck", prog())
    with pytest.raises(DeadlockError, match="stuck"):
        engine.run()


def test_process_exception_propagates_as_failure():
    engine = Engine()

    def prog():
        yield Sleep(1.0)
        raise ValueError("boom")

    engine.spawn("bad", prog())
    with pytest.raises(ProcessFailure) as exc_info:
        engine.run()
    assert isinstance(exc_info.value.cause, ValueError)
    assert "bad" in str(exc_info.value)


def test_yielding_garbage_is_a_failure():
    engine = Engine()

    def prog():
        yield 12345

    engine.spawn("p", prog())
    with pytest.raises(ProcessFailure):
        engine.run()


def test_call_later_and_call_at():
    engine = Engine()
    log = []
    engine.call_later(2.0, lambda: log.append(("later", engine.now)))
    engine.call_at(1.0, lambda: log.append(("at", engine.now)))
    engine.run()
    assert log == [("at", 1.0), ("later", 2.0)]


def test_cannot_schedule_in_the_past():
    engine = Engine()

    def prog():
        yield Sleep(5.0)
        engine.call_at(1.0, lambda: None)

    engine.spawn("p", prog())
    with pytest.raises(ProcessFailure):
        engine.run()


def test_run_until_stops_early():
    engine = Engine()

    def prog():
        for _ in range(10):
            yield Sleep(1.0)

    engine.spawn("p", prog())
    engine.run(until=3.5)
    assert engine.now == 3.0
    engine.run()  # finish the rest
    assert engine.now == 10.0


def test_max_events_guard():
    engine = Engine()

    def prog():
        while True:
            yield Sleep(1.0)

    engine.spawn("loop", prog())
    with pytest.raises(RuntimeError, match="max_events"):
        engine.run(max_events=50)


def test_finished_signal_fires():
    engine = Engine()
    results = []

    def worker():
        yield Sleep(2.0)
        return "done"

    proc = engine.spawn("w", worker())

    def watcher():
        value = yield Wait(proc.finished)
        results.append(value)

    engine.spawn("watch", watcher())
    engine.run()
    assert results == ["done"]


def test_determinism_same_program_same_schedule():
    def build():
        engine = Engine()
        log = []

        def prog(i):
            yield Sleep(0.1 * (i % 3))
            log.append(i)
            yield Sleep(0.05)
            log.append(10 + i)

        for i in range(6):
            engine.spawn(f"p{i}", prog(i))
        engine.run()
        return log

    assert build() == build()


# --------------------------------------------------------------------- #
# The event heap: (time, seq, fn, args) tuples compared in C
# --------------------------------------------------------------------- #
def test_ten_thousand_equal_time_events_keep_spawn_order():
    engine = Engine()
    log = []

    def prog(i):
        log.append(i)
        yield Sleep(2.0)
        log.append(-i)

    for i in range(1, 10_001):
        engine.spawn(f"p{i}", prog(i))
    engine.run()
    assert log == list(range(1, 10_001)) + [-i for i in range(1, 10_001)]
    assert engine.event_count == 20_000


def test_run_until_pushes_the_popped_event_back_in_order():
    engine = Engine()
    log = []
    # Three events share the time just past the horizon: the one popped
    # and pushed back must still run first, then the other two.
    for name in ("a", "b", "c"):
        engine.call_at(2.0, lambda name=name: log.append(name))
    engine.call_at(1.0, lambda: log.append("early"))
    assert engine.run(until=1.5) == 1.0
    assert log == ["early"] and engine.pending_events == 3
    assert engine.run(until=1.75) == 1.0 and engine.pending_events == 3
    engine.call_at(2.0, lambda: log.append("d"))
    assert engine.run() == 2.0
    assert log == ["early", "a", "b", "c", "d"]
    assert engine.event_count == 5


def test_callbacks_need_not_be_orderable():
    """Equal times fall through to the unique sequence number; the
    comparison never reaches the callbacks or their arguments."""

    class Opaque:
        __slots__ = ("log",)

        def __init__(self, log):
            self.log = log

        def __call__(self):
            self.log.append(self)

        def __lt__(self, other):
            raise AssertionError("callbacks were compared")

        __gt__ = __le__ = __ge__ = __lt__
        __eq__ = None  # type: ignore[assignment]
        __hash__ = None  # type: ignore[assignment]

    engine = Engine()
    log = []
    callbacks = [Opaque(log) for _ in range(50)]
    for cb in callbacks:
        engine.call_at(1.0, cb)
    sig = Signal("s")

    def waiter():
        log.append((yield Wait(sig)))

    def firer():
        yield Sleep(1.0)
        sig.fire({"unorderable": object()})

    engine.spawn("w1", waiter())
    engine.spawn("w2", waiter())
    engine.spawn("f", firer())
    engine.run()
    assert len(log) == 52
    assert all(ran is cb for ran, cb in zip(log, callbacks))
    assert log[50] is log[51] and "unorderable" in log[50]


# --------------------------------------------------------------------- #
# The run loop's optional bounds (``until``, ``max_events``) and
# observer do not change which events run or in what order
# --------------------------------------------------------------------- #
class CountingObserver:
    """A read-only engine observer: counts clock advances and waits."""

    def __init__(self):
        self.advances = 0
        self.waits = []

    def on_time_advance(self, now):
        self.advances += 1

    def on_wait_end(self, proc, reason, t0, t1):
        self.waits.append((proc.name, reason, t0, t1))


def mixed_engine(observed, log, fail_at=None):
    """Sleeps, signal waits (``Wait`` and bare ``Signal``), callbacks and
    a spawned child; rank ``fail_at`` raises on its third wake-up."""
    engine = Engine()
    if observed:
        engine.observer = CountingObserver()
    sig = Signal("go")

    def worker(i):
        for k in range(4):
            if i == fail_at and k == 2:
                raise KeyError("boom")
            yield Sleep(0.25 * ((i + k) % 3))
            log.append((f"w{i}", k, engine.now))
        value = yield (Wait(sig, "go") if i % 2 else sig)
        log.append((f"w{i}", value, engine.now))

    def firer():
        yield Sleep(5.0)
        log.append(("fired", sig.fire("v"), engine.now))
        engine.spawn("child", child())

    def child():
        yield Sleep(1.0)
        log.append(("child", engine.now))

    for i in range(5):
        engine.spawn(f"w{i}", worker(i), rank=i)
    engine.spawn("firer", firer())
    engine.call_at(0.5, lambda: log.append(("cb", engine.now)))
    return engine


@pytest.mark.parametrize("observed", [False, True])
def test_max_events_bound_keeps_the_schedule(observed):
    runs = []
    for max_events in (None, 10_000):
        log = []
        engine = mixed_engine(observed, log)
        end = engine.run(max_events=max_events)
        runs.append((log, end, engine.event_count, engine.pending_events))
    assert runs[0] == runs[1]
    log, end, events, pending = runs[0]
    assert end == 6.0 and pending == 0
    # 6 first steps, 21 sleeps, 5 signal wakes, the child's first step
    # and sleep, one callback.
    assert events == 35
    assert ("fired", 5, 5.0) in log


def test_observer_sees_every_event():
    log = []
    engine = mixed_engine(True, log)
    engine.run()
    assert engine.observer.advances == engine.event_count
    assert sorted(w[1] for w in engine.observer.waits) \
        == ["go", "go", "wait", "wait", "wait"]


@pytest.mark.parametrize("observed", [False, True])
def test_event_count_accumulates_across_runs(observed):
    log = []
    engine = mixed_engine(observed, log)
    engine.run(until=2.0)
    assert engine.event_count == 27 and engine.now == 1.25
    engine.run()
    assert engine.event_count == 35 and engine.now == 6.0


@pytest.mark.parametrize("observed", [False, True])
def test_until_stops_with_and_without_observer(observed):
    log = []
    engine = mixed_engine(observed, log)
    assert engine.run(until=5.0) == 5.0
    assert engine.live_process_count == 1  # no DeadlockError under until
    assert log[-1] == ("w2", "v", 5.0) and engine.pending_events == 1


@pytest.mark.parametrize("observed", [False, True])
def test_max_events_raises_with_and_without_observer(observed):
    engine = mixed_engine(observed, [])
    with pytest.raises(RuntimeError, match="max_events=10"):
        engine.run(max_events=10)
    assert engine.event_count == 11


def test_max_events_counts_only_this_run():
    engine = mixed_engine(False, [])
    engine.run(until=2.0)
    assert engine.event_count == 27
    with pytest.raises(RuntimeError, match="max_events=5"):
        engine.run(max_events=5)
    assert engine.event_count == 33


@pytest.mark.parametrize("observed", [False, True])
@pytest.mark.parametrize("max_events", [None, 10_000])
def test_failure_stops_the_loop(observed, max_events):
    full = []
    mixed_engine(False, full).run()
    log = []
    engine = mixed_engine(observed, log, fail_at=3)
    with pytest.raises(ProcessFailure) as info:
        engine.run(max_events=max_events)
    assert info.value.process.name == "w3"
    assert isinstance(info.value.cause, KeyError)
    # w3 raises in the step that logs its second wake-up; no event runs
    # after that step.
    assert log == full[:full.index(("w3", 1, 0.25)) + 1]
    assert engine.now == 0.25 and engine.pending_events > 0


@pytest.mark.parametrize("observed", [False, True])
def test_deadlock_detected_with_and_without_observer(observed):
    engine = Engine()
    if observed:
        engine.observer = CountingObserver()
    sig = Signal("never")

    def stuck():
        yield Sleep(1.0)
        yield Wait(sig)

    engine.spawn("stuck", stuck())
    with pytest.raises(DeadlockError, match="stuck"):
        engine.run()
    assert engine.event_count == 2 and engine.now == 1.0


def test_requests_are_slotted_unhashable_records():
    sleep, wait = Sleep(1.0), Wait(Signal("s"), "why")
    for record in (sleep, wait):
        assert not hasattr(record, "__dict__")
        with pytest.raises(TypeError):
            hash(record)
    assert sleep == Sleep(1.0) and wait.reason == "why"


@pytest.mark.parametrize("observed", [False, True])
def test_sleep_changed_to_negative_fails_its_process(observed):
    """A ``Sleep`` changed after it is built cannot turn the clock back,
    with the observer on or off."""
    engine = Engine()
    if observed:
        engine.observer = CountingObserver()

    def prog():
        yield Sleep(1.0)
        sleep = Sleep(1.0)
        sleep.duration = -0.5
        yield sleep

    engine.spawn("p", prog())
    with pytest.raises(ProcessFailure, match="negative sleep") as info:
        engine.run()
    assert isinstance(info.value.cause, ValueError)
    assert engine.now == 1.0 and engine.live_process_count == 0


def test_subclassed_request_is_rejected():
    """The engine dispatches on the exact request type."""

    class LongSleep(Sleep):
        pass

    engine = Engine()

    def prog():
        yield LongSleep(1.0)

    engine.spawn("p", prog())
    with pytest.raises(ProcessFailure, match="non-Request"):
        engine.run()
