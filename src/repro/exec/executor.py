"""Multi-process sweep execution over persistent worker pools — local
or distributed — with deterministic spec-order merge.

Every run of the evaluation matrix is independent and deterministic, so
a sweep is embarrassingly parallel: :class:`SweepExecutor` fans specs
out over worker *slots* and returns outcomes **in spec order**,
regardless of dispatch or completion order — callers merge artifacts
from that list, which is what makes ``--jobs N`` and ``--nodes ...``
output byte-identical to serial output.

Three layers sit between the spec list and the workers:

* **Dispatch order** (:mod:`repro.exec.schedule`): one order for every
  sweep — :func:`~repro.exec.schedule.plan_schedule`, heaviest problem
  first by the static cost model, a problem's specs back to back.
* **Workers** (:mod:`repro.exec.transport`): every slot is backed by
  one :class:`~repro.exec.transport.StreamWorker` speaking the frame
  protocol; only its acquisition varies — forked on this machine, or
  launched on another node from a command template and spoken to over
  its stdio.  ``nodes=[NodeSpec(...)]`` activates distributed dispatch
  (``repro sweep --nodes host1:4,host2:8``).
* **Node- and problem-aware dispatch** (:class:`Dispatcher`): free
  slots live in a heap keyed by ``(-speed, slot)`` (a remote node's
  speed factor comes from its handshake calibration probe) and a slot
  keeps the problem its worker has traced, claims an unheld one when
  that runs dry, and only then steals.  So the heaviest unclaimed
  problem lands on the fastest free slot.

Robustness guards, per run:

* **timeout** — a run exceeding ``timeout`` real seconds has its
  worker terminated and is reported as a ``timeout`` outcome; the slot
  respawns for the next spec;
* **isolation** — a ``spec.isolate`` run gets a fresh dedicated
  *local* worker, discarded after its one result (the thermal OOM
  probe uses it);
* **crash containment** — a local worker that dies without reporting
  yields a ``crashed`` outcome (``oom`` for probe specs) and the slot
  respawns;
* **failover** — a *remote* worker that dies mid-run gets its
  in-flight spec **requeued** (a ``requeue`` telemetry event) at the
  front of the pending queue; after ``_MAX_REMOTE_ATTEMPTS`` remote
  deaths the spec falls back to a dedicated local worker.  An
  unreachable node at startup — or a node whose workers stop spawning
  mid-sweep — degrades the sweep to the remaining slots with a warning
  (``node_lost`` event); if every node is lost, an emergency local
  pool finishes the sweep.  ``validate_events`` still proves
  retire-count == runs.

``jobs=1`` with no timeout, no nodes, and no isolated spec runs the
sweep inline in this process — the historical serial behavior,
byte-for-byte.

Observation is one event stream (:mod:`repro.exec.telemetry`): every
run transition — ``start`` / ``finish`` / ``retire``, ``requeue``,
``node_lost`` — becomes one event dict, sent to every sink passed as
``telemetry=`` (the JSONL log, live progress, a test's list).  Every
run executes under a :class:`~repro.obs.host.HostProbe` whether or not
anything listens, so ``RunOutcome.host`` is a dict for every run a
worker reported.  Telemetry is host-side only: payloads, merge order,
and every deterministic artifact are byte-identical with any sinks or
none.
"""

from __future__ import annotations

import heapq
import os
import sys
import time
from collections import deque
from dataclasses import asdict, dataclass, is_dataclass
from multiprocessing import connection as mp_connection
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.exec.schedule import plan_schedule
from repro.exec.spec import (
    OUTCOME_CRASHED,
    OUTCOME_ERROR,
    OUTCOME_OK,
    OUTCOME_OOM,
    OUTCOME_TIMEOUT,
    RunOutcome,
    RunSpec,
)
from repro.exec.transport import (
    LOCAL_NODE,
    NodeSpec,
    TransportError,
    WorkerSource,
    worker_sources,
)
from repro.exec.worker import _execute, oom_payload

#: Scheduler poll interval [real seconds].
_POLL = 0.05

#: Remote deaths tolerated per spec before it falls back to a dedicated
#: local worker (a spec that kills every remote worker it touches must
#: not starve the sweep).
_MAX_REMOTE_ATTEMPTS = 2


def default_jobs() -> int:
    """``--jobs 0`` / ``--jobs auto`` resolution: one worker per CPU."""
    return os.cpu_count() or 1


@dataclass
class _Slot:
    """One dispatchable worker slot and the source that fills it."""

    node: str
    speed: float
    source: Any


@dataclass
class _Assigned:
    """Book-keeping for one run currently executing on a slot."""

    idx: int
    spec: RunSpec
    slot: int
    node: str
    started: float
    deadline: Optional[float]
    worker: Any              # the worker handle running it
    dedicated: bool          # isolate/fallback worker: discard after


def _retire_fields(outcome: RunOutcome, idx: int, slot: int,
                   node: str) -> Dict[str, Any]:
    fields: Dict[str, Any] = {
        "run": outcome.spec.name, "idx": idx, "worker": slot,
        "node": node, "status": outcome.status,
        "elapsed": round(outcome.elapsed, 6),
    }
    if outcome.host is not None:
        fields["host"] = outcome.host
    return fields


def _reported(spec: RunSpec, status: str, payload: Any, host: Any,
              elapsed: float) -> RunOutcome:
    """The outcome of a ``(status, payload, host)`` message."""
    if status in (OUTCOME_OK, OUTCOME_OOM):
        return RunOutcome(spec=spec, status=status, payload=payload,
                          elapsed=elapsed, host=host)
    return RunOutcome(spec=spec, status=OUTCOME_ERROR, error=str(payload),
                      elapsed=elapsed, host=host)


class Dispatcher:
    """The sweep's dispatch state machine: which spec goes to which
    slot next, and what each worker event means.

    It owns the pending queues, the free-slot heap, the slot table, and
    the retry book-keeping, and maps events — a result, a worker death,
    a timeout, a spawn failure — to actions on the worker and source
    objects it was handed (``send`` / ``spawn`` / ``discard``) plus
    ``emit`` / ``warn`` reports.  It never touches a
    process or a clock itself — the caller supplies *now* and the
    ready waitables — so tests drive it with fakes.

    Free slots are keyed ``(-speed, slot)``: fastest node first, then
    lowest slot.  A worker holds the traced curves of the problem it
    last ran, so — like the paper's hybrid master, which assigns work
    for loaded data before it makes anyone load — a free slot takes
    :meth:`_take`'s pick: its own problem, else an unheld one, else a
    steal.  With the plan's order this is "heaviest unclaimed problem
    to the fastest free slot".
    """

    def __init__(self, items: Sequence[Tuple[int, RunSpec]],
                 table: Dict[int, _Slot], workers: Dict[int, Any],
                 local: Any, emit: Callable[..., None],
                 warn: Callable[[str], None], jobs: int = 1,
                 timeout: Optional[float] = None):
        # Pending, per problem: problem_key -> its specs in plan order,
        # the problems themselves in plan order.
        self.queues: Dict[Any, deque] = {}
        for item in items:
            self.queues.setdefault(item[1].problem_key,
                                   deque()).append(item)
        self.table = table                       # slot -> _Slot
        self.workers = workers                   # slot -> held worker
        self.holds: Dict[int, Any] = {}  # slot -> its worker's problem
        self.local = local    # source of dedicated/emergency workers
        self.jobs = jobs
        self.timeout = timeout
        self.emit, self.warn = emit, warn
        self.running: Dict[Any, _Assigned] = {}  # waitable -> run
        self.attempts: Dict[int, int] = {}       # idx -> remote deaths
        self.local_only: Set[int] = set()        # retry-exhausted specs
        self.results: Dict[int, RunOutcome] = {}
        self.free = [(-info.speed, s) for s, info in table.items()]
        heapq.heapify(self.free)
        self._next_slot = max(table, default=-1) + 1

    @property
    def pending(self) -> List[Tuple[int, RunSpec]]:
        """The undispatched specs, problem by problem."""
        return [item for queue in self.queues.values() for item in queue]

    @property
    def done(self) -> bool:
        return not (self.queues or self.running)

    def _take(self, slot: int) -> Tuple[int, RunSpec]:
        """Pop the next spec for a free slot: of the problem its worker
        holds, else of the first problem no slot holds, else the head of
        the queue — a steal: one more trace, but the tail of the sweep
        stays work-conserving.  O(problems + slots), not O(pending)."""
        key = self.holds.get(slot)
        if key not in self.queues:
            held = set(self.holds.values())
            key = next((k for k in self.queues if k not in held),
                       next(iter(self.queues)))  # nothing unheld: steal
        queue = self.queues[key]
        item = queue.popleft()
        if not queue:
            del self.queues[key]
        return item

    def _put_back(self, idx: int, spec: RunSpec) -> None:
        """Return a spec to the front of its problem (of the whole
        queue, if that problem had run dry)."""
        if spec.problem_key not in self.queues:
            self.queues = {spec.problem_key: deque(), **self.queues}
        self.queues[spec.problem_key].appendleft((idx, spec))

    def _event(self, kind: str, a: _Assigned, **fields: Any) -> None:
        self.emit(kind, run=a.spec.name, idx=a.idx, worker=a.slot,
                  node=a.node, **fields)

    def _discard(self, slot: int) -> None:
        """Drop a slot's held worker (died, timed out, or memory-
        suspect) and with it the slot's hold on a problem; the slot
        spawns a fresh one on next use."""
        self.holds.pop(slot, None)
        worker = self.workers.pop(slot, None)
        if worker is not None:
            worker.discard()

    def _ensure_capacity(self) -> None:
        # Every slot gone (all nodes lost) with work left and no
        # in-flight runs that could still succeed: conjure emergency
        # local slots so the sweep always completes.
        if self.queues and not self.table and not self.running:
            self.warn("all nodes lost; finishing the sweep on an "
                      f"emergency local pool ({self.jobs} slot(s))")
            self.emit("node_lost", node=LOCAL_NODE, slots=self.jobs,
                      reason="emergency local fallback")
            for _ in range(self.jobs):
                s, self._next_slot = self._next_slot, self._next_slot + 1
                self.table[s] = _Slot(LOCAL_NODE, 1.0, self.local)
                heapq.heappush(self.free, (-1.0, s))

    def _drop_node(self, source: Any, reason: Any) -> None:
        busy = {a.slot for a in self.running.values()}
        lost = sorted(s for s, info in self.table.items()
                      if info.source is source)
        for s in lost:
            del self.table[s]
            self.holds.pop(s, None)
            if s not in busy:  # in-flight runs may still report
                self._discard(s)
        name = source.node.name
        self.warn(f"node {name} lost ({reason}); dropping "
                  f"{len(lost)} slot(s)")
        self.emit("node_lost", node=name, slots=len(lost),
                  reason=str(reason))

    def dispatch(self, now: float) -> None:
        """Hand pending specs to free slots, spawning workers as
        needed.  An isolated or retry-exhausted spec gets a fresh
        dedicated local worker instead of the slot's own."""
        self._ensure_capacity()
        while self.queues and self.free:
            neg_speed, slot = heapq.heappop(self.free)
            info = self.table.get(slot)
            if info is None:
                continue  # stale heap entry from a dropped node
            if slot in self.workers and not self.workers[slot].alive:
                self._discard(slot)  # a dead worker holds no problem
            idx, spec = self._take(slot)
            dedicated = spec.isolate or idx in self.local_only
            local = dedicated or info.node == LOCAL_NODE
            worker = None if dedicated else self.workers.get(slot)
            if worker is None:
                try:
                    worker = (self.local if dedicated
                              else info.source).spawn()
                except TransportError as exc:
                    if local:
                        raise  # no further fallback: fail the sweep
                    self._drop_node(info.source, exc)
                    self._put_back(idx, spec)
                    self._ensure_capacity()
                    continue
                if not dedicated:
                    self.workers[slot] = worker
            try:
                worker.send(spec)
            except EOFError:
                # Died between spawn and send; retry the spec on a
                # fresh worker.
                if dedicated:
                    worker.discard()
                else:
                    self._discard(slot)
                heapq.heappush(self.free, (neg_speed, slot))
                self._put_back(idx, spec)
                continue
            if not dedicated:
                self.holds[slot] = spec.problem_key
            a = _Assigned(
                idx=idx, spec=spec, slot=slot,
                node=LOCAL_NODE if local else info.node, started=now,
                deadline=now + self.timeout if self.timeout else None,
                worker=worker, dedicated=dedicated)
            self.running[worker.waitable] = a
            self._event("start", a)

    def _release(self, a: _Assigned, discard: bool) -> None:
        """End an assignment: off the running table, its worker
        discarded if dedicated or no longer trustworthy, its slot free
        again (dropped nodes release nothing)."""
        del self.running[a.worker.waitable]
        if a.dedicated:
            a.worker.discard()
        elif discard:
            self._discard(a.slot)
        if a.slot in self.table:
            heapq.heappush(self.free,
                           (-self.table[a.slot].speed, a.slot))

    def _retire(self, a: _Assigned, outcome: RunOutcome,
                discard: bool) -> None:
        self._event("finish", a)
        self._release(a, discard)
        self.results[a.idx] = outcome
        self.emit("retire",
                  **_retire_fields(outcome, a.idx, a.slot, a.node))

    def on_ready(self, key: Any, now: float) -> None:
        """A running worker's stream became readable: a result, or —
        ``EOFError`` from ``recv`` — its death.  A remote death
        requeues the spec at the front of the queue; a local one is the
        outcome (local deaths are deterministic, retrying would loop):
        ``crashed``, or ``oom`` for the OOM probe, whose measured
        outcome that *is*."""
        a = self.running[key]
        elapsed = now - a.started
        try:
            status, payload, host = a.worker.recv()
        except EOFError:
            if a.node != LOCAL_NODE:
                self._requeue(a)
                return
            # Reap first — the stream hits EOF before the exit status
            # is collectable.
            code = a.worker.reap()
            if a.spec.oom_probe:
                outcome = RunOutcome(
                    spec=a.spec, status=OUTCOME_OOM,
                    payload=oom_payload(a.spec), elapsed=elapsed,
                    error=f"child died (exit code {code})")
            else:
                outcome = RunOutcome(
                    spec=a.spec, status=OUTCOME_CRASHED, elapsed=elapsed,
                    error=f"child died without result (exit code {code})")
            self._retire(a, outcome, discard=True)
            return
        outcome = _reported(a.spec, status, payload, host, elapsed)
        # A worker that survived a MemoryError has a suspect allocator
        # state — recycle it.
        self._retire(a, outcome, discard=status == OUTCOME_OOM)

    def _requeue(self, a: _Assigned) -> None:
        n = self.attempts[a.idx] = self.attempts.get(a.idx, 0) + 1
        to_local = n >= _MAX_REMOTE_ATTEMPTS
        if to_local:
            self.local_only.add(a.idx)
        self._event("requeue", a, attempt=n,
                    target=LOCAL_NODE if to_local else "remote")
        self._release(a, discard=True)
        self._put_back(a.idx, a.spec)

    def expire(self, now: float) -> None:
        """Time out every run past its deadline: the worker is
        discarded, the slot respawns for the next spec."""
        for a in [a for a in self.running.values()
                  if a.deadline and now > a.deadline]:
            self._retire(a, RunOutcome(
                spec=a.spec, status=OUTCOME_TIMEOUT,
                error=f"exceeded {self.timeout:g}s limit",
                elapsed=now - a.started), discard=True)

    def close(self) -> None:
        """Stop whatever still runs (interrupt / error cleanup) and
        shut every held worker down politely — all of them asked before
        the first is reaped, so the interpreters exit side by side."""
        for a in list(self.running.values()):
            self._release(a, discard=True)
        for worker in self.workers.values():
            worker.shutdown()
        for worker in self.workers.values():
            worker.discard(terminate=False)
        self.workers.clear()


class SweepExecutor:
    """Run a list of :class:`RunSpec` with bounded fan-out, heaviest
    problem first (:func:`~repro.exec.schedule.plan_schedule`).

    Parameters
    ----------
    jobs:
        Maximum concurrent *local* worker processes.  ``1`` (default)
        is serial; ``0`` or negative resolves to the CPU count.  With
        ``nodes`` set this also bounds the emergency local fallback
        pool.
    timeout:
        Per-run wall-clock limit in *real* seconds (``None`` — the
        default — disables the guard).  Setting a timeout forces child
        execution even at ``jobs=1`` so the limit is enforceable.
    telemetry:
        One event sink or a list of them, each with an ``emit(dict)``
        method (:class:`~repro.exec.telemetry.JsonlTelemetry`,
        :func:`~repro.exec.telemetry.text_progress`); every run
        transition is sent to each, from this process only.
        Deterministic outputs are unaffected.
    nodes:
        Optional list of :class:`~repro.exec.transport.NodeSpec`
        activating distributed dispatch: each node contributes
        ``slots`` remote worker slots (the pseudo-node ``local`` adds
        in-machine pool slots).  ``None`` (default) keeps the purely
        local pool.
    remote_template:
        Command template for launching remote workers (``{host}`` and
        ``{cwd}`` substituted; ``shlex``-split, no local shell).
        Defaults to the ssh-based
        :data:`~repro.exec.transport.DEFAULT_REMOTE_TEMPLATE`.
    """

    def __init__(self, jobs: int = 1, timeout: Optional[float] = None,
                 telemetry: Any = None,
                 nodes: Optional[Sequence[NodeSpec]] = None,
                 remote_template: Optional[str] = None):
        self.jobs = default_jobs() if jobs <= 0 else int(jobs)
        self.timeout = timeout if timeout and timeout > 0 else None
        self.sinks = ([telemetry] if hasattr(telemetry, "emit")
                      else list(telemetry or ()))
        self.nodes = list(nodes) if nodes else None
        self.remote_template = remote_template
        self._t0 = 0.0

    def _emit_event(self, kind: str, **fields: Any) -> None:
        if not self.sinks:
            return
        event: Dict[str, Any] = {
            "event": kind,
            "t": round(time.monotonic() - self._t0, 6),
        }
        event.update(fields)
        for sink in self.sinks:
            sink.emit(event)

    def _warn(self, message: str) -> None:
        print(f"sweep: {message}", file=sys.stderr)

    # ------------------------------------------------------------------ #
    # Public API
    # ------------------------------------------------------------------ #

    def run(self, specs: Sequence[RunSpec]) -> List[RunOutcome]:
        """Execute every spec; outcomes are returned in spec order."""
        specs = list(specs)
        total = len(specs)
        results: List[Optional[RunOutcome]] = [None] * total
        ordered = [(p.idx, p.spec) for p in plan_schedule(specs)]
        self._t0 = time.monotonic()
        distributed = self.nodes is not None
        use_pool = bool(total) and (
            distributed or self.jobs > 1 or self.timeout is not None
            or any(spec.isolate for spec in specs))
        sources: List[WorkerSource] = []  # closed when the sweep ends
        table: Dict[int, _Slot] = {}
        workers: Dict[int, Any] = {}
        try:
            if use_pool:
                table, workers = self._build_slots(sources)
            slots_n = len(table) if use_pool else self.jobs
            begin: Dict[str, Any] = {"jobs": slots_n, "runs": total}
            if distributed and use_pool:
                begin["nodes"] = self._node_summary(table)
            self._emit_event("sweep_begin", **begin)
            if use_pool:
                self._run_pool(ordered, table, workers, results)
            else:
                for i, spec in ordered:
                    where = {"run": spec.name, "idx": i, "worker": 0,
                             "node": LOCAL_NODE}
                    self._emit_event("start", **where)
                    t0 = time.monotonic()
                    outcome = _reported(spec, *_execute(spec),
                                        time.monotonic() - t0)
                    self._emit_event("finish", **where)
                    results[i] = outcome
                    self._emit_event("retire", **_retire_fields(
                        outcome, i, 0, LOCAL_NODE))
        finally:
            for source in sources:
                source.close()
            # The problem the inline path held; workers took theirs along.
            from repro.analysis.scenarios import release_problem
            release_problem()
        outcomes = [r for r in results if r is not None]
        self._emit_event("sweep_end", runs=len(outcomes))
        return outcomes

    # ------------------------------------------------------------------ #
    # Slot-table construction (acquisition)
    # ------------------------------------------------------------------ #

    def _local_source(self) -> WorkerSource:
        """``jobs`` in-machine slots: the plain pool, the fallback when
        no node is reachable, and the dispatcher's dedicated/emergency
        workers."""
        return worker_sources([NodeSpec(LOCAL_NODE, self.jobs)])[0]

    def _build_slots(self, sources: List[WorkerSource]
                     ) -> Tuple[Dict[int, _Slot], Dict[int, Any]]:
        """Materialize the slot table (and the workers already held)
        for this sweep: one loop over the acquisition targets, which
        are appended to *sources*.

        Without ``nodes``: ``jobs`` local slots.  Otherwise every remote
        node's probe is launched first (acquisition costs the slowest
        node, not the sum) and then, in listed order, each node
        contributes all of its declared slots, a remote one's first
        slot already holding the **probe worker** that proved the node
        reachable and measured its calibration speed, which orders
        the free-slot heap.  A node that cannot be acquired is dropped
        with a warning and the sweep degrades to the remaining slots;
        with none left it runs on a local fallback pool.
        """
        table: Dict[int, _Slot] = {}
        workers: Dict[int, Any] = {}
        if self.nodes is None:
            sources.append(self._local_source())
        else:
            sources.extend(worker_sources(self.nodes,
                                          self.remote_template))
        for source in sources:  # every node starts before any is awaited
            source.launch()
        for source in sources:
            self._fill_slots(source, table, workers)
        if not table:
            self._warn(f"no nodes reachable; running on a local "
                       f"fallback pool ({self.jobs} slot(s))")
            sources.append(self._local_source())
            self._fill_slots(sources[-1], table, workers)
        return table, workers

    def _fill_slots(self, source: WorkerSource, table: Dict[int, _Slot],
                    workers: Dict[int, Any]) -> None:
        node = source.node
        try:
            held = source.acquire()
        except TransportError as exc:
            self._warn(f"node {node.name} unreachable ({exc}); "
                       "degrading to remaining slots")
            self._emit_event("node_lost", node=node.name,
                             slots=node.slots, reason=str(exc),
                             phase="startup")
            return
        speed = 1.0
        for worker in held:
            slot = len(table)
            if worker is not None:
                workers[slot] = worker
                speed = worker.speed
            table[slot] = _Slot(node.name, speed, source)

    @staticmethod
    def _node_summary(table: Dict[int, _Slot]) -> List[Dict[str, Any]]:
        summary: Dict[str, Dict[str, Any]] = {}
        for info in table.values():
            entry = summary.setdefault(
                info.node, {"node": info.node, "slots": 0,
                            "speed": round(info.speed, 4)})
            entry["slots"] += 1
        return sorted(summary.values(), key=lambda e: e["node"])

    # ------------------------------------------------------------------ #
    # Pool execution
    # ------------------------------------------------------------------ #

    def _run_pool(self, items: Sequence[Tuple[int, RunSpec]],
                  table: Dict[int, _Slot], workers: Dict[int, Any],
                  results: List[Optional[RunOutcome]]) -> None:
        """Drive the :class:`Dispatcher` over ``items`` (already in
        plan order), multiplexing every worker stream through one
        ``connection.wait`` loop."""
        dispatcher = Dispatcher(
            items, table, workers, self._local_source(), jobs=self.jobs,
            timeout=self.timeout, emit=self._emit_event, warn=self._warn)
        try:
            while not dispatcher.done:
                dispatcher.dispatch(time.monotonic())
                if not dispatcher.running:
                    continue
                for key in mp_connection.wait(list(dispatcher.running),
                                              timeout=_POLL):
                    dispatcher.on_ready(key, time.monotonic())
                dispatcher.expire(time.monotonic())
        finally:
            dispatcher.close()
            for idx, outcome in dispatcher.results.items():
                results[idx] = outcome

# ---------------------------------------------------------------------- #
# Merging
# ---------------------------------------------------------------------- #

def merge_run_entries(outcomes: Sequence[RunOutcome]
                      ) -> Dict[str, Dict[str, Any]]:
    """Merge outcomes into the ``runs`` table of a sweep document, in
    spec order: the one place a run's entry is built, for
    ``BENCH_*.json`` snapshots and ``repro sweep --out`` alike.

    A successful run contributes its payload: a bench-mode entry dict as
    it is, a summary-mode ``RunSummary`` as its fields without the key.
    A real OOM contributes the minimal gated entry; executor failures
    contribute a status-only entry (``repro diff`` flags the status
    change) so the rest of the sweep is never discarded.
    """
    runs: Dict[str, Dict[str, Any]] = {}
    for o in outcomes:
        if o.ok and is_dataclass(o.payload):
            entry = asdict(o.payload)
            entry.pop("key", None)
        elif o.ok or o.status == OUTCOME_OOM:
            entry = o.payload
        else:
            entry = {"status": o.status}
        runs[o.spec.name] = entry
    return runs
