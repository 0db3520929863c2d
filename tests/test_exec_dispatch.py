"""The sweep dispatcher as a pure state machine: fake workers and
sources, a hand-fed clock, no processes — every test runs in
milliseconds."""

from collections import deque

import pytest

from repro.exec import LOCAL_NODE, NodeSpec, RunSpec, TransportError
from repro.exec.executor import _MAX_REMOTE_ATTEMPTS, Dispatcher, _Slot

DIE = object()  # a scripted reply: the worker dies instead of answering


class FakeWorker:
    """Answers each spec with the next scripted reply (default: ok)."""

    def __init__(self, script=(), calls=None):
        self.waitable = self
        self.script = deque(script)
        self.sent = []
        self.alive = True
        self.discarded = self.shut_down = False
        self.hello = {}
        self.calls = [] if calls is None else calls  # shared call log

    def send(self, spec):
        self.sent.append(spec)

    def recv(self):
        reply = self.script.popleft() if self.script else "ok"
        if reply is DIE:
            self.alive = False
            raise EOFError("scripted death")
        return (reply, {"run": self.sent[-1].name}, None)

    def reap(self, timeout=None):
        return None if self.alive else 43

    def shutdown(self):
        self.calls.append(("shutdown", self))

    def discard(self, terminate=True):
        self.calls.append(("discard", self))
        self.alive, self.discarded = False, True
        self.shut_down = not terminate  # asked to exit, not killed


class FakeSource:
    """Hands out the queued workers, then fresh ok-workers; a queued
    exception is raised instead."""

    def __init__(self, name, slots, *queued):
        self.node = NodeSpec(name, slots)
        self.queued = deque(queued)
        self.spawned = []

    def spawn(self):
        nxt = self.queued.popleft() if self.queued else FakeWorker()
        if isinstance(nxt, Exception):
            raise nxt
        self.spawned.append(nxt)
        return nxt


def _specs(n):
    return [(i, RunSpec(dataset="astro", seeding="sparse",
                        algorithm="ondemand", n_ranks=4 + i, scale=0.02))
            for i in range(n)]


def _table(*sources, speeds=None):
    table = {}
    for source in sources:
        for _ in range(source.node.slots):
            s = len(table)
            table[s] = _Slot(source.node.name,
                             (speeds or {}).get(s, 1.0), source)
    return table


class Harness:
    def __init__(self, items, *sources, speeds=None, **kw):
        self.events, self.warnings = [], []
        self.local = FakeSource(LOCAL_NODE, 1)
        self.d = Dispatcher(
            items, _table(*sources, speeds=speeds), {}, self.local,
            emit=lambda kind, **f: self.events.append((kind, f)),
            warn=self.warnings.append, **kw)

    def kinds(self, kind):
        return [f for k, f in self.events if k == kind]

    def drain(self, now=0.0):
        """Dispatch and deliver every reply until the sweep is done."""
        for _ in range(100):
            if self.d.done:
                return
            self.d.dispatch(now)
            for key in list(self.d.running):
                self.d.on_ready(key, now)
        raise AssertionError("dispatcher did not converge")


def test_die_once_requeues_at_the_front_then_succeeds():
    doomed = FakeWorker([DIE])
    h = Harness(_specs(2), FakeSource("n1", 1, doomed))
    (a_idx, a), (b_idx, b) = _specs(2)
    h.d.dispatch(0.0)
    assert doomed.sent == [a]
    h.d.on_ready(doomed, 1.0)
    assert doomed.discarded
    assert list(h.d.pending) == [(a_idx, a), (b_idx, b)]  # a is first
    requeue, = h.kinds("requeue")
    assert requeue["run"] == a.name and requeue["attempt"] == 1
    assert requeue["target"] == "remote"
    assert (requeue["worker"], requeue["node"]) == (0, "n1")
    assert h.kinds("retire") == []  # a requeue is not an outcome
    h.drain(2.0)
    assert [h.d.results[i].status for i in (a_idx, b_idx)] == ["ok", "ok"]
    assert [f["run"] for f in h.kinds("retire")] == [a.name, b.name]
    assert [k for k, _ in h.events if k != "finish"] == [
        "start", "requeue", "start", "retire", "start", "retire"]


def test_death_on_every_attempt_falls_back_to_a_dedicated_local_worker():
    killers = [FakeWorker([DIE]) for _ in range(_MAX_REMOTE_ATTEMPTS)]
    source = FakeSource("n1", 1, *killers)
    h = Harness(_specs(1), source)
    h.drain()
    assert [f["target"] for f in h.kinds("requeue")] == \
        ["remote"] * (_MAX_REMOTE_ATTEMPTS - 1) + [LOCAL_NODE]
    assert h.d.local_only == {0}
    assert len(source.spawned) == _MAX_REMOTE_ATTEMPTS  # then no more
    fallback, = h.local.spawned
    assert fallback.discarded  # dedicated: gone after its one result
    retire, = h.kinds("retire")
    assert retire["node"] == LOCAL_NODE and retire["status"] == "ok"
    assert h.d.results[0].ok


def test_spawn_failure_drops_free_slots_and_lets_busy_ones_report():
    busy = FakeWorker()
    source = FakeSource("n1", 3, busy, TransportError("ssh: no route"))
    h = Harness(_specs(3), source, jobs=2)
    h.d.dispatch(0.0)
    assert busy.sent and not busy.discarded     # slot 0 keeps running
    assert h.d.table == {}                      # every n1 slot dropped
    lost, = h.kinds("node_lost")
    assert lost == {"node": "n1", "slots": 3, "reason": "ssh: no route"}
    assert [i for i, _ in h.d.pending] == [1, 2]  # failed spec is back
    assert "n1 lost" in h.warnings[0]
    h.d.on_ready(busy, 1.0)
    assert h.d.results[0].ok
    assert h.d.table == {}                      # ...and releases nothing
    h.drain(2.0)                                # finishes on local slots
    assert sorted(h.d.results) == [0, 1, 2]


def test_every_node_lost_with_work_pending_adds_emergency_local_slots():
    source = FakeSource("n1", 1, TransportError("down"))
    h = Harness(_specs(2), source, jobs=2)
    h.drain()
    n1, emergency = h.kinds("node_lost")
    assert n1["node"] == "n1"
    assert emergency == {"node": LOCAL_NODE, "slots": 2,
                         "reason": "emergency local fallback"}
    assert sorted(h.d.table) == [1, 2]  # numbered after the lost slot
    assert all(info.source is h.local for info in h.d.table.values())
    assert {f["node"] for f in h.kinds("retire")} == {LOCAL_NODE}
    assert all(o.ok for o in h.d.results.values())


def test_local_spawn_failure_fails_the_sweep_instead_of_looping():
    h = Harness(_specs(1), FakeSource(LOCAL_NODE, 1,
                                      TransportError("fork bomb")))
    with pytest.raises(TransportError, match="fork bomb"):
        h.d.dispatch(0.0)


def test_timeout_retires_discards_and_frees_the_slot():
    hung = FakeWorker()
    source = FakeSource(LOCAL_NODE, 1, hung)
    h = Harness(_specs(2), source, timeout=5.0)
    h.d.dispatch(0.0)
    h.d.expire(4.0)
    assert h.d.results == {} and not hung.discarded
    h.d.expire(6.0)
    outcome = h.d.results[0]
    assert outcome.status == "timeout" and outcome.elapsed == 6.0
    assert "exceeded 5s limit" in outcome.error
    assert hung.discarded
    assert [k for k, _ in h.events][-2:] == ["finish", "retire"]
    h.d.dispatch(6.0)   # same slot, fresh worker
    replacement = source.spawned[-1]
    assert replacement is not hung and len(replacement.sent) == 1
    assert h.kinds("start")[-1]["worker"] == 0


def test_longest_run_goes_to_the_fastest_free_slot():
    sources = [FakeSource("slow", 1), FakeSource("fast", 1),
               FakeSource("mid", 1)]
    specs = _specs(3)
    lpt_order = [specs[2], specs[0], specs[1]]  # longest expected first
    h = Harness(lpt_order, *sources, speeds={0: 0.5, 1: 2.0, 2: 1.0})
    h.d.dispatch(0.0)
    placed = {f["run"]: f["node"] for f in h.kinds("start")}
    assert placed == {specs[2][1].name: "fast", specs[0][1].name: "mid",
                      specs[1][1].name: "slow"}
    # A freed fast slot is taken before an equally free slow one.
    h2 = Harness(specs[:1], FakeSource("slow", 1), FakeSource("fast", 1),
                 speeds={0: 1.0, 1: 3.0})
    h2.d.dispatch(0.0)
    assert h2.kinds("start")[0]["node"] == "fast"


def test_local_death_is_the_outcome_and_isolation_spares_the_pool():
    probe = RunSpec(dataset="thermal", seeding="dense",
                    algorithm="static", n_ranks=4, scale=0.02,
                    isolate=True, oom_probe=True)
    pooled = FakeWorker([DIE, "ok"])
    h = Harness(_specs(2)[:1] + [(1, probe)] + _specs(3)[2:],
                FakeSource(LOCAL_NODE, 1, pooled))
    h.local.queued.append(FakeWorker([DIE]))
    h.drain()
    assert h.kinds("requeue") == []  # local deaths are never retried
    crashed, oom, after = (h.d.results[i] for i in range(3))
    assert crashed.status == "crashed" and "exit code 43" in crashed.error
    assert pooled.discarded  # ...and the slot respawned for the rest
    assert oom.status == "oom" and oom.payload == {"status": "oom"}
    dedicated, = h.local.spawned
    assert dedicated.sent == [probe] and dedicated.discarded
    assert after.ok
    survivor = h.d.workers[0]
    assert survivor.sent == [_specs(3)[2][1]]  # the probe never touched it
    h.d.close()
    assert survivor.shut_down and survivor.discarded


# --------------------------------------------------------------------- #
# Problem affinity: a slot keeps the problem its worker holds
# --------------------------------------------------------------------- #

def _problems(*counts):
    """``counts[p]`` specs of problem ``p``, problem by problem (the
    order ``plan_schedule`` produces), indexed in that order."""
    specs = [RunSpec(dataset=f"d{p}", seeding="sparse",
                     algorithm="ondemand", n_ranks=4 + i, scale=0.02)
             for p, n in enumerate(counts) for i in range(n)]
    return list(enumerate(specs))


def _datasets(worker):
    return [spec.dataset for spec in worker.sent]


def test_two_slots_two_problems_each_worker_runs_one_problem():
    source = FakeSource("n1", 2)
    h = Harness(_problems(3, 3), source)
    h.drain()
    first, second = source.spawned
    assert _datasets(first) == ["d0"] * 3
    assert _datasets(second) == ["d1"] * 3
    # Within a problem the schedule order is kept.
    assert [s.n_ranks for s in first.sent] == [4, 5, 6]
    assert sorted(h.d.results) == list(range(6))


def test_the_slot_that_finishes_first_claims_the_next_unheld_problem():
    source = FakeSource("n1", 2)
    h = Harness(_problems(1, 2, 2), source)
    h.d.dispatch(0.0)
    short, long_ = source.spawned           # d0 (1 spec), d1 (2 specs)
    h.d.on_ready(short, 1.0)                # d0 is dry: slot 0 is free
    h.d.dispatch(1.0)
    assert _datasets(short) == ["d0", "d2"]  # not d1: slot 1 holds it
    assert h.d.holds == {0: ("d2", "sparse", 0.02),
                         1: ("d1", "sparse", 0.02)}
    h.drain(2.0)
    assert _datasets(long_) == ["d1", "d1"]
    assert _datasets(short) == ["d0", "d2", "d2"]


def test_nothing_unheld_left_steals_the_head_and_the_thief_holds_it():
    source = FakeSource("n1", 2)
    h = Harness(_problems(1, 3), source)
    h.d.dispatch(0.0)
    thief, victim = source.spawned
    h.d.on_ready(thief, 1.0)
    h.d.dispatch(1.0)                       # only d1 pending, held by slot 1
    assert [s.n_ranks for s in thief.sent if s.dataset == "d1"] == [5]
    assert h.d.holds[0] == h.d.holds[1] == ("d1", "sparse", 0.02)
    h.d.on_ready(thief, 2.0)
    h.d.dispatch(2.0)                       # its own problem now: no steal
    assert [s.n_ranks for s in thief.sent if s.dataset == "d1"] == [5, 6]
    h.drain(3.0)
    assert _datasets(victim) == ["d1"]
    assert len(source.spawned) == 2         # work-conserving, no respawn


def test_a_requeued_spec_returns_to_the_front_of_its_problem():
    doomed = FakeWorker([DIE])
    items = _problems(2, 2)
    h = Harness(items, FakeSource("n1", 1, doomed), FakeSource("n2", 1))
    h.d.dispatch(0.0)                       # slot 0: d0[0], slot 1: d1[0]
    h.d.on_ready(doomed, 1.0)
    assert [i for i, _ in h.d.pending] == [0, 1, 3]
    # ...and of the whole queue, when that problem had run dry.
    last = FakeWorker([DIE])
    h2 = Harness(_problems(1, 2), FakeSource("n1", 1, last),
                 FakeSource("n2", 1))
    h2.d.dispatch(0.0)
    h2.d.on_ready(last, 1.0)
    assert [i for i, _ in h2.d.pending] == [0, 2]
    h2.drain(2.0)
    assert sorted(h2.d.results) == [0, 1, 2]


@pytest.mark.parametrize("fate", ["death", "timeout", "oom"])
def test_a_discarded_worker_takes_its_hold_along(fate):
    """The hold follows the worker, not the slot: once slot 1's worker
    is gone, its problem is claimable by another slot — which a hold
    left behind would have sent on to d2."""
    lost = FakeWorker([DIE if fate == "death" else fate])
    first, second = FakeSource("n1", 1), FakeSource("n2", 1, lost)
    h = Harness(_problems(1, 2, 1), first, second, timeout=5.0)
    h.d.dispatch(0.0)                       # slot 0: d0[0], slot 1: d1[0]
    heir, = first.spawned
    h.d.on_ready(heir, 4.0)                 # d0 is dry
    assert set(h.d.holds) == {0, 1}
    if fate == "timeout":
        h.d.expire(6.0)
    else:
        h.d.on_ready(lost, 6.0)
    assert lost.discarded and set(h.d.holds) == {0}
    h.d.dispatch(6.0)
    assert _datasets(heir) == ["d0", "d1"]
    assert h.d.holds[0] == ("d1", "sparse", 0.02)
    h.drain(7.0)
    assert sorted(h.d.results) == [0, 1, 2, 3]


def test_drop_node_releases_the_holds_of_its_slots():
    busy = FakeWorker()
    gone = FakeSource("n1", 2, busy, TransportError("ssh: no route"))
    stay = FakeSource("n2", 1)
    h = Harness(_problems(2, 1, 1), gone, stay)
    h.d.dispatch(0.0)   # slot 0 runs d0[0]; slot 1's spawn drops n1
    assert h.d.table.keys() == {2}
    assert 0 not in h.d.holds               # though its run is in flight
    h.d.on_ready(busy, 1.0)
    assert h.d.results[0].ok and 0 not in h.d.holds
    h.drain(2.0)
    survivor, = stay.spawned
    assert sorted(h.d.results) == [0, 1, 2, 3]
    assert len(survivor.sent) == 3          # d0's second spec included


def test_an_isolated_spec_neither_takes_nor_changes_a_hold():
    items = _problems(2, 1)
    lone = RunSpec(dataset="d9", seeding="dense", algorithm="static",
                   n_ranks=4, scale=0.02, isolate=True)
    source = FakeSource(LOCAL_NODE, 1)
    h = Harness([items[0], (3, lone), items[1], items[2]], source)
    h.d.dispatch(0.0)
    pooled, = source.spawned
    h.d.on_ready(pooled, 1.0)
    h.d.dispatch(1.0)                       # d0 first: the slot holds it
    h.d.on_ready(pooled, 2.0)
    h.d.dispatch(2.0)                       # d0 dry: d9 is the next unheld
    dedicated, = h.local.spawned
    assert dedicated.sent == [lone]
    assert h.d.holds == {0: ("d0", "sparse", 0.02)}  # still the pooled one
    h.drain(3.0)
    assert dedicated.discarded and not pooled.discarded
    assert _datasets(pooled) == ["d0", "d0", "d1"]
    # A slot without a hold does not get one from an isolated spec.
    h2 = Harness([(0, lone)], FakeSource(LOCAL_NODE, 1))
    h2.d.dispatch(0.0)
    assert h2.d.holds == {}


def test_emergency_local_slots_start_without_a_hold():
    gone = FakeSource("n1", 1, FakeWorker([DIE]), TransportError("down"))
    h = Harness(_problems(2), gone, jobs=2)
    h.drain()
    assert {f["node"] for f in h.kinds("retire")} == {LOCAL_NODE}
    assert set(h.d.holds) <= set(h.d.table) == {1, 2}


def test_close_asks_every_worker_to_shut_down_before_it_reaps_the_first():
    calls = []
    held = [FakeWorker(calls=calls) for _ in range(3)]
    h = Harness(_problems(1, 1, 1), FakeSource("n1", 3, *held))
    h.drain()
    h.d.close()
    assert [kind for kind, _ in calls] == ["shutdown"] * 3 + ["discard"] * 3
    assert {w for _, w in calls[:3]} == set(held)
    assert all(w.shut_down for w in held) and h.d.workers == {}
