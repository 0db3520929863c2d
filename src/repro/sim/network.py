"""Simulated interconnect and per-rank communication endpoints.

The model is deliberately simple but captures the two effects the paper's
communication metric is sensitive to:

* **Posting cost** — every send and every received message charges CPU time
  to the rank's ``comm`` timer (the paper measures "time required to post
  send and receive operations and associated communication management").
  Payload bytes also charge a per-byte packing cost, which is what makes
  communicating long streamline *geometry* expensive (paper §8).
* **Transport** — each rank's outgoing NIC serializes its messages
  (``busy-until`` per sender); a message arrives after NIC serialization
  plus wire latency.  Delivery appends to the destination mailbox and fires
  its signal, waking a blocked receiver.

All communication is asynchronous, as in the paper's implementation: sends
never block on the receiver, and receivers poll or block on their mailbox.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass
from typing import Any, Deque, Dict, Generator, List, Optional

from repro.obs.recorder import NULL_RECORDER, Recorder
from repro.sim.engine import Engine, Request, Signal, Sleep, Wait
from repro.sim.machine import MachineSpec
from repro.sim.metrics import RankMetrics, TimerCategory


@dataclass(slots=True)
class Message:
    """One message in flight or in a mailbox.

    ``kind`` is a small string protocol tag (e.g. ``"streamline"``,
    ``"status"``, ``"assign"``); ``payload`` is an arbitrary Python object
    owned by the receiver after delivery; ``nbytes`` is the modelled wire
    size used for all cost accounting.  A slotted record, neither frozen
    nor hashable.
    """

    src: int
    dst: int
    kind: str
    payload: Any
    nbytes: int
    send_time: float
    msg_id: int

    def __post_init__(self) -> None:
        if self.nbytes < 0:
            raise ValueError(f"negative message size: {self.nbytes}")


class Network:
    """Transport fabric connecting all ranks.

    Create one per simulation, then obtain per-rank :class:`Comm` endpoints
    via :meth:`endpoint`.
    """

    def __init__(self, engine: Engine, spec: MachineSpec,
                 metrics: Dict[int, RankMetrics],
                 obs: Optional[Recorder] = None) -> None:
        self.engine = engine
        self.spec = spec
        self.metrics = metrics
        self.obs = NULL_RECORDER if obs is None else obs
        self._endpoints: Dict[int, "Comm"] = {}
        self._nic_busy_until: Dict[int, float] = {}
        self._msg_ids = itertools.count()
        self.total_messages = 0
        self.total_bytes = 0
        #: Payload bytes handed to the network but not yet delivered
        #: (a sampled gauge; see ``repro.core.driver``).
        self.bytes_in_flight = 0
        #: ``_recv_cost[k]``: the receive-post cost of draining ``k``
        #: messages, computed once per ``k`` by the same ``sum()`` a drain
        #: used to evaluate, so it is bit-identical on every Python
        #: (3.12's ``sum`` compensates float rounding; 3.11's does not).
        self._recv_cost: List[float] = []

    def recv_post_cost(self, count: int) -> float:
        """Simulated seconds charged for receiving ``count`` messages."""
        table = self._recv_cost
        while len(table) <= count:
            table.append(sum(itertools.repeat(self.spec.comm_post_overhead,
                                              len(table))))
        return table[count]

    def endpoint(self, rank: int) -> "Comm":
        """The (unique) communication endpoint for ``rank``."""
        comm = self._endpoints.get(rank)
        if comm is None:
            comm = Comm(self, rank)
            self._endpoints[rank] = comm
        return comm

    def _transport(self, msg: Message) -> None:
        """Schedule delivery of ``msg`` (called after the sender's post)."""
        now = self.engine.now
        depart = max(now, self._nic_busy_until.get(msg.src, 0.0))
        depart += msg.nbytes / self.spec.comm_bandwidth
        self._nic_busy_until[msg.src] = depart
        arrive = depart + self.spec.comm_latency
        self.total_messages += 1
        self.total_bytes += msg.nbytes
        self.bytes_in_flight += msg.nbytes
        self.engine._schedule(arrive, self._deliver, (msg,))

    def _deliver(self, msg: Message) -> None:
        dst = self._endpoints.get(msg.dst)
        if dst is None:
            raise RuntimeError(
                f"message {msg.kind!r} to rank {msg.dst} has no endpoint")
        self.bytes_in_flight -= msg.nbytes
        dst._mailbox.append(msg)
        dst._arrival.fire()


class Comm:
    """MPI-like endpoint for one rank.

    All methods that consume simulated time are generators and must be
    invoked with ``yield from`` inside a simulated process.
    """

    def __init__(self, network: Network, rank: int) -> None:
        self.network = network
        self.rank = rank
        self._mailbox: Deque[Message] = deque()
        self._arrival = Signal(f"rank{rank}.mail")
        #: (``comm.msgs_sent``, ``comm.msg_bytes``) instruments, looked up
        #: on this endpoint's first recorded send.
        self._sent: Optional[tuple] = None

    # ------------------------------------------------------------------ #
    # Sending
    # ------------------------------------------------------------------ #
    def send(self, dst: int, kind: str, payload: Any,
             nbytes: int) -> Generator[Request, Any, Message]:
        """Post an asynchronous send; returns the in-flight message.

        Charges the sender's ``comm`` timer for the post (overhead +
        per-byte packing), then hands the message to the network.  The
        sender never blocks on the receiver.
        """
        if dst == self.rank:
            raise ValueError(f"rank {self.rank} sending to itself")
        net = self.network
        spec = net.spec
        post = spec.post_time(nbytes)
        m = net.metrics[self.rank]
        obs = net.obs
        attrs = None
        if obs.enabled:
            # Streamline provenance: tag the send with the ids it
            # carries so per-seed lineage can attribute the handoff.
            # Duck-typed (StreamlinePacket has .lines, AssignSeeds
            # has .sids) to keep this module free of core imports.
            lines = getattr(payload, "lines", None)
            sids = (getattr(payload, "sids", None) if lines is None
                    else [ln.sid for ln in lines])
            attrs = {"dst": dst, "kind": kind, "nbytes": nbytes}
            if sids is not None:
                attrs["sids"] = sorted(sids)
            if self._sent is None:
                self._sent = (
                    obs.registry.counter("comm.msgs_sent"),
                    obs.registry.histogram(
                        "comm.msg_bytes",
                        buckets=(64, 1024, 16384, 262144, 4194304)))
            self._sent[0].inc()
            self._sent[1].observe(nbytes)
        engine = net.engine
        start = engine.now
        try:
            if post > 0:
                yield Sleep(post)
        finally:
            obs.charge(self.rank, "comm.send", TimerCategory.COMM, m,
                       start, engine.now, attrs)
        m.msgs_sent += 1
        m.bytes_sent += nbytes
        msg = Message(self.rank, dst, kind, payload, nbytes, engine.now,
                      next(net._msg_ids))
        net._transport(msg)
        return msg

    # ------------------------------------------------------------------ #
    # Receiving
    # ------------------------------------------------------------------ #
    @property
    def pending(self) -> int:
        """Number of delivered-but-undrained messages."""
        return len(self._mailbox)

    def try_recv(self) -> Generator[Request, Any, List[Message]]:
        """Drain the mailbox without blocking (may return an empty list).

        The per-message receive posts are charged to the rank's ``comm``
        timer (and recorded as a ``comm.recv`` span).  An empty drain on
        a disabled recorder costs nothing and charges nothing.
        """
        net = self.network
        obs = net.obs
        mailbox = self._mailbox
        if not mailbox and not obs.enabled:
            return []
        msgs = list(mailbox)
        mailbox.clear()
        cost = net.recv_post_cost(len(msgs))
        m = net.metrics[self.rank]
        engine = net.engine
        start = engine.now
        try:
            if cost > 0:
                yield Sleep(cost)
        finally:
            obs.charge(self.rank, "comm.recv", TimerCategory.COMM, m,
                       start, engine.now,
                       {"count": len(msgs)} if obs.enabled else None)
        m.msgs_received += len(msgs)
        return msgs

    def recv_wait(self, reason: str = "message",
                  ) -> Generator[Request, Any, List[Message]]:
        """Block until at least one message is available, then drain all.

        ``reason`` names the wait state this block is attributed to when
        observability is on (e.g. a Hybrid slave passes
        ``"master_assignment"`` while starving for work).
        """
        while not self._mailbox:
            yield Wait(self._arrival, reason)
        return (yield from self.try_recv())
