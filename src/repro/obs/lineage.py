"""Per-streamline provenance: cross-rank lifecycle reconstruction.

The critical-path walk in :mod:`repro.obs.analyze` explains where the
*run's* wall clock went; this module explains where each *seed's* wall
clock went — the tail-latency question (which particles are pathological
and why) that rank-level attribution cannot answer.

Inputs are the recorder's spans (live ``SpanRecord`` objects or the
``spans.jsonl`` round-trip).  Three zero-duration lifecycle markers
bracket every ownership episode of a streamline:

``seed.own``      a rank started buffering the curve (``Worker.own_line``);
``seed.release``  the rank shipped it to another rank
                  (``Worker.release_line``, immediately before the send);
``seed.term``     the curve terminated (end of the pooled advection call
                  that finished it, or t=0 for out-of-domain seeds).

Between those markers, the activity spans tagged with streamline ids
(``compute.advect``/``io.load_block``/``comm.send`` carry a ``sids``
attr) pin down *what the seed was doing*.  The reconstruction tiles each
seed's birth→termination interval with ordered
:class:`SeedSegment` s — the per-seed critical path; since a streamline
is a strictly sequential computation, its lifecycle *is* its dependency
chain:

``advect``    in a pooled kernel call on its current rank;
``load``      blocked on the block read it was waiting for;
``queued``    owned but idle (its rank worked on something else);
``handoff``   inside the sender's ``comm.send`` post after release;
``inflight``  released, not yet owned again (NIC serialization, wire
              latency, receiver mailbox wait).

The tiling is exact by construction: within an ownership episode the
tagged intervals are clipped to the episode and gaps become ``queued``;
between episodes the handoff/in-flight split covers the release→own gap
endpoint-to-endpoint.  Traces recorded before this layer existed carry
no ``seed.*`` markers; :func:`seed_lineages` then returns an empty list
and every consumer reports per-seed features as unavailable instead of
failing.

Like the rest of ``repro.obs`` this is a leaf module: spans are
duck-typed, nothing from ``repro.sim``/``repro.core`` is imported.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Any, Dict, List, NamedTuple, Optional, Sequence, Tuple

#: Per-seed segment kinds, in reporting order.
LIFECYCLE_KINDS = ("advect", "load", "queued", "handoff", "inflight")

#: Lifecycle marker span names (zero-duration, ``sid`` attr).
SEED_EVENTS = ("seed.own", "seed.release", "seed.term")

#: Tagged activity span name -> segment kind within an ownership episode.
_TAGGED_KINDS = {
    "compute.advect": "advect",
    "io.load_block": "load",
}


class SeedSegment(NamedTuple):
    """One hop of a seed's lifecycle: over ``[start, end]`` the seed was
    ``kind`` on ``rank`` (rank -1 = in flight between ranks)."""

    start: float
    end: float
    rank: int
    kind: str

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class SeedLineage:
    """The reconstructed cross-rank lifecycle of one streamline."""

    sid: int
    #: First ``seed.own`` time.
    birth: float
    #: ``seed.term`` time, or None for a truncated run (e.g. OOM).
    death: Optional[float]
    #: Every lineage of a clean run is complete; an incomplete one has
    #: no termination marker and its segments stop at the last tagged
    #: activity, so the tiling invariant only holds for complete ones.
    complete: bool
    #: Ownership sequence: the rank of each episode in order.
    ranks: List[int] = field(default_factory=list)
    segments: List[SeedSegment] = field(default_factory=list)
    #: Episodes after the first (arrivals carrying paid-for geometry).
    handoffs: int = 0
    #: Arrivals at a rank that already hosted this seed (Wang et al.'s
    #: ping-pong-particle pathology).
    pingpong: int = 0
    #: Ownership episodes ``(start, end, rank)`` in order, as the markers
    #: give them; ``end`` is None for a truncated run's dangling last one.
    episodes: List[Tuple[float, Optional[float], int]] = field(
        default_factory=list)

    @property
    def wall(self) -> Optional[float]:
        """Birth→termination latency (None while incomplete)."""
        if not self.complete or self.death is None:
            return None
        return self.death - self.birth

    def breakdown(self) -> Dict[str, float]:
        """Seconds per segment kind (keys = :data:`LIFECYCLE_KINDS`)."""
        per_kind: Dict[str, List[float]] = {k: [] for k in LIFECYCLE_KINDS}
        for seg in self.segments:
            per_kind.setdefault(seg.kind, []).append(seg.duration)
        return {k: math.fsum(v) for k, v in per_kind.items()}


def has_seed_provenance(spans: Sequence[Any]) -> bool:
    """Whether a trace carries the ``seed.*`` lifecycle markers."""
    return any(s.name in SEED_EVENTS for s in spans)


def _tagged(spans: Sequence[Any]) -> Tuple[
        Dict[int, Dict[int, List[Tuple[float, float, str]]]],
        Dict[int, List[Tuple[float, float, int]]]]:
    """One pass over the spans: per-sid tagged activity intervals by
    rank, and per-sid tagged sends.  A span's interval tuple is built
    once and shared by every sid it carries."""
    activity: Dict[int, Dict[int, List[Tuple[float, float, str]]]] = {}
    sends: Dict[int, List[Tuple[float, float, int]]] = {}
    for s in spans:
        name = s.name
        kind = _TAGGED_KINDS.get(name)
        if kind is None and name != "comm.send":
            continue
        sids = s.get("sids")
        if not sids:
            continue
        if kind is not None:
            rank, interval = s.rank, (s.start, s.end, kind)
            for sid in sids:
                activity.setdefault(sid, {}).setdefault(
                    rank, []).append(interval)
        else:
            sent = (s.start, s.end, s.rank)
            for sid in sids:
                sends.setdefault(sid, []).append(sent)
    return activity, sends


def _episode_segments(a: float, b: float, rank: int,
                      intervals: List[Tuple[float, float, str]],
                      latest: List[float]) -> List[SeedSegment]:
    """Tile one ownership episode ``[a, b]`` on ``rank``: tagged advect/
    load intervals clipped to the episode, gaps emitted as ``queued``.
    ``intervals`` are the seed's on this rank, sorted; ``latest[i]`` is
    the latest end among the first ``i + 1``, so only the window that
    can overlap the episode is looked at."""
    clipped: List[Tuple[float, float, str]] = []
    for (s, e, kind) in intervals[bisect_right(latest, a):
                                  bisect_left(intervals, (b,))]:
        s, e = max(s, a), min(e, b)
        if e > s:
            clipped.append((s, e, kind))
    clipped.sort()
    out: List[SeedSegment] = []
    t = a
    for (s, e, kind) in clipped:
        if s > t:
            out.append(SeedSegment(t, s, rank, "queued"))
        s = max(s, t)  # defensive: overlapping tags cannot double-cover
        if e > s:
            out.append(SeedSegment(s, e, rank, kind))
            t = e
    if b > t:
        out.append(SeedSegment(t, b, rank, "queued"))
    return out


def _gap_segments(b: float, a_next: float, rank: int,
                  sid_sends: List[Tuple[float, float, int]]
                  ) -> List[SeedSegment]:
    """Tile a release→own gap: the sender's tagged ``comm.send`` post is
    the handoff, the remainder (transport + receiver mailbox) in-flight."""
    out: List[SeedSegment] = []
    send_end = None
    for (s, e, r) in sid_sends:
        if r == rank and b <= s < a_next:
            send_end = min(e, a_next)
            break
    t = b
    if send_end is not None and send_end > t:
        out.append(SeedSegment(t, send_end, rank, "handoff"))
        t = send_end
    if a_next > t:
        out.append(SeedSegment(t, a_next, -1, "inflight"))
    return out


def seed_episodes(spans: Sequence[Any]) -> List[SeedLineage]:
    """The ``seed.own`` / ``seed.release`` / ``seed.term`` state machine:
    every streamline's ownership episodes — hence birth, death,
    completeness, rank path, handoffs and ping-pongs — from the lifecycle
    markers alone.  That is all a latency needs (``analyze`` stops here);
    ``segments`` stay empty until :func:`tile_segments` fills them.

    Returns lineages sorted by sid.  A trace without ``seed.*`` markers
    (recorded before per-streamline provenance existed) yields an empty
    list — callers treat that as "lineage unavailable", not an error.
    """
    events: Dict[int, List[Tuple[float, int, str, int]]] = {}
    for idx, s in enumerate(spans):
        name = s.name
        if name in SEED_EVENTS:
            sid = s.get("sid")
            if sid is not None:
                events.setdefault(int(sid), []).append(
                    (s.start, idx, name[len("seed."):], s.rank))
    lineages: List[SeedLineage] = []
    for sid in sorted(events):
        episodes: List[Tuple[float, Optional[float], int]] = []
        open_ep: Optional[Tuple[float, int]] = None
        death: Optional[float] = None
        # (time, appearance idx) order
        for (t, _idx, kind, rank) in sorted(events[sid]):
            if kind == "own":
                if open_ep is not None:
                    raise ValueError(
                        f"seed {sid}: owned twice without release "
                        f"(rank {rank} at t={t})")
                open_ep = (t, rank)
            elif kind == "release":
                if open_ep is None or open_ep[1] != rank:
                    raise ValueError(
                        f"seed {sid}: release on rank {rank} at t={t} "
                        "does not match an open ownership episode")
                episodes.append((open_ep[0], t, rank))
                open_ep = None
            elif kind == "term":
                if open_ep is not None:
                    if open_ep[1] != rank:
                        raise ValueError(
                            f"seed {sid}: termination on rank {rank} at "
                            f"t={t} while owned by rank {open_ep[1]}")
                    episodes.append((open_ep[0], t, rank))
                    open_ep = None
                else:
                    # Lifecycles terminated outside Worker bookkeeping
                    # (hybrid-master out-of-domain seeds) have no own
                    # marker pair; treat the bracket as a point episode.
                    episodes.append((t, t, rank))
                death = t
        complete = death is not None and open_ep is None
        if open_ep is not None:
            # Truncated run (OOM): the markers cannot say where the
            # dangling episode ends; the tiling closes it.
            episodes.append((open_ep[0], None, open_ep[1]))
        ranks: List[int] = []
        pingpong = 0
        for _a, _b, rank in episodes:
            if rank in ranks:
                pingpong += 1
            ranks.append(rank)
        lineages.append(SeedLineage(
            sid=sid, birth=episodes[0][0], death=death, complete=complete,
            ranks=ranks, handoffs=len(episodes) - 1, pingpong=pingpong,
            episodes=episodes))
    return lineages


def tile_segments(spans: Sequence[Any],
                  lineages: Sequence[SeedLineage]) -> Sequence[SeedLineage]:
    """Fill ``segments`` of ``lineages`` — some or all of
    ``seed_episodes(spans)`` — with the activity tiling of their episodes,
    in place, and return them."""
    activity, sends = _tagged(spans)
    for ln in lineages:
        by_rank = activity.get(ln.sid, {})
        acts = {}  # rank -> (sorted intervals, running latest end)
        for r, ivs in by_rank.items():
            ivs.sort()
            acts[r] = (ivs, list(accumulate((iv[1] for iv in ivs), max)))
        sid_sends = sends.get(ln.sid, [])
        segments: List[SeedSegment] = []
        prev: Optional[Tuple[float, int]] = None
        for a, b, rank in ln.episodes:
            if b is None:
                # Close the dangling episode at the last tagged activity
                # so the partial lifecycle still renders.
                b = max([a] + [e for _s, e, _k in by_rank.get(rank, ())])
            if prev is not None and a > prev[0]:
                segments.extend(_gap_segments(prev[0], a, prev[1],
                                              sid_sends))
            if b > a:
                segments.extend(_episode_segments(
                    a, b, rank, *acts.get(rank, ((), ()))))
            prev = (b, rank)
        ln.segments = segments
    return lineages


def seed_lineages(spans: Sequence[Any]) -> List[SeedLineage]:
    """Reconstruct every streamline's lifecycle from a trace's spans:
    :func:`seed_episodes`, tiled by :func:`tile_segments`."""
    return tile_segments(spans, seed_episodes(spans))


def slowest_seeds(lineages: Sequence[SeedLineage],
                  top: int = 5) -> List[SeedLineage]:
    """The ``top`` completed seeds by birth→termination latency
    (ties broken by sid for determinism)."""
    done = [ln for ln in lineages if ln.wall is not None]
    done.sort(key=lambda ln: (-ln.wall, ln.sid))
    return done[:top]


def seed_latency_summary(lineages: Sequence[SeedLineage]
                         ) -> Optional[Dict[str, float]]:
    """count/mean/p50/p95/max of completed-seed latencies.

    Exact (sorted-sample, nearest-rank percentiles), not the bucketed
    Histogram estimate — these numbers land in committed BENCH snapshots
    and must be byte-stable.  None when the trace has no lineage data.
    """
    walls = sorted(ln.wall for ln in lineages if ln.wall is not None)
    if not walls:
        return None

    def pct(q: float) -> float:
        i = max(0, math.ceil(q / 100.0 * len(walls)) - 1)
        return walls[min(i, len(walls) - 1)]

    return {
        "count": len(walls),
        "mean": math.fsum(walls) / len(walls),
        "p50": pct(50),
        "p95": pct(95),
        "max": walls[-1],
    }


# ---------------------------------------------------------------------- #
# Rendering
# ---------------------------------------------------------------------- #

def _rank_path(ranks: Sequence[int]) -> str:
    return ">".join(str(r) for r in ranks)


def slowest_table(lineages: Sequence[SeedLineage], top: int = 5) -> str:
    """Aligned table of the top-K slowest seeds with their per-segment
    breakdown and ping-pong annotations (the ``repro slowest`` body)."""
    picks = slowest_seeds(lineages, top=top)
    if not picks:
        return ("(no completed seed lineages — trace has no per-seed "
                "provenance, or the run was truncated)")
    header = (f"{'sid':>8} {'wall [s]':>10} "
              + "".join(f"{k:>10}" for k in LIFECYCLE_KINDS)
              + f" {'hops':>5} {'path':<14} notes")
    lines = [header, "-" * len(header)]
    for ln in picks:
        bd = ln.breakdown()
        notes = f"ping-pong x{ln.pingpong}" if ln.pingpong else ""
        lines.append(
            f"{ln.sid:>8} {ln.wall:>10.3f} "
            + "".join(f"{bd.get(k, 0.0):>10.3f}" for k in LIFECYCLE_KINDS)
            + f" {ln.handoffs:>5} {_rank_path(ln.ranks):<14} {notes}".rstrip())
    incomplete = sum(1 for ln in lineages if ln.wall is None)
    if incomplete:
        lines.append(f"({incomplete} seed(s) without a termination marker "
                     "excluded — truncated run)")
    return "\n".join(lines)


def lifecycle_table(lineage: SeedLineage) -> str:
    """Full ordered-segment table for one seed (``repro streamline``)."""
    ln = lineage
    wall = "incomplete" if ln.wall is None else f"{ln.wall:.3f} s"
    head = (f"streamline {ln.sid}: birth t={ln.birth:.3f}, "
            + ("no termination recorded"
               if ln.death is None else f"termination t={ln.death:.3f}")
            + f", wall {wall}")
    head2 = (f"  ranks {_rank_path(ln.ranks)} — {ln.handoffs} handoff(s), "
             f"{ln.pingpong} ping-pong arrival(s)")
    header = (f"{'start [s]':>12} {'end [s]':>12} {'dur [s]':>10} "
              f"{'rank':>5}  kind")
    lines = [head, head2, "", header, "-" * len(header)]
    for seg in ln.segments:
        rank = "-" if seg.rank < 0 else str(seg.rank)
        lines.append(f"{seg.start:>12.6f} {seg.end:>12.6f} "
                     f"{seg.duration:>10.6f} {rank:>5}  {seg.kind}")
    bd = ln.breakdown()
    lines.append("-" * len(header))
    lines.append("  " + "  ".join(f"{k} {bd.get(k, 0.0):.3f}"
                                  for k in LIFECYCLE_KINDS))
    return "\n".join(lines)
