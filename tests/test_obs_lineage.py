"""Per-streamline provenance: lifecycle reconstruction and tiling."""

import importlib
import inspect
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.obs.lineage as lineage_mod
from repro.core.driver import run_streamlines
from repro.obs import Recorder, analyze, analyze_run
from repro.obs.analyze import leaf_kind, load_spans_jsonl
from repro.obs.export import seed_perfetto_json, write_spans_jsonl
from repro.obs.lineage import (
    LIFECYCLE_KINDS,
    SeedSegment,
    has_seed_provenance,
    lifecycle_table,
    seed_latency_summary,
    slowest_seeds,
    slowest_table,
)
from repro.obs.span import SpanRecord
from repro.sim.machine import MachineSpec
from tests.test_integrate_bank import draw_problem

# ``repro.obs.analyze`` the attribute is the function of that name.
analyze_mod = importlib.import_module("repro.obs.analyze")


def rec(rank, name, start, end, **attrs):
    return SpanRecord(rank=rank, name=name, start=start, end=end,
                      depth=0, attrs=tuple(sorted(attrs.items())))


def marker(rank, name, t, sid):
    return rec(rank, name, t, t, sid=sid)


def assert_exact_tiling(lineage):
    """The acceptance invariant: segments tile birth->termination with
    shared endpoints, so durations sum to the seed's wall exactly."""
    segs = lineage.segments
    assert segs, f"seed {lineage.sid} has no segments"
    assert segs[0].start == lineage.birth
    assert segs[-1].end == lineage.death
    for a, b in zip(segs, segs[1:]):
        assert a.end == b.start, (lineage.sid, a, b)
    total = math.fsum(s.duration for s in segs)
    assert total == pytest.approx(lineage.wall, abs=1e-12)


# ---------------------------------------------------------------------- #
# Oracle: the per-episode tiling as it was before a seed's intervals were
# grouped by rank, sorted once and bisected — it rescans every tagged
# interval of the seed for every ownership episode.  Kept verbatim.
# ---------------------------------------------------------------------- #

def oracle_episode_segments(a, b, rank, intervals):
    """Tile one ownership episode ``[a, b]`` on ``rank``: tagged advect/
    load intervals clipped to the episode, gaps emitted as ``queued``."""
    clipped = []
    for (s, e, r, kind) in intervals:
        if r != rank:
            continue
        s, e = max(s, a), min(e, b)
        if e > s:
            clipped.append((s, e, kind))
    clipped.sort()
    out = []
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


def oracle_owned_segments(spans, sid):
    """One seed's advect/load/queued segments: its ownership episodes read
    off the markers, each tiled by the oracle from the flat list of the
    seed's tagged intervals (appearance order, every rank)."""
    flat = [(s.start, s.end, s.rank, lineage_mod._TAGGED_KINDS[s.name])
            for s in spans if s.name in lineage_mod._TAGGED_KINDS
            and sid in (s.get("sids") or ())]
    marks = sorted((s.start, i, s.name, s.rank)
                   for i, s in enumerate(spans)
                   if s.name in lineage_mod.SEED_EVENTS
                   and s.get("sid") == sid)
    out, own = [], None
    for t, _i, name, rank in marks:
        if name == "seed.own":
            own = (t, rank)
        elif own is not None:  # a release or the termination closes it
            out += oracle_episode_segments(own[0], t, rank, flat)
            own = None
    if own is not None:  # truncated run: closed at its last tagged activity
        end = max([own[0]] + [e for (_s, e, r, _k) in flat if r == own[1]])
        out += oracle_episode_segments(own[0], end, own[1], flat)
    return out


def seed_lineages(spans):
    """``lineage.seed_lineages`` with every seed's in-episode tiling held
    against the oracle, so each test of this file — the hand-built
    handoff, ping-pong and point-episode traces, the live runs of all
    three algorithms, the JSONL round trip — is an equivalence case."""
    lineages = lineage_mod.seed_lineages(spans)
    for ln in lineages:
        owned = [seg for seg in ln.segments
                 if seg.kind not in ("handoff", "inflight")]
        assert owned == oracle_owned_segments(spans, ln.sid), ln.sid
    return lineages


# ---------------------------------------------------------------------- #
# Synthetic lifecycles
# ---------------------------------------------------------------------- #

def test_seed_markers_are_invisible_to_rank_level_analytics():
    # Lifecycle markers must not perturb the rank-level critical path:
    # they are not leaf busy spans.
    assert leaf_kind("seed.own") is None
    assert leaf_kind("seed.release") is None
    assert leaf_kind("seed.term") is None


def test_single_rank_lifecycle_tiles_with_queued_gaps():
    spans = [
        marker(0, "seed.own", 0.0, 7),
        rec(0, "io.load_block", 0.0, 1.0, block=3, sids=[7]),
        rec(0, "compute.advect", 1.0, 3.0, sids=[7]),
        # gap 3.0..4.0: the rank worked on something untagged
        rec(0, "compute.advect", 4.0, 5.0, sids=[7]),
        marker(0, "seed.term", 5.0, 7),
    ]
    (ln,) = seed_lineages(spans)
    assert ln.sid == 7
    assert ln.complete and ln.wall == pytest.approx(5.0)
    assert ln.ranks == [0] and ln.handoffs == 0 and ln.pingpong == 0
    assert [(s.kind, s.start, s.end) for s in ln.segments] == [
        ("load", 0.0, 1.0), ("advect", 1.0, 3.0),
        ("queued", 3.0, 4.0), ("advect", 4.0, 5.0)]
    assert_exact_tiling(ln)


def test_cross_rank_handoff_splits_into_handoff_and_inflight():
    spans = [
        marker(0, "seed.own", 0.0, 1),
        rec(0, "compute.advect", 0.0, 2.0, sids=[1]),
        marker(0, "seed.release", 2.0, 1),
        rec(0, "comm.send", 2.0, 2.5, dst=3, sids=[1]),
        # wire + mailbox latency 2.5..3.0
        marker(3, "seed.own", 3.0, 1),
        rec(3, "compute.advect", 3.0, 4.0, sids=[1]),
        marker(3, "seed.term", 4.0, 1),
    ]
    (ln,) = seed_lineages(spans)
    assert ln.ranks == [0, 3] and ln.handoffs == 1 and ln.pingpong == 0
    assert [(s.kind, s.rank) for s in ln.segments] == [
        ("advect", 0), ("handoff", 0), ("inflight", -1), ("advect", 3)]
    assert_exact_tiling(ln)
    bd = ln.breakdown()
    assert bd["handoff"] == pytest.approx(0.5)
    assert bd["inflight"] == pytest.approx(0.5)
    assert set(bd) == set(LIFECYCLE_KINDS)


def test_untagged_send_gap_is_all_inflight():
    # Pre-upgrade senders (or spans lost to truncation) leave no tagged
    # comm.send: the whole release->own gap must still be covered.
    spans = [
        marker(0, "seed.own", 0.0, 2),
        rec(0, "compute.advect", 0.0, 1.0, sids=[2]),
        marker(0, "seed.release", 1.0, 2),
        marker(1, "seed.own", 2.0, 2),
        marker(1, "seed.term", 2.5, 2),
    ]
    (ln,) = seed_lineages(spans)
    kinds = [s.kind for s in ln.segments]
    assert kinds == ["advect", "inflight", "queued"]
    assert_exact_tiling(ln)


def test_pingpong_counts_revisits():
    spans = []
    t = 0.0
    for hop, rank in enumerate([0, 1, 0, 1]):
        spans.append(marker(rank, "seed.own", t, 5))
        spans.append(rec(rank, "compute.advect", t, t + 1.0, sids=[5]))
        t += 1.0
        if hop < 3:
            spans.append(marker(rank, "seed.release", t, 5))
            spans.append(rec(rank, "comm.send", t, t + 0.25,
                             dst=1 - rank, sids=[5]))
            t += 0.5
    spans.append(marker(1, "seed.term", t, 5))
    (ln,) = seed_lineages(spans)
    assert ln.ranks == [0, 1, 0, 1]
    assert ln.handoffs == 3
    assert ln.pingpong == 2  # both re-arrivals hit a visited rank
    assert_exact_tiling(ln)


def test_point_episode_out_of_domain_seed():
    # Out-of-domain seeds are born and terminated at the same instant.
    spans = [marker(0, "seed.own", 0.0, 9),
             marker(0, "seed.term", 0.0, 9)]
    (ln,) = seed_lineages(spans)
    assert ln.complete and ln.wall == 0.0
    assert ln.segments == [] and ln.ranks == [0]


def test_incomplete_lineage_is_flagged_and_excluded_from_slowest():
    spans = [
        marker(0, "seed.own", 0.0, 4),
        rec(0, "compute.advect", 0.0, 1.5, sids=[4]),
        # no termination: the run died (OOM) mid-flight
        marker(0, "seed.own", 0.0, 8),
        rec(0, "compute.advect", 0.0, 1.0, sids=[8]),
        marker(0, "seed.term", 1.0, 8),
    ]
    lns = seed_lineages(spans)
    by_sid = {ln.sid: ln for ln in lns}
    assert not by_sid[4].complete and by_sid[4].wall is None
    assert by_sid[8].complete
    assert [ln.sid for ln in slowest_seeds(lns, top=5)] == [8]
    assert "excluded" in slowest_table(lns, top=5)


@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_window_equals_full_rescan_on_arbitrary_tags(data):
    """Tags that overlap, nest, start before their episode, have no
    length or sit on another rank: the bisected window must keep exactly
    what the rescan of every interval keeps."""
    quarter = st.integers(0, 40).map(lambda k: k / 4.0)
    times = sorted(data.draw(st.sets(quarter, min_size=2, max_size=9)))
    truncated = data.draw(st.booleans())
    spans, rank = [], 0
    for i, t in enumerate(times):
        if i % 2 == 0:
            rank = data.draw(st.integers(0, 2))
            spans.append(marker(rank, "seed.own", t, 3))
        elif i < len(times) - 1:
            spans.append(marker(rank, "seed.release", t, 3))
        elif not truncated:
            spans.append(marker(rank, "seed.term", t, 3))
    for _ in range(data.draw(st.integers(0, 12))):
        start, length = data.draw(quarter), data.draw(st.integers(0, 12))
        spans.append(rec(data.draw(st.integers(0, 2)),
                         data.draw(st.sampled_from(["compute.advect",
                                                    "io.load_block"])),
                         start, start + length / 4.0,
                         sids=data.draw(st.sampled_from([[3], [3, 4], [4]]))))
    (ln,) = [ln for ln in seed_lineages(spans) if ln.sid == 3]
    assert ln.complete == (len(times) % 2 == 0 and not truncated)


def test_pre_provenance_trace_yields_no_lineages():
    spans = [rec(0, "compute.advect", 0.0, 1.0),
             rec(0, "io.read", 1.0, 2.0)]
    assert not has_seed_provenance(spans)
    assert seed_lineages(spans) == []
    assert seed_latency_summary([]) is None
    assert "no completed seed lineages" in slowest_table([], top=5)


def test_seed_latency_summary_exact_percentiles():
    spans = []
    for sid, wall in enumerate([1.0, 2.0, 3.0, 4.0]):
        spans.append(marker(0, "seed.own", 0.0, sid))
        spans.append(marker(0, "seed.term", wall, sid))
    s = seed_latency_summary(seed_lineages(spans))
    assert s["count"] == 4
    assert s["mean"] == pytest.approx(2.5)
    assert s["p50"] == 2.0  # nearest-rank on the sorted sample
    assert s["p95"] == 4.0
    assert s["max"] == 4.0


def test_double_own_without_release_raises():
    spans = [marker(0, "seed.own", 0.0, 1),
             marker(1, "seed.own", 1.0, 1)]
    with pytest.raises(ValueError, match="owned twice"):
        seed_lineages(spans)


# ---------------------------------------------------------------------- #
# Live runs: acceptance invariants for every algorithm
# ---------------------------------------------------------------------- #

@pytest.mark.parametrize("algorithm", ["static", "ondemand", "hybrid"])
def test_lineages_tile_every_seed_wall(small_problem, small_machine,
                                       algorithm):
    obs = Recorder(enabled=True)
    result = run_streamlines(small_problem, algorithm=algorithm,
                             machine=small_machine, obs=obs)
    assert result.ok
    lineages = seed_lineages(obs.spans)
    assert len(lineages) == small_problem.n_seeds
    for ln in lineages:
        assert ln.complete
        if ln.segments:
            assert_exact_tiling(ln)
        assert 0.0 <= ln.birth <= ln.death <= result.wall_clock


@pytest.mark.parametrize("algorithm", ["static", "ondemand", "hybrid"])
def test_lineage_handoffs_match_rank_metrics(small_problem, small_machine,
                                             algorithm):
    # The lineage view and the per-rank counters are independent
    # accounts of the same events; they must agree in aggregate.
    obs = Recorder(enabled=True)
    result = run_streamlines(small_problem, algorithm=algorithm,
                             machine=small_machine, obs=obs)
    analysis = analyze_run(result, obs)
    lineages = seed_lineages(obs.spans)
    assert sum(ln.handoffs for ln in lineages) == analysis.lines_received
    assert sum(ln.pingpong for ln in lineages) == analysis.pingpong_count


def test_analysis_carries_seed_latency(small_problem, small_machine):
    obs = Recorder(enabled=True)
    result = run_streamlines(small_problem, algorithm="hybrid",
                             machine=small_machine, obs=obs)
    analysis = analyze_run(result, obs)
    assert analysis.seed_latency is not None
    assert analysis.seed_latency["count"] == small_problem.n_seeds
    entry = analysis.to_dict()
    assert entry["seed_latency"]["max"] <= entry["wall_clock"] + 1e-9
    # A latency-free analysis omits the key entirely (old-trace path).
    analysis.seed_latency = None
    assert "seed_latency" not in analysis.to_dict()


def test_lineages_survive_jsonl_round_trip(tmp_path, small_problem,
                                           small_machine):
    obs = Recorder(enabled=True)
    run_streamlines(small_problem, algorithm="static",
                    machine=small_machine, obs=obs)
    live = seed_lineages(obs.spans)
    write_spans_jsonl(tmp_path / "spans.jsonl", obs)
    reloaded = seed_lineages(load_spans_jsonl(tmp_path / "spans.jsonl"))
    assert [(ln.sid, ln.ranks, ln.segments) for ln in live] \
        == [(ln.sid, ln.ranks, ln.segments) for ln in reloaded]


def test_disabled_recorder_emits_no_seed_spans(small_problem,
                                               small_machine):
    obs = Recorder(enabled=False)
    run_streamlines(small_problem, algorithm="hybrid",
                    machine=small_machine, obs=obs)
    assert len(obs.spans) == 0


def test_rendering_and_perfetto_export(small_problem, small_machine):
    obs = Recorder(enabled=True)
    run_streamlines(small_problem, algorithm="hybrid",
                    machine=small_machine, obs=obs)
    lineages = seed_lineages(obs.spans)
    table = slowest_table(lineages, top=3)
    assert "wall [s]" in table and len(table.splitlines()) >= 5
    detail = lifecycle_table(lineages[0])
    assert f"streamline {lineages[0].sid}" in detail

    import json
    doc = json.loads(seed_perfetto_json(slowest_seeds(lineages, top=3)))
    slices = [e for e in doc["traceEvents"] if e["ph"] == "X"]
    assert slices and all(e["cat"] == "seed" for e in slices)
    assert all(e["name"] in LIFECYCLE_KINDS for e in slices)
    # Deterministic export: same lineages -> same bytes.
    assert seed_perfetto_json(lineages) == seed_perfetto_json(lineages)


def test_truncated_run_lineages_match_the_oracle(small_problem):
    """A simulated OOM leaves owned seeds without a termination marker:
    their dangling episode closes at the last tagged activity, and the
    partial tiling is the oracle's."""
    obs = Recorder(enabled=True)
    # 20 MiB holds the seeds and one block, not two.
    result = run_streamlines(
        small_problem, algorithm="ondemand", obs=obs,
        machine=MachineSpec(n_ranks=2, memory_bytes=20 << 20,
                            cache_blocks=2))
    assert result.status == "oom"
    lineages = seed_lineages(obs.spans)
    dangling = [ln for ln in lineages if not ln.complete]
    assert dangling and any(ln.segments for ln in dangling)
    assert all(ln.death is None for ln in dangling)


# ---------------------------------------------------------------------- #
# Marker-only latency == full lineages
# ---------------------------------------------------------------------- #

def analyzed_latency(spans):
    """``seed_latency`` as ``analyze()`` reports it for these spans."""
    run = {"algorithm": "x", "n_ranks": 1, "wall_clock": 1.0}
    return analyze(run, spans, []).seed_latency


def assert_marker_latency_equals_lineages(spans):
    """What ``analyze()`` summarises — the walls ``seed_episodes`` reads
    off the markers — is exactly what the full reconstruction gives, and
    so is everything else the markers determine."""
    marked = lineage_mod.seed_episodes(spans)
    full = seed_lineages(spans)
    assert [ln.wall for ln in marked] == [ln.wall for ln in full]
    assert analyzed_latency(spans) == seed_latency_summary(full)
    assert all(ln.segments == [] for ln in marked)
    assert [(ln.sid, ln.birth, ln.death, ln.complete, ln.ranks,
             ln.handoffs, ln.pingpong) for ln in marked] \
        == [(ln.sid, ln.birth, ln.death, ln.complete, ln.ranks,
             ln.handoffs, ln.pingpong) for ln in full]
    return full


@given(data=st.data())
@settings(max_examples=15, deadline=None)
def test_marker_latency_on_random_live_runs(data):
    _rng, _field, seeds, problem = draw_problem(data)
    for algorithm in ("static", "ondemand", "hybrid"):
        obs = Recorder(enabled=True)
        result = run_streamlines(
            problem, algorithm=algorithm, obs=obs,
            machine=MachineSpec(n_ranks=data.draw(st.integers(2, 5)),
                                cache_blocks=data.draw(st.integers(1, 6))))
        assert result.ok
        full = assert_marker_latency_equals_lineages(obs.spans)
        assert analyzed_latency(obs.spans)["count"] == len(seeds) == len(full)


def test_marker_latency_excludes_what_an_oom_left_incomplete(small_problem):
    obs = Recorder(enabled=True)
    cost = small_problem.cost_model
    # One block and 14 curves fit a rank; Static hands one of the two
    # more than that once curves start migrating, ten terminations in.
    result = run_streamlines(
        small_problem, algorithm="static", obs=obs,
        machine=MachineSpec(
            n_ranks=2, cache_blocks=1,
            memory_bytes=(cost.block_nbytes + 1000
                          + 14 * cost.streamline_memory_nbytes(1))))
    assert result.status == "oom"
    full = assert_marker_latency_equals_lineages(obs.spans)
    done = [ln for ln in full if ln.complete]
    assert 0 < len(done) < len(full)
    assert analyzed_latency(obs.spans)["count"] == len(done)
    # The markers leave the dangling episode open; only the tiling (on
    # its own copy of the lineages) closes it.
    assert all(ln.episodes[-1][1] is None
               for ln in lineage_mod.seed_episodes(obs.spans)
               if not ln.complete)


def test_marker_latency_with_out_of_domain_seeds(small_problem):
    problem = small_problem.with_seeds(np.array([
        [0.5, 0.5, 0.5], [5.0, 5.0, 5.0], [0.3, 0.6, 0.4],
        [-2.0, 0.0, 0.0]]))
    obs = Recorder(enabled=True)
    assert run_streamlines(problem, algorithm="hybrid", obs=obs,
                           machine=MachineSpec(n_ranks=4)).ok
    full = assert_marker_latency_equals_lineages(obs.spans)
    assert [ln.wall == 0.0 for ln in full] == [False, True, False, True]
    # A termination the master recorded without an ownership bracket (no
    # Worker bookkeeping) is a point episode at the termination.
    spans = [s for s in obs.spans
             if not (s.name == "seed.own" and s.get("sid") in (1, 3))]
    assert_marker_latency_equals_lineages(spans)
    assert [ln.wall for ln in seed_lineages(spans)] \
        == [ln.wall for ln in full]


def test_no_markers_means_no_latency():
    spans = [rec(0, "compute.advect", 0.0, 1.0, sids=[1]),
             rec(0, "comm.send", 1.0, 2.0, sids=[1])]
    assert lineage_mod.seed_episodes(spans) == []
    assert analyzed_latency(spans) is None


@pytest.mark.parametrize("spans, message", [
    ([marker(0, "seed.own", 0.0, 1), marker(1, "seed.own", 1.0, 1)],
     "seed 1: owned twice without release (rank 1 at t=1.0)"),
    ([marker(0, "seed.own", 0.0, 1), marker(2, "seed.release", 1.0, 1)],
     "seed 1: release on rank 2 at t=1.0 does not match an open "
     "ownership episode"),
    ([marker(0, "seed.own", 0.0, 1), marker(2, "seed.term", 1.0, 1)],
     "seed 1: termination on rank 2 at t=1.0 while owned by rank 0"),
])
def test_malformed_lifecycles_raise_the_same_everywhere(spans, message):
    for entry in (analyzed_latency, lineage_mod.seed_episodes,
                  lineage_mod.seed_lineages):
        with pytest.raises(ValueError) as exc:
            entry(spans)
        assert str(exc.value) == message


def test_one_state_machine_serves_latency_and_lineages(monkeypatch):
    """``analyze()`` and ``seed_lineages`` both go through
    ``seed_episodes``; only the latter tiles."""
    # The lifecycle errors are raised in one place.
    assert inspect.getsource(lineage_mod.seed_episodes).count(
        "raise ValueError") == 3
    assert "raise" not in inspect.getsource(lineage_mod).replace(
        inspect.getsource(lineage_mod.seed_episodes), "")
    calls = []

    def spy(name, real):
        return lambda *args: calls.append(name) or real(*args)

    episodes = spy("seed_episodes", lineage_mod.seed_episodes)
    monkeypatch.setattr(lineage_mod, "seed_episodes", episodes)
    monkeypatch.setattr(analyze_mod, "seed_episodes", episodes)
    monkeypatch.setattr(lineage_mod, "tile_segments",
                        spy("tile_segments", lineage_mod.tile_segments))
    assert not hasattr(analyze_mod, "tile_segments")
    spans = [marker(0, "seed.own", 0.0, 1), marker(0, "seed.term", 2.0, 1)]
    assert analyzed_latency(spans)["max"] == 2.0
    assert calls == ["seed_episodes"]
    assert lineage_mod.seed_lineages(spans)[0].wall == 2.0
    assert calls == ["seed_episodes", "seed_episodes", "tile_segments"]
