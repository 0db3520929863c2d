"""Real-time microbenchmarks of the hot-path compute kernels.

Unlike the figure benchmarks and the trajectory harness (which measure
*simulated* time and are byte-reproducible), this script measures actual
Python/NumPy wall-clock throughput of the kernels the advection hot path
is made of:

* ``sampler`` — one fused trilinear velocity evaluation through a bound
  :class:`~repro.integrate.pooled.PoolSampler`;
* ``step`` — one DOPRI5 trial step (7 fused sampler stages + error
  estimate) through :meth:`Dopri5.attempt_steps_prepared`;
* ``advance`` — the full :func:`advance_pool` round loop, including the
  small-batch scalar fast path;
* ``trace`` — the same curves taken to termination two ways: ``wide``,
  one lockstep batch over a growing pool (what a run's trajectory bank
  does, once), and ``per_call``, one line and 32 rounds per call over a
  fresh pool of its block (the small-batch schedule simulated ranks
  imposed on the kernel before the bank); and ``full_width``, the
  trajectory bank's one trace of the host benchmark's ``dense_batch``
  problem (880 thermal circle seeds), with its ``tracemalloc`` peak;
* ``serial`` — the serial reference :func:`integrate_single` (one pooled
  call over a growing pool), ``astro200``: 200 sparse astro seeds over
  8^3 blocks of 8^3 cells, 300 max steps, blocks already sampled;
* ``obs`` — what observing one run costs **per recorded span**, on the
  host benchmark's ``ref_hybrid`` problem (astro dense seeds, hybrid, 8
  ranks, scale 0.1): ``record`` (recorded minus unrecorded run), each of
  the five exported files, ``reload`` (``analyze_dir``) and ``analyze``
  (``analyze_run``), and the collector's gen-0/1/2 collection counts
  over one record -> export -> reload -> analyze ``pass``;
* ``sim`` — the simulated machine's host cost on a synthetic two-rank
  ping-pong (``repro.sim`` only, no advection): ``event``, per engine
  event of two ranks that only compute (one timed sleep each);
  ``message``, per message of the ping-pong (the sender's post, the
  delivery and the receiver's drain, four engine events); ``read``,
  per filesystem read of one rank (the server pick, the booking and
  one sleep);
* ``exec`` — what a sweep pays around its runs, on the host benchmark's
  24 bench-mode specs (4 problems x 3 algorithms x 2 rank counts, scale
  0.005): ``acquire.N``, seconds until ``sweep_begin`` with N loopback
  nodes of one slot each (they start side by side, so it follows the
  slowest node, not the sum — on one box, until the loopback
  interpreters outnumber its cores), and ``sweep.jobsN``, the sweep
  through N local slots with its **cold dispatches** — distinct
  (worker, problem) pairs, each of which pays one trace of the
  problem's curves (4 is the floor; a problem-blind dispatcher pays
  4 x N).

Each per-particle kernel runs at batch sizes k in {1, 4, 32, 256, 880}
(``trace`` uses one fixed set of curves).  Wall-clock numbers are deliberately
kept *out* of the BENCH snapshot documents — they vary by machine — and
written to their own JSON artifact for CI to upload::

    PYTHONPATH=src python benchmarks/bench_kernels.py --quick \
        --out bench-out/kernels.json

``--quick`` shrinks repetitions for CI smoke runs (well under 30 s);
the default profile takes longer and gives stabler numbers.  Timings are
best-of-``repeats`` of the mean over an inner loop, the standard
approach when per-call cost is near the timer resolution.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shlex
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

if __package__ in (None, ""):  # running as a script
    _src = Path(__file__).resolve().parent.parent / "src"
    if str(_src) not in sys.path:
        sys.path.insert(0, str(_src))

import numpy as np

from repro.analysis import make_problem, scenario_machine
from repro.core.driver import run_streamlines
from repro.core.problem import ProblemSpec
from repro.fields import (SupernovaField, ThermalHydraulicsField,
                          sample_field)
from repro.fields.library import RigidRotationField
from repro.integrate.bank import TrajectoryBank
from repro.integrate.config import IntegratorConfig
from repro.integrate.dopri5 import Dopri5
from repro.integrate.pooled import BlockPool, advance_pool
from repro.integrate.single import integrate_single
from repro.integrate.streamline import Streamline, make_streamlines
from repro.mesh.bounds import Bounds
from repro.mesh.decomposition import Decomposition
from repro.obs import (Recorder, analyze_dir, analyze_run, write_perfetto,
                       write_run_json, write_samples_jsonl, write_spans_jsonl)
from repro.seeding import circle_seeds, sparse_random_seeds
from repro.sim.cluster import Cluster
from repro.sim.machine import MachineSpec
from repro.sim.trace import Trace
from repro.storage import BlockStore

#: Batch sizes every per-particle kernel is measured at.  k=1 and k=4
#: exercise the scalar small-batch regime; 32, 256 and 880 (the width
#: of the ``full_width`` trace's first rounds) the vectorized one.
BATCH_SIZES = (1, 4, 32, 256, 880)

#: Curves the wide-trace-vs-per-call comparison integrates.
TRACE_CURVES = 64


def _bench(fn, inner: int, repeats: int) -> dict:
    """Best-of-``repeats`` mean wall time of ``fn`` over ``inner`` calls."""
    fn()  # warm up caches/workspaces outside the timed region
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(inner):
            fn()
        dt = (time.perf_counter() - t0) / inner
        if dt < best:
            best = dt
    return {"ns_per_call": best * 1e9, "inner": inner, "repeats": repeats}


def _fixture():
    """A deterministic multi-block pool with in-pool sample points."""
    field = RigidRotationField(domain=Bounds.cube(-1.0, 1.0))
    dec = Decomposition(field.domain, (4, 4, 4), (8, 8, 8))
    blocks = sample_field(field, dec)
    pool = BlockPool(list(blocks.values()))
    return field, dec, pool


def bench_sampler(pool, dec, rng, inner, repeats) -> dict:
    out = {}
    for k in BATCH_SIZES:
        pts = rng.uniform(-0.9, 0.9, size=(k, 3))
        slots = np.array([pool.slot_of[int(b)]
                          for b in dec.locate_many(pts)], dtype=np.int64)
        f = pool.sampler().bind(slots)
        buf = np.empty((k, 3), dtype=np.float64)
        out[f"k{k}"] = _bench(lambda: f(pts, out=buf), inner, repeats)
    return out


def bench_step(pool, dec, rng, inner, repeats) -> dict:
    out = {}
    integ = Dopri5(1e-5, 1e-7)
    for k in BATCH_SIZES:
        pts = rng.uniform(-0.9, 0.9, size=(k, 3))
        slots = np.array([pool.slot_of[int(b)]
                          for b in dec.locate_many(pts)], dtype=np.int64)
        f = pool.sampler().bind(slots)
        h = np.full(k, 0.01)
        out[f"k{k}"] = _bench(
            lambda: integ.attempt_steps_prepared(f, pts, h),
            inner, repeats)
    return out


def _lines_at(seeds, bids):
    """Fresh streamlines at ``seeds``, each placed in its block."""
    lines = make_streamlines(seeds)
    for line, bid in zip(lines, bids):
        line.block_id = int(bid)
    return lines


def bench_advance(field, dec, pool, rng, inner, repeats) -> dict:
    out = {}
    cfg = IntegratorConfig(max_steps=64, h_max=0.02)
    for k in BATCH_SIZES:
        seeds = rng.uniform(-0.6, 0.6, size=(k, 3))
        bids = dec.locate_many(seeds)

        def run():
            return advance_pool(_lines_at(seeds, bids), pool, field.domain,
                                dec, cfg, round_limit=32)

        out[f"k{k}"] = _bench(run, max(1, inner // 8), repeats)
    return out


def bench_trace(field, dec, rng, inner, repeats) -> dict:
    blocks = sample_field(field, dec)
    cfg = IntegratorConfig(max_steps=64, h_max=0.02)
    seeds = rng.uniform(-0.6, 0.6, size=(TRACE_CURVES, 3))
    bids = [int(b) for b in dec.locate_many(seeds)]

    def wide():
        pool = BlockPool([blocks[b] for b in sorted(set(bids))],
                         loader=blocks.__getitem__)
        return advance_pool(_lines_at(seeds, bids), pool, field.domain, dec,
                            cfg)

    def per_call():
        active = _lines_at(seeds, bids)
        while active:
            line = active.pop()
            res = advance_pool([line], BlockPool([blocks[line.block_id]]),
                               field.domain, dec, cfg, round_limit=32)
            active.extend(res.in_pool + res.exited)

    inner = max(1, inner // 50)
    return {"wide": _bench(wide, inner, repeats),
            "per_call": _bench(per_call, inner, repeats),
            "full_width": bench_full_width_trace(repeats)}


def bench_full_width_trace(repeats) -> dict:
    """One bank trace of ``dense_batch`` (benchmarks/host/workloads.py):
    all 880 curves in one lockstep batch, and what it allocates.  The
    trace runs in-process: a bank would stream a trace this big from a
    forked tracer, and its first demand would then time the fork."""
    field = ThermalHydraulicsField()
    cy, cz = field.inlet_centers[0]
    problem = ProblemSpec(
        field=field, seeds=circle_seeds((0.06, cy, cz), 0.03, 880),
        blocks_per_axis=(8, 8, 8), cells_per_block=(8, 8, 8),
        integ=IntegratorConfig(max_steps=180, h_max=0.02,
                               rtol=1e-5, atol=1e-7))
    store = BlockStore(field, problem.decomposition)

    def trace():
        return TrajectoryBank(problem, store)._trace([
            Streamline(sid=sid, seed=problem.seeds[sid], block_id=int(bid))
            for sid, bid in enumerate(problem.seed_blocks) if bid >= 0])

    rec = _bench(trace, 1, repeats)
    tracemalloc.start()
    tapes = trace()
    live, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    del tapes
    rec["tracemalloc_live_mib"] = live / 2 ** 20
    rec["tracemalloc_peak_mib"] = peak / 2 ** 20
    return rec


def bench_serial(repeats) -> dict:
    """The serial reference on one fixed sparse astro problem; the block
    cache is shared across calls, so this times integration, not
    sampling."""
    field = SupernovaField()
    dec = Decomposition(field.domain, (8, 8, 8), (8, 8, 8))
    seeds = sparse_random_seeds(field.domain, 200, seed=0)
    cfg = IntegratorConfig(max_steps=300)
    blocks = {}
    return {"astro200": _bench(
        lambda: integrate_single(field, dec, seeds, cfg, blocks=blocks),
        1, repeats)}


def bench_obs(repeats) -> dict:
    """Per-span cost of each stage of the observed path (see the module
    docstring); ``ns_per_call`` is nanoseconds per recorded span."""
    problem = make_problem("astro", "dense", scale=0.1)
    machine = scenario_machine(8)

    def run(observed=True):
        obs = Recorder(enabled=observed, sample_interval=1.0)
        trace = Trace(enabled=observed)
        result = run_streamlines(problem, algorithm="hybrid",
                                 machine=machine, obs=obs, trace=trace)
        return result, obs, trace

    result, obs, trace = run()
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        stages = {
            "analyze": lambda: analyze_run(result, obs),
            "export.perfetto": lambda: write_perfetto(
                out / "trace.perfetto.json", obs, trace=trace),
            "export.spans": lambda: write_spans_jsonl(
                out / "spans.jsonl", obs),
            "export.samples": lambda: write_samples_jsonl(
                out / "samples.jsonl", obs),
            "export.run": lambda: write_run_json(
                out / "run.json", result, obs),
            "export.events": lambda: trace.to_jsonl(out / "events.jsonl"),
            "reload": lambda: analyze_dir(out),
        }

        recs = {"record": _bench(run, 1, repeats),
                **{name: _bench(stage, 1, repeats)
                   for name, stage in stages.items()}}
        recs["record"]["ns_per_call"] -= _bench(
            lambda: run(observed=False), 1, repeats)["ns_per_call"]
        # One whole pass (a fresh recorded run, then every stage), timed
        # once with the collector's counters read on either side.
        gc.collect()
        before = [g["collections"] for g in gc.get_stats()]
        t0 = time.perf_counter()
        run()
        for stage in stages.values():
            stage()
        recs["pass"] = {
            "ns_per_call": (time.perf_counter() - t0) * 1e9,
            "inner": 1, "repeats": 1,
            "gc_collections": [g["collections"] - b for g, b
                               in zip(gc.get_stats(), before)]}
    for rec in recs.values():
        rec["ns_per_call"] /= len(obs.spans)
        rec["spans"] = len(obs.spans)
    return recs


def bench_sim(repeats) -> dict:
    """Per-event, per-message and per-read host cost of ``repro.sim``
    (see the module docstring); each record keeps its event count."""
    n = 4000  # sleeps per rank, messages, reads

    def sleeper(ctx):
        for _ in range(n):
            yield from ctx.compute(1)

    def player(ctx):
        comm, peer = ctx.comm, 1 - ctx.rank
        for _ in range(n // 2):
            if ctx.rank == 0:
                yield from comm.send(peer, "ping", None, 64)
                yield from comm.recv_wait()
            else:
                yield from comm.recv_wait()
                yield from comm.send(peer, "pong", None, 64)

    def reader(ctx):
        for _ in range(n):
            yield from ctx.read_block_bytes(1 << 20)

    def simulate(*programs):
        def run():
            cluster = Cluster(MachineSpec(n_ranks=2))
            for rank, program in enumerate(programs):
                cluster.engine.spawn(f"rank{rank}",
                                     program(cluster.context(rank)),
                                     rank=rank)
            cluster.run()
            return cluster
        return run

    recs = {}
    for label, run in (("event", simulate(sleeper, sleeper)),
                       ("message", simulate(player, player)),
                       ("read", simulate(reader))):
        cluster = run()
        events = cluster.engine.event_count
        rec = _bench(run, 1, repeats)
        rec["events"] = events
        rec["ns_per_call"] /= events if label == "event" else n
        recs[label] = rec
    return recs


def bench_exec() -> dict:
    """Acquisition time by node count (best of two one-spec sweeps: the
    first start of an interpreter reads it from disk) and cold
    dispatches by slot count (one 24-spec sweep each); see the module
    docstring."""
    from repro.exec import (MODE_BENCH, JsonlTelemetry, NodeSpec,
                            SweepExecutor, grid_specs, load_events)

    specs = grid_specs(["astro", "fusion"], ["sparse", "dense"],
                       ["static", "ondemand", "hybrid"], [4, 8],
                       scale=0.005, mode=MODE_BENCH, sample_interval=2.0)
    problem_of = {spec.name: spec.problem_key for spec in specs}
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    loopback = (f"env PYTHONPATH={shlex.quote(path)} "
                f"{shlex.quote(sys.executable)} -m repro.exec.remote_worker")

    def sweep(todo, **kw):
        with tempfile.TemporaryDirectory() as tmp, \
                JsonlTelemetry(Path(tmp) / "events.jsonl") as sink:
            t0 = time.perf_counter()
            outcomes = SweepExecutor(telemetry=sink, **kw).run(todo)
            seconds = time.perf_counter() - t0
            assert all(o.ok for o in outcomes), [o.error for o in outcomes]
            sink.close()
            return seconds, load_events(sink.path)

    recs = {}
    for n in (1, 2, 4):
        nodes = [NodeSpec(f"n{i + 1}", 1) for i in range(n)]
        best = float("inf")
        for _ in range(2):
            _, events = sweep(specs[:1], nodes=nodes,
                              remote_template=loopback)
            begin = next(e for e in events if e["event"] == "sweep_begin")
            assert len(begin["nodes"]) == n, begin  # every node came up
            best = min(best, begin["t"])
        recs[f"acquire.{n}"] = {"ns_per_call": best * 1e9, "inner": 1,
                                "repeats": 2}
    for jobs in (1, 2, 4):
        seconds, events = sweep(specs, jobs=jobs)
        cold = {(e["worker"], problem_of[e["run"]])
                for e in events if e["event"] == "start"}
        recs[f"sweep.jobs{jobs}"] = {"ns_per_call": seconds * 1e9,
                                     "inner": 1, "repeats": 1,
                                     "cold_dispatches": len(cold)}
    return recs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="wall-clock microbenchmarks of the advection kernels")
    parser.add_argument("--quick", action="store_true",
                        help="CI smoke profile: fewer repetitions, "
                             "finishes in seconds")
    parser.add_argument("--out", default=None,
                        help="write a JSON artifact with the timings")
    args = parser.parse_args(argv)

    inner = 50 if args.quick else 400
    repeats = 3 if args.quick else 7
    rng = np.random.default_rng(0)
    field, dec, pool = _fixture()

    t0 = time.perf_counter()
    kernels = {}
    benches = (
        ("sampler", lambda: bench_sampler(pool, dec, rng, inner, repeats)),
        ("step", lambda: bench_step(pool, dec, rng, inner, repeats)),
        ("advance", lambda: bench_advance(field, dec, pool, rng, inner,
                                          repeats)),
        ("trace", lambda: bench_trace(field, dec, rng, inner, repeats)),
        ("serial", lambda: bench_serial(repeats)),
        ("obs", lambda: bench_obs(repeats)),
        ("sim", lambda: bench_sim(repeats)),
        ("exec", bench_exec),
    )
    for name, bench in benches:
        kernels[name] = bench()
    doc = {
        "profile": "quick" if args.quick else "full",
        "batch_sizes": list(BATCH_SIZES),
        "kernels": kernels,
    }
    doc["total_seconds"] = round(time.perf_counter() - t0, 3)

    for kernel, entries in doc["kernels"].items():
        for label, rec in entries.items():
            print(f"{kernel:>10s} {label:>16s} "
                  f"{rec['ns_per_call'] / 1e3:10.2f} "
                  + ("us/span" if "spans" in rec else "us/call")
                  + (f"  tracemalloc peak "
                     f"{rec['tracemalloc_peak_mib']:.1f} MiB"
                     if "tracemalloc_peak_mib" in rec else "")
                  + (f"  gen-0/1/2 collections "
                     f"{rec['gc_collections']}"
                     if "gc_collections" in rec else "")
                  + (f"  cold dispatches {rec['cold_dispatches']}"
                     if "cold_dispatches" in rec else ""))
    print(f"total: {doc['total_seconds']:.1f}s ({doc['profile']})")

    if args.out:
        out_path = Path(args.out)
        out_path.parent.mkdir(parents=True, exist_ok=True)
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {out_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
