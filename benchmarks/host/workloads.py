"""The six workloads: pinned inputs, one op each, and output digests.

Inputs are pinned here, not taken from ``repro.analysis.make_problem``,
so a later change to ``analysis/scenarios.py`` cannot silently change
what is measured.  At ``--seed 0`` they equal today's ``make_problem``
values (``test_hostbench.py`` proves it for the reference run).

Everything goes through public ``repro`` functions; this module is only
imported by round processes (``child.py``), never by the parent.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import shutil
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Tuple

import numpy as np

from repro import (IntegratorConfig, MachineSpec, ProblemSpec, Recorder,
                   Trace, run_streamlines)
from repro.fields import SupernovaField, ThermalHydraulicsField, TokamakField
from repro.mesh import Decomposition
from repro.seeding import (circle_seeds, dense_cluster_seeds,
                           sparse_random_seeds)
from repro.storage import BlockStore

RUN_WORKLOADS = ("ref_hybrid", "dense_batch", "hybrid_wide", "traced_ref")
SWEEP_WORKLOADS = ("sweep_local", "sweep_loopback")

# 512 blocks of 8^3 sampled cells, as in every scenario today.
_BLOCKS = (8, 8, 8)
_CELLS = (8, 8, 8)
_ASTRO = IntegratorConfig(max_steps=300, h_max=0.045, rtol=1e-5, atol=1e-7)
_THERMAL_DENSE = IntegratorConfig(max_steps=180, h_max=0.02,
                                  rtol=1e-5, atol=1e-7)

#: Std-dev of the per-coordinate jitter that ``--seed S != 0`` applies
#: to the pinned seed points (6% of a sampled cell).  It changes every
#: input bit; the hybrid schedule is sensitive to any of them, so the
#: message count moves +-7% and blocks loaded +-4%, while the step count
#: stays within +-0.5%.  Redrawing the sets instead (RNG seed base + S)
#: moves the step count +-3% and the op time +-10% between seeds, and
#: resizing the thermal circle by +-10% moves ``dense_batch`` +-12%:
#: more than any bound can resolve.
_JITTER = 0.002

#: Worker slots of the sweep workloads (= nproc on the reference box).
SWEEP_SLOTS = 2

Span = Tuple[float, float]


def _machine(n_ranks: int) -> MachineSpec:
    return MachineSpec(n_ranks=n_ranks, cache_blocks=48, io_bandwidth=1.0e8)


def _jittered(points: np.ndarray, domain, seed: int) -> np.ndarray:
    if seed == 0:
        return points
    rng = np.random.default_rng(seed)
    moved = points + rng.normal(scale=_JITTER, size=points.shape)
    return np.clip(moved, domain.lo_array, domain.hi_array)


def geometry_digest(result) -> str:
    """sha256 over status, accepted steps and vertex bytes of every
    streamline in ``sid`` order — the part of a run that the repo's
    bit-identity contract makes equal across algorithms and rank
    counts."""
    h = hashlib.sha256()
    for line in result.streamlines:
        h.update(f"{line.sid}:{line.status.value}:{line.steps}:".encode())
        h.update(line.vertices().tobytes())
    return h.hexdigest()


def run_digest(result) -> str:
    """Geometry plus the simulated schedule's totals."""
    totals = (result.wall_clock, result.total_steps, result.messages_sent,
              result.bytes_sent, result.blocks_loaded, result.blocks_purged)
    return hashlib.sha256(
        (geometry_digest(result) + repr(totals)).encode()).hexdigest()


@dataclasses.dataclass
class OpOutput:
    """What one op hands back for timing, verification and accounting.

    ``span`` is the timed region; digests are computed after it closes.
    ``phases`` maps the harness's own calls into the layers to
    ``perf_counter`` pairs; they cost two clock reads each and are taken
    on traced and untraced ops alike.
    """

    ok: bool
    span: Span
    digest: str
    steps: int
    phases: Dict[str, Span]
    geometry: str = ""
    counts: Dict[str, float] = dataclasses.field(default_factory=dict)
    outcomes: List[Any] = dataclasses.field(default_factory=list)
    error: str = ""


class RunWorkload:
    """One ``run_streamlines`` call (plus, for ``traced_ref``, the
    ``repro trace`` -> ``analyze`` -> ``slowest`` library path)."""

    kind = "run"

    def __init__(self, name: str, seed: int, shrink: int,
                 workdir: Path) -> None:
        self.name = name
        self.workdir = workdir
        if name == "dense_batch":
            field = ThermalHydraulicsField()
            cy, cz = field.inlet_centers[0]
            seeds = _jittered(
                circle_seeds((0.06, cy, cz), 0.03, 880 // shrink),
                field.domain, seed)
            integ, self.algorithm, ranks = _THERMAL_DENSE, "ondemand", 8
        elif name == "hybrid_wide":
            field = SupernovaField()
            seeds = _jittered(
                sparse_random_seeds(field.domain, 100 // shrink, seed=101),
                field.domain, seed)
            integ, self.algorithm, ranks = _ASTRO, "hybrid", 128
        else:  # ref_hybrid and traced_ref: the ROADMAP reference run
            field = SupernovaField()
            seeds = _jittered(
                dense_cluster_seeds((0.30, 0.30, 0.0), 0.12, 200 // shrink,
                                    seed=102, clip_bounds=field.domain),
                field.domain, seed)
            integ, self.algorithm, ranks = _ASTRO, "hybrid", 8
        self.fields = [field]
        self.problem = ProblemSpec(field=field, seeds=seeds,
                                   blocks_per_axis=_BLOCKS,
                                   cells_per_block=_CELLS, integ=integ,
                                   name=name)
        self.machine = _machine(ranks)
        self.observed = name == "traced_ref"

    def op(self, telemetry: Any = None) -> OpOutput:
        phases: Dict[str, Span] = {}
        obs = trace = None
        if self.observed:
            obs = Recorder(enabled=True, sample_interval=1.0)
            trace = Trace(enabled=True)
        t0 = time.perf_counter()
        result = run_streamlines(self.problem, algorithm=self.algorithm,
                                 machine=self.machine, obs=obs, trace=trace)
        phases["run_streamlines"] = (t0, time.perf_counter())
        counts: Dict[str, float] = {
            "msgs": result.messages_sent, "msg_bytes": result.bytes_sent,
            "blocks_loaded": result.blocks_loaded,
            "block_efficiency": result.block_efficiency}
        artifacts = ""
        if self.observed:
            artifacts = self._observe(result, obs, trace, phases, counts)
        span = (t0, max(t1 for _, t1 in phases.values()))
        geometry = geometry_digest(result)
        return OpOutput(ok=result.ok, span=span, geometry=geometry,
                        digest=run_digest(result) + artifacts,
                        steps=result.total_steps, phases=phases,
                        counts=counts)

    def _observe(self, result, obs, trace, phases, counts) -> str:
        """Analyze, export, reload and rebuild lineages in a directory
        that is gone when the op returns; returns the artifact digest."""
        from repro.obs import (analyze_dir, analyze_run, seed_lineages,
                               write_perfetto, write_run_json,
                               write_samples_jsonl, write_spans_jsonl)
        from repro.obs.analyze import load_spans_jsonl

        out = self.workdir / "trace"
        out.mkdir()
        try:
            t0 = time.perf_counter()
            analyze_run(result, obs)
            t1 = time.perf_counter()
            write_perfetto(out / "trace.perfetto.json", obs, trace=trace)
            write_spans_jsonl(out / "spans.jsonl", obs)
            write_samples_jsonl(out / "samples.jsonl", obs)
            write_run_json(out / "run.json", result, obs)
            trace.to_jsonl(out / "events.jsonl")
            t2 = time.perf_counter()
            analyze_dir(out)
            t3 = time.perf_counter()
            lineages = seed_lineages(load_spans_jsonl(out / "spans.jsonl"))
            t4 = time.perf_counter()
            phases.update({"obs.analyze": (t0, t1), "obs.export": (t1, t2),
                           "obs.reload": (t2, t3), "obs.lineage": (t3, t4)})
            h = hashlib.sha256()
            nbytes = 0
            for path in sorted(out.iterdir()):
                data = path.read_bytes()
                nbytes += len(data)
                h.update(path.name.encode() + data)
            counts.update(spans=len(obs.spans),
                          samples=len(obs.registry.samples),
                          artifact_bytes=nbytes)
            if len(lineages) != self.problem.n_seeds:
                return ":lineages-missing"
            return ":" + h.hexdigest()
        finally:
            shutil.rmtree(out)

    def plain_run_seconds(self) -> float:
        """``run_streamlines`` with the recorder off on the same problem
        (the off side of ``obs.record_s``)."""
        t0 = time.perf_counter()
        run_streamlines(self.problem, algorithm=self.algorithm,
                        machine=self.machine)
        return time.perf_counter() - t0

    def reference(self) -> Dict[str, Any]:
        """The plain single-process baseline: a 1-rank ``ondemand`` run
        of the same problem, whose geometry every algorithm and rank
        count must reproduce bit for bit."""
        t0 = time.perf_counter()
        result = run_streamlines(self.problem, algorithm="ondemand",
                                 machine=_machine(1))
        seconds = time.perf_counter() - t0
        return {"expect": geometry_digest(result), "field": "geometry",
                "seconds": seconds, "steps": result.total_steps}


class SweepWorkload:
    """24 bench-mode specs through ``SweepExecutor.run``, then the merge
    and the JSON dump ``bench_trajectory.py`` does."""

    kind = "sweep"

    def __init__(self, name: str, seed: int, shrink: int,
                 workdir: Path) -> None:
        from repro.exec import MODE_BENCH, grid_specs

        self.name = name
        specs = grid_specs(["astro", "fusion"], ["sparse", "dense"],
                           ["static", "ondemand", "hybrid"], [4, 8],
                           scale=0.005, mode=MODE_BENCH,
                           sample_interval=2.0)[::shrink]
        # Dispatch order and tail shape are the input properties the
        # executor's behaviour depends on, so the seed permutes the list.
        if seed:
            order = np.random.default_rng(seed).permutation(len(specs))
            specs = [specs[i] for i in order]
        self.specs = specs
        self.fields = [SupernovaField(), TokamakField()]

    def executor(self, telemetry: Any = None, serial: bool = False):
        from repro.exec import SweepExecutor, parse_nodes

        if serial:
            return SweepExecutor(jobs=1, telemetry=telemetry)
        if self.name == "sweep_local":
            return SweepExecutor(jobs=SWEEP_SLOTS, telemetry=telemetry)
        nodes = ",".join(f"n{i + 1}:1" for i in range(SWEEP_SLOTS))
        return SweepExecutor(
            jobs=1, telemetry=telemetry, nodes=parse_nodes(nodes),
            remote_template=(f"sh -c 'exec {sys.executable} -m "
                             "repro.exec.remote_worker'"))

    def op(self, telemetry: Any = None, serial: bool = False) -> OpOutput:
        from repro.exec import merge_run_entries
        from repro.obs import jsonable

        executor = self.executor(telemetry, serial)
        t0 = time.perf_counter()
        outcomes = executor.run(self.specs)
        t1 = time.perf_counter()
        text = json.dumps(jsonable(merge_run_entries(outcomes)),
                          sort_keys=True, indent=2)
        t2 = time.perf_counter()
        bad = [f"{o.spec.name}: {o.status} {o.error}".strip()
               for o in outcomes if not o.ok]
        return OpOutput(
            ok=not bad and len(outcomes) == len(self.specs), span=(t0, t2),
            digest=hashlib.sha256(text.encode()).hexdigest(),
            steps=0 if bad else sum(_entry_steps(o.payload)
                                    for o in outcomes),
            phases={"SweepExecutor.run": (t0, t1), "exec.merge": (t1, t2)},
            outcomes=outcomes, error="; ".join(bad))

    def reference(self) -> Dict[str, Any]:
        """The plain single-process baseline: the same specs through
        ``SweepExecutor(jobs=1)``, inline in this process, counting the
        steps of every ``run_streamlines`` call it makes."""
        import repro.core.driver as driver

        inner, steps = driver.run_streamlines, []

        def counting(*args, **kwargs):
            result = inner(*args, **kwargs)
            steps.append(result.total_steps)
            return result

        driver.run_streamlines = counting
        try:
            out = self.op(serial=True)
        finally:
            driver.run_streamlines = inner
        return {"expect": out.digest if out.ok else "reference failed",
                "field": "digest", "seconds": out.span[1] - out.span[0],
                "steps": sum(steps)}


def _entry_steps(entry: Dict[str, Any]) -> int:
    """Integration steps of one bench entry: its simulated compute time
    is ``steps * seconds_per_step`` summed over ranks."""
    return round(entry["compute_time"] / MachineSpec().seconds_per_step)


def cold_block_sample_us(fields) -> float:
    """Microseconds per cold ``BlockStore.load`` over every block of a
    fresh store of each field (what a fresh process or sweep worker
    pays on first touch)."""
    total = blocks = 0
    for field in fields:
        store = BlockStore(field, Decomposition(field.domain, _BLOCKS,
                                                _CELLS))
        t0 = time.perf_counter()
        for block_id in range(store.n_blocks):
            store.load(block_id)
        total += time.perf_counter() - t0
        blocks += store.n_blocks
    return 1e6 * total / blocks


def build(name: str, seed: int, shrink: int, workdir: Path):
    if name in RUN_WORKLOADS:
        return RunWorkload(name, seed, shrink, workdir)
    if name in SWEEP_WORKLOADS:
        return SweepWorkload(name, seed, shrink, workdir)
    raise ValueError(f"unknown workload {name!r}")
