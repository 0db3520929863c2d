"""One round of one workload, in a fresh process.

``run.py`` starts this file with a JSON job as its only argument and
reads one JSON object from the last line of its standard output.  A
round builds the inputs, runs one untimed warm-up op, then times warm
ops in a closed loop (concurrency 1: the next op starts when the
previous one returned) until its share of the measuring time is used.
Every op's output is verified; a failed op contributes no sample.

A traced round interleaves traced and untraced ops in this one process,
so that tracing overhead is the difference of like with like.
"""

from __future__ import annotations

import gc
import io
import json
import pickle
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Tuple

import workloads
from calibrate import REFERENCE_S, calibrate

# ``seams`` is imported by the traced round only: a timed round never
# loads the tracing code.


def _peak_rss_mib() -> float:
    """Largest resident set of this process or any child it waited for
    (Linux reports ``ru_maxrss`` in KiB)."""
    return max(resource.getrusage(who).ru_maxrss
               for who in (resource.RUSAGE_SELF,
                           resource.RUSAGE_CHILDREN)) / 1024.0


class Round:
    def __init__(self, job: Dict[str, Any]) -> None:
        self.job = job
        self.workdir = Path(job["workdir"])
        t0 = time.perf_counter()
        self.wl = workloads.build(job["workload"], job["seed"],
                                  job["shrink"], self.workdir)
        self.build_s = time.perf_counter() - t0
        self.first = None
        self.readings: List[float] = []
        self.attempted = self.failed = 0
        self.errors: List[str] = []

    def warm_up(self) -> float:
        """The untimed first op.  Returns the seconds since the parent
        started this process; takes the first calibration reading."""
        self.first = self.wl.op()
        setup = time.time() - self.job["t_spawn"]
        self.readings.append(calibrate())
        return setup

    def paced(self, fn: Callable[[], Any]) -> Tuple[Any, float]:
        """Call ``fn`` after a ``gc.collect()`` and read the calibration
        loop once it returns.  Returns its result and the factor that
        scales seconds measured inside it to the reference box's speed,
        taken from the readings on either side (see calibrate.py)."""
        gc.collect()
        result = fn()
        self.readings.append(calibrate())
        return result, 2 * REFERENCE_S / sum(self.readings[-2:])

    def verified(self, out) -> bool:
        """Check one op's output: status ok, equal to the first op of
        this round, and equal to the committed golden when there is
        one for these inputs."""
        self.attempted += 1
        digest = out.digest
        if self.job.get("inject") == "digest" and self.attempted == 1:
            digest = "injected-mismatch"
        problem = ""
        if not out.ok:
            problem = out.error or "status not ok"
        elif digest != self.first.digest:
            problem = "output differs from the first op"
        elif self.job.get("golden") not in (None, digest):
            problem = "output differs from golden.json"
        if problem:
            self.failed += 1
            self.errors.append(f"op {self.attempted}: {problem}")
        return not problem

    def spent(self, measured: float, last: float, n: int) -> bool:
        """Whether the round's share of the measuring time is used up:
        stop at the op count nearest to the share."""
        return (n >= self.job["min_ops"]
                and measured + last / 2 > self.job["seconds"])

    def check_reference(self) -> Dict[str, Any]:
        ref = self.wl.reference()
        ref["ok"] = getattr(self.first, ref["field"]) == ref["expect"] \
            and ref["steps"] == self.first.steps
        if not ref["ok"]:
            self.errors.append(
                f"{ref['field']} differs from the single-process "
                "reference")
        return ref

    def result(self, **fields: Any) -> Dict[str, Any]:
        return dict(fields, attempted=self.attempted, failed=self.failed,
                    errors=self.errors, steps=self.first.steps,
                    digest=self.first.digest)


def _seconds(out) -> float:
    return out.span[1] - out.span[0]


def timed_round(job: Dict[str, Any]) -> Dict[str, Any]:
    rnd = Round(job)
    setup_raw = rnd.warm_up()
    samples: List[float] = []
    raw: List[float] = []
    measured = 0.0
    while True:
        out, scale = rnd.paced(rnd.wl.op)
        if rnd.verified(out):
            raw.append(_seconds(out))
            samples.append(_seconds(out) * scale)
        measured += _seconds(out)
        if rnd.spent(measured, _seconds(out), rnd.attempted):
            break
    rss = _peak_rss_mib()
    # Set-up has no reading before it and one reading is noisy: scale it
    # by the round's median (the host's slow spells last minutes).
    setup_scale = REFERENCE_S / statistics.median(rnd.readings)
    # After the memory reading: the reference run allocates too.
    reference = rnd.check_reference() if job["reference"] else None
    env = _library_env(rnd.readings) if job["final"] else None
    return rnd.result(setup_s=setup_raw * setup_scale, setup_raw_s=setup_raw,
                      samples=samples, raw_samples=raw, peak_rss_mb=rss,
                      reference=reference, env=env)


def _library_env(readings: List[float]) -> Dict[str, Any]:
    """What the parent cannot know without importing the libraries."""
    import numpy
    from repro.exec import calibration_probe

    return {"numpy": numpy.__version__,
            "calibration_probe_s": calibration_probe(),
            "calibration_reference_s": REFERENCE_S,
            "calibration_s": statistics.median(readings)}


def _traced_op(wl):
    """One op with the seam wrappers installed (run workloads) or a
    telemetry sink attached (sweeps); returns its output and spans."""
    import seams

    log = seams.SpanLog()
    sink = seams.TelemetrySink() if wl.kind == "sweep" else None
    restore = seams.install(log) if wl.kind == "run" else (lambda: None)
    root = log.open("op")
    try:
        out = wl.op(telemetry=sink)
    finally:
        log.close()
        restore()
    root[seams.T0], root[seams.T1] = out.span
    phases = {name: log.add(name, t0, t1, 0, adopt=True)
              for name, (t0, t1) in out.phases.items()}
    if sink is not None:
        seams.add_sweep_spans(log, sink, out, phases["SweepExecutor.run"])
    return out, log.spans, sink


def traced_round(job: Dict[str, Any]) -> Dict[str, Any]:
    import seams

    rnd = Round(job)
    wl = rnd.wl
    rnd.warm_up()
    span_cost = seams.span_cost()

    def scaled(metrics: Dict[str, float], scale: float) -> Dict[str, float]:
        return {key: value * scale if key in job["times"] else value
                for key, value in metrics.items()}

    traced: List[float] = []
    untraced: List[float] = []
    recorder_on: List[float] = []
    recorder_off: List[float] = []
    layers: List[Dict[str, float]] = []
    ops: List[List[list]] = []
    pairs = 0
    measured = 0.0
    while True:
        (out, spans, sink), scale = rnd.paced(lambda: _traced_op(wl))
        traced_ok = rnd.verified(out)
        bare, bare_scale = rnd.paced(wl.op)
        measured += _seconds(out) + _seconds(bare)
        if rnd.verified(bare) and traced_ok:
            traced.append(_seconds(out) * scale)
            untraced.append(_seconds(bare) * bare_scale)
            layer = (seams.sweep_layers(spans, sink, out,
                                        workloads.SWEEP_SLOTS)
                     if wl.kind == "sweep" else seams.run_layers(spans, out))
            layer["trace.op_s"] = _seconds(out)
            layer["trace.span_cost_frac"] = (len(spans) * span_cost
                                             / _seconds(out))
            layers.append(scaled(layer, scale))
            spans[0][seams.VALUE] = scale
            ops.append(spans)
        if wl.name == "traced_ref":
            t0, t1 = out.phases["run_streamlines"]
            recorder_on.append((t1 - t0) * scale)
            seconds, off_scale = rnd.paced(wl.plain_run_seconds)
            recorder_off.append(seconds * off_scale)
            measured += seconds
        pairs += 1
        if rnd.spent(measured, measured / pairs, pairs):
            break

    def measure_once() -> Dict[str, float]:
        once = {"fields.problem_build_s": rnd.build_s,
                "storage.sample_block_us":
                    workloads.cold_block_sample_us(wl.fields)}
        if wl.kind == "sweep" and traced:
            once.update(_dispatch_overhead(wl))
            once.update(_codec_roundtrips(out.outcomes))
        return once

    reference, ref_scale = rnd.paced(rnd.check_reference)
    once = scaled(*rnd.paced(measure_once))
    if traced:
        # Ratio within each adjacent pair first: neighbours share what
        # the calibration does not catch.
        once["trace.overhead_frac"] = statistics.median(
            t / u for t, u in zip(traced, untraced)) - 1.0
    if traced and wl.kind == "sweep":
        once["exec.serial_s"] = reference["seconds"] * ref_scale
        once["exec.speedup"] = (once["exec.serial_s"]
                                / statistics.median(untraced))
    if traced and recorder_off:
        on = statistics.median(recorder_on)
        off = statistics.median(recorder_off)
        once["obs.record_s"] = on - off
        once["obs.record_overhead_frac"] = on / off - 1.0

    spans_path = rnd.workdir / f"spans-{wl.name}.jsonl"
    with open(spans_path, "w") as fh:
        for op, spans in enumerate(ops):
            for index, (name, t0, t1, parent, value) in enumerate(spans):
                fh.write(json.dumps({
                    "workload": wl.name, "op": op, "id": index,
                    "name": name, "t0": t0, "t1": t1, "parent": parent,
                    "value": value}) + "\n")
    return rnd.result(layers=layers, once=once, reference=reference,
                      traced=traced, untraced=untraced,
                      spans=str(spans_path))


def _dispatch_overhead(wl) -> Dict[str, float]:
    """``exec.per_run_overhead_ms``: the same specs in summary mode
    against a cache this process warms first, so that a run costs its
    dispatch and a cache read and nothing else."""
    import dataclasses

    import seams
    from repro.exec import MODE_SUMMARY, SweepExecutor

    specs = [dataclasses.replace(spec, mode=MODE_SUMMARY)
             for spec in wl.specs]
    SweepExecutor(jobs=1).run(specs)
    sink = seams.TelemetrySink()
    executor = wl.executor(telemetry=sink)
    t0 = time.perf_counter()
    outcomes = executor.run(specs)
    t1 = time.perf_counter()
    if not all(o.ok for o in outcomes):
        raise RuntimeError("summary-mode sweep failed")
    first_start = min(stamp for stamp, event in sink.events
                      if event["event"] == "start")
    return {"exec.per_run_overhead_ms":
            1e3 * (t1 - first_start) / len(specs)}


def _codec_roundtrips(outcomes, repeats: int = 5) -> Dict[str, float]:
    """Microseconds per run to carry a spec out and its payload back:
    length-prefixed JSON frames (remote workers) against pickle (the
    local pool's pipes), on the real payloads of the last op."""
    from repro.exec.transport import (payload_from_wire, payload_to_wire,
                                      read_frame, spec_from_wire,
                                      spec_to_wire, write_frame)

    def frames() -> None:
        for o in outcomes:
            buf = io.BytesIO()
            write_frame(buf, {"type": "run", "spec": spec_to_wire(o.spec)})
            write_frame(buf, {"type": "result", "status": o.status,
                              "payload": payload_to_wire(o.payload),
                              "host": o.host})
            buf.seek(0)
            spec_from_wire(read_frame(buf)["spec"])
            payload_from_wire(read_frame(buf)["payload"])

    def pickles() -> None:
        for o in outcomes:
            pickle.loads(pickle.dumps(o.spec))
            pickle.loads(pickle.dumps((o.status, o.payload, o.host)))

    def per_run_us(fn) -> float:
        times = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            fn()
            times.append(time.perf_counter() - t0)
        return 1e6 * statistics.median(times) / len(outcomes)

    return {"exec.wire_roundtrip_us": per_run_us(frames),
            "exec.pickle_roundtrip_us": per_run_us(pickles)}


def main() -> int:
    job = json.loads(sys.argv[1])
    result = traced_round(job) if job["trace"] else timed_round(job)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
