"""Host-time benchmark of the repo: six workloads, timed from outside.

    python3 benchmarks/host/run.py                       # all workloads
    python3 benchmarks/host/run.py --workload ref_hybrid --seed 3 \\
        --seconds 12 --trace 0                           # one driver run
    python3 benchmarks/host/run.py --trace both --out DIR  # full result
    python3 benchmarks/host/run.py compare A.json B.json

This process only orchestrates: every round of a workload runs in a
fresh child (``child.py``) with a scrubbed environment, so set-up is
paid — and measured — once per round.  Names, units and bounds come
from ``BENCHMARK.json``; README.md beside this file has the protocol.

The last line printed for each workload and pass is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
Exit code 1 means an op failed or an output did not verify.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SRC = ROOT / "src"
GOLDEN = HERE / "golden.json"

#: Scratch space inside the checkout (named in .gitignore); every
#: invocation works in its own sub-directory and removes it.
WORK_ROOT = ROOT / ".hostbench"

#: Rounds (fresh processes) per workload in the timed pass.
ROUNDS = 2
#: Fewest warm ops per timed round, and traced/untraced pairs in the
#: traced round, whatever the measuring time.
MIN_OPS = 3
#: Seed sets shrink by this factor under ``--smoke``.
SMOKE_SHRINK = 4
#: A round that runs longer than this is killed (the contract allows a
#: whole run 180 s).
CHILD_TIMEOUT = 150.0

#: Workloads whose one golden covers every seed: the seed only permutes
#: their spec list, and the merged JSON they are digested from is
#: key-sorted.
SEED_FREE = ("sweep_local", "sweep_loopback")

#: Verification metrics every workload reports beside the gated ones.
#: They are not in ``BENCHMARK.json``'s ``end_to_end`` list, which
#: admits no metric that is normally 0 and no bound of 0; the driver
#: reads them from ``failed`` / ``attempted`` / ``correct``.
VERIFICATION = [
    {"name": "failed_frac", "unit": "fraction", "better": "lower",
     "bound": 0.0},
    {"name": "verified_ops", "unit": "count", "better": "higher",
     "bound": 0.0},
]


def load_spec() -> Dict[str, Any]:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def hermetic_env(workdir: Path) -> Dict[str, str]:
    """The environment of every child: no ``REPRO_*`` knob survives,
    the sweep cache lives in this invocation's scratch directory, ``src``
    is importable (loopback workers inherit it) and numeric libraries
    stay single-threaded."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("REPRO_")}
    env["REPRO_CACHE_DIR"] = str(workdir / "cache")
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + inherited
                                    if inherited else "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_child(argv: List[str], env: Dict[str, str]) -> str:
    """Run one child to completion in its own process group and return
    its standard output; on a timeout or failure the whole group is
    killed and reaped before raising."""
    proc = subprocess.Popen([sys.executable, *argv], cwd=ROOT, env=env,
                            stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT)
    except BaseException:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"child {argv[0]} exited with code "
                           f"{proc.returncode}")
    return out


def run_round(job: Dict[str, Any], env: Dict[str, str]) -> Dict[str, Any]:
    # Stamped here, so that set-up includes interpreter start and imports.
    job = dict(job, t_spawn=time.time())
    out = run_child([str(HERE / "child.py"), json.dumps(job)], env)
    return json.loads(out.strip().splitlines()[-1])


def import_seconds(env: Dict[str, str], repeats: int = 3) -> float:
    """``cli.import_s``: ``import repro, repro.cli`` in fresh
    interpreters, scaled like every other time (see calibrate.py)."""
    code = ("import sys, time; t = time.perf_counter();"
            " import repro, repro.cli; d = time.perf_counter() - t;"
            " sys.path.insert(0, sys.argv[1]); import calibrate;"
            " print(d * calibrate.REFERENCE_S / calibrate.calibrate())")
    return statistics.median(float(run_child(["-c", code, str(HERE)], env))
                             for _ in range(repeats))


def round_job(name: str, args, workdir: Path, golden: Optional[str],
              seconds: float, **fields: Any) -> Dict[str, Any]:
    """The job a round process gets (``--smoke``: one op of shrunk
    inputs, whatever the measuring time)."""
    return dict(fields, workload=name, seed=args.seed,
                shrink=SMOKE_SHRINK if args.smoke else 1,
                seconds=0.0 if args.smoke else seconds,
                min_ops=1 if args.smoke else MIN_OPS,
                workdir=str(workdir), golden=golden,
                inject=args.inject_fault)


def timed_pass(name: str, args, env, workdir: Path,
               golden: Optional[str]) -> Dict[str, Any]:
    rounds = 1 if args.smoke else ROUNDS
    job = round_job(name, args, workdir, golden, args.seconds / rounds,
                    trace=False)
    # The last round ends with the live single-process reference, unless
    # a committed golden already covers these inputs.
    results = [run_round(dict(job, final=(r == rounds - 1),
                              reference=(r == rounds - 1
                                         and golden is None)), env)
               for r in range(rounds)]
    samples = [s for r in results for s in r["samples"]]
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    errors = [e for r in results for e in r["errors"]]
    if len({r["digest"] for r in results}) != 1:
        errors.append("rounds disagree on the output digest")
        failed = attempted
    reference = results[-1]["reference"]
    if reference is not None and not reference["ok"]:
        # Every op equals the first one, so none matches the reference.
        failed = attempted
    raw = [s for r in results for s in r["raw_samples"]]
    if failed == attempted:
        samples, raw = [], []  # nothing verified, so nothing was measured
    op_s = statistics.median(samples) if samples else 0.0
    q1, _, q3 = (statistics.quantiles(samples, n=4) if len(samples) > 1
                 else [op_s] * 3)
    setups = [r["setup_s"] for r in results]
    setups_raw = [r["setup_raw_s"] for r in results]
    rss = [r["peak_rss_mb"] for r in results]
    return {
        "metrics": {
            "setup_s": {"value": statistics.median(setups), "n": len(setups),
                        "raw": statistics.median(setups_raw),
                        "samples": setups, "raw_samples": setups_raw},
            "op_s": {"value": op_s, "n": len(samples), "q1": q1, "q3": q3,
                     "raw": statistics.median(raw) if raw else 0.0,
                     "samples": samples, "raw_samples": raw},
            "steps_per_s": {"value": results[0]["steps"] / op_s
                            if samples else 0.0},
            "peak_rss_mb": {"value": statistics.median(rss), "n": len(rss),
                            "samples": rss},
            "failed_frac": {"value": failed / attempted},
            "verified_ops": {"value": attempted - failed},
        },
        "attempted": attempted, "failed": failed, "errors": errors,
        "digest": results[0]["digest"], "rounds": rounds,
        "env": results[-1].get("env"),
    }


def traced_pass(name: str, args, env, workdir: Path, golden: Optional[str],
                import_s: float, spec: Dict[str, Any]) -> Dict[str, Any]:
    job = round_job(name, args, workdir, golden, args.seconds, trace=True,
                    times=[m["name"] for m in spec["per_layer"]
                           if m["unit"] in ("s", "ms", "us")])
    result = run_round(job, env)
    errors = list(result["errors"])
    layers = result["layers"]
    failed = result["failed"]
    metrics: Dict[str, Dict[str, Any]] = {}
    for metric in spec["per_layer"]:
        key = metric["name"]
        values = [op[key] for op in layers if key in op]
        if key == "cli.import_s":
            value = import_s
        elif key in result["once"]:
            value = result["once"][key]
        elif not values:
            value = 0.0  # the layer is not crossed by this workload
        elif metric["unit"] in ("count", "B", "lines"):
            value = values[0]
            if len(set(values)) != 1:
                errors.append(f"count {key} does not repeat: {values}")
                failed = result["attempted"]
        else:
            value = statistics.median(values)
        metrics[key] = {"value": value}
    if not result["reference"]["ok"]:
        failed = result["attempted"]
    return {"metrics": metrics, "attempted": result["attempted"],
            "failed": failed, "errors": errors, "digest": result["digest"],
            "spans": result["spans"], "ops": len(layers),
            "traced_samples": result["traced"],
            "untraced_samples": result["untraced"]}


def report(name: str, label: str, measured: Dict[str, Any],
           listed: List[Dict[str, Any]],
           extra: List[Dict[str, Any]] = ()) -> None:
    """Print one pass of one workload: a table of every metric by name
    with its unit and sample count, then the contract's JSON line with
    the metrics ``BENCHMARK.json`` lists for this pass."""
    print(f"== {name}: {label} ==")
    for spec in [*listed, *extra]:
        metric = measured["metrics"][spec["name"]]
        metric["unit"] = spec["unit"]
        stats = "".join(f" {k}={metric[k]:.6g}"
                        for k in ("n", "q1", "q3", "raw") if k in metric)
        print(f"  {spec['name']:<28} {metric['value']:>14.6g} "
              f"{spec['unit']:<8}{stats}")
    for error in measured["errors"]:
        print(f"  FAILED: {error}")
    line = {spec["name"]: {"value": measured["metrics"][spec["name"]]["value"],
                           "unit": spec["unit"]} for spec in listed}
    print(json.dumps({"correct": measured["failed"] == 0,
                      "attempted": measured["attempted"],
                      "failed": measured["failed"], "metrics": line}),
          flush=True)


def golden_for(name: str, args) -> Optional[str]:
    """The committed digest that covers this workload's inputs, if any
    (shrunk inputs have none; ``--write-golden`` ignores the old one)."""
    if args.smoke or args.write_golden or not GOLDEN.is_file():
        return None
    with open(GOLDEN) as fh:
        doc = json.load(fh)
    if name in SEED_FREE:
        return doc["any_seed"].get(name)
    return doc["seed0"].get(name) if args.seed == 0 else None


def write_golden(results: Dict[str, Any]) -> None:
    doc: Dict[str, Dict[str, str]] = {"any_seed": {}, "seed0": {}}
    if GOLDEN.is_file():
        with open(GOLDEN) as fh:
            doc = json.load(fh)
    for name, result in results.items():
        doc["any_seed" if name in SEED_FREE else "seed0"][name] = \
            result["untraced"]["digest"]
    with open(GOLDEN, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {GOLDEN}")


def write_results(out: Path, args, results: Dict[str, Any],
                  traces: List[str], load0: float) -> None:
    out.mkdir(parents=True, exist_ok=True)
    child_env = next((r["untraced"].pop("env") for r in results.values()
                      if "untraced" in r), None)
    env = dict(child_env or {}, nproc=os.cpu_count(),
               python=platform.python_version(), machine=platform.machine(),
               load1_start=load0, load1_end=os.getloadavg()[0])
    doc = {"schema": 1, "seed": args.seed, "seconds": args.seconds,
           "smoke": args.smoke, "env": env, "workloads": results}
    with open(out / "results.json", "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    if traces:
        with open(out / "trace.jsonl", "w") as dst:
            for path in traces:
                with open(path) as src:
                    shutil.copyfileobj(src, dst)


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["compare"]:
        import compare
        return compare.main(argv[1:],
                            load_spec()["end_to_end"] + VERIFICATION)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"run.py: {SRC}/repro not found: the benchmark measures "
              "the repository it is checked out in", file=sys.stderr)
        return 2
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(
        description="host-time benchmark (see README.md beside run.py)")
    parser.add_argument("--workload", action="append", choices=names,
                        help="workload to run (repeatable; default all)")
    parser.add_argument("--seed", type=int, default=0,
                        help="workload seed; 0 is the pinned input set")
    parser.add_argument("--seconds", type=float,
                        default=float(spec["run_seconds"]),
                        help="measuring time per workload and pass")
    parser.add_argument("--trace", choices=("0", "1", "both"), default="0",
                        help="0: timed pass (end-to-end metrics); 1: traced "
                             "pass (per-layer metrics); both: one after "
                             "the other")
    parser.add_argument("--out", type=Path,
                        help="directory for results.json and trace.jsonl")
    parser.add_argument("--smoke", action="store_true",
                        help="1 round, 1 warm op, seed sets shrunk x4, "
                             "both passes; checks the harness, measures "
                             "nothing")
    parser.add_argument("--write-golden", action="store_true",
                        help="record the seed-0 digests in golden.json "
                             "(benchmark PRs only)")
    parser.add_argument("--inject-fault", choices=("digest",),
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.smoke:
        args.trace = "both"
    if args.write_golden and (args.seed or args.smoke
                              or args.trace == "1"):
        parser.error("--write-golden needs the timed pass at --seed 0")
    args.seed = abs(args.seed)  # the generators take no negative seed

    # A terminated run must still stop its children and remove its
    # scratch directory: turn SIGTERM into an exception.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    load0 = os.getloadavg()[0]
    WORK_ROOT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=WORK_ROOT))
    results: Dict[str, Any] = {}
    try:
        env = hermetic_env(workdir)
        # The build step: byte-compile once, so that the first round's
        # set-up time is not the one that pays for it.
        compileall.compile_dir(str(SRC), quiet=2)
        compileall.compile_dir(str(HERE), quiet=2)
        import_s = import_seconds(env) if args.trace != "0" else 0.0
        traces: List[str] = []
        for name in args.workload or names:
            entry = results[name] = {}
            if args.trace != "1":
                entry["untraced"] = timed_pass(name, args, env, workdir,
                                               golden_for(name, args))
                report(name, f"seed {args.seed}, timed pass, "
                       f"{entry['untraced']['rounds']} rounds",
                       entry["untraced"], spec["end_to_end"], VERIFICATION)
            if args.trace != "0":
                entry["traced"] = traced_pass(name, args, env, workdir,
                                              golden_for(name, args),
                                              import_s, spec)
                traces.append(entry["traced"].pop("spans"))
                report(name, f"seed {args.seed}, traced pass, "
                       f"{entry['traced']['ops']} traced ops",
                       entry["traced"], spec["per_layer"])
        if args.out is not None:
            write_results(args.out, args, results, traces, load0)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:  # another invocation is using it
            pass
    if any(p["failed"] for r in results.values() for p in r.values()):
        return 1
    if args.write_golden:
        write_golden(results)
    return 0


if __name__ == "__main__":
    sys.exit(main())
