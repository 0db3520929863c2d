"""The one sweep front end: executor flags and the driver behind them.

Every command-line sweep registers its executor flags here —
:func:`add_sweep_args` for ``repro sweep`` and
``benchmarks/bench_trajectory.py``, the pool pair for ``repro
figure`` — and the two sweeps hand their spec list to
:func:`drive_sweep`, which owns everything between those flags and the
outcomes.  A front end keeps only its spec building and its document,
which :func:`write_doc` writes.  The checked argparse types
(:func:`checked`, ``positive_int``, ``positive_float``) are shared by
``repro``'s numeric flags and the trajectory harness's.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

from repro.exec.executor import SweepExecutor
from repro.exec.schedule import dry_run_table, plan_schedule
from repro.exec.spec import RunOutcome, RunSpec, failure_report
from repro.exec.telemetry import (
    JsonlTelemetry,
    load_events,
    telemetry_report,
    text_progress,
    validate_events,
)
from repro.exec.transport import parse_nodes
from repro.obs import jsonable


def checked(cast, rule: str, ok):
    """An argparse ``type=`` that converts with *cast* and rejects a
    value failing *ok*; both errors exit 2 with argparse's usage
    message."""
    def parse(text: str):
        value = cast(text)   # ValueError -> "invalid int/float value"
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {rule}, got {text}")
        return value
    parse.__name__ = cast.__name__
    return parse


#: ``--ranks`` and ``--seeds``; ``--scale`` and ``--oom-scale``.
positive_int = checked(int, ">= 1", lambda v: v >= 1)
positive_float = checked(float, "a finite number > 0",
                         lambda v: 0 < v < float("inf"))


def jobs_arg(text: str) -> int:
    """``--jobs`` values: a non-negative int, or ``auto`` (= 0 = one
    worker per CPU)."""
    if text.strip().lower() == "auto":
        return 0
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid jobs value {text!r}: expected an integer or 'auto'")
    if value < 0:
        raise argparse.ArgumentTypeError("jobs must be >= 0")
    return value


def add_pool_args(parser: argparse.ArgumentParser) -> None:
    """``--jobs`` and ``--timeout``."""
    parser.add_argument("--jobs", type=jobs_arg, default=1, metavar="N",
                        help="worker processes (default 1 = serial; 0 or "
                             "'auto' = one per CPU); the output is "
                             "byte-identical for any value")
    parser.add_argument("--timeout", type=float, default=0.0,
                        help="per-run limit in real seconds "
                             "(0 = unlimited)")


def add_sweep_args(parser: argparse.ArgumentParser) -> None:
    """Every flag :func:`drive_sweep` reads: the pool pair,
    ``--nodes``, ``--remote-template``, ``--dry-run`` and
    ``--telemetry``."""
    add_pool_args(parser)
    parser.add_argument("--nodes", default=None, metavar="SPEC",
                        help="remote nodes as comma-separated host:slots "
                             "(e.g. host1:4,host2:8; bare host = 1 slot; "
                             "the pseudo-host 'local' is the in-machine "
                             "pool)")
    parser.add_argument("--remote-template", default=None,
                        metavar="TEMPLATE",
                        help="command template that launches the remote "
                             "worker on {host} (default: ssh batch mode, "
                             "cd {cwd}, python -m repro.exec."
                             "remote_worker)")
    parser.add_argument("--dry-run", action="store_true",
                        help="print the planned dispatch order (heaviest "
                             "problem first) with each run's share of "
                             "the cost model's total and exit without "
                             "executing")
    parser.add_argument("--telemetry", default=None, metavar="DIR",
                        help="capture the executor's host-side event log "
                             "(events.jsonl) and utilization report into "
                             "DIR; never affects the deterministic "
                             "outputs")


def drive_sweep(args: argparse.Namespace, specs: Sequence[RunSpec],
                prog: str) -> Tuple[Optional[List[RunOutcome]], int]:
    """Run *specs* as the :func:`add_sweep_args` flags say; returns
    ``(outcomes, exit_code)``.

    ``outcomes`` is ``None`` when nothing ran: a dry run (code 0, the
    plan printed to stdout) or a bad ``--nodes`` (code 2).  Otherwise the
    code is 1 when a run failed or the ``--telemetry`` event log fails
    :func:`~repro.exec.telemetry.validate_events` — both reported on
    stderr — and 0 else; the caller still writes its document.
    """
    try:
        nodes = parse_nodes(args.nodes) if args.nodes else []
    except ValueError as exc:
        print(f"{prog}: {exc}", file=sys.stderr)
        return None, 2
    if args.dry_run:
        print(dry_run_table(plan_schedule(specs)))
        return None, 0
    sinks = [text_progress(sys.stderr)]
    log = Path(args.telemetry) / "events.jsonl" if args.telemetry else None
    if log is not None:
        sinks.append(JsonlTelemetry(log))
    try:
        outcomes = SweepExecutor(
            jobs=args.jobs, timeout=args.timeout or None, telemetry=sinks,
            nodes=nodes, remote_template=args.remote_template).run(specs)
    finally:
        if log is not None:
            sinks[-1].close()
    problems = []
    if log is not None:
        events = load_events(log)
        util = log.with_name("utilization.txt")
        util.write_text(telemetry_report(events) + "\n", encoding="utf-8")
        print(f"telemetry: {len(events)} events -> {log}; utilization "
              f"report -> {util}", file=sys.stderr)
        problems = validate_events(events)
        if problems:
            print("telemetry: event log FAILED validation:",
                  file=sys.stderr)
            for problem in problems:
                print(f"  {problem}", file=sys.stderr)
    report = failure_report(outcomes)
    if report:
        print(report, file=sys.stderr)
    return outcomes, 1 if report or problems else 0


def write_doc(path, doc: dict) -> None:
    """Write a sweep document as compact key-sorted JSON, the bytes the
    byte-identity gates compare."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(jsonable(doc), sort_keys=True,
                               separators=(",", ":")) + "\n",
                    encoding="utf-8")
