"""Parallel sweep execution: multi-process run fan-out with a
byte-identical deterministic merge.

The evaluation matrix (dataset x seeding x algorithm x rank count) is a
list of fully independent, deterministic simulated runs — the
workflow-level analogue of the paper's parallelize-over-seeds strategy.
This package fans that list out over a bounded pool of OS processes and
merges the results **in spec order**, so every downstream artifact
(``BENCH_*.json`` snapshots, sweep summaries, EXPERIMENTS.md tables) is
byte-identical regardless of ``--jobs``.

Layers
------
:mod:`repro.exec.spec`
    :class:`RunSpec` / :class:`RunOutcome` — picklable run identities
    and their results; :func:`grid_specs` for the canonical sweep order.
:mod:`repro.exec.worker`
    The worker-side task implementations (one per spec ``mode``) and
    the real-``MemoryError`` -> ``oom`` containment.
:mod:`repro.exec.schedule`
    :func:`plan_schedule` — the one dispatch order: heaviest problem
    first by a static cost model (:func:`model_estimate`), a problem's
    specs back to back; ordering never changes merged artifacts.
:mod:`repro.exec.transport`
    The one worker client (:class:`StreamWorker`, length-prefixed
    JSON frames over a byte stream) and its two acquisitions: a forked
    child (``--jobs N``) and a command template's stdio (``--nodes
    host1:4,host2:8``; ``python -m repro.exec.remote_worker``) — both
    ending in the same calibration handshake that gives each node
    its speed factor.
:mod:`repro.exec.executor`
    :class:`SweepExecutor` and its :class:`Dispatcher` state machine
    over persistent worker slots (local and/or remote), with per-run
    timeout, crash containment, OOM-probe isolation, and remote
    failover (requeue + bounded retries + local fallback).
:mod:`repro.exec.telemetry`
    Host-side executor telemetry: the one event stream and its sinks
    — the JSONL log (:class:`JsonlTelemetry`) and live progress
    (:func:`text_progress`) — its schema validator, and the per-slot
    table and timeline views.  Telemetry never perturbs deterministic
    artifacts.
:mod:`repro.exec.frontend`
    The one command-line front end: the executor flags and
    ``drive_sweep``, behind ``repro sweep`` and ``bench_trajectory.py``.

``repro.exec`` sits *above* ``repro.analysis`` (tasks import it
lazily), so nothing in the simulator depends on ``multiprocessing``.
Below it, one process boundary remains: a trajectory bank may fork one
tracer per problem (:mod:`repro.integrate.tracer`) that integrates the
seeds while the simulator replays them — ``os.fork``, one pipe and
anonymous shared memory, never ``multiprocessing`` — and every artifact
is byte-identical to the in-process trace.  A local pool worker never
forks one: its siblings already share the CPUs (the bank asks whether
the process is a ``multiprocessing`` child without importing it).
"""

from repro.exec.executor import (
    SweepExecutor,
    default_jobs,
    merge_run_entries,
)
from repro.exec.transport import (
    DEFAULT_REMOTE_TEMPLATE,
    LOCAL_NODE,
    PROTOCOL_VERSION,
    NodeSpec,
    StreamWorker,
    TransportError,
    calibration_probe,
    command_worker,
    fork_worker,
    parse_nodes,
)
from repro.exec.schedule import (
    PlannedRun,
    dry_run_table,
    model_estimate,
    plan_schedule,
)
from repro.exec.telemetry import (
    JsonlTelemetry,
    load_events,
    makespan,
    telemetry_report,
    text_progress,
    utilization_table,
    validate_events,
    worker_intervals,
    worker_timeline_text,
)
from repro.exec.spec import (
    MODE_BENCH,
    MODE_SUMMARY,
    OUTCOME_CRASHED,
    OUTCOME_ERROR,
    OUTCOME_OK,
    OUTCOME_OOM,
    OUTCOME_TIMEOUT,
    RunOutcome,
    RunSpec,
    failure_report,
    grid_specs,
)
from repro.exec.worker import run_spec

__all__ = [
    "DEFAULT_REMOTE_TEMPLATE",
    "JsonlTelemetry",
    "LOCAL_NODE",
    "MODE_BENCH",
    "MODE_SUMMARY",
    "OUTCOME_CRASHED",
    "OUTCOME_ERROR",
    "OUTCOME_OK",
    "OUTCOME_OOM",
    "NodeSpec",
    "OUTCOME_TIMEOUT",
    "PROTOCOL_VERSION",
    "PlannedRun",
    "RunOutcome",
    "RunSpec",
    "StreamWorker",
    "SweepExecutor",
    "TransportError",
    "calibration_probe",
    "command_worker",
    "default_jobs",
    "dry_run_table",
    "failure_report",
    "fork_worker",
    "grid_specs",
    "load_events",
    "makespan",
    "merge_run_entries",
    "model_estimate",
    "parse_nodes",
    "plan_schedule",
    "run_spec",
    "telemetry_report",
    "text_progress",
    "utilization_table",
    "validate_events",
    "worker_intervals",
    "worker_timeline_text",
]
