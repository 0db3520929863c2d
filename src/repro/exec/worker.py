"""Worker-process side of the sweep executor: what runs one spec.

:func:`run_spec` executes one :class:`~repro.exec.spec.RunSpec` and
returns its payload; it is the single implementation both the serial
in-process path and every worker process call, which is what makes
``--jobs N`` byte-identical to ``--jobs 1``: the simulation is
deterministic and pure, so *where* it runs cannot change the result.

:func:`_execute` runs it under a :class:`~repro.obs.host.HostProbe`
and packages the ``(status, payload, host)`` message the worker serve
loop (:mod:`repro.exec.remote_worker`) frames back to the parent and
the inline serial path turns into its outcome.  A task exception
(including :class:`MemoryError`) is reported as an outcome message and
the loop continues; a *hard* death (crash, ``os._exit``, the kernel OOM
killer) ends the worker, which the executor observes as EOF.  A
long-lived worker amortizes interpreter/NumPy start-up across every run
it executes and keeps process-level caches warm — the memoized dataset
fields and the one held problem with its traced curves
(:mod:`repro.analysis.scenarios`; one problem at a time, about 80 MiB
for thermal-dense at scale 1.0, replaced when a spec of another problem
arrives), the shared immutable block store (:mod:`repro.core.driver`),
and the run memo (:mod:`repro.analysis.experiments`, which a forked
worker inherits from its parent) — none of which can change results
(all are deterministic and read-only).
*Isolated* specs (the thermal OOM probe) get a dedicated worker that
is discarded after its one result, so a real :class:`MemoryError` — or
a hard kernel OOM kill — takes down a process that owns nothing else.

Fault injection (tests only)
----------------------------
``REPRO_EXEC_FAULT=<kind>:<substring>`` arms a fault for every spec
whose name contains ``<substring>``: ``hang`` sleeps forever (exercises
the per-run timeout), ``crash`` hard-exits the worker (``os._exit``),
``raise`` raises ``RuntimeError``, and ``memerr`` raises
``MemoryError``.  Forked workers inherit the environment and the
handshake's ``config`` frame carries it to remote ones; it is inert
unless the variable is set.
"""

from __future__ import annotations

import os
import time
import traceback
from typing import Any, Tuple

from repro.exec.spec import (
    MODE_BENCH,
    MODE_SUMMARY,
    OUTCOME_ERROR,
    OUTCOME_OK,
    OUTCOME_OOM,
    RunSpec,
)
from repro.obs.host import HostProbe, activated, host_phase

#: Environment variable arming the test-only fault hook.
FAULT_ENV = "REPRO_EXEC_FAULT"


def _maybe_inject_fault(spec: RunSpec) -> None:
    fault = os.environ.get(FAULT_ENV, "")
    if not fault:
        return
    kind, _, substring = fault.partition(":")
    if not substring or substring not in spec.name:
        return
    if kind == "hang":
        time.sleep(3600.0)
    elif kind == "crash":
        os._exit(3)
    elif kind == "raise":
        raise RuntimeError(f"injected fault for {spec.name}")
    elif kind == "memerr":
        raise MemoryError(f"injected MemoryError for {spec.name}")


def _task_summary(spec: RunSpec) -> Any:
    """Figure-pipeline task: the memoized experiment run.  The memo is
    the worker's own (a forked worker starts with its parent's)."""
    with host_phase("setup"):
        from repro.analysis.experiments import run_experiment

    with host_phase("advect"):
        return run_experiment(spec.dataset, spec.seeding, spec.algorithm,
                              spec.n_ranks, scale=spec.scale)


def _task_bench(spec: RunSpec) -> Any:
    """Trajectory-harness task: one observed run, analyzed into the
    ``BENCH_*.json`` entry dict."""
    with host_phase("setup"):
        from repro.analysis.scenarios import run_scenario
        from repro.obs import Recorder, analyze_run

        obs = Recorder(enabled=True, sample_interval=spec.sample_interval)
    with host_phase("advect"):
        result = run_scenario(*spec.problem_key, spec.algorithm,
                              spec.n_ranks, obs=obs)
    with host_phase("merge"):
        entry = analyze_run(result, obs).to_dict()
        # The analyzer reports trajectory-level metrics; the scalar
        # summary adds the aggregate the scaling figures use.
        entry["parallel_efficiency"] = result.parallel_efficiency
    return entry


_TASKS = {
    MODE_SUMMARY: _task_summary,
    MODE_BENCH: _task_bench,
}


def run_spec(spec: RunSpec) -> Any:
    """Execute one spec and return its payload (raises on failure)."""
    task = _TASKS.get(spec.mode)
    if task is None:
        raise ValueError(f"unknown run mode {spec.mode!r}; "
                         f"expected one of {sorted(_TASKS)}")
    _maybe_inject_fault(spec)
    return task(spec)


def oom_payload(spec: RunSpec) -> dict:
    """Minimal run entry for a spec whose child hit a *real*
    MemoryError — the same gated ``oom`` status the simulated probe
    commits, so ``repro diff`` treats both identically."""
    return {"status": "oom"}


def _execute(spec: RunSpec) -> Tuple[str, Any, dict]:
    """Run one spec under an active :class:`HostProbe` and package the
    ``(status, payload, host)`` message; the host dict comes back
    whatever the status.  A ``MemoryError`` is the ``oom`` outcome and
    any other ``Exception`` the ``error`` one.  An interrupt or exit is
    no outcome: it stops an inline sweep, and it ends a worker, which
    the parent sees as the worker's death.

    The probe is host-side only: the task's phase labels (``setup`` /
    ``advect`` / ``merge``) charge real wall/CPU/RSS cost, while the
    payload itself — simulated time — is byte-identical whichever
    process runs it and whoever listens.
    """
    probe = HostProbe()
    try:
        with activated(probe):
            result = (OUTCOME_OK, run_spec(spec))
    except MemoryError:
        result = (OUTCOME_OOM, oom_payload(spec))
    except Exception:
        result = (OUTCOME_ERROR, traceback.format_exc(limit=20))
    finally:
        probe.stop()
    return (*result, probe.to_dict())
