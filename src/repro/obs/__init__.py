"""Observability layer: spans, metrics, wait-state attribution, exports.

``repro.obs`` is a leaf package — it imports nothing from ``repro.sim``
or ``repro.core`` (timer categories and metrics objects are passed in
opaquely), so every simulator layer can depend on it without cycles.

Typical wiring::

    obs = Recorder(enabled=True, sample_interval=0.25)
    cluster = Cluster(machine, trace=trace, obs=obs)   # binds the clock
    ... run ...
    write_perfetto("trace.json", obs, trace=trace)

Inside worker coroutines, the :func:`span` helper reads the recorder and
rank off a ``RankContext``::

    with span(ctx, "io.load_block", block=block_id):
        ...

Zero-cost-when-disabled contract: recording-only instrumentation sites
guard with ``if obs.enabled:`` (or rely on :func:`span` returning the
shared :data:`NULL_SPAN`), the engine observer is only installed for
enabled recorders, and a disabled registry hands out shared null
instruments — so a production (untraced) run executes the identical
event schedule and allocates nothing per event.
"""

from repro.obs.analyze import (
    RunAnalysis,
    Segment,
    analyze,
    analyze_dir,
    analyze_run,
    critical_path,
    gini,
)
from repro.obs.diff import (
    DEFAULT_THRESHOLDS,
    DiffRow,
    diff_runs,
    diff_table,
    load_comparable,
    regressions,
)
from repro.obs.export import (
    jsonable,
    perfetto_events,
    perfetto_json,
    seed_perfetto_json,
    timeline_text,
    write_perfetto,
    write_run_json,
    write_samples_jsonl,
    write_seed_perfetto,
    write_spans_jsonl,
)
from repro.obs.host import (
    HOST_SCHEMA,
    NULL_PROBE,
    HostProbe,
    PhaseStats,
    activated,
    host_phase,
)
from repro.obs.lineage import (
    LIFECYCLE_KINDS,
    SeedLineage,
    SeedSegment,
    lifecycle_table,
    seed_episodes,
    seed_latency_summary,
    seed_lineages,
    slowest_seeds,
    slowest_table,
    tile_segments,
)
from repro.obs.recorder import NULL_RECORDER, Recorder
from repro.obs.registry import (
    DEFAULT_BUCKETS,
    NULL_REGISTRY,
    Counter,
    Histogram,
    MetricsRegistry,
)
from repro.obs.span import NULL_SPAN, NullSpan, Span, SpanRecord
from repro.obs.waitstate import (
    WAIT_ASSIGNMENT,
    WAIT_DEFAULT,
    WAIT_MESSAGE,
    WAIT_STATUS,
    WaitStates,
)


def span(ctx, name: str, **attrs):
    """Open a recording span for a ``RankContext``-like object (anything
    with ``.obs`` and ``.rank``); returns :data:`NULL_SPAN` when the
    context's recorder is disabled."""
    return ctx.obs.span(ctx.rank, name, **attrs)


__all__ = [
    "Counter",
    "DEFAULT_BUCKETS",
    "DEFAULT_THRESHOLDS",
    "DiffRow",
    "HOST_SCHEMA",
    "Histogram",
    "HostProbe",
    "LIFECYCLE_KINDS",
    "MetricsRegistry",
    "NULL_PROBE",
    "NULL_RECORDER",
    "NULL_REGISTRY",
    "NULL_SPAN",
    "NullSpan",
    "PhaseStats",
    "Recorder",
    "RunAnalysis",
    "SeedLineage",
    "SeedSegment",
    "Segment",
    "Span",
    "SpanRecord",
    "WAIT_ASSIGNMENT",
    "WAIT_DEFAULT",
    "WAIT_MESSAGE",
    "WAIT_STATUS",
    "WaitStates",
    "activated",
    "analyze",
    "analyze_dir",
    "analyze_run",
    "critical_path",
    "diff_runs",
    "diff_table",
    "gini",
    "host_phase",
    "jsonable",
    "lifecycle_table",
    "load_comparable",
    "perfetto_events",
    "perfetto_json",
    "regressions",
    "seed_episodes",
    "seed_latency_summary",
    "seed_lineages",
    "seed_perfetto_json",
    "slowest_seeds",
    "slowest_table",
    "span",
    "tile_segments",
    "timeline_text",
    "write_perfetto",
    "write_run_json",
    "write_samples_jsonl",
    "write_seed_perfetto",
    "write_spans_jsonl",
]
