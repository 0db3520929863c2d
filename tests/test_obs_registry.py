"""Metrics registry: instruments, time series, sampling determinism."""

import pytest

from repro.core.driver import run_streamlines
from repro.obs import MetricsRegistry, Recorder
from repro.obs.registry import DEFAULT_BUCKETS
from repro.sim.engine import Engine, Sleep


def test_counter_inc_and_memoization():
    reg = MetricsRegistry()
    reg.counter("a").inc()
    reg.counter("a").inc(2)
    assert reg.counter("a") is reg.counter("a")
    assert reg.counters() == {"a": 3}


def test_histogram_buckets_and_overflow():
    reg = MetricsRegistry()
    h = reg.histogram("t", buckets=(0.1, 1.0, 10.0))
    for v in (0.05, 0.5, 5.0, 50.0):
        h.observe(v)
    assert h.counts == [1, 1, 1, 1]  # last slot = overflow
    assert h.total == 4
    assert h.mean == pytest.approx((0.05 + 0.5 + 5.0 + 50.0) / 4)
    snap = h.snapshot()
    assert snap["buckets"] == [0.1, 1.0, 10.0]
    assert snap["counts"] == [1, 1, 1, 1]


def test_histogram_percentile_interpolates_and_clamps():
    reg = MetricsRegistry()
    h = reg.histogram("t", buckets=(1.0, 2.0, 4.0))
    assert h.percentile(50) is None  # empty: no value, not a fake 0.0
    for v in (0.5, 1.5, 2.5, 3.5):
        h.observe(v)
    # Estimates live inside the observed range and are monotone in q.
    assert 0.5 <= h.percentile(1) <= h.percentile(50) \
        <= h.percentile(95) <= h.percentile(100) <= 3.5
    assert h.percentile(100) == pytest.approx(3.5)  # clamped to max
    with pytest.raises(ValueError):
        h.percentile(-1)
    with pytest.raises(ValueError):
        h.percentile(101)


def test_histogram_percentile_single_value_is_exact():
    h = MetricsRegistry().histogram("t", buckets=(1.0, 10.0))
    h.observe(5.0)
    for q in (0, 50, 100):
        assert h.percentile(q) == pytest.approx(5.0)


def test_histogram_summary_and_min_max_snapshot():
    reg = MetricsRegistry()
    h = reg.histogram("t", buckets=(1.0, 2.0))
    for v in (0.5, 1.5, 3.0):
        h.observe(v)
    s = h.summary()
    assert set(s) == {"count", "mean", "p50", "p95", "max"}
    assert s["count"] == 3
    assert s["mean"] == pytest.approx(5.0 / 3.0)
    assert s["max"] == pytest.approx(3.0)
    snap = h.snapshot()
    assert snap["min"] == pytest.approx(0.5)
    assert snap["max"] == pytest.approx(3.0)


def test_empty_histogram_percentile_is_none():
    # Regression: an empty histogram used to answer 0.0, which reads as
    # "all observations were instant" downstream.  No observations means
    # no percentile.
    h = MetricsRegistry().histogram("empty")
    for q in (0, 50, 95, 100):
        assert h.percentile(q) is None
    # Range validation still fires before the emptiness check.
    with pytest.raises(ValueError):
        h.percentile(101)


def test_empty_histogram_summary_raises_clear_error():
    h = MetricsRegistry().histogram("empty")
    with pytest.raises(ValueError, match="no observations"):
        h.summary()
    # One observation restores the normal contract.
    h.observe(2.0)
    assert h.summary()["count"] == 1


def test_histogram_rejects_unsorted_buckets():
    with pytest.raises(ValueError):
        MetricsRegistry().histogram("bad", buckets=(1.0, 0.5))
    with pytest.raises(ValueError):
        MetricsRegistry().histogram("dup", buckets=(1.0, 1.0))


def test_disabled_registry_hands_out_noop_instruments():
    reg = MetricsRegistry(enabled=False)
    reg.counter("c").inc()
    reg.histogram("h").observe(1.0)
    reg.add_series("s", 0, lambda: 1.0)
    reg.sample(0.0)
    assert reg.counters() == {}
    assert reg.histograms() == {}
    assert reg.series_count == 0
    assert reg.samples == []


def test_series_sampling_rows():
    reg = MetricsRegistry()
    state = {"v": 1.0}
    reg.add_series("x", 0, lambda: state["v"])
    reg.add_series("x", 1, lambda: 2.0)
    reg.sample(0.0)
    state["v"] = 3.0
    reg.sample(1.0)
    assert reg.samples == [(0.0, "x", 0, 1.0), (0.0, "x", 1, 2.0),
                           (1.0, "x", 0, 3.0), (1.0, "x", 1, 2.0)]


def test_engine_driven_sampling_respects_interval():
    """The recorder samples at most once per interval boundary, driven by
    the engine loop — without adding events or extending the run."""
    engine = Engine()
    rec = Recorder(enabled=True, sample_interval=0.5)
    rec.bind(engine)
    rec.registry.add_series("clock", 0, lambda: engine.now)

    def prog():
        for _ in range(10):
            yield Sleep(0.25)  # binary-exact, so times compare exactly

    engine.spawn("p", prog(), rank=0)
    wall = engine.run()
    assert wall == 2.5
    times = [t for t, _, _, _ in rec.registry.samples]
    # Event times are multiples of 0.25; one sample per crossed 0.5
    # boundary, at the first event time at/after it.
    assert times == [0.0, 0.5, 1.0, 1.5, 2.0, 2.5]


def _run_sampled(small_problem, small_machine, algorithm="hybrid"):
    obs = Recorder(enabled=True, sample_interval=0.5)
    result = run_streamlines(small_problem, algorithm=algorithm,
                             machine=small_machine, obs=obs)
    assert result.ok
    return obs


def test_gauge_sampling_bit_identical_across_runs(small_problem,
                                                  small_machine):
    a = _run_sampled(small_problem, small_machine)
    b = _run_sampled(small_problem, small_machine)
    assert a.registry.samples == b.registry.samples
    assert len(a.registry.samples) > 0
    assert a.spans == b.spans


def test_run_samples_expected_series_names(small_problem, small_machine):
    obs = _run_sampled(small_problem, small_machine)
    names = {name for _, name, _, _ in obs.registry.samples}
    assert {"rank.active_lines", "rank.mailbox_depth", "rank.cache_blocks",
            "master.pool_seeds", "net.bytes_in_flight"} <= names
    # Machine-wide series use rank -1.
    assert {r for _, n, r, _ in obs.registry.samples
            if n == "net.bytes_in_flight"} == {-1}


def test_default_buckets_are_strictly_ascending():
    assert list(DEFAULT_BUCKETS) == sorted(DEFAULT_BUCKETS)
    assert len(set(DEFAULT_BUCKETS)) == len(DEFAULT_BUCKETS)
