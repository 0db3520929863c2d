"""`repro cache` subcommand and --jobs auto resolution."""

import os
import time
from pathlib import Path

import pytest

from repro.analysis.experiments import (
    cache_entries,
    clear_cache,
    prune_cache,
    run_experiment,
)
from repro.cli import main


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    import repro.analysis.experiments as exp
    exp._DISK_LOADED = False
    clear_cache()
    yield
    clear_cache()
    exp._DISK_LOADED = False


def _seed_entries():
    run_experiment("astro", "sparse", "ondemand", 4, scale=0.02)
    run_experiment("astro", "sparse", "static", 4, scale=0.02)


def test_cache_entries_reports_metadata():
    _seed_entries()
    entries = cache_entries()
    assert len(entries) == 2
    names = {e.name for e in entries}
    assert names == {"astro-sparse-ondemand-4", "astro-sparse-static-4"}
    for e in entries:
        assert e.valid
        assert e.scale == pytest.approx(0.02)
        assert e.elapsed is not None and e.elapsed > 0.0
        assert e.size > 0
        assert e.age >= 0.0


def test_cache_entries_flags_corrupt_and_stale(tmp_path):
    _seed_entries()
    root = cache_entries()[0].path.parent
    (root / "broken.json").write_text("{not json")
    stale = root / "old-layout.json"
    stale.write_text('{"version": 1, "key": {}, "summary": {}}')
    entries = {e.path.name: e for e in cache_entries()}
    assert not entries["broken.json"].valid
    assert not entries["old-layout.json"].valid
    assert entries["old-layout.json"].version == 1


def test_cli_cache_lists_entries(capsys):
    _seed_entries()
    assert main(["cache"]) == 0
    out = capsys.readouterr().out
    assert "astro-sparse-ondemand-4" in out
    assert "2 entries" in out
    assert ".sweep_cache" not in out or "cache" in out  # prints the dir


def test_cli_cache_empty(capsys):
    assert main(["cache"]) == 0
    assert "no entries" in capsys.readouterr().out


def test_cli_cache_prune_requires_selector(capsys):
    assert main(["cache", "--prune"]) == 2
    assert "--older-than" in capsys.readouterr().err


def test_cli_cache_prune_older_than(capsys):
    _seed_entries()
    old = cache_entries()[0].path
    aged = time.time() - 7200  # push one entry two hours into the past
    os.utime(old, (aged, aged))
    assert main(["cache", "--prune", "--older-than", "1h"]) == 0
    assert "pruned 1 entry" in capsys.readouterr().out
    remaining = cache_entries()
    assert len(remaining) == 1
    assert remaining[0].path != old
    # Pruned entries must be really gone for the running process too.
    clear_cache()
    assert len(cache_entries()) == 1


def test_cli_cache_prune_all(capsys):
    _seed_entries()
    assert main(["cache", "--prune", "--all"]) == 0
    assert "pruned 2 entries" in capsys.readouterr().out
    assert cache_entries() == []


def test_prune_cache_age_filter():
    _seed_entries()
    removed, freed = prune_cache(older_than=3600.0)
    assert (removed, freed) == (0, 0)  # everything is fresh
    removed, freed = prune_cache()
    assert removed == 2 and freed > 0


def test_cli_jobs_auto_accepted(capsys):
    code = main(["sweep", "--dataset", "astro", "--seeding", "sparse",
                 "--algorithm", "ondemand", "--ranks", "4",
                 "--scale", "0.02", "--jobs", "auto", "--dry-run"])
    assert code == 0
    assert "astro-sparse-ondemand-4" in capsys.readouterr().out


def test_cli_jobs_rejects_garbage(capsys):
    with pytest.raises(SystemExit):
        main(["sweep", "--jobs", "many"])
    assert "expected an integer or 'auto'" in capsys.readouterr().err


def test_sweep_dataset_jobs_zero_means_auto(monkeypatch):
    """jobs=0 must fan out (one worker per CPU), not silently run
    serial — regression guard for the old `if jobs > 1` test."""
    import repro.analysis.experiments as exp

    seen = {}

    class FakeExecutor:
        def __init__(self, jobs, **kw):
            seen["jobs"] = jobs

        def run(self, specs):
            raise RuntimeError("stop here")

    monkeypatch.setattr(exp.os, "cpu_count", lambda: 3)
    monkeypatch.setattr("repro.exec.SweepExecutor", FakeExecutor)
    with pytest.raises(RuntimeError, match="stop here"):
        exp.sweep_dataset("astro", rank_counts=(4,),
                          algorithms=("ondemand",),
                          seedings=("sparse",), jobs=0, scale=0.02)
    assert seen["jobs"] == 3
