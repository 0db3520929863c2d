"""Tests of the EXPERIMENTS.md exporters (cache-only path)."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis.experiments import CACHE_VERSION

REPO = Path(__file__).resolve().parents[1]


def test_cache_export_renders_partial_tables(tmp_path, monkeypatch):
    """The cache-only exporter renders whatever is cached and marks
    missing datasets, without running any simulation."""
    cache_dir = tmp_path / "cache"
    entries = cache_dir / "sweep_cache"
    entries.mkdir(parents=True)
    # Minimal synthetic cache: one astro run, in the per-key layout.
    entry = {
        "version": CACHE_VERSION,
        "key": {"dataset": "astro", "seeding": "sparse",
                "algorithm": "static", "n_ranks": 16, "scale": 1.0},
        "summary": {"status": "ok", "wall_clock": 12.5,
                    "io_time": 3.25, "comm_time": 0.75,
                    "compute_time": 8.0, "block_efficiency": 1.0,
                    "blocks_loaded": 10, "blocks_purged": 0,
                    "messages": 5, "bytes_sent": 100, "steps": 1000,
                    "parallel_efficiency": 0.9},
    }
    (entries / "astro-sparse-static-r16-s1.0.json").write_text(
        json.dumps(entry))
    out = tmp_path / "EXP.md"
    env = {"REPRO_CACHE_DIR": str(cache_dir), "PATH": "/usr/bin:/bin"}
    import os
    full_env = dict(os.environ)
    full_env.update(env)
    result = subprocess.run(
        [sys.executable,
         str(REPO / "benchmarks" / "export_experiments_from_cache.py"),
         str(out)],
        capture_output=True, text=True, env=full_env, cwd=REPO)
    assert result.returncode == 0, result.stderr
    text = out.read_text()
    assert "Figure 5" in text
    assert "12.500" in text            # the cached wall clock
    assert "not yet run" in text       # fusion/thermal missing
    assert "partially completed sweep" in text


def test_cache_export_reads_per_key_entries(tmp_path, monkeypatch):
    """The exporter reads entries ``_save_entry`` wrote to the per-key
    atomic cache directory."""
    import os

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    import repro.analysis.experiments as exp
    from repro.analysis.experiments import (ExperimentKey, RunSummary,
                                            _save_entry, clear_cache)
    exp._DISK_LOADED = False
    clear_cache()
    key = ExperimentKey(dataset="fusion", seeding="sparse",
                        algorithm="hybrid", n_ranks=16, scale=1.0)
    _save_entry(key, RunSummary(key=key, status="ok", wall_clock=42.125,
                                io_time=1.0, comm_time=0.5,
                                compute_time=40.0), elapsed=2.0)
    clear_cache()
    exp._DISK_LOADED = False
    out = tmp_path / "EXP.md"
    full_env = dict(os.environ)
    full_env["REPRO_CACHE_DIR"] = str(tmp_path / "cache")
    result = subprocess.run(
        [sys.executable,
         str(REPO / "benchmarks" / "export_experiments_from_cache.py"),
         str(out)],
        capture_output=True, text=True, env=full_env, cwd=REPO)
    assert result.returncode == 0, result.stderr
    text = out.read_text()
    assert "42.125" in text            # the per-key cached wall clock
    clear_cache()
    exp._DISK_LOADED = False
