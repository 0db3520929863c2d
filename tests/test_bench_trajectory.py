"""Benchmark-trajectory harness: schema and byte-reproducibility."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent

ARGS = ["--scale", "0.05", "--ranks", "4", "--sample-interval", "2.0",
        "--date", "19700101"]


@pytest.fixture(scope="module")
def bench_mod():
    spec = importlib.util.spec_from_file_location(
        "bench_trajectory", REPO / "benchmarks" / "bench_trajectory.py")
    mod = importlib.util.module_from_spec(spec)
    sys.modules.setdefault("bench_trajectory", mod)
    spec.loader.exec_module(mod)
    return mod


@pytest.fixture(scope="module")
def snapshots(bench_mod, tmp_path_factory):
    """Two tiny harness runs with identical arguments."""
    root = tmp_path_factory.mktemp("bench")
    a_dir, b_dir = root / "a", root / "b"
    assert bench_mod.main(ARGS + ["--out", str(a_dir)]) == 0
    assert bench_mod.main(ARGS + ["--out", str(b_dir)]) == 0
    return (a_dir / "BENCH_19700101.json", b_dir / "BENCH_19700101.json")


def test_bench_snapshot_is_byte_reproducible(snapshots):
    a, b = snapshots
    assert a.read_bytes() == b.read_bytes(), \
        "identical harness runs must be byte-identical"


def test_bench_snapshot_schema(snapshots):
    doc = json.loads(snapshots[0].read_text())
    assert doc["schema"] == 1
    assert doc["generated"] == "19700101"
    assert doc["config"]["ranks"] == 4
    assert len(doc["runs"]) == 6  # 2 seedings x 3 algorithms
    for name, entry in doc["runs"].items():
        assert name.startswith("astro-"), name
        for key in ("wall_clock", "io_time", "comm_time",
                    "block_efficiency", "parallel_efficiency",
                    "critical_path", "participation_ratio",
                    "pingpong_count", "seed_latency"):
            assert key in entry, (name, key)
        path = sum(entry["critical_path"].values())
        assert abs(path - entry["wall_clock"]) < 1e-6
        latency = entry["seed_latency"]
        assert latency["count"] > 0
        assert latency["p50"] <= latency["p95"] <= latency["max"]
        assert latency["max"] <= entry["wall_clock"] + 1e-9


def test_bench_snapshot_diffs_cleanly_against_itself(snapshots):
    from repro.cli import main as cli_main

    snap = str(snapshots[0])
    assert cli_main(["diff", snap, snap]) == 0


def test_bench_multi_dataset_with_oom_probe(bench_mod, tmp_path):
    """--dataset accepts a list; thermal adds the gated OOM probe run."""
    out = tmp_path / "multi"
    args = ["--dataset", "astro,thermal", "--scale", "0.05",
            "--ranks", "4", "--sample-interval", "2.0",
            "--date", "19700102", "--oom-scale", "0.5", "--out", str(out)]
    assert bench_mod.main(args) == 0
    doc = json.loads((out / "BENCH_19700102.json").read_text())
    # 2 datasets x 2 seedings x 3 algorithms + the probe.
    assert len(doc["runs"]) == 13
    assert doc["config"]["dataset"] == "astro,thermal"
    assert doc["config"]["oom_probe_scale"] == 0.5
    probe = doc["runs"]["thermal-dense-static-4-oomprobe"]
    assert probe["status"] == "oom"
    regular = doc["runs"]["thermal-dense-static-4"]
    assert regular["status"] == "ok"


def test_bench_rank_scaling_trajectory(bench_mod, tmp_path):
    """--rank-scaling appends astro/dense/hybrid runs per rank count,
    deduplicating any point the main grid already covers."""
    out = tmp_path / "scaling"
    args = ["--scale", "0.05", "--ranks", "4", "--sample-interval", "2.0",
            "--date", "19700104", "--rank-scaling", "2,4",
            "--out", str(out)]
    assert bench_mod.main(args) == 0
    doc = json.loads((out / "BENCH_19700104.json").read_text())
    # 6 grid runs + the 2-rank scaling point (the 4-rank point is the
    # grid's own astro-dense-hybrid-4).
    assert len(doc["runs"]) == 7
    assert doc["config"]["rank_scaling"] == [2, 4]
    assert doc["runs"]["astro-dense-hybrid-2"]["status"] == "ok"
    assert doc["runs"]["astro-dense-hybrid-4"]["status"] == "ok"


def test_bench_rank_scaling_validation(bench_mod, tmp_path):
    args = ["--scale", "0.05", "--ranks", "4", "--date", "x",
            "--rank-scaling", "4,banana", "--out", str(tmp_path)]
    with pytest.raises(SystemExit, match="rank-scaling"):
        bench_mod.main(args)


def test_bench_rejects_nodes_file(bench_mod, tmp_path):
    with pytest.raises(SystemExit) as exc:
        bench_mod.main(ARGS + ["--nodes-file", "nodes.txt",
                               "--out", str(tmp_path)])
    assert exc.value.code == 2


@pytest.mark.parametrize("flag", [["--ranks", "0"], ["--scale", "-1"],
                                  ["--oom-scale", "inf"]])
def test_bench_bad_numeric_input_is_a_usage_error(bench_mod, tmp_path,
                                                  flag, capsys):
    with pytest.raises(SystemExit) as exc:
        bench_mod.main(ARGS + flag + ["--out", str(tmp_path)])
    assert exc.value.code == 2
    assert "error: argument" in capsys.readouterr().err
    assert not list(tmp_path.glob("BENCH_*.json"))


def test_bench_oom_probe_can_be_disabled(bench_mod, tmp_path):
    out = tmp_path / "noprobe"
    args = ["--dataset", "thermal", "--scale", "0.05", "--ranks", "4",
            "--sample-interval", "2.0", "--date", "19700103",
            "--no-oom-probe", "--out", str(out)]
    assert bench_mod.main(args) == 0
    doc = json.loads((out / "BENCH_19700103.json").read_text())
    assert len(doc["runs"]) == 6
    assert "oom_probe_scale" not in doc["config"]
    assert not any(n.endswith("oomprobe") for n in doc["runs"])
