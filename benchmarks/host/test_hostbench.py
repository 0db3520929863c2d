"""Self-test of the host-time benchmark harness.

    python -m pytest benchmarks/host -q

Not collected by tier-1 (``testpaths = ["tests"]``): it starts real
processes and takes about a minute.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
RUN = [sys.executable, str(HERE / "run.py")]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([*RUN, *args], cwd=cwd, capture_output=True,
                          text=True, timeout=300)


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    out = tmp_path_factory.mktemp("smoke")
    t0 = time.monotonic()
    proc = run("--smoke", "--out", str(out))
    return proc, time.monotonic() - t0, out / "results.json"


def test_smoke_verifies_every_workload_within_a_minute(smoke):
    proc, elapsed, results = smoke
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert elapsed < 60
    doc = json.loads(results.read_text())
    for entry in doc["workloads"].values():
        timed = entry["untraced"]
        assert timed["failed"] == 0
        assert timed["metrics"]["verified_ops"]["value"] == timed["attempted"]
        assert entry["traced"]["failed"] == 0
    assert {"nproc", "python", "numpy", "calibration_probe_s",
            "load1_start", "load1_end"} <= set(doc["env"])


def test_every_name_in_the_contract_is_printed_with_its_unit(smoke):
    out = smoke[0].stdout
    for workload in SPEC["workloads"]:
        assert NAME.fullmatch(workload["name"])
        for label in ("timed pass", "traced pass"):
            assert re.search(rf"^== {workload['name']}: .*{label}", out,
                             re.M)
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert NAME.fullmatch(metric["name"])
        row = re.compile(rf"^\s+{re.escape(metric['name'])}\s+\S+\s+"
                         rf"{re.escape(metric['unit'])}(\s|$)", re.M)
        assert len(row.findall(out)) == len(SPEC["workloads"]), metric
    lines = [json.loads(line) for line in out.splitlines()
             if line.startswith("{")]
    assert len(lines) == 2 * len(SPEC["workloads"])
    listed = [{m["name"] for m in SPEC["end_to_end"]},
              {m["name"] for m in SPEC["per_layer"]}]
    for i, line in enumerate(lines):
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert set(line["metrics"]) == listed[i % 2]
        assert line["correct"] and line["attempted"] >= 1


def test_an_injected_digest_mismatch_fails_the_run():
    proc = run("--smoke", "--workload", "dense_batch",
               "--inject-fault", "digest")
    assert proc.returncode != 0
    failed_frac = re.search(r"^\s+failed_frac\s+(\S+)", proc.stdout, re.M)
    assert float(failed_frac.group(1)) > 0
    line = json.loads(next(l for l in proc.stdout.splitlines()
                           if l.startswith("{")))
    assert not line["correct"] and line["failed"] > 0


def test_compare_accepts_a_file_against_itself_and_rejects_a_slowdown(
        smoke, tmp_path):
    results = smoke[2]
    same = run("compare", str(results), str(results))
    assert same.returncode == 0, same.stdout + same.stderr
    assert re.search(r"^\d+ ok, 0 unresolved, 0 regressed$", same.stdout,
                     re.M)
    assert "0 per-layer counts moved" in same.stdout
    doc = json.loads(results.read_text())
    bound = next(m["bound"] for m in SPEC["end_to_end"]
                 if m["name"] == "op_s")
    op_s = doc["workloads"]["hybrid_wide"]["untraced"]["metrics"]["op_s"]
    op_s["value"] *= 1 + bound + 0.05
    slower = tmp_path / "slower.json"
    slower.write_text(json.dumps(doc))
    worse = run("compare", str(results), str(slower))
    assert worse.returncode == 1
    assert re.search(r"hybrid_wide\s+op_s.*regressed", worse.stdout)
    assert run("compare", str(results), str(tmp_path / "none")).returncode == 2


def test_seed_0_of_ref_hybrid_is_todays_reference_run():
    """The pinned inputs are ``make_problem("astro", "dense", 0.1)`` on
    ``scenario_machine(8)``: same digest as the committed golden."""
    code = (
        "import sys; sys.path[:0] = [sys.argv[1], sys.argv[2]]\n"
        "import workloads\n"
        "from repro import run_streamlines\n"
        "from repro.analysis import make_problem, scenario_machine\n"
        "print(workloads.run_digest(run_streamlines(\n"
        "    make_problem('astro', 'dense', 0.1), algorithm='hybrid',\n"
        "    machine=scenario_machine(8))))\n")
    proc = subprocess.run([sys.executable, "-c", code, str(ROOT / "src"),
                           str(HERE)], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    golden = json.loads((HERE / "golden.json").read_text())
    assert proc.stdout.strip() == golden["seed0"]["ref_hybrid"]


def test_without_the_repository_it_exits_nonzero_and_prints_no_result(
        tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "host",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/host/run.py", "--workload",
         "ref_hybrid", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout == ""
