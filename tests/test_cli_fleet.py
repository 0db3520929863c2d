"""``repro fleet check``: per-target probes, readiness report, and
the exit-code contract (0 all ok / 1 any failure / 2 config error)."""

import sys

from repro.exec import (
    PROTOCOL_VERSION,
    NodeSpec,
    ProbeResult,
    fleet_ok,
    fleet_report,
    probe_fleet,
)
from tests.test_exec_transport import (  # shared loopback idioms
    LOOPBACK,
    isolated_cache,  # noqa: F401  (autouse fixture, re-exported)
)

#: Remote template that reaches "good" and refuses every other host.
GOOD_ONLY = (f"sh -c 'test {{host}} = good && exec {sys.executable}"
             " -m repro.exec.remote_worker || exit 7'")


# --------------------------------------------------------------------- #
# Probe primitives
# --------------------------------------------------------------------- #

def test_probe_node_local_is_trivially_ready():
    result, = probe_fleet([NodeSpec("local", 4)])
    assert result.ok and result.kind == "local" and result.slots == 4
    assert result.speed == 1.0


def test_probe_node_loopback_runs_handshake():
    result, = probe_fleet([NodeSpec("n1", 2)], remote_template=LOOPBACK)
    assert result.ok and result.kind == "ssh"
    assert result.latency is not None and result.latency >= 0.0
    assert result.speed is not None and result.speed > 0.0
    assert f"protocol {PROTOCOL_VERSION}" in result.detail


def test_probe_node_unreachable_reports_failure():
    result, = probe_fleet([NodeSpec("ghost", 1)],
                          remote_template="sh -c 'exit 7'")
    assert not result.ok
    assert result.detail  # the TransportError text survives


# --------------------------------------------------------------------- #
# Report formatting
# --------------------------------------------------------------------- #

def test_fleet_report_formatting():
    results = [
        ProbeResult(target="big", kind="ssh", slots=8, ok=True,
                    latency=0.42, speed=1.25, host="big.cluster",
                    detail="protocol 1"),
        ProbeResult(target="ghost", kind="ssh", slots=16, ok=False,
                    detail="worker exited during the handshake"),
    ]
    report = fleet_report(results)
    assert "fleet readiness" in report
    assert "ok" in report and "FAIL" in report
    assert "1/2 target(s) ready (8 slot(s))" in report
    assert "FAILED: ghost" in report
    assert fleet_report([]) == "(no fleet targets configured)"
    assert not fleet_ok(results)


# --------------------------------------------------------------------- #
# CLI exit-code contract
# --------------------------------------------------------------------- #

def test_cli_fleet_check_all_good(capsys):
    from repro.cli import main

    code = main(["fleet", "check", "--nodes", "local:2,n1:1,n2:1",
                 "--remote-template", LOOPBACK])
    out = capsys.readouterr().out
    assert code == 0
    assert "3/3 target(s) ready (4 slot(s))" in out
    assert "FAIL" not in out


def test_cli_fleet_check_mixed_good_bad(capsys):
    from repro.cli import main

    code = main(["fleet", "check", "--nodes", "good:2,bad:4",
                 "--remote-template", GOOD_ONLY])
    out = capsys.readouterr().out
    assert code == 1
    assert "1/2 target(s) ready (2 slot(s))" in out
    assert "FAILED: bad" in out


def test_cli_fleet_check_nodes_file(tmp_path, capsys):
    from repro.cli import main

    nodes_file = tmp_path / "nodes.txt"
    nodes_file.write_text("n1:1\nn2:2\n")
    code = main(["fleet", "check", "--nodes-file", str(nodes_file),
                 "--remote-template", LOOPBACK])
    out = capsys.readouterr().out
    assert code == 0
    assert "2/2 target(s) ready (3 slot(s))" in out


def test_cli_fleet_check_config_errors(capsys):
    from repro.cli import main

    assert main(["fleet", "check"]) == 2
    assert "nothing to probe" in capsys.readouterr().err
    assert main(["fleet", "check", "--nodes", "x:1,x:2"]) == 2
    assert "listed twice" in capsys.readouterr().err
