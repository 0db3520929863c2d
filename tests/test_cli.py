"""Tests of the command-line interface."""

import pytest

from repro.cli import build_parser, main


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


@pytest.mark.parametrize("argv", [
    ["run", "--dataset", "astro", "--ranks", "0"],
    ["run", "--dataset", "astro", "--scale", "-1"],
    ["trace", "astro", "--ranks", "0"],
    ["figure", "5", "--dataset", "astro", "--scale", "0"],
    ["recommend", "--seeds", "0", "--spread", "0.5"],
    ["recommend", "--seeds", "10", "--spread", "1.5"],
    ["sweep", "--ranks", "0", "--dry-run"],
    ["scenarios", "--scale", "0"],
    ["run", "--dataset", "astro", "--algorithm", "hybrid", "--ranks", "1"],
    ["trace", "astro", "--algorithm", "hybrid", "--ranks", "1"],
    ["trace", "astro", "--scale", "inf"],
])
def test_bad_numeric_input_is_a_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "error: argument" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["trend", "a.json", "b.json"],
    ["fleet", "check", "--nodes", "local:1"],
    ["sweep", "--nodes-file", "nodes.txt", "--dry-run"],
    ["cache"],
])
def test_removed_commands_are_rejected(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


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


def test_scenarios_command(capsys):
    assert main(["scenarios", "--scale", "0.05"]) == 0
    out = capsys.readouterr().out
    for dataset in ("astro", "fusion", "thermal"):
        assert dataset in out
    assert "hybrid" in out


def test_run_command(capsys):
    assert main(["run", "--dataset", "astro", "--seeding", "sparse",
                 "--algorithm", "ondemand", "--ranks", "4",
                 "--scale", "0.02"]) == 0
    out = capsys.readouterr().out
    assert "wall clock" in out
    assert "block efficiency" in out


def test_run_command_reports_oom(capsys):
    assert main(["run", "--dataset", "thermal", "--seeding", "dense",
                 "--algorithm", "static", "--ranks", "8",
                 "--scale", "0.6"]) == 0
    out = capsys.readouterr().out
    assert "OUT OF MEMORY" in out


def test_figure_command(capsys):
    assert main(["figure", "6", "--dataset", "astro", "--scale", "0.02",
                 "--ranks", "4"]) == 0
    out = capsys.readouterr().out
    assert "Figure 6" in out
    assert "I/O" in out


def test_figure_command_wrong_number(capsys):
    assert main(["figure", "9", "--dataset", "astro",
                 "--scale", "0.02"]) == 2
    assert "not a astro figure" in capsys.readouterr().err


def test_recommend_command(capsys):
    assert main(["recommend", "--seeds", "22000", "--spread",
                 "0.004"]) == 0
    out = capsys.readouterr().out
    assert "ondemand" in out


def test_recommend_hybrid_for_unknown_flow(capsys):
    assert main(["recommend", "--seeds", "5000", "--spread", "0.5"]) == 0
    assert "hybrid" in capsys.readouterr().out
