"""Documentation invariants: every intra-repo markdown link resolves,
the distributed guide's runnable examples stay extractable, every
documented ``repro sweep`` command parses, and every documented
``repro.x.y`` path resolves.

The heavyweight half of the docs gate — actually *executing* the
```sh blocks in docs/distributed.md — runs in CI via
``tools/docs_check.py --run``; keeping it out of tier-1 keeps the
suite fast.
"""

import importlib
import re
import shlex
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "tools"))

import docs_check  # noqa: E402

from repro.cli import build_parser  # noqa: E402


def test_all_markdown_links_resolve():
    problems = docs_check.check_links(REPO)
    assert problems == []


def test_distributed_guide_exists_with_required_sections():
    text = (REPO / "docs" / "distributed.md").read_text()
    for heading in ("## Quick start", "## Node fleets",
                    "## Batch schedulers",
                    "## Failover semantics", "## The wire protocol",
                    "## Troubleshooting"):
        assert heading in text, f"missing section: {heading}"
    # The wire-format walkthrough keeps its worked hexdump.
    assert "00 00 00 37" in text


def test_runnable_blocks_are_extractable():
    """Every ```sh fence in the runnable docs parses out non-empty;
    illustrative cluster commands must use ```text fences."""
    for rel in docs_check.RUNNABLE_DOCS:
        blocks = docs_check.extract_sh_blocks(REPO / rel)
        assert blocks, f"{rel}: no runnable ```sh blocks"
        for lineno, script in blocks:
            assert script.strip(), f"{rel}:{lineno}: empty block"
            # Runnable blocks drive the repro CLI at tiny scale.
            assert "repro" in script, (
                f"{rel}:{lineno}: runnable block does not exercise "
                "the repro CLI")
            cluster = ("ssh ", "sbatch ", "srun ", "qsub ")
            assert not any(cmd in script for cmd in cluster), (
                f"{rel}:{lineno}: cluster-only commands belong in "
                "```text fences")


def test_fenced_blocks_are_stripped_from_link_scan(tmp_path):
    doc = tmp_path / "x.md"
    doc.write_text("```sh\n[not a link](nowhere.md)\n```\n"
                   "[real](target.md)\n")
    problems = docs_check.check_links(tmp_path)
    assert problems == ["x.md: broken link -> target.md"]
    (tmp_path / "target.md").write_text("ok\n")
    assert docs_check.check_links(tmp_path) == []


def _sweep_commands(path):
    """The arguments of every ``repro sweep`` command in a markdown
    file: fenced lines with their continuation lines joined, and inline
    code spans, which may wrap."""
    text = re.sub(r"\\\n\s*", " ", path.read_text())
    chunks = text.split("```")  # odd chunks are fenced blocks
    lines = [ln for chunk in chunks[1::2] for ln in chunk.splitlines()]
    spans = [span.replace("\n", " ") for chunk in chunks[::2]
             for span in re.findall(r"`([^`]+)`", chunk)]
    for command in lines + spans:
        _, found, rest = command.partition("repro sweep")
        if not found:
            continue
        args = shlex.split(rest, comments=True)
        ends = [i for i, arg in enumerate(args)
                if arg in ("|", "||", "&&", ";") or arg.startswith(">")]
        yield command.strip(), args[:ends[0]] if ends else args


def test_documented_sweep_commands_parse(capsys):
    """Every ``repro sweep`` command in README.md and docs/ parses with
    the real CLI parser (``--ranks`` takes space-separated counts)."""
    docs = [REPO / "README.md", *sorted((REPO / "docs").glob("*.md"))]
    commands = [(path.relative_to(REPO), command, args)
                for path in docs for command, args in _sweep_commands(path)]
    assert len(commands) >= 20
    rejected = []
    for path, command, args in commands:
        try:
            build_parser().parse_args(["sweep", *args])
        except SystemExit:
            rejected.append(f"{path}: {command}\n  "
                            f"{capsys.readouterr().err.splitlines()[-1]}")
    assert not rejected, "\n".join(rejected)


def _resolves(dotted):
    """Whether ``dotted`` imports as a module, or is an attribute chain
    under the longest prefix that does."""
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for name in parts[cut:]:
            if not hasattr(obj, name):
                return False
            obj = getattr(obj, name)
        return True
    return False


def test_documented_repro_paths_resolve():
    """Every dotted ``repro.x.y`` path in README.md, DESIGN.md,
    EXPERIMENTS.md and docs/ names a module or an attribute that exists,
    so a deletion or rename cannot leave the docs pointing at nothing."""
    docs = [REPO / "README.md", REPO / "DESIGN.md", REPO / "EXPERIMENTS.md",
            *sorted((REPO / "docs").glob("*.md"))]
    found = {(path.relative_to(REPO), dotted) for path in docs
             for dotted in re.findall(r"\brepro(?:\.[A-Za-z_]\w*)+",
                                      path.read_text())}
    assert len(found) >= 20
    broken = sorted(f"{path}: {dotted}" for path, dotted in found
                    if not _resolves(dotted))
    assert not broken, "\n".join(broken)
