#!/usr/bin/env python
"""Documentation gate: every intra-repo markdown link must resolve,
and every runnable example must actually run.

Two checks (both on by default; select with --links / --run):

``--links``
    Scan every ``*.md`` under the repo (docs/, README, top-level
    reports) for markdown links ``[text](target)`` and reference
    definitions ``[id]: target``.  External schemes (http/https/
    mailto) are skipped; ``#anchor``-only links are skipped; anything
    else must resolve to an existing file or directory relative to
    the containing document.

``--run``
    Extract every fenced ```` ```sh ```` block from the documents
    listed in :data:`RUNNABLE_DOCS` and execute each block with
    ``bash -euo pipefail`` from the repo root (``src`` on
    ``PYTHONPATH``).  Blocks are
    written to be self-contained at tiny scale; ```` ```text ````
    fences hold illustrative (cluster-only) commands and are never
    executed.

Exit code 0 when every check passes, 1 otherwise — CI runs this as
the docs job, and ``tests/test_docs.py`` keeps the link check in
tier-1.
"""

from __future__ import annotations

import argparse
import os
import re
import subprocess
import sys
from pathlib import Path
from typing import Iterator, List, Tuple

REPO = Path(__file__).resolve().parent.parent

#: Documents whose ```sh blocks the --run check executes.
RUNNABLE_DOCS = ("docs/distributed.md",)

#: Inline links and images: [text](target), ![alt](target).
_INLINE_LINK = re.compile(r"!?\[[^\]]*\]\(([^)\s]+)(?:\s+\"[^\"]*\")?\)")
#: Reference definitions: [id]: target
_REF_DEF = re.compile(r"^\[[^\]]+\]:\s+(\S+)", re.MULTILINE)
_FENCE = re.compile(r"^(```+|~~~+)(.*)$")
_SKIP_SCHEMES = ("http://", "https://", "mailto:", "ftp://")


def _strip_fenced_blocks(text: str) -> str:
    """Remove fenced code blocks (links inside code are not links)."""
    out: List[str] = []
    fence = None
    for line in text.splitlines():
        match = _FENCE.match(line.strip())
        if fence is None and match:
            fence = match.group(1)[0] * 3
            continue
        if fence is not None and match and match.group(1).startswith(
                fence):
            fence = None
            continue
        if fence is None:
            out.append(line)
    return "\n".join(out)


def iter_markdown_files(root: Path) -> Iterator[Path]:
    for path in sorted(root.rglob("*.md")):
        parts = path.relative_to(root).parts
        if any(p.startswith(".") or p in ("node_modules", "build")
               for p in parts[:-1]):
            continue
        yield path


def check_links(root: Path) -> List[str]:
    """All unresolvable intra-repo link targets, as `file: target`."""
    problems: List[str] = []
    for doc in iter_markdown_files(root):
        text = _strip_fenced_blocks(doc.read_text(encoding="utf-8"))
        targets = _INLINE_LINK.findall(text) + _REF_DEF.findall(text)
        for target in targets:
            if target.startswith(_SKIP_SCHEMES):
                continue
            path_part = target.split("#", 1)[0]
            if not path_part:      # pure #anchor
                continue
            resolved = (doc.parent / path_part).resolve()
            if not resolved.exists():
                problems.append(
                    f"{doc.relative_to(root)}: broken link -> {target}")
    return problems


def extract_sh_blocks(doc: Path) -> List[Tuple[int, str]]:
    """``(first_line_number, script)`` for every ```sh fence."""
    blocks: List[Tuple[int, str]] = []
    lines = doc.read_text(encoding="utf-8").splitlines()
    fence_lang = None
    start = 0
    body: List[str] = []
    for lineno, line in enumerate(lines, 1):
        match = _FENCE.match(line.strip())
        if fence_lang is None and match:
            fence_lang = match.group(2).strip() or "(none)"
            start = lineno + 1
            body = []
            continue
        if fence_lang is not None and match:
            if fence_lang == "sh":
                blocks.append((start, "\n".join(body)))
            fence_lang = None
            continue
        if fence_lang is not None:
            body.append(line)
    return blocks


def run_blocks(root: Path, docs: Iterator[str]) -> List[str]:
    """Execute every ```sh block; return failures."""
    problems: List[str] = []
    for rel in docs:
        doc = root / rel
        if not doc.exists():
            problems.append(f"{rel}: runnable doc missing")
            continue
        blocks = extract_sh_blocks(doc)
        if not blocks:
            problems.append(f"{rel}: no ```sh blocks found (the "
                            "examples were supposed to be runnable)")
            continue
        for start, script in blocks:
            env = dict(os.environ)
            src = str(root / "src")
            env["PYTHONPATH"] = (src + os.pathsep + env["PYTHONPATH"]
                                 if env.get("PYTHONPATH") else src)
            print(f"  running {rel}:{start} ...", flush=True)
            proc = subprocess.run(
                ["bash", "-euo", "pipefail", "-c", script],
                cwd=root, env=env, capture_output=True, text=True,
                timeout=600)
            if proc.returncode != 0:
                tail = (proc.stderr or proc.stdout or "").strip()
                tail = tail[-2000:]
                problems.append(
                    f"{rel}:{start}: block exited "
                    f"{proc.returncode}\n{tail}")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--links", action="store_true",
                        help="only check markdown links")
    parser.add_argument("--run", action="store_true",
                        help="only execute runnable ```sh blocks")
    parser.add_argument("--root", type=Path, default=REPO,
                        help="repo root (default: this checkout)")
    args = parser.parse_args(argv)
    do_links = args.links or not args.run
    do_run = args.run or not args.links

    problems: List[str] = []
    if do_links:
        print("checking markdown links ...", flush=True)
        problems += check_links(args.root)
    if do_run:
        print("executing runnable doc blocks ...", flush=True)
        problems += run_blocks(args.root, RUNNABLE_DOCS)

    if problems:
        print(f"\n{len(problems)} problem(s):", file=sys.stderr)
        for p in problems:
            print(f"  {p}", file=sys.stderr)
        return 1
    print("docs check: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
