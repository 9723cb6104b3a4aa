#!/usr/bin/env python3
"""Fail CI on broken relative links and stale line anchors in README.md,
ROADMAP.md and docs/*.md.

Checks every inline markdown link ``[text](target)`` whose target is a
relative path: the referenced file or directory must exist (relative to
the file containing the link).  External URLs (``http(s)://``,
``mailto:``) and pure in-page anchors (``#section``) are ignored; a
``path#fragment`` target is checked for the path part only.

Also checks every backticked line anchor ``path:N`` (the path relative to
the repository root), and its shorthand ``:N`` for the previous anchor's
file (as in ``path:62`` / ``:85``): line ``N`` of the file must name one
of the backticked symbols of the anchor's table row (or list item, or
paragraph), such as ``FSM.image`` (the last dotted part, ``image``, must
appear there as a word).  Line numbers drift with every edit above them;
the symbol is the stable handle, so an anchor that no longer lands on it
fails.

Usage::

    python tools/check_links.py            # README.md, ROADMAP.md, docs/*.md
    python tools/check_links.py FILE...    # check the given files

Exit code 0 when every link and anchor resolves, 1 otherwise (each one is
reported as ``file:line: broken link -> target`` or ``file:line: stale
anchor -> path:N``).
"""

from __future__ import annotations

import re
import sys
from pathlib import Path
from typing import Iterable, List, Tuple

#: Inline markdown links: [text](target).  Deliberately simple — the docs
#: do not use reference-style links or angle-bracket targets.
LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")

#: Target prefixes that are not local files.
EXTERNAL = ("http://", "https://", "mailto:")

#: A backticked span, and the two kinds of span the anchor check reads: a
#: line anchor (``path:N``, or ``:N`` for the previous anchor's file) and a
#: code symbol (a dotted name, optionally called: ``FSM.symbolize(expr)``).
SPAN_RE = re.compile(r"`([^`]+)`")
ANCHOR_RE = re.compile(r"^((?:[\w.-]+/)*[\w.-]+\.\w+)?:(\d+)$")
SYMBOL_RE = re.compile(r"^[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*(?:\([^()]*\))?$")

#: The first line of a list item (a ``-``, ``*``, ``+`` or ``1.`` bullet).
ITEM_RE = re.compile(r"^(?:[-*+]|\d+\.)\s")


def default_files(root: Path) -> List[Path]:
    """README.md, ROADMAP.md and every markdown file under docs/."""
    files = [root / "README.md", root / "ROADMAP.md"]
    files.extend(sorted((root / "docs").glob("*.md")))
    return [f for f in files if f.exists()]


def iter_links(path: Path) -> Iterable[Tuple[int, str]]:
    """Yield ``(line_number, target)`` for every inline link in ``path``."""
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        for match in LINK_RE.finditer(line):
            yield lineno, match.group(1)


def broken_links(path: Path) -> List[Tuple[int, str]]:
    """The links of ``path`` whose relative targets do not exist."""
    out: List[Tuple[int, str]] = []
    for lineno, target in iter_links(path):
        if target.startswith(EXTERNAL) or target.startswith("#"):
            continue
        candidate = target.split("#", 1)[0]
        if not candidate:
            continue
        if not (path.parent / candidate).exists():
            out.append((lineno, target))
    return out


def _blocks(path: Path) -> Iterable[List[Tuple[int, str]]]:
    """The anchor contexts of ``path``: each table row on its own, each
    list item with its continuation lines, and each paragraph (a run of
    other non-blank lines); fenced code skipped."""
    block: List[Tuple[int, str]] = []
    fenced = False
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        text = line.strip()
        if text.startswith("```"):
            fenced = not fenced
        if text and not fenced and not text.startswith(("|", "```")):
            if block and ITEM_RE.match(text):
                yield block
                block = []
            block.append((lineno, line))
            continue
        if block:
            yield block
            block = []
        if text.startswith("|") and not fenced:
            yield [(lineno, line)]
    if block:
        yield block


def iter_anchors(path: Path) -> Iterable[Tuple[int, str, int, List[str]]]:
    """Yield ``(line_number, file, anchored line, symbols)`` for every line
    anchor in ``path``; ``symbols`` are the names its row, list item or
    paragraph gives in backticks (one-letter names are the paper's notation,
    not code, and are left out)."""
    for block in _blocks(path):
        spans = [
            (lineno, span)
            for lineno, line in block
            for span in SPAN_RE.findall(line)
        ]
        symbols = []
        for _, span in spans:
            if SYMBOL_RE.match(span):
                name = span.split("(", 1)[0].rsplit(".", 1)[-1]
                if len(name) > 1 and name not in symbols:
                    symbols.append(name)
        current = None
        for lineno, span in spans:
            match = ANCHOR_RE.match(span)
            if match is None:
                continue
            current = match.group(1) or current
            if current is not None:
                yield lineno, current, int(match.group(2)), symbols


def stale_anchors(path: Path, root: Path) -> List[Tuple[int, str]]:
    """The anchors of ``path`` (files relative to ``root``) whose line
    names none of their row's symbols, as ``(line, "file:N")``."""
    out: List[Tuple[int, str]] = []
    for lineno, file, target, symbols in iter_anchors(path):
        source = root / file
        lines = source.read_text().splitlines() if source.is_file() else []
        text = lines[target - 1] if 0 < target <= len(lines) else ""
        if not any(re.search(rf"\b{re.escape(s)}\b", text) for s in symbols):
            out.append((lineno, f"{file}:{target}"))
    return out


def main(argv: List[str]) -> int:
    root = Path(__file__).resolve().parents[1]
    files = [Path(a) for a in argv] if argv else default_files(root)
    failures = 0
    checked = 0
    anchors = 0
    for path in files:
        links = broken_links(path)
        checked += sum(1 for _ in iter_links(path))
        anchors += sum(1 for _ in iter_anchors(path))
        for lineno, target in links:
            print(f"{path}:{lineno}: broken link -> {target}", file=sys.stderr)
            failures += 1
        for lineno, target in stale_anchors(path, root):
            print(f"{path}:{lineno}: stale anchor -> {target}", file=sys.stderr)
            failures += 1
    if failures:
        print(f"{failures} broken link(s) or stale anchor(s)", file=sys.stderr)
        return 1
    print(
        f"docs: check OK ({checked} links and {anchors} anchors "
        f"in {len(files)} file(s))"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
