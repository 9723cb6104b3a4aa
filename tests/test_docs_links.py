"""The docs stay navigable: every relative link in README.md, ROADMAP.md
and docs/*.md resolves, and every ``path:line`` anchor lands on a line
naming its row's symbol, via the same checker CI runs
(``tools/check_links.py``)."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _load_checker():
    spec = importlib.util.spec_from_file_location(
        "check_links", ROOT / "tools" / "check_links.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_docs_tree_exists():
    for page in ("api.md", "architecture.md", "paper-map.md",
                 "rml-reference.md", "performance.md", "serving.md"):
        assert (ROOT / "docs" / page).is_file(), f"missing docs/{page}"


def test_readme_links_to_every_docs_page():
    readme = (ROOT / "README.md").read_text()
    for page in ("api.md", "architecture.md", "paper-map.md",
                 "rml-reference.md", "performance.md", "serving.md"):
        assert f"docs/{page}" in readme, f"README does not link docs/{page}"


def test_no_broken_relative_links():
    checker = _load_checker()
    failures = {}
    for path in checker.default_files(ROOT):
        links = checker.broken_links(path)
        if links:
            failures[str(path.relative_to(ROOT))] = links
    assert not failures, f"broken links: {failures}"


def test_checker_flags_broken_links(tmp_path):
    checker = _load_checker()
    page = tmp_path / "page.md"
    page.write_text(
        "[ok](page.md) [gone](missing.md) [web](https://example.com) "
        "[anchor](#here) [frag](page.md#sec) [gone-frag](nope.md#sec)\n"
    )
    broken = checker.broken_links(page)
    assert [target for _, target in broken] == ["missing.md", "nope.md#sec"]
    assert checker.main([str(page)]) == 1
    page.write_text("[ok](page.md)\n")
    assert checker.main([str(page)]) == 0


def test_no_stale_anchors():
    checker = _load_checker()
    failures = {}
    anchors = 0
    for path in checker.default_files(ROOT):
        anchors += sum(1 for _ in checker.iter_anchors(path))
        stale = checker.stale_anchors(path, ROOT)
        if stale:
            failures[str(path.relative_to(ROOT))] = stale
    assert not failures, f"stale anchors: {failures}"
    # docs/paper-map.md's 29 anchors and ROADMAP.md's 3 are all read.
    assert anchors >= 32


def test_checker_flags_stale_anchors(tmp_path):
    checker = _load_checker()
    (tmp_path / "mod.py").write_text(
        "import os\n"          # 1
        "\n"                   # 2
        "\n"                   # 3
        "def image(s):\n"      # 4
        "    return s\n"       # 5
        "\n"                   # 6
        "\n"                   # 7
        "def preimage(s):\n"   # 8
        "    return s\n"       # 9
    )
    page = tmp_path / "page.md"
    page.write_text(
        "| op | code | anchor |\n"
        "| --- | --- | --- |\n"
        "| image | [`FSM.image`](mod.py) | `mod.py:4` |\n"
        "| both | `FSM.image(s)` / `preimage` | `mod.py:4` / `:8`, `:9` |\n"
        "| stale | `FSM.preimage` | `mod.py:5` |\n"
        "| math | `T(b) & S` | `mod.py:4` |\n"
        "\n"
        "The image is computed by\n"
        "[`FSM.image`](mod.py), the preimage by `preimage`\n"
        "(`mod.py:4`, `:8`); `x` is math.\n"
        "\n"
        "```text\n"
        "`mod.py:1` in a fence is not an anchor\n"
        "```\n"
        "`gone.py:1` names `image` in a file that does not exist\n"
    )
    anchors = [(line, f"{file}:{n}") for line, file, n, _ in checker.iter_anchors(page)]
    assert anchors == [
        (3, "mod.py:4"), (4, "mod.py:4"), (4, "mod.py:8"), (4, "mod.py:9"),
        (5, "mod.py:5"), (6, "mod.py:4"), (10, "mod.py:4"), (10, "mod.py:8"),
        (15, "gone.py:1"),
    ]
    # `:9` and `mod.py:5` land on lines naming none of their row's
    # symbols; one-letter math names count for nothing; a paragraph's
    # anchors read the symbols of the whole paragraph.
    assert checker.stale_anchors(page, tmp_path) == [
        (4, "mod.py:9"), (5, "mod.py:5"), (6, "mod.py:4"), (15, "gone.py:1"),
    ]


def test_list_items_are_their_own_anchor_context(tmp_path):
    checker = _load_checker()
    (tmp_path / "mod.py").write_text(
        "def image(s):\n"     # 1
        "    return s\n"      # 2
        "\n"                  # 3
        "def preimage(s):\n"  # 4
        "    return s\n"      # 5
    )
    page = tmp_path / "page.md"
    page.write_text(
        "- The image is `image`\n"
        "  (`mod.py:1`).\n"
        "- The preimage is `preimage` (`mod.py:1`).\n"
        "  1. Nested: `mod.py:4`, named by `preimage`.\n"
    )
    # The second item's anchor cannot borrow `image` from the first, and
    # a nested item reads only its own line.
    assert checker.stale_anchors(page, tmp_path) == [(3, "mod.py:1")]
