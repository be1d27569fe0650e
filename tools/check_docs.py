#!/usr/bin/env python3
"""Documentation pointer checker (run by the CI docs job).

Scans ``docs/*.md`` and ``README.md`` for

* relative markdown links — ``[text](target)`` where the target is not
  a URL or in-page anchor — resolved against the containing file, and
* backticked file pointers — `` `src/repro/engine/scan.py` ``-style
  references whose first path segment is a known repo directory or
  which name a known root file — resolved against the repo root (a
  pointer like ``recycler/striping.py`` is also tried under
  ``src/repro/``, matching the README's shorthand),

and fails (exit 1, one line per problem) when a referenced path does
not exist.  Stale pointers are the classic way architecture docs rot;
this keeps every rename honest.

It also requires the core documentation set (:data:`REQUIRED_DOCS`) to
exist — deleting or renaming API.md, ARCHITECTURE.md, PROTOCOL.md, or
OPERATIONS.md without updating this checker fails the docs job instead
of silently shrinking the checked surface.

Finally, the ``RecyclerConfig`` table of ``docs/API.md`` must list
exactly ``dataclasses.fields(RecyclerConfig)`` — an option added or
removed without its row (default, meaning, why it is an option) fails.

Usage: ``python tools/check_docs.py [repo_root]``
"""

from __future__ import annotations

import dataclasses
import re
import sys
from pathlib import Path

#: first path segments that make a backticked token a file pointer
KNOWN_DIRS = ("src", "tests", "docs", "benchmarks", "examples", "tools",
              ".github")
#: root-level files that may be referenced bare
KNOWN_FILES = ("README.md", "ROADMAP.md", "CHANGES.md", "PAPER.md",
               "PAPERS.md", "SNIPPETS.md", "pytest.ini", "setup.py")

#: the documentation set that must exist under docs/ — the docs CI job
#: fails when one goes missing rather than quietly checking less
REQUIRED_DOCS = ("API.md", "ARCHITECTURE.md", "PROTOCOL.md",
                 "OPERATIONS.md")

MD_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
BACKTICK = re.compile(r"`([^`\s]+)`")
#: things that look like paths: contain a slash or a file suffix
PATHISH = re.compile(r"^[\w./-]+$")


def doc_files(root: Path) -> list[Path]:
    files = sorted((root / "docs").glob("*.md"))
    readme = root / "README.md"
    if readme.exists():
        files.append(readme)
    return files


def check_md_link(doc: Path, target: str, root: Path) -> str | None:
    if target.startswith(("http://", "https://", "mailto:", "#")):
        return None
    path = target.split("#", 1)[0]  # strip in-page anchors
    if not path:
        return None
    if not (doc.parent / path).exists() and not (root / path).exists():
        return f"{doc.relative_to(root)}: broken link -> {target}"
    return None


def check_backtick(doc: Path, token: str, root: Path) -> str | None:
    # strip decorations like a trailing slash or `path:123` line refs
    token = token.rstrip("/").split(":", 1)[0]
    if not PATHISH.match(token):
        return None
    first = token.split("/", 1)[0]
    rooted = first in KNOWN_DIRS or token in KNOWN_FILES
    # the README's src/repro shorthand (`recycler/striping.py`): a
    # slashed token with a file suffix is a pointer even when its first
    # segment is no known dir — otherwise a rename would turn it into
    # "prose" and slip past the check
    shorthand = "/" in token and token.endswith(
        (".py", ".md", ".yml", ".ini", ".txt", ".json"))
    if not rooted and not shorthand:
        return None  # prose, not a pointer
    if (root / token).exists() or (root / "src" / "repro" / token).exists():
        return None
    return f"{doc.relative_to(root)}: missing file pointer -> {token}"


#: a row of the RecyclerConfig table: ``| `field` | default | ...``
CONFIG_ROW = re.compile(r"^\| `(\w+)` \|", re.MULTILINE)


def check_config_table(root: Path) -> list[str]:
    """The ``## RecyclerConfig`` section of docs/API.md against the
    dataclass itself."""
    api = root / "docs" / "API.md"
    if not api.exists():
        return []  # reported as a missing required document
    text = api.read_text(encoding="utf-8")
    section = text.partition("\n## RecyclerConfig\n")[2] \
        .partition("\n## ")[0]
    sys.path.insert(0, str(root / "src"))
    from repro.recycler.config import RecyclerConfig
    documented = set(CONFIG_ROW.findall(section))
    actual = {f.name for f in dataclasses.fields(RecyclerConfig)}
    return [f"docs/API.md: RecyclerConfig table {what} -> {name}"
            for what, names in (("lacks field", actual - documented),
                                ("lists unknown field",
                                 documented - actual))
            for name in sorted(names)]


def main(argv: list[str]) -> int:
    root = Path(argv[1]).resolve() if len(argv) > 1 \
        else Path(__file__).resolve().parent.parent
    problems: list[str] = []
    files = doc_files(root)
    if not files:
        print(f"no documentation files found under {root}")
        return 1
    for required in REQUIRED_DOCS:
        if not (root / "docs" / required).exists():
            problems.append(f"required document missing: docs/{required}")
    for doc in files:
        text = doc.read_text(encoding="utf-8")
        for match in MD_LINK.finditer(text):
            problem = check_md_link(doc, match.group(1), root)
            if problem:
                problems.append(problem)
        for match in BACKTICK.finditer(text):
            problem = check_backtick(doc, match.group(1), root)
            if problem:
                problems.append(problem)
    problems.extend(check_config_table(root))
    for problem in problems:
        print(problem)
    checked = ", ".join(str(f.relative_to(root)) for f in files)
    if problems:
        print(f"\n{len(problems)} broken pointer(s) in: {checked}")
        return 1
    print(f"docs OK: {checked}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
