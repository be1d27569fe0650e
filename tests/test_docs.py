"""The documentation stays honest in tier-1 too: ``docs/API.md``'s
examples run as a doctest, and ``tools/check_docs.py`` finds every file
pointer and the whole ``RecyclerConfig`` table in place."""

from __future__ import annotations

import doctest
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_api_examples_run():
    failed, attempted = doctest.testfile(
        str(ROOT / "docs" / "API.md"), module_relative=False)
    assert attempted > 0
    assert failed == 0


def test_doc_pointers_and_config_table(capsys):
    spec = importlib.util.spec_from_file_location(
        "check_docs", ROOT / "tools" / "check_docs.py")
    check_docs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(check_docs)
    assert check_docs.main(["check_docs.py", str(ROOT)]) == 0, \
        capsys.readouterr().out
