"""``tools/profile_pass.py`` keeps telling the truth.

Its STRING share is measured by wrapping ``types.array_nbytes`` (and
the other per-element kernels) *by module attribute*: if the engine
sized STRING columns through any other name the tool would go on
printing a smaller share without failing.  Its sort share wraps the
sorting kernels under every name ``repro`` binds them to — and would
print 0 the same way.  So run it, small, and look.
The same goes for the statement cache's template path, which it times
by wrapping ``exec_service.scan_literals`` and
``StatementTemplate.bind`` / ``.planned`` — and there the tool is also
the alarm: it exits non-zero when texts share shapes and no template
was hit or no plan node was matched from a template's memo, when a
recycling pass repeats a text and no statement took the root-hit path,
when it appends and no cached result was extended or no
moving-window conjunct was proved, and when it builds joins on integer
keys and no join index was dense — and when a recycling pass leaves
``repro`` objects for the cyclic garbage collector.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent.parent


def test_tool_sees_string_sizing_and_prints_the_batch_floor():
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "profile_pass.py"),
         "--workload", "ts_append", "--mode", "spec", "--size", "0.04",
         "--top", "3"],
        capture_output=True, text=True, timeout=300, check=False)
    assert done.returncode == 0, done.stderr[-2000:]
    lines = [line.split() for line in done.stdout.splitlines()]
    values = {words[0]: float(words[1]) for words in lines
              if len(words) == 2 and words[0] != "#"}
    assert 0.0 < values["string_share"] < 1.0
    # the dashboard's ``status`` / ``site`` columns were sized per
    # batch through the wrapped name
    sizing = [words for words in lines
              if words[:2] == ["string", "array_nbytes(STRING)"]]
    assert sizing and int(sizing[0][-2]) > 0
    # the sorting left on the cold path: the dashboard's GROUP BYs coded
    # and ordered their keys, its alerts ranked their rows
    assert 0.0 < values["sort_share"] < 1.0
    sorted_by = {words[1] for words in lines if words[:1] == ["sort"]}
    assert {"key_codes", "GroupedRows", "top_rows"} <= sorted_by
    # the dashboard's site rollup and hot sensors joined on the dense
    # ``sensor`` key: looked up by address
    assert 0.0 < values["join_share"] < 1.0
    assert values["join_dense_builds"] > 0
    joined_by = {words[1] for words in lines if words[:1] == ["join"]}
    assert {"_BuildIndex.__init__", "_BuildIndex.matches",
            "_BuildIndex.matched"} <= joined_by
    assert values["next_calls"] > 0 and values["batches_built"] > 0
    assert values["batches_per_op"] > 0.0
    # the dashboard: 51 texts at this size, 5 shapes — every text but
    # the first of its shape is planned from its template's plan, and
    # the tool saw each scan and each substitution
    assert values["distinct_shapes"] == 5
    assert values["statement_cache.template_misses"] == 5
    hits = values["statement_cache.template_hits"]
    assert hits == values["distinct_texts"] - 5 > 0
    assert values["statement_cache.template_plans"] == hits
    timed = {words[1]: int(words[-2]) for words in lines
             if words[:1] == ["template"]}
    assert timed == {"scan_literals": values["statement_cache.misses"],
                     "StatementTemplate.planned": hits}
    # their literal-free subtrees matched from the templates' memos
    assert values["memo_nodes"] > 0
    # the dashboard's repeats were answered from their root-hit memos
    assert values["root_hits"] > 0
    assert values["gc_ms"] >= 0.0 and values["gc_gen2"] >= 0
    # every statement but the root hits was prepared the slow way, and
    # the slow way left nothing of repro's for the cyclic collector
    assert values["prepare_us"] >= values["prepare.match_us"] > 0.0
    assert values["prepare.post_match_us"] > 0.0
    assert values["cyclic_garbage_repro"] == 0
    # appends left the dashboard's stable aggregates cached, extended
    assert values["extended"] > 0 and values["ddl_evicted"] > 0
    # the dashboard's windows that cover every row ran without them
    assert values["conjuncts_proved"] > 0


def test_tool_fails_when_the_template_path_stops_firing():
    """A statement cache that binds every text in full (here: a scan
    that gives every text a shape of its own) is what no other test
    turns red on."""
    broken = (
        "import sys; sys.path.insert(0, sys.argv[1]); import profile_pass;"
        " from repro import exec_service;"
        " exec_service.scan_literals = lambda text: (text, []);"
        " sys.exit(profile_pass.main(sys.argv[2:]))")
    done = subprocess.run(
        [sys.executable, "-c", broken, str(ROOT / "tools"),
         "--workload", "ts_append", "--mode", "spec", "--size", "0.04",
         "--top", "1"],
        capture_output=True, text=True, timeout=300, check=False)
    assert done.returncode == 1, done.stderr[-2000:]
    assert "no statement template was hit" in done.stderr
    assert "statement_cache.template_hits 0" in done.stdout


def test_tool_fails_when_the_memo_stops_replaying():
    """Matching every literal-free subtree afresh is as right as
    replaying it, only slower — the tool is what notices."""
    broken = (
        "import sys; sys.path.insert(0, sys.argv[1]); import profile_pass;"
        " from repro.recycler import matching;"
        " matching._match_memoized = lambda node, *args: ("
        "matching._match_node(node, *args[:-1], None));"
        " sys.exit(profile_pass.main(sys.argv[2:]))")
    done = subprocess.run(
        [sys.executable, "-c", broken, str(ROOT / "tools"),
         "--workload", "ts_append", "--mode", "spec", "--size", "0.04",
         "--top", "1"],
        capture_output=True, text=True, timeout=300, check=False)
    assert done.returncode == 1, done.stderr[-2000:]
    assert "no plan node was matched" in done.stderr
    assert "memo_nodes 0" in done.stdout.splitlines()


@pytest.mark.parametrize("mode", ["spec", "pa"])
def test_tool_fails_when_root_hits_stop(mode):
    """A repeat that re-matches its whole plan returns the same rows
    and leaves the same recycler state, only slower — the tool is what
    notices, under ``pa`` as under ``spec``."""
    broken = (
        "import sys; sys.path.insert(0, sys.argv[1]); import profile_pass;"
        " from repro.recycler import recycler;"
        " recycler.Recycler._prepare_root_hit = lambda *args: None;"
        " sys.exit(profile_pass.main(sys.argv[2:]))")
    done = subprocess.run(
        [sys.executable, "-c", broken, str(ROOT / "tools"),
         "--workload", "sky_warm", "--mode", mode, "--size", "0.04",
         "--top", "1"],
        capture_output=True, text=True, timeout=300, check=False)
    assert done.returncode == 1, done.stderr[-2000:]
    assert "no statement was answered from its root-hit memo" \
        in done.stderr
    assert "root_hits 0" in done.stdout.splitlines()


def test_tool_fails_when_appends_stop_extending():
    """Recycling that quietly went back to evicting every dependent on
    an append still returns right answers, only slower — the tool is
    what notices."""
    broken = (
        "import sys; sys.path.insert(0, sys.argv[1]); import profile_pass;"
        " from repro.recycler import rewriter;"
        " rewriter.appended_table = lambda entry, catalog: None;"
        " sys.exit(profile_pass.main(sys.argv[2:]))")
    done = subprocess.run(
        [sys.executable, "-c", broken, str(ROOT / "tools"),
         "--workload", "ts_append", "--mode", "spec", "--size", "0.04",
         "--top", "1"],
        capture_output=True, text=True, timeout=300, check=False)
    assert done.returncode == 1, done.stderr[-2000:]
    assert "no cached result was extended" in done.stderr
    assert "extended 0" in done.stdout.splitlines()


def test_tool_fails_when_windows_stop_being_proved():
    """Moving windows that are never dropped still read right answers,
    only cold after every append — the tool is what notices."""
    broken = (
        "import sys; sys.path.insert(0, sys.argv[1]); import profile_pass;"
        " from repro import exec_service;"
        " exec_service.proved_windows = lambda windows, snapshot: 0;"
        " sys.exit(profile_pass.main(sys.argv[2:]))")
    done = subprocess.run(
        [sys.executable, "-c", broken, str(ROOT / "tools"),
         "--workload", "ts_append", "--mode", "spec", "--size", "0.04",
         "--top", "1"],
        capture_output=True, text=True, timeout=300, check=False)
    assert done.returncode == 1, done.stderr[-2000:]
    assert "no moving-window conjunct was proved" in done.stderr
    assert "conjuncts_proved 0" in done.stdout.splitlines()


def test_tool_fails_when_join_indexes_stop_being_dense():
    """A join index that binary-searches dense keys finds the same
    matches, only slower — the tool is what notices."""
    broken = (
        "import sys; sys.path.insert(0, sys.argv[1]); import profile_pass;"
        " from repro.engine import join;"
        " join._BuildIndex._index_dense = lambda self, values: False;"
        " sys.exit(profile_pass.main(sys.argv[2:]))")
    done = subprocess.run(
        [sys.executable, "-c", broken, str(ROOT / "tools"),
         "--workload", "ts_append", "--mode", "spec", "--size", "0.04",
         "--top", "1"],
        capture_output=True, text=True, timeout=300, check=False)
    assert done.returncode == 1, done.stderr[-2000:]
    assert "no index was dense" in done.stderr
    assert "join_dense_builds 0" in done.stdout.splitlines()


#: the reference bookkeeping after matching as it once was: a closure
#: that calls itself, a cycle per statement
_RECURSIVE_RECORD = """
def _recursive_record(self, plan, matches):
    credited, seen = [], set()

    def visit(node, blocked):
        match = matches.of(node)
        if match.inserted:
            blocked = False
        else:
            graph_node = match.graph_node
            if not blocked and graph_node.node_id not in seen:
                seen.add(graph_node.node_id)
                self.graph.add_refs(graph_node, 1.0)
                credited.append(graph_node)
            if graph_node.is_materialized:
                blocked = True
        for child in node.children:
            visit(child, blocked)

    visit(plan, False)
    return credited
"""


def test_tool_fails_when_the_recycling_path_leaves_cyclic_garbage():
    """A recursive closure on the recycling path returns the same
    answers and leaves the same recycler state — and a reference cycle
    per statement for the collector to find; the tool is what
    notices.  The closure is compiled into the ``repro`` module it
    would live in."""
    broken = (
        "import sys; sys.path.insert(0, sys.argv[1]); import profile_pass;"
        " from repro.recycler import benefit;"
        " exec(sys.argv[2], vars(benefit));"
        " benefit.BenefitModel.record_query_references ="
        " benefit._recursive_record;"
        " sys.exit(profile_pass.main(sys.argv[3:]))")
    done = subprocess.run(
        [sys.executable, "-c", broken, str(ROOT / "tools"),
         _RECURSIVE_RECORD,
         "--workload", "ts_append", "--mode", "spec", "--size", "0.04",
         "--top", "1"],
        capture_output=True, text=True, timeout=300, check=False)
    assert done.returncode == 1, done.stderr[-2000:]
    assert "repro objects for the cyclic garbage collector" in done.stderr
    lines = done.stdout.splitlines()
    assert "cyclic_garbage_repro 0" not in lines
    assert any(line.startswith("cyclic_garbage_repro ") for line in lines)
