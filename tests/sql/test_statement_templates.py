"""Statement templates: a text bound by substituting its literals into
the plan of another text of the same shape gets *the plan a fresh bind
would have produced* — not merely an equivalent one.

The gate is the plan, not the rows: ``plan_fingerprint`` (parameters
and structure) and the rendered plan (output names too) of the
statement the service built must equal those of
``recycler.optimize(sql_to_plan(text))``, for every text run as the
**second** instance of its template.  Where a text has no natural
sibling (the SQL battery), one is made: the same text with every
literal moved to another value of the same type, keeping which
literals coincide — bound first, so that the text under test is served
from the sibling's template.

The named regressions below are the places where the binder reads a
literal's *value* for something other than wrapping it in a ``Lit``.
"""

from __future__ import annotations

import datetime

import numpy as np
import pytest

from repro import Database
from repro.columnar import (Catalog, DATE, FLOAT64, INT64, STRING, Schema,
                            Table, date_to_days)
from repro.engine import execute_plan
from repro.errors import ReproError, SqlError
from repro.plan.logical import (Aggregate, Limit, Select, TableFunctionScan,
                                TopN, plan_fingerprint, render_plan)
from repro.sql import parse, scan_literals, sql_to_plan
from repro.sql.lexer import PLACEHOLDER
from repro.workloads import skyserver, timeseries, tpch
from repro.workloads.skyserver import queries as sky_queries
from test_sql_battery_shapes import CASES, build_catalog
from twin_replay import Twins, quiet_config

SHIFT = 7919    # moves a literal to a value no statement here uses


# ---------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------
def stats(db: Database) -> dict:
    return db.summary()["service"]["statement_cache"]


def render_literal(value) -> str:
    if isinstance(value, str):
        return "'" + value.replace("'", "''") + "'"
    return repr(value)


def sibling(text: str) -> str:
    """``text`` with its literals moved: numbers by ``SHIFT``, dates by
    ``SHIFT`` days, strings by a suffix.  Equal literals stay equal and
    unequal ones unequal; ``0`` and ``1`` (the binder's own constants)
    and everything equal to a ``LIMIT`` / ``OFFSET`` stay put — so the
    sibling has the template key of ``text``."""
    stripped, values = scan_literals(text)
    literals = parse(text).literals
    assert list(literals.values) == values
    fixed = {0, 1} | {values[slot] for slot in literals.pinned}
    moved = []
    for slot, value in enumerate(values):
        if value in fixed:
            moved.append(value)
        elif slot in literals.dates:
            day = datetime.date.fromisoformat(value)
            moved.append((day + datetime.timedelta(days=SHIFT)).isoformat())
        elif isinstance(value, str):
            moved.append(value + "~")
        else:
            moved.append(value + SHIFT)
    pieces = stripped.split(PLACEHOLDER)
    assert len(pieces) == len(values) + 1, "a '?' outside the literals"
    out = [pieces[0]]
    for value, piece in zip(moved, pieces[1:]):
        out += [render_literal(value), piece]
    return "".join(out)


def fresh_plan(db: Database, text: str):
    snapshot = db.catalog.snapshot()
    return db.recycler.optimize(sql_to_plan(text, snapshot), snapshot)


def assert_fresh_plan(db: Database, text: str):
    """The statement the service holds (or now builds) for ``text`` has
    the plan of a fresh bind; returns the statement."""
    statement = db.service.statement(text, db.catalog.snapshot())
    reference = fresh_plan(db, text)
    assert plan_fingerprint(statement.plan) == plan_fingerprint(reference), \
        text
    assert render_plan(statement.plan) == render_plan(reference), text
    return statement


def assert_served_from_template(db: Database, text: str):
    """Bind ``text`` with its template in place: a template hit, and
    the plan of a fresh bind."""
    before = stats(db)
    statement = assert_fresh_plan(db, text)
    after = stats(db)
    assert after["template_hits"] == before["template_hits"] + 1, text
    assert after["template_misses"] == before["template_misses"], text
    return statement


def as_second_instance(twins: Twins, text: str) -> None:
    """Bind a sibling of ``text`` (it leaves the template), then run
    ``text`` itself on both twins: a template hit on ``fast``, the plan
    of a fresh bind, and rows and query record equal to ``slow``'s,
    which binds every statement afresh."""
    service = twins.fast.service
    service.statement(sibling(text), twins.fast.catalog.snapshot())
    with service._statement_lock:      # (the sibling may be the text)
        service._statements.pop(text, None)
    assert_served_from_template(twins.fast, text)
    twins.sql(text)


# ---------------------------------------------------------------------
# every statement the repo knows, as the second instance of its template
# ---------------------------------------------------------------------
@pytest.fixture(scope="module")
def battery_twins():
    twins = Twins(lambda: Database(quiet_config(8 * 1024 * 1024),
                                   catalog=build_catalog()))
    yield twins
    twins.close()


@pytest.mark.parametrize("case", CASES, ids=[c[0][:60] for c in CASES])
def test_battery_statement_as_second_instance(case, battery_twins):
    as_second_instance(battery_twins, case[0])


def test_battery_siblings_share_templates(battery_twins):
    """(after the cases above) the battery's texts and their siblings
    collapsed onto far fewer templates than texts."""
    seen = stats(battery_twins.fast)
    assert seen["template_hits"] >= len(CASES)
    assert seen["templates"] < len(CASES)
    battery_twins.assert_same_state()


TPCH_SCALE = 0.002


def test_tpch_streams_bind_from_the_first_streams_templates():
    """Three qgen streams of the 22 patterns at a 256 KiB cache (so
    admission and replacement run), ``fast`` = ``Database.sql``: the
    second and third instance of a pattern bind from the first's
    template, and nothing the recycler decides can tell."""
    twins = Twins(lambda: Database(
        quiet_config(256 * 1024),
        catalog=tpch.build_catalog(TPCH_SCALE, seed=3)))
    try:
        streams = tpch.generate_streams(3, TPCH_SCALE, seed=3)
        for stream in streams:
            for query in stream:
                twins.sql(query.sql)
                assert_fresh_plan(twins.fast, query.sql)
        twins.assert_same_state()
        seen = stats(twins.fast)
        texts = {query.sql for stream in streams for query in stream}
        # 22 shapes; a few split on which literals coincide
        assert 22 <= seen["templates"] <= 30
        assert seen["template_hits"] == len(texts) - seen["templates"]
        assert seen["template_misses"] == seen["templates"]
    finally:
        twins.close()


def sky_statements() -> list[str]:
    cones = [(194.76, 3.15, 0.4), (195.78, 1.94, 0.4), (194.1, 2.42, 0.25)]
    statements = []
    for cone in cones:
        statements += [
            sky_queries.primary_pattern(cone),
            sky_queries.primary_pattern(cone, limit=20),
            sky_queries.magnitude_variant(cone, mag=19.0),
            sky_queries.magnitude_variant(cone, mag=21.0),
            sky_queries.type_histogram_variant(cone),
            sky_queries.nearest_variant(cone, limit=5),
            sky_queries.nearest_variant(cone, limit=10),
        ]
    return statements


def test_skyserver_builders():
    twins = Twins(lambda: Database(
        quiet_config(8 * 1024 * 1024),
        catalog=skyserver.build_catalog(2000, seed=3)))
    try:
        statements = sky_statements()
        for text in statements:
            as_second_instance(twins, text)
        # run as a client would: cone after cone, no made-up siblings
        for text in statements:
            twins.sql(text)
        twins.assert_same_state()
        # one template per builder and LIMIT (which is pinned)
        assert stats(twins.fast)["templates"] == 6
    finally:
        twins.close()


def test_timeseries_dashboard():
    rows, batch = 3000, 200
    twins = Twins(lambda: Database(
        quiet_config(8 * 1024 * 1024),
        catalog=timeseries.build_catalog(rows, seed=3)))
    try:
        for hi in (rows, rows + batch, rows + 2 * batch):
            for text in (timeseries.range_scan(hi - batch, hi),
                         timeseries.sensor_rollup(),
                         timeseries.site_rollup(hi),
                         timeseries.alerts(hi),
                         timeseries.hot_sensors(hi),
                         timeseries.range_scan(0, rows // 2)):
                as_second_instance(twins, text)
        twins.assert_same_state()
        assert stats(twins.fast)["templates"] == 5
    finally:
        twins.close()


# ---------------------------------------------------------------------
# named regressions: where the binder reads a literal's value
# ---------------------------------------------------------------------
def make_table() -> Table:
    rng = np.random.default_rng(23)
    rows = 400
    schema = Schema(["k", "g", "v", "s", "d"],
                    [INT64, INT64, FLOAT64, STRING, DATE])
    return Table(schema, {
        "k": np.arange(rows, dtype=np.int64),
        "g": rng.integers(0, 5, rows),
        "v": rng.uniform(-10, 10, rows),
        "s": np.array([("it's" if i % 3 == 0 else f"s{i % 4}")
                       for i in range(rows)], dtype=object),
        "d": np.arange(rows, dtype=np.int64) + date_to_days("2023-01-01"),
    })


@pytest.fixture
def db():
    catalog = Catalog()
    catalog.register_table("t", make_table())
    schema = Schema(["n"], [INT64])
    catalog.register_function(
        "series", lambda lo, hi: Table(
            schema, {"n": np.arange(lo, hi, dtype=np.int64)}), schema)
    database = Database(quiet_config(8 * 1024 * 1024), catalog=catalog)
    yield database
    database.close()


def bind_all(db: Database, texts: list[str], *, hits: int, misses: int):
    """Bind ``texts`` in order, each checked against a fresh bind and
    (rows) against the engine alone running the plan as bound afresh;
    the template hits and misses they must add up to.  Returns the
    statements."""
    before = stats(db)
    statements = []
    for text in texts:
        statements.append(assert_fresh_plan(db, text))
        assert sorted(db.sql(text).table.to_rows()) == sorted(
            execute_plan(db.plan(text), db.catalog).table.to_rows()), text
    after = stats(db)
    assert (after["template_hits"] - before["template_hits"],
            after["template_misses"] - before["template_misses"]) == \
        (hits, misses)
    return statements


def nodes(statement, kind):
    return [node for node in statement.plan.walk()
            if isinstance(node, kind)]


class TestValueCoincidences:
    def test_equal_literals_fold_two_aggregates_unequal_do_not(self, db):
        shape = "SELECT g, sum(v * {}) AS a, sum(v * {}) AS b FROM t" \
                " GROUP BY g"
        folded, again, apart, apart_again = bind_all(db, [
            shape.format(0.5, 0.5), shape.format(0.7, 0.7),
            shape.format(0.5, 0.6), shape.format(0.25, 0.75)],
            hits=2, misses=2)
        for statement, count in ((folded, 1), (again, 1), (apart, 2),
                                 (apart_again, 2)):
            [aggregate] = nodes(statement, Aggregate)
            assert len(aggregate.aggregates) == count

    def test_else_zero_equals_the_missing_else(self, db):
        shape = "SELECT sum(CASE WHEN g = 2 THEN v ELSE {} END) AS a," \
                " sum(CASE WHEN g = 2 THEN v END) AS b FROM t"
        zero, five, seven = bind_all(db, [
            shape.format(0), shape.format(5), shape.format(7)],
            hits=1, misses=2)
        assert len(nodes(zero, Aggregate)[0].aggregates) == 1
        assert len(nodes(five, Aggregate)[0].aggregates) == 2
        assert len(nodes(seven, Aggregate)[0].aggregates) == 2

    def test_group_key_matched_from_the_select_list(self, db):
        shape = "SELECT k + {} AS bucket, count(*) AS n FROM t" \
                " GROUP BY k + {}"
        # ``1`` is the binder's own constant: a template of its own
        bind_all(db, [shape.format(1, 1), shape.format(2, 2),
                      shape.format(3, 3)], hits=1, misses=2)
        # the select item is no group key when the literals differ —
        # from the template of (2, 2) or from scratch, the same error
        for _ in range(2):
            with pytest.raises(SqlError, match="GROUP BY"):
                db.sql(shape.format(2, 3))

    def test_literal_spelling_does_not_name_a_group_key(self, db):
        """``3`` and ``03`` are one value: the alias names the key
        whichever text binds first."""
        shape = "SELECT k + {} AS bucket, count(*) AS n FROM t" \
                " GROUP BY k + {}"
        first, second = bind_all(db, [shape.format("2", "2"),
                                      shape.format("3", "03")],
                                 hits=1, misses=1)
        for statement in (first, second):
            assert nodes(statement, Aggregate)[0].group_keys[0][0] == \
                "bucket"

    def test_int_and_float_are_different_templates(self, db):
        shape = "SELECT k FROM t WHERE v < {}"
        bind_all(db, [shape.format("100"), shape.format("100.00"),
                      shape.format("7")], hits=1, misses=2)
        # as bound (the optimizer casts the integral float to INT64)
        bound = [render_plan(template.bound)
                 for template in db.service._templates.values()]
        assert any("(v < 100)" in plan for plan in bound)
        assert any("(v < 100.0)" in plan for plan in bound)

    def test_integral_and_fractional_floats_are_different_templates(
            self, db):
        """``normalize_literals`` types an integral float INT64, so
        whether a float is integral — and its negation: ``-2**63`` is an
        int64, ``2**63`` is not — is part of the key, and each template
        plans once."""
        shape = "SELECT k FROM t WHERE v < {} AND v > -{}"
        _, integral, _, fractional = bind_all(db, [
            shape.format("8.0", "2.0"), shape.format("9.0", "3.0"),
            shape.format("8.5", "2.0"), shape.format("9.5", "3.0")],
            hits=2, misses=2)
        assert "(v < 9)" in render_plan(integral.plan)
        assert "(v < 9.5)" in render_plan(fractional.plan)
        assert "(v > -3)" in render_plan(fractional.plan)
        edge = "SELECT k FROM t WHERE v > -{}"
        bind_all(db, [edge.format("9223372036854775808.0"),
                      edge.format("1e30"), edge.format("1e31")],
                 hits=1, misses=2)
        assert stats(db)["template_plans"] == 3

    def test_int_equal_to_float_in_in_lists(self, db):
        """``IN (1, 2.0)`` and ``IN (1.0, 2)`` have equal keys (Python
        equality): texts in which they coincide fold the aggregates,
        and do not share a template with texts in which they do not."""
        shape = "SELECT sum(CASE WHEN v IN ({}, {}) THEN v ELSE 0 END) AS a," \
                " sum(CASE WHEN v IN ({}, {}) THEN v ELSE 0 END) AS b FROM t"
        apart, folded = bind_all(db, [
            shape.format("3", "4.0", "5.0", "6"),
            shape.format("3", "4.0", "3.0", "4")], hits=0, misses=2)
        assert len(nodes(apart, Aggregate)[0].aggregates) == 2
        assert len(nodes(folded, Aggregate)[0].aggregates) == 1


class TestValueTransforms:
    def test_negative_literals(self, db):
        shape = "SELECT k FROM t WHERE v > -{} AND v < {} AND k <> - -{}"
        bind_all(db, [shape.format(5, 5, 3), shape.format(7.5, 7.5, 2),
                      shape.format(2, 2, 9)], hits=1, misses=2)
        # (a float is another template.)  Minus zero stays minus zero:
        shape = "SELECT (k + 1) / -{} AS q FROM t WHERE k < {}"
        _, again = bind_all(db, [shape.format(0.0, 3), shape.format(0.0, 4)],
                            hits=1, misses=1)
        assert "/ -0.0)" in render_plan(again.plan)
        assert set(db.sql(shape.format(0.0, 4)).table.to_rows()) == \
            {(float("-inf"),)}

    def test_negative_values_in_lists_and_function_arguments(self, db):
        _, second = bind_all(db, ["SELECT k FROM t WHERE g IN (-5, 2, 3)",
                                  "SELECT k FROM t WHERE g IN (-4, 7, 2)"],
                             hits=1, misses=1)
        assert "[-4, 7, 2]" in render_plan(second.plan)
        first, second = bind_all(db, [
            "SELECT n FROM series(-2, 3)", "SELECT n FROM series(-4, 6)"],
            hits=1, misses=1)
        assert nodes(second, TableFunctionScan)[0].args == (-4, 6)
        assert db.sql("SELECT n FROM series(-4, 6)").table.num_rows == 10

    def test_dates(self, db):
        shape = "SELECT k FROM t WHERE d >= DATE '{}' AND d < DATE '{}'"
        bind_all(db, [shape.format("2023-02-01", "2023-03-01"),
                      shape.format("2023-04-01", "2023-06-01")],
                 hits=1, misses=1)
        # a date that does not parse is the binder's error, template or not
        for _ in range(2):
            with pytest.raises(ValueError):
                db.sql(shape.format("2023-02-01", "2023-13-45"))

    def test_one_date_spelled_two_ways_is_a_coincidence(self, db):
        shape = "SELECT sum(CASE WHEN d < DATE '{}' THEN v ELSE 0 END) AS a," \
                " sum(CASE WHEN d < DATE '{}' THEN v ELSE 0 END) AS b FROM t"
        apart, folded, apart_again = bind_all(db, [
            shape.format("2023-02-01", "2023-03-01"),
            shape.format("2023-02-01", "20230201"),
            shape.format("2023-05-01", "2023-06-01")], hits=1, misses=2)
        assert len(nodes(apart, Aggregate)[0].aggregates) == 2
        assert len(nodes(folded, Aggregate)[0].aggregates) == 1
        assert len(nodes(apart_again, Aggregate)[0].aggregates) == 2

    def test_like_patterns_and_quotes_inside_strings(self, db):
        bind_all(db, ["SELECT k FROM t WHERE s LIKE 's%' AND s <> 'it''s'",
                      "SELECT k FROM t WHERE s LIKE '%1' AND s <> 'x''''y'",
                      "SELECT k FROM t WHERE s LIKE 'it_s' AND s <> ''"],
                 hits=2, misses=1)
        assert db.sql("SELECT count(*) AS n FROM t WHERE s = 'it''s'"
                      ).table.to_rows() == [(134,)]

    def test_a_comment_that_holds_a_quote_and_a_number(self, db):
        shape = "SELECT k -- it's 5 o'clock\nFROM t WHERE k < {} -- 'x"
        bind_all(db, [shape.format(10), shape.format(20)],
                 hits=1, misses=1)
        assert db.sql(shape.format(20)).table.num_rows == 20


class TestShape:
    def test_in_lists_of_different_lengths(self, db):
        bind_all(db, ["SELECT k FROM t WHERE g IN (2, 3)",
                      "SELECT k FROM t WHERE g IN (2, 3, 4)",
                      "SELECT k FROM t WHERE g IN (4, 2)"],
                 hits=1, misses=2)

    def test_limit_and_offset_are_pinned(self, db):
        shape = "SELECT k FROM t WHERE k >= {} ORDER BY k LIMIT {} OFFSET {}"
        first, other_limit, hit, other_offset = bind_all(db, [
            shape.format(10, 5, 2), shape.format(10, 7, 2),
            shape.format(30, 5, 2), shape.format(30, 5, 3)],
            hits=1, misses=3)
        assert [(n.limit, n.offset) for s in (first, other_limit, hit,
                                              other_offset)
                for n in nodes(s, TopN)] == [(5, 2), (7, 2), (5, 2), (5, 3)]
        assert db.sql(shape.format(30, 5, 2)).table.to_rows() == \
            [(32,), (33,), (34,), (35,), (36,)]
        plain = "SELECT k FROM t WHERE k < {} LIMIT {}"
        _, limited = bind_all(db, [plain.format(50, 3), plain.format(60, 3)],
                              hits=1, misses=1)
        assert nodes(limited, Limit)[0].limit == 3

    def test_literal_free_subtrees_are_shared(self, db):
        """Only the spine above a literal is rebuilt: the scans below
        the filter are the template plan's own nodes, memoized schema
        and all — the subtrees whose matches the template memoizes."""
        shape = "SELECT a.k FROM t a, t b WHERE a.k = b.k AND a.v > {}"
        snapshot = db.catalog.snapshot()
        first = db.service.statement(shape.format(1.5), snapshot)
        second = db.service.statement(shape.format(2.5), snapshot)
        assert stats(db)["template_plans"] == 1
        assert second.template is first.template is not None
        assert first.plan is first.template.plan
        first_select, second_select = (
            [n for n in statement.plan.walk() if isinstance(n, Select)][0]
            for statement in (first, second))
        assert second_select is not first_select
        assert second_select.child is first_select.child
        # project(join(select(scan), project(scan))): the scan under the
        # filter and the renaming projection of the other side
        join = first.plan.children[0]
        shared = [node for node in second.plan.walk()
                  if any(node is mine for mine in first.plan.walk())]
        assert shared == [first_select.child, join.right.child, join.right]
        assert set(first.template.matches) == \
            {id(first_select.child), id(join.right)}

    def test_errors_leave_no_template(self, db):
        for text in ("SELEC 1", "SELECT nope FROM t WHERE k < 3",
                     "SELECT k FROM missing WHERE k < 3",
                     "SELECT k FROM t WHERE s = 'open"):
            for _ in range(2):
                with pytest.raises(ReproError):
                    db.sql(text)
        seen = stats(db)
        assert seen["templates"] == 0 and seen["entries"] == 0
        assert seen["template_misses"] == 8 and seen["template_hits"] == 0
