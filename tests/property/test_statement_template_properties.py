"""Properties of statement templates.

1. *One literal grammar.*  For any text ``tokenize`` accepts, the
   literals ``scan_literals`` strips are exactly the lexer's number and
   string tokens, in order, value for value and type for type — and
   putting them back where the placeholders stand gives a text with the
   same tokens.  The texts are drawn from an alphabet of everything the
   two could disagree on: quotes and doubled quotes, dashes and comment
   starts, dots next to digits and letters, exponents, newlines.

2. *Template path = fresh bind.*  Statements whose literals are drawn
   from tiny domains (``{0, 1, 2}``, ``{'a', 'b'}``, two dates) so that
   coincidences — two equal aggregates, a select item equal to a group
   key, ``ELSE 0``, ``IN`` lists with repeated values — are common:
   whatever order the texts arrive in, each binds (through whichever
   template is there, or none) to the plan a fresh bind produces, or
   fails with the error a fresh bind fails with.

3. *Template plan = fresh optimize.*  A template plans once: a text
   served from its template's plan gets the plan the optimizer makes of
   the text — same ``render_plan``, not merely the same fingerprint —
   for literals drawn from wide domains: integral and fractional
   floats, negatives, ``IN`` lists, ``LIKE`` patterns, dates.  Where an
   optimizer rule orders by value (``UNION ALL`` inputs over literals,
   conjuncts that differ only in one), the template must plan every
   text on its own.
"""

from __future__ import annotations

import datetime

import numpy as np
from hypothesis import given, settings, strategies as st

from repro import Database, RecyclerConfig
from repro.columnar import (Catalog, DATE, FLOAT64, INT64, STRING, Schema,
                            Table, date_to_days)
from repro.engine import execute_plan
from repro.errors import SqlError
from repro.plan.logical import plan_fingerprint, render_plan
from repro.sql import scan_literals, sql_to_plan, tokenize
from repro.sql.lexer import PLACEHOLDER, number_value

# ---------------------------------------------------------------------
# 1. scan = lexer
# ---------------------------------------------------------------------
FRAGMENTS = ["'", "''", "'a'", "-", "--", ".", "1", "23", "0", "a", "b_",
             "e", "E", "e5", "+", " ", "  ", "\n", "\t", "<", "=", "(", ",",
             "x1", "select", "é", "٣", ";"]

TEXTS = st.lists(st.sampled_from(FRAGMENTS), max_size=14).map("".join)


def literal_tokens(text: str):
    return [number_value(token.value) if token.kind == "number"
            else token.value
            for token in tokenize(text) if token.slot is not None]


@settings(max_examples=2000, deadline=None)
@given(text=TEXTS)
def test_scan_strips_exactly_the_lexers_literal_tokens(text):
    try:
        expected = literal_tokens(text)
    except SqlError:
        return          # (the scan is only ever trusted on accepted text)
    stripped, values = scan_literals(text)
    assert values == expected
    assert [type(v) for v in values] == [type(v) for v in expected]
    # slots are the ordinals the scan counts
    assert [token.slot for token in tokenize(text)
            if token.slot is not None] == list(range(len(values)))
    # what is left is the text around the literals: the placeholders
    # mark where they stood (the lexer itself rejects the character)
    assert PLACEHOLDER not in text
    assert stripped.count(PLACEHOLDER) == len(values)
    kinds = [(t.kind, t.value) for t in tokenize(text)
             if t.slot is None]
    marked = stripped.replace(PLACEHOLDER, " ")
    assert [(t.kind, t.value) for t in tokenize(marked)] == kinds


# ---------------------------------------------------------------------
# 2. template path = fresh bind
# ---------------------------------------------------------------------
INTS = st.sampled_from(["0", "1", "2"])
NUMBERS = st.sampled_from(["0", "1", "2", "1.0", "0.5", "2.0"])
STRINGS = st.sampled_from(["'a'", "'b'", "'a%'"])
DATES = st.sampled_from(["'2023-01-05'", "'2023-02-01'", "'20230105'"])
LIMITS = st.sampled_from(["2", "3"])

#: statement shapes; ``{n}`` a number, ``{i}`` an int, ``{s}`` a string,
#: ``{d}`` a date, ``{l}`` a LIMIT — each hole drawn independently
SHAPES = [
    "SELECT g, sum(v * {n}) AS a, sum(v * {n}) AS b FROM t GROUP BY g",
    "SELECT k + {i} AS kk, count(*) AS c FROM t GROUP BY k + {i}",
    "SELECT sum(CASE WHEN g = {i} THEN v ELSE {n} END) AS x,"
    " sum(CASE WHEN g = {i} THEN v END) AS y FROM t",
    "SELECT k FROM t WHERE s IN ({s}, {s}) AND k > -{n} AND k < {n}",
    "SELECT count(*) AS c FROM t WHERE s LIKE {s} OR s = {s}",
    "SELECT k, v FROM t WHERE k >= {i} ORDER BY k LIMIT {l}",
    "SELECT g, count(*) AS c FROM t WHERE k IN ({n}, {n}, {n})"
    " GROUP BY g HAVING count(*) > {i}",
    "SELECT sum(CASE WHEN d < DATE {d} THEN v ELSE {i} END) AS a,"
    " sum(CASE WHEN d < DATE {d} THEN v ELSE 0 END) AS b FROM t",
    "SELECT count(*) AS c FROM t WHERE g IN ({i}, {n})"
    " AND EXISTS (SELECT {i} FROM t u WHERE u.k = t.k AND u.v > {n})",
    "SELECT n FROM series(-{i}, {i}) WHERE n <> - -{i} LIMIT {l}",
]

HOLES = {"n": NUMBERS, "i": INTS, "s": STRINGS, "d": DATES, "l": LIMITS}


@st.composite
def instance(draw, shape: str, holes: dict = HOLES) -> str:
    out = []
    rest = shape
    while "{" in rest:
        head, _, tail = rest.partition("{")
        out += [head, draw(holes[tail[0]])]
        rest = tail[2:]
    return "".join(out + [rest])


#: several texts of one shape (so that most meet a template), now and
#: then with a text of another shape in between
TEXT_LISTS = st.sampled_from(SHAPES).flatmap(
    lambda shape: st.lists(
        st.one_of(instance(shape), instance(shape), instance(shape),
                  st.sampled_from(SHAPES).flatmap(instance)),
        min_size=2, max_size=8))


def build() -> Database:
    rng = np.random.default_rng(29)
    rows = 60
    schema = Schema(["k", "g", "v", "s", "d"],
                    [INT64, INT64, FLOAT64, STRING, DATE])
    catalog = Catalog()
    catalog.register_table("t", Table(schema, {
        "k": np.arange(rows, dtype=np.int64),
        "g": rng.integers(0, 3, rows),
        "v": rng.uniform(0, 2, rows),
        "s": np.array(["a", "b", "ab"] * (rows // 3), dtype=object),
        "d": np.arange(rows, dtype=np.int64) + date_to_days("2023-01-01"),
    }))
    series = Schema(["n"], [INT64])
    catalog.register_function(
        "series", lambda lo, hi: Table(
            series, {"n": np.arange(lo, hi, dtype=np.int64)}), series)
    return Database(RecyclerConfig(mode="spec",
                                   maintenance_interval_seconds=None),
                    catalog=catalog)


def outcome(bind):
    try:
        plan = bind()
    except SqlError as error:
        return ("error", str(error))
    return (plan_fingerprint(plan), render_plan(plan))


@settings(max_examples=300, deadline=None)
@given(texts=TEXT_LISTS)
def test_template_path_binds_what_a_fresh_bind_binds(texts):
    db = build()
    try:
        snapshot = db.catalog.snapshot()
        for text in texts:
            served = outcome(
                lambda: db.service.statement(text, snapshot).plan)
            fresh = outcome(lambda: db.recycler.optimize(
                sql_to_plan(text, snapshot), snapshot))
            assert served == fresh, text
            if served[0] != "error":
                assert sorted(db.sql(text).table.to_rows()) == sorted(
                    execute_plan(db.plan(text), db.catalog)
                    .table.to_rows()), text
        seen = db.summary()["service"]["statement_cache"]
        assert seen["template_hits"] + seen["template_misses"] == \
            seen["misses"]
    finally:
        db.close()


# ---------------------------------------------------------------------
# 3. template plan = fresh optimize
# ---------------------------------------------------------------------
#: ``{f}`` a float — integral (``normalize_literals`` types it INT64)
#: or not; ``{i}`` an int, ``{s}`` a string, ``{d}`` a date.  Numbers
#: are written unsigned: a shape writes ``-{f}`` for a negative one
WIDE = {
    "f": st.one_of(
        st.integers(0, 300).map(lambda i: f"{i}.0"),
        st.floats(0, 300, allow_nan=False).map(repr)),
    "i": st.integers(0, 70).map(str),
    "s": st.sampled_from(["'a'", "'b'", "'a%'", "'%b'", "'a_'", "'it''s'"]),
    "d": st.dates(datetime.date(2022, 12, 20),
                  datetime.date(2023, 3, 10)).map(
                      lambda day: f"'{day.isoformat()}'"),
    "l": LIMITS,
}

#: ``True``: the shape orders by a literal's value, so its template
#: must not plan (every text of it is optimized on its own)
PLAN_SHAPES = {
    "SELECT k FROM t WHERE v < {f} AND v > -{f}": False,
    "SELECT k FROM t WHERE v >= {f} AND v <= {f} AND s LIKE {s}": False,
    "SELECT g, count(*) AS c FROM t WHERE k IN ({i}, {i}, -{i})"
    " AND v > {f} GROUP BY g": False,
    "SELECT k FROM t WHERE d >= DATE {d} AND d < DATE {d}"
    " AND s NOT LIKE {s}": False,
    "SELECT a.k FROM t a, t b WHERE a.k = b.k AND a.v > {f}"
    " AND b.g <> {i} AND b.s LIKE {s}": False,
    "SELECT k, v FROM t WHERE v < -{f} ORDER BY k LIMIT {l}": False,
    "SELECT k FROM t WHERE k > {i} AND k > {i} AND s LIKE {s}": True,
    "SELECT k FROM t WHERE k < {i} UNION ALL"
    " SELECT k FROM t WHERE k < {i}": True,
}

PLAN_TEXT_LISTS = st.sampled_from(sorted(PLAN_SHAPES)).flatmap(
    lambda shape: st.tuples(st.just(shape), st.lists(
        instance(shape, WIDE), min_size=2, max_size=6)))


@settings(max_examples=200, deadline=None)
@given(shape_texts=PLAN_TEXT_LISTS)
def test_template_plan_is_the_plan_a_fresh_optimize_makes(shape_texts):
    shape, texts = shape_texts
    db = build()
    try:
        snapshot = db.catalog.snapshot()
        for text in texts:
            served = db.service.statement(text, snapshot)
            assert outcome(lambda: served.plan) == outcome(
                lambda: db.recycler.optimize(sql_to_plan(text, snapshot),
                                             snapshot)), text
            assert sorted(db.sql(text).table.to_rows()) == sorted(
                execute_plan(db.plan(text), db.catalog)
                .table.to_rows()), text
        seen = db.summary()["service"]["statement_cache"]
        if PLAN_SHAPES[shape]:
            assert seen["template_plans"] == 0
        else:
            assert seen["template_plans"] == seen["template_hits"]
    finally:
        db.close()

