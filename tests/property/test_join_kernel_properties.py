"""The cold join and filter kernels against the work they skip.

``join._BuildIndex`` looks unique dense integer keys up by address (a
row table) and everything else, duplicate keys included, up by binary
search; both must return exactly the per-row dict's matches in exactly
its order (``test_join_index.oracle_probe``), and the dense index may
hold no more bytes than the sorted one it replaces.  ``And`` / ``Or``
evaluate each operand only on the rows the operands before it left
undecided; the mask must be the one full evaluation computes.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
from hypothesis import example, given, settings, strategies as st

from repro.columnar import types as t
from repro.columnar.batch import Batch
from repro.engine.join import _BuildIndex
from repro.expr.nodes import And, Cmp, Col, InList, Like, Lit, Not, Or

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "engine"))
from test_join_index import oracle_probe  # noqa: E402

INTEGER_DTYPES = ["int8", "int16", "int32", "int64", "uint8", "uint16",
                  "uint32", "uint64"]


class _SortedIndex(_BuildIndex):
    """The binary-search index whatever the keys' span."""

    def _index_dense(self, values: np.ndarray) -> bool:
        return False


def assert_index_parity(build: Batch, probe: list, keys: list[str]
                        ) -> _BuildIndex:
    expect_probe, expect_build = oracle_probe(build, probe, keys)
    expect_matched = np.zeros(len(probe[0]), dtype=bool)
    expect_matched[expect_probe] = True
    index, sorted_index = _BuildIndex(build, keys), _SortedIndex(build, keys)
    for candidate in (index, sorted_index):
        probe_pos, build_pos = candidate.probe(probe)
        assert probe_pos.tolist() == expect_probe
        assert build_pos.tolist() == expect_build
        assert candidate.matched(probe).tolist() == expect_matched.tolist()
        # the memory rule: never more than a sorted int64 key and order
        assert candidate.nbytes <= 16 * len(build)
    assert not sorted_index.dense
    if index.dense:
        # no more bytes than the sorted pair it replaces, not beside it
        assert index.nbytes <= sorted_index.nbytes
        assert index._sorted is None
    return index


# ----------------------------------------------------------------------
# one integer key column, of every integer dtype and DATE
# ----------------------------------------------------------------------
@st.composite
def integer_joins(draw):
    dtype = np.dtype(draw(st.sampled_from(INTEGER_DTYPES
                                          + [t.DATE.numpy_dtype])))
    info = np.iinfo(dtype)
    rows = draw(st.integers(0, 40))
    # spans around the dense bounds (4 per row for 8-byte keys, 3 for
    # 4-byte ones) and far past them
    bounds = [t.DENSE_SPAN_PER_ROW * rows, 3 * rows]
    span = draw(st.one_of(st.sampled_from([max(bound + step, 1)
                                           for bound in bounds
                                           for step in (-1, 0, 1)]),
                          st.integers(1, 6 * rows + 2)))
    span = max(1, min(span, info.max - info.min + 1))
    lo = draw(st.one_of(st.just(int(info.min)),
                        st.just(int(info.max) - span + 1),
                        st.integers(int(info.min),
                                    int(info.max) - span + 1)))
    offsets = draw(st.lists(st.integers(0, span - 1), min_size=rows,
                            max_size=rows))
    if rows >= 2 and draw(st.booleans()):
        # pin the span: its ends both present
        offsets[0], offsets[-1] = 0, span - 1
    values = np.array([lo + offset for offset in offsets], dtype=dtype)
    # probes: build keys, their neighbours (in and out of the range)
    # and the dtype's extremes
    pool = [lo - 1, lo, lo + span - 1, lo + span, int(info.min),
            int(info.max)] + [lo + offset for offset in offsets]
    pool = [v for v in pool if info.min <= v <= info.max]
    probe = draw(st.lists(st.sampled_from(pool), max_size=30))
    probe_dtype = draw(st.sampled_from([dtype, np.dtype("int64")]))
    inside = [v for v in probe if np.iinfo(probe_dtype).min <= v
              <= np.iinfo(probe_dtype).max]
    return values, np.array(inside, dtype=probe_dtype)


@settings(max_examples=400, deadline=None)
@given(case=integer_joins())
def test_single_integer_key(case):
    values, probe = case
    index = assert_index_parity(Batch({"k": values}), [probe], ["k"])
    # a key that occurs twice keeps the sorted index
    assert not index.dense or len(set(values.tolist())) == len(values)


def test_dense_route_is_taken_within_the_bound_only():
    """Unique keys: an int32 row per value of the span fits in the
    sorted keys and their int64 order up to 4 values per row for int64
    keys (``DENSE_SPAN_PER_ROW``) and 3 for DATE's int32."""
    rows = 50
    for dtype, per_row in (("int64", t.DENSE_SPAN_PER_ROW),
                           (t.DATE.numpy_dtype, 3)):
        for span, dense in ((per_row * rows, True),
                            (per_row * rows + 1, False)):
            values = np.linspace(0, span - 1, rows).astype(dtype)
            assert len(np.unique(values)) == rows
            index = assert_index_parity(Batch({"k": values}),
                                        [np.arange(-2, span + 2)], ["k"])
            assert index.dense is dense


def test_int64_extremes_together():
    info = np.iinfo(np.int64)
    values = np.array([info.max, info.min, 0, info.max], dtype=np.int64)
    probe = np.array([info.min, info.max, -1, 0, 1], dtype=np.int64)
    index = assert_index_parity(Batch({"k": values}), [probe], ["k"])
    assert not index.dense


def test_empty_build_side():
    for dtype in ("int64", "uint8"):
        build = Batch({"k": np.array([], dtype=dtype)})
        assert_index_parity(build, [np.array([0, 1], dtype=dtype)], ["k"])


@settings(max_examples=200, deadline=None)
@given(keys=st.lists(st.integers(-10, 10), max_size=21, unique=True),
       duplicate=st.booleans(),
       probe=st.lists(st.one_of(st.integers(-12, 12).map(float),
                                st.floats(-12, 12),
                                st.sampled_from([float("nan"), float("inf"),
                                                 -2.0 ** 64, 2.0 ** 63])),
                      max_size=30))
@example(keys=list(range(-3, 4)), duplicate=False, probe=[0.5, -0.5, 0.0])
def test_float_probe_of_an_integer_key(keys, duplicate, probe):
    """Only an integral float inside int64 finds an integer key; unique
    keys (dense whenever they span at most 4 values per row) or one
    key twice (sorted)."""
    values = np.array(keys + keys[:1] * duplicate, dtype=np.int64)
    assert_index_parity(Batch({"k": values}), [np.array(probe)], ["k"])


# ----------------------------------------------------------------------
# packed keys: two columns, their radix codes dense or not
# ----------------------------------------------------------------------
@settings(max_examples=200, deadline=None)
@given(rows=st.lists(st.tuples(st.integers(-3, 3), st.integers(0, 40)),
                     max_size=40),
       probe=st.lists(st.tuples(st.integers(-4, 4), st.integers(-1, 41)),
                      max_size=30),
       string=st.booleans())
def test_packed_two_column_keys(rows, probe, string):
    def columns(pairs):
        first = np.array([a for a, _ in pairs], dtype=np.int64)
        second = np.array([b for _, b in pairs], dtype=np.int64)
        if string:
            second = np.array([f"s{b}" for b in second.tolist()],
                              dtype=object)
        return first, second

    a, b = columns(rows)
    assert_index_parity(Batch({"a": a, "b": b}), list(columns(probe)),
                        ["a", "b"])


# ----------------------------------------------------------------------
# short-circuit AND / OR == full evaluation
# ----------------------------------------------------------------------
@st.composite
def batches(draw):
    rows = draw(st.integers(0, 30))
    ints = st.lists(st.integers(-5, 5), min_size=rows, max_size=rows)
    names = st.lists(st.sampled_from(["ab", "ba", "abc", ""]),
                     min_size=rows, max_size=rows)
    return Batch({
        "a": np.array(draw(ints), dtype=np.int64),
        "b": np.array(draw(ints), dtype=np.int64),
        "f": np.array(draw(ints), dtype=np.float64) / 2,
        "s": np.array(draw(names), dtype=object),
        "flag": np.array([v > 0 for v in draw(ints)], dtype=bool),
    })


def leaves():
    number = st.integers(-5, 5)
    return st.one_of(
        st.builds(lambda op, c, v: Cmp(op, Col(c), Lit(v)),
                  st.sampled_from(["=", "<>", "<", "<=", ">", ">="]),
                  st.sampled_from(["a", "b", "f"]), number),
        st.builds(lambda op: Cmp(op, Col("a"), Col("b")),
                  st.sampled_from(["=", "<", ">="])),
        st.builds(lambda values, negated: InList(Col("a"), values,
                                                 negated),
                  st.lists(number, max_size=3), st.booleans()),
        st.builds(lambda pattern: Like(Col("s"), pattern),
                  st.sampled_from(["a%", "%b", "%", "ab"])),
        st.builds(lambda value: Cmp("=", Col("s"), Lit(value)),
                  st.sampled_from(["ab", "x"])),
        st.just(Col("flag")),
        st.sampled_from([Lit(True), Lit(False)]),
    )


predicates = st.recursive(
    leaves(),
    lambda inner: st.one_of(
        st.lists(inner, min_size=2, max_size=4).map(And),
        st.lists(inner, min_size=2, max_size=4).map(Or),
        inner.map(Not)),
    max_leaves=12)


def full_eval(expr, batch: Batch) -> np.ndarray:
    """Every operand over every row, combined afterwards."""
    if isinstance(expr, (And, Or)):
        combine = np.logical_and if isinstance(expr, And) \
            else np.logical_or
        masks = [full_eval(arg, batch) for arg in expr.args]
        return combine.reduce(masks) if len(batch) else \
            np.zeros(0, dtype=bool)
    if isinstance(expr, Not):
        return ~full_eval(expr.arg, batch)
    return np.asarray(expr.eval(batch), dtype=bool)


@settings(max_examples=500, deadline=None)
@given(batch=batches(), predicate=predicates)
def test_short_circuit_equals_full_evaluation(batch, predicate):
    before = {name: array.copy() for name, array in batch.arrays.items()}
    got = np.asarray(predicate.eval(batch), dtype=bool)
    want = full_eval(predicate, batch)
    assert got.dtype == bool and len(got) == len(batch)
    assert got.tolist() == want.tolist()
    # scattering into the mask never writes through to a column
    for name, array in batch.arrays.items():
        assert array.tolist() == before[name].tolist()


def test_decided_rows_are_never_evaluated():
    """Rows the first conjunct rules out reach no later operand, and an
    operand sees only the columns it references."""
    seen: list[tuple[int, list[str]]] = []

    class Spy(Cmp):
        def eval(self, batch):
            seen.append((len(batch), sorted(batch.names)))
            return super().eval(batch)

    batch = Batch({"a": np.arange(10), "b": np.arange(10) * 2,
                   "s": np.array(["x"] * 10, dtype=object)})
    conjunction = And([Cmp("<", Col("a"), Lit(3)),
                       Spy(">=", Col("b"), Lit(0))])
    assert conjunction.eval(batch).tolist() == [True] * 3 + [False] * 7
    disjunction = Or([Cmp("<", Col("a"), Lit(3)),
                      Spy("=", Col("b"), Lit(8))])
    assert np.flatnonzero(disjunction.eval(batch)).tolist() == [0, 1, 2, 4]
    assert seen == [(3, ["b"]), (7, ["b"])]
    # every row still undecided: the whole batch, no gather
    seen.clear()
    And([Cmp(">=", Col("a"), Lit(0)), Spy("<", Col("b"), Lit(0))]) \
        .eval(batch)
    assert seen == [(10, ["a", "b", "s"])]
