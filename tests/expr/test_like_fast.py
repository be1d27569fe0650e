"""LIKE fast paths: classification and parity against the regex engine.

``Like`` dispatches exact / prefix / suffix / contains patterns onto
vectorized string primitives; every fast path must agree with the
compiled-regex semantics on every input — including ``_`` wildcards,
empty patterns, empty strings, and NOT LIKE.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.columnar.batch import Batch
from repro.expr.nodes import Col, Like, _classify_like, _like_to_regex

VALUES = ["", "n", "n1", "n12", "xn1", "n1x", "abc", "a%c", "a_c",
          "nn1n", "N1", "ñ1", "n1" * 30]


def batch():
    arr = np.empty(len(VALUES), dtype=object)
    arr[:] = VALUES
    return Batch({"s": arr})


def regex_reference(pattern, negated=False):
    match = _like_to_regex(pattern).match
    rows = [match(v) is not None for v in VALUES]
    if negated:
        rows = [not r for r in rows]
    return rows


class TestClassification:
    @pytest.mark.parametrize("pattern,expected", [
        ("abc", ("exact", "abc")),
        ("", ("exact", "")),
        ("n1%", ("prefix", "n1")),
        ("%", ("prefix", "")),
        ("%n1", ("suffix", "n1")),
        ("%n1%", ("contains", "n1")),
        ("%%", ("contains", "")),
        ("n_1", ("regex", "n_1")),
        ("a%b%c", ("regex", "a%b%c")),
        ("%a_b%", ("regex", "%a_b%")),
        ("_", ("regex", "_")),
    ])
    def test_kind(self, pattern, expected):
        assert _classify_like(pattern) == expected


class TestParity:
    @pytest.mark.parametrize("pattern", [
        "n1", "", "abc", "zzz",          # exact
        "n%", "n1%", "%", "xyz%",        # prefix
        "%1", "%n", "%zzz",              # suffix
        "%n1%", "%%", "%zz%",            # contains
        "n_", "_1", "n%1", "%a_b%",      # regex fallback
    ])
    @pytest.mark.parametrize("negated", [False, True])
    def test_fast_path_matches_regex(self, pattern, negated):
        expr = Like(Col("s"), pattern, negated=negated)
        result = expr.eval(batch())
        assert result.dtype == np.bool_
        assert result.tolist() == regex_reference(pattern, negated)

    def test_empty_batch(self):
        arr = np.empty(0, dtype=object)
        for pattern in ("n1", "n%", "%n", "%n%", "n_"):
            result = Like(Col("s"), pattern).eval(Batch({"s": arr}))
            assert result.tolist() == []

    def test_percent_escaping_not_supported_but_literal_safe(self):
        # regex metacharacters in the pattern are escaped, not compiled
        expr = Like(Col("s"), "a%c")  # '%' wildcard, 'a'/'c' literal
        assert expr.eval(batch()).tolist() == regex_reference("a%c")
        exact = Like(Col("s"), "a.c")  # '.' must not act as regex dot
        assert exact.eval(batch()).tolist() == regex_reference("a.c")


class TestCaching:
    def test_rename_reuses_compiled_pattern(self):
        first = Like(Col("s"), "n1%")
        renamed = first.rename({"s": "t"})
        # evaluation classifies and compiles per pattern: lru_cache hits
        assert _like_to_regex(renamed.pattern) is \
            _like_to_regex(first.pattern)
        assert _classify_like(renamed.pattern) == ("prefix", "n1")
        values = np.array(["n1", "x"], dtype=object)
        assert renamed.eval(Batch({"t": values})).tolist() == [True, False]
