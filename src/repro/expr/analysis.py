"""Predicate analysis: conjunct splitting and single-column range extraction.

These utilities feed the subsumption implication test and the proactive
binning rule, which both need to reason about what a selection predicate
constrains — and the recycler's moving-window step, which drops the
range conjuncts a snapshot's column statistics prove true of every row
(:func:`window_bound`).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from ..columnar import types as t
from ..columnar.table import Schema
from .nodes import And, Cmp, Col, Expr, InList, Lit

#: Sentinels for unbounded range endpoints.
NEG_INF = object()
POS_INF = object()


def split_conjuncts(pred: Expr) -> list[Expr]:
    """Flatten a predicate into its top-level AND conjuncts."""
    if isinstance(pred, And):
        out: list[Expr] = []
        for arg in pred.args:
            out.extend(split_conjuncts(arg))
        return out
    return [pred]


def conjoin(conjuncts: list[Expr]) -> Expr:
    """Inverse of :func:`split_conjuncts` (requires >= 1 conjunct)."""
    if len(conjuncts) == 1:
        return conjuncts[0]
    return And(conjuncts)


@dataclass
class ColumnRange:
    """A conjunction of constraints on one column.

    ``low``/``high`` are literal values or the infinity sentinels;
    ``values`` is a finite allowed set when equality/IN constraints were
    seen (``None`` means unconstrained by equalities).
    """

    column: str
    low: object = NEG_INF
    low_inclusive: bool = True
    high: object = POS_INF
    high_inclusive: bool = True
    values: frozenset | None = None

    def tighten_low(self, bound: object, inclusive: bool) -> "ColumnRange":
        if self.low is NEG_INF or bound > self.low or \
                (bound == self.low and not inclusive):
            return replace(self, low=bound, low_inclusive=inclusive)
        return self

    def tighten_high(self, bound: object, inclusive: bool) -> "ColumnRange":
        if self.high is POS_INF or bound < self.high or \
                (bound == self.high and not inclusive):
            return replace(self, high=bound, high_inclusive=inclusive)
        return self

    def restrict_values(self, allowed: frozenset) -> "ColumnRange":
        if self.values is None:
            return replace(self, values=allowed)
        return replace(self, values=self.values & allowed)

    # ------------------------------------------------------------------
    def contains_range(self, other: "ColumnRange") -> bool:
        """True when every value satisfying ``other`` satisfies ``self``.

        Conservative: returns ``False`` when containment cannot be proven.
        """
        if self.values is not None:
            if other.values is None or not other.values <= self.values:
                return False
        if self.low is not NEG_INF:
            if other.values is not None:
                if not all(_ge(v, self.low, self.low_inclusive)
                           for v in other.values):
                    return False
            elif other.low is NEG_INF:
                return False
            elif other.low < self.low:
                return False
            elif other.low == self.low and \
                    other.low_inclusive and not self.low_inclusive:
                return False
        if self.high is not POS_INF:
            if other.values is not None:
                if not all(_le(v, self.high, self.high_inclusive)
                           for v in other.values):
                    return False
            elif other.high is POS_INF:
                return False
            elif other.high > self.high:
                return False
            elif other.high == self.high and \
                    other.high_inclusive and not self.high_inclusive:
                return False
        return True


def _ge(value: object, bound: object, inclusive: bool) -> bool:
    return value >= bound if inclusive else value > bound


def _le(value: object, bound: object, inclusive: bool) -> bool:
    return value <= bound if inclusive else value < bound


def is_sargable_conjunct(expr: Expr) -> bool:
    """True when ``expr`` is a column-vs-literal range, equality, or IN
    conjunct — the class :func:`profile_predicate` turns into
    :class:`ColumnRange` constraints.  The plan optimizer's sargable/
    residual select split keys off this predicate."""
    return _parse_range_conjunct(expr) is not None


@dataclass
class PredicateProfile:
    """Decomposition of a predicate into per-column ranges + a residue.

    ``ranges`` holds the constraints that could be understood as
    column-vs-literal ranges or finite value sets; ``residual`` holds every
    conjunct that could not (joins of columns, ORs, functions, ...), kept
    by canonical key for equality checking.
    """

    ranges: dict[str, ColumnRange] = field(default_factory=dict)
    residual: list[Expr] = field(default_factory=list)

    def residual_keys(self) -> frozenset:
        return frozenset(c.key() for c in self.residual)


def profile_predicate(pred: Expr) -> PredicateProfile:
    """Analyze a predicate into a :class:`PredicateProfile`."""
    profile = PredicateProfile()
    for conjunct in split_conjuncts(pred):
        parsed = _parse_range_conjunct(conjunct)
        if parsed is None:
            profile.residual.append(conjunct)
            continue
        column, kind, payload = parsed
        current = profile.ranges.get(column, ColumnRange(column))
        if kind == "low":
            bound, inclusive = payload
            current = current.tighten_low(bound, inclusive)
        elif kind == "high":
            bound, inclusive = payload
            current = current.tighten_high(bound, inclusive)
        else:  # kind == "values"
            current = current.restrict_values(payload)
        profile.ranges[column] = current
    return profile


def _parse_range_conjunct(expr: Expr):
    """Recognize ``col <op> literal`` / ``literal <op> col`` / ``col IN``.

    Returns ``(column, kind, payload)`` or ``None`` when unrecognized.
    """
    if isinstance(expr, InList) and isinstance(expr.arg, Col) \
            and not expr.negated and expr.values:
        # NOT IN and the degenerate empty IN () are not range-shaped:
        # treating them as value restrictions would invert/annihilate
        # the profile, so they stay opaque to subsumption analysis.
        return expr.arg.name, "values", frozenset(expr.values)
    if not isinstance(expr, Cmp):
        return None
    left, right, op = expr.left, expr.right, expr.op
    if isinstance(left, Lit) and isinstance(right, Col):
        left, right = right, left
        op = {"<": ">", "<=": ">=", ">": "<", ">=": "<=",
              "=": "=", "<>": "<>"}[op]
    if not (isinstance(left, Col) and isinstance(right, Lit)):
        return None
    value = right.value
    if op == "=":
        return left.name, "values", frozenset([value])
    if op == "<":
        return left.name, "high", (value, False)
    if op == "<=":
        return left.name, "high", (value, True)
    if op == ">":
        return left.name, "low", (value, False)
    if op == ">=":
        return left.name, "low", (value, True)
    return None  # <> is treated as residual


def window_bound(conjunct: Expr, schema: Schema
                 ) -> tuple[str, bool, int] | None:
    """``(column, upper, limit)`` when ``conjunct`` is a range conjunct
    (``<``, ``<=``, ``>``, ``>=``, the literal on either side) of an
    INT64 or DATE column of ``schema`` against an integer literal — the
    class whose truth for every row a snapshot's exact min / max can
    prove: it holds for every value below ``limit`` (``upper``: ``<`` /
    ``<=``) or above it, so it holds for every row when the column's
    max lies below ``limit`` or its min above.  Never equality, ``<>``
    or ``IN``, and never a FLOAT column: its min / max skip NaN."""
    parsed = _parse_range_conjunct(conjunct)
    if parsed is None or parsed[1] == "values":
        return None
    column, kind, (bound, inclusive) = parsed
    if type(bound) is not int or \
            schema.type_of(column) not in (t.INT64, t.DATE):
        return None
    # integers: ``v <= b`` is ``v < b + 1``, ``v >= b`` is ``v > b - 1``
    if kind == "high":
        return column, True, bound + 1 if inclusive else bound
    return column, False, bound - 1 if inclusive else bound
