"""Expression AST with vectorized evaluation and canonical keys.

Three capabilities matter to the rest of the system:

* ``eval(batch)``: vectorized numpy evaluation against a record batch;
* ``key(mapping)``: a canonical, hashable representation of the expression
  with column names translated through a query->graph name mapping — this
  is what recycler-graph matching compares (paper Section III-A, the
  ``matches_e`` parameter test);
* ``skeleton()``: the same shape with column names blanked out — a
  mapping-independent value that feeds the per-node hash keys used to find
  matching candidates quickly.

Commutative operators canonicalize their operand order inside ``key`` so
that ``a = b`` matches ``b = a`` and conjunct order does not matter.

A literal that came from SQL text carries the *slot* of its token (see
:func:`slot_value`), and ``substituted(values)`` builds the expression
another text of the same statement template binds to.  Slots are no
part of ``key()``: they say where a value came from, not what it is.
"""

from __future__ import annotations

import re
from functools import lru_cache
from typing import Callable, Mapping, Sequence

import numpy as np

from ..columnar import types as t
from ..columnar.batch import Batch
from ..columnar.table import Schema
from ..errors import ExpressionError

NameMapping = Mapping[str, str]

_CMP_SWAP = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "=": "=", "<>": "<>"}


class Expr:
    """Base class for scalar expressions."""

    __slots__ = ()

    # -- interface ------------------------------------------------------
    def dtype(self, schema: Schema) -> t.DataType:
        raise NotImplementedError

    def eval(self, batch: Batch) -> np.ndarray:
        raise NotImplementedError

    def children(self) -> Sequence["Expr"]:
        return ()

    def columns(self) -> frozenset[str]:
        """All column names referenced anywhere in the expression."""
        out: set[str] = set()
        stack: list[Expr] = [self]
        while stack:
            node = stack.pop()
            if isinstance(node, Col):
                out.add(node.name)
            stack.extend(node.children())
        return frozenset(out)

    def key(self, mapping: NameMapping | None = None) -> tuple:
        """Canonical hashable form, column names mapped via ``mapping``."""
        raise NotImplementedError

    def skeleton(self) -> tuple:
        """Like :meth:`key` but with every column name blanked."""
        return skeleton_of(self.key())

    def rename(self, mapping: NameMapping) -> "Expr":
        """A copy with referenced columns renamed via ``mapping``."""
        raise NotImplementedError

    def substituted(self, values: Sequence[object]) -> "Expr":
        """The expression with every slot-tagged literal taking its
        slot's value from ``values`` (see :func:`slot_value`), rebuilt
        through the constructors and untagged.  A subtree that holds no
        tagged literal is returned as it is, not copied."""
        return self

    # -- sugar ----------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Expr):
            return NotImplemented
        return self.key() == other.key()

    def __hash__(self) -> int:
        return hash(self.key())


def skeleton_of(key: tuple) -> tuple:
    """``key`` (an expression's :meth:`Expr.key`) with every column name
    blanked: ``expr.skeleton()`` is ``skeleton_of(expr.key())``."""
    if len(key) == 2 and key[0] == "col":
        return ("col", "?")
    out = []
    for part in key:
        if isinstance(part, tuple):
            out.append(skeleton_of(part))
        else:
            out.append(part)
    return tuple(out)


def _mapped(name: str, mapping: NameMapping | None) -> str:
    if mapping is None:
        return name
    return mapping.get(name, name)


def slot_value(slot: int, values: Sequence[object]) -> object:
    """What a slot reference stands for given the literal ``values`` of
    a statement text: slot ``k >= 0`` is the ``k``-th literal, ``~k``
    its negation (the binder folds ``-5`` into one literal)."""
    return values[slot] if slot >= 0 else -values[~slot]


def slot_values(own: Sequence[object], slots: Sequence[int | None],
                values: Sequence[object]) -> list[object]:
    """``own`` with every value that came from a slot replaced by what
    the slot stands for in ``values`` (``IN`` lists, table-function
    arguments: raw values beside the slots they came from)."""
    return [mine if slot is None else slot_value(slot, values)
            for mine, slot in zip(own, slots)]


def all_substituted(items: Sequence, values: Sequence[object]
                    ) -> "list | None":
    """``items`` (expressions or aggregate specifications), each
    ``substituted(values)`` — or ``None`` when none of them changed."""
    out = [item.substituted(values) for item in items]
    for new, old in zip(out, items):
        if new is not old:
            return out
    return None


class Col(Expr):
    """A reference to an input column."""

    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        self.name = name

    def dtype(self, schema: Schema) -> t.DataType:
        return schema.type_of(self.name)

    def eval(self, batch: Batch) -> np.ndarray:
        return batch.column(self.name)

    def key(self, mapping: NameMapping | None = None) -> tuple:
        return ("col", _mapped(self.name, mapping))

    def rename(self, mapping: NameMapping) -> "Col":
        return Col(mapping.get(self.name, self.name))

    def __repr__(self) -> str:
        return self.name


class Lit(Expr):
    """A literal constant with an explicit type."""

    __slots__ = ("value", "_dtype", "slot")

    def __init__(self, value: object, dtype: t.DataType | None = None,
                 slot: int | None = None) -> None:
        if dtype is None:
            dtype = _infer_literal_type(value)
        self.value = value
        self._dtype = dtype
        #: where the value came from in the SQL text (:func:`slot_value`);
        #: ``None`` for a constant
        self.slot = slot

    @classmethod
    def date(cls, iso: str, slot: int | None = None) -> "Lit":
        """A DATE literal from an ISO string."""
        return cls(t.date_to_days(iso), t.DATE, slot)

    def negated(self) -> "Lit":
        """The literal ``-value`` (a numeric literal under unary minus)."""
        return Lit(-self.value,
                   slot=None if self.slot is None else ~self.slot)

    def dtype(self, schema: Schema) -> t.DataType:
        return self._dtype

    def eval(self, batch: Batch) -> np.ndarray:
        if self._dtype is t.STRING:
            out = np.empty(len(batch), dtype=object)
            out[:] = self.value
            return out
        return np.full(len(batch), self.value,
                       dtype=self._dtype.numpy_dtype)

    def key(self, mapping: NameMapping | None = None) -> tuple:
        return ("lit", self._dtype.name, self.value)

    def rename(self, mapping: NameMapping) -> "Lit":
        return self

    def substituted(self, values: Sequence[object]) -> "Lit":
        if self.slot is None:
            return self
        value = slot_value(self.slot, values)
        if self._dtype is t.INT64 and isinstance(value, float):
            # an integral float the optimizer typed INT64
            # (``normalize_literals``), as that rule writes it
            value = int(value)
        return Lit(value, self._dtype)

    def __repr__(self) -> str:
        if self._dtype is t.DATE:
            return f"date'{t.days_to_iso(self.value)}'"
        return repr(self.value)


def _infer_literal_type(value: object) -> t.DataType:
    if isinstance(value, bool):
        return t.BOOL
    if isinstance(value, int):
        return t.INT64
    if isinstance(value, float):
        return t.FLOAT64
    if isinstance(value, str):
        return t.STRING
    raise ExpressionError(f"cannot infer literal type of {value!r}")


_ARITH_FUNCS: dict[str, Callable] = {
    "+": np.add, "-": np.subtract, "*": np.multiply, "/": np.divide,
    "%": np.mod,
}


class Arith(Expr):
    """Binary arithmetic: ``+ - * / %``."""

    __slots__ = ("op", "left", "right")

    def __init__(self, op: str, left: Expr, right: Expr) -> None:
        if op not in _ARITH_FUNCS:
            raise ExpressionError(f"unknown arithmetic operator {op!r}")
        self.op = op
        self.left = left
        self.right = right

    def dtype(self, schema: Schema) -> t.DataType:
        lt, rt = self.left.dtype(schema), self.right.dtype(schema)
        if self.op == "/":
            return t.FLOAT64
        return t.common_numeric_type(lt, rt)

    def eval(self, batch: Batch) -> np.ndarray:
        left = self.left.eval(batch)
        right = self.right.eval(batch)
        result = _ARITH_FUNCS[self.op](left, right)
        return result

    def children(self) -> Sequence[Expr]:
        return (self.left, self.right)

    def key(self, mapping: NameMapping | None = None) -> tuple:
        lk, rk = self.left.key(mapping), self.right.key(mapping)
        if self.op in ("+", "*") and rk < lk:
            lk, rk = rk, lk  # commutative: canonical operand order
        return ("arith", self.op, lk, rk)

    def rename(self, mapping: NameMapping) -> "Arith":
        return Arith(self.op, self.left.rename(mapping),
                     self.right.rename(mapping))

    def substituted(self, values: Sequence[object]) -> "Arith":
        left = self.left.substituted(values)
        right = self.right.substituted(values)
        if left is self.left and right is self.right:
            return self
        return Arith(self.op, left, right)

    def __repr__(self) -> str:
        return f"({self.left!r} {self.op} {self.right!r})"


class Cmp(Expr):
    """Binary comparison: ``= <> < <= > >=`` (boolean result)."""

    __slots__ = ("op", "left", "right")

    _FUNCS = {"=": np.equal, "<>": np.not_equal, "<": np.less,
              "<=": np.less_equal, ">": np.greater, ">=": np.greater_equal}

    def __init__(self, op: str, left: Expr, right: Expr) -> None:
        if op not in self._FUNCS:
            raise ExpressionError(f"unknown comparison operator {op!r}")
        self.op = op
        self.left = left
        self.right = right

    def dtype(self, schema: Schema) -> t.DataType:
        return t.BOOL

    def eval(self, batch: Batch) -> np.ndarray:
        left = self.left.eval(batch)
        right = self.right.eval(batch)
        return np.asarray(self._FUNCS[self.op](left, right), dtype=bool)

    def children(self) -> Sequence[Expr]:
        return (self.left, self.right)

    def key(self, mapping: NameMapping | None = None) -> tuple:
        lk, rk = self.left.key(mapping), self.right.key(mapping)
        op = self.op
        # Canonicalize: symmetric ops order operands; strict/loose
        # inequalities normalize so the lexicographically smaller key is on
        # the left.
        if op in ("=", "<>"):
            if rk < lk:
                lk, rk = rk, lk
        elif rk < lk:
            lk, rk = rk, lk
            op = _CMP_SWAP[op]
        return ("cmp", op, lk, rk)

    def rename(self, mapping: NameMapping) -> "Cmp":
        return Cmp(self.op, self.left.rename(mapping),
                   self.right.rename(mapping))

    def substituted(self, values: Sequence[object]) -> "Cmp":
        left = self.left.substituted(values)
        right = self.right.substituted(values)
        if left is self.left and right is self.right:
            return self
        return Cmp(self.op, left, right)

    def __repr__(self) -> str:
        return f"({self.left!r} {self.op} {self.right!r})"


class And(Expr):
    """N-ary conjunction, short-circuit (:func:`_short_circuit`)."""

    __slots__ = ("args",)

    def __init__(self, args: Sequence[Expr]) -> None:
        if not args:
            raise ExpressionError("AND requires at least one operand")
        flattened: list[Expr] = []
        for a in args:
            if isinstance(a, And):
                flattened.extend(a.args)
            else:
                flattened.append(a)
        self.args = tuple(flattened)

    def dtype(self, schema: Schema) -> t.DataType:
        return t.BOOL

    def eval(self, batch: Batch) -> np.ndarray:
        return _short_circuit(self.args, batch, undecided=True)

    def children(self) -> Sequence[Expr]:
        return self.args

    def key(self, mapping: NameMapping | None = None) -> tuple:
        return ("and", tuple(sorted(a.key(mapping) for a in self.args)))

    def rename(self, mapping: NameMapping) -> "And":
        return And([a.rename(mapping) for a in self.args])

    def substituted(self, values: Sequence[object]) -> "And":
        args = all_substituted(self.args, values)
        return self if args is None else And(args)

    def __repr__(self) -> str:
        return "(" + " AND ".join(map(repr, self.args)) + ")"


class Or(Expr):
    """N-ary disjunction, short-circuit (:func:`_short_circuit`)."""

    __slots__ = ("args",)

    def __init__(self, args: Sequence[Expr]) -> None:
        if not args:
            raise ExpressionError("OR requires at least one operand")
        flattened: list[Expr] = []
        for a in args:
            if isinstance(a, Or):
                flattened.extend(a.args)
            else:
                flattened.append(a)
        self.args = tuple(flattened)

    def dtype(self, schema: Schema) -> t.DataType:
        return t.BOOL

    def eval(self, batch: Batch) -> np.ndarray:
        return _short_circuit(self.args, batch, undecided=False)

    def children(self) -> Sequence[Expr]:
        return self.args

    def key(self, mapping: NameMapping | None = None) -> tuple:
        return ("or", tuple(sorted(a.key(mapping) for a in self.args)))

    def rename(self, mapping: NameMapping) -> "Or":
        return Or([a.rename(mapping) for a in self.args])

    def substituted(self, values: Sequence[object]) -> "Or":
        args = all_substituted(self.args, values)
        return self if args is None else Or(args)

    def __repr__(self) -> str:
        return "(" + " OR ".join(map(repr, self.args)) + ")"


def _short_circuit(args: Sequence[Expr], batch: Batch,
                   undecided: bool) -> np.ndarray:
    """``AND`` (``undecided=True``) or ``OR`` (``undecided=False``) of
    ``args`` over ``batch``, each operand after the first evaluated
    only on the rows the ones before it left undecided — those still
    true under ``AND``, still false under ``OR``.

    The identity it rests on: a row ``AND`` has found false (``OR``
    true) keeps that value whatever the remaining operands say, and
    every operand is row-wise, so evaluating it on a subset of the rows
    gives those rows' values.  An operand runs on the batch narrowed to
    the undecided rows of just the columns it references, its result
    scattered back into the mask; while every row is undecided it runs
    on the whole batch, with no gather.
    """
    # a copy: the operands' values are written into it
    result = np.array(args[0].eval(batch), dtype=bool)
    for arg in args[1:]:
        rows = np.flatnonzero(result if undecided else ~result)
        if len(rows) == 0:
            break
        if len(rows) == len(result):
            result[:] = arg.eval(batch)
            continue
        names = arg.columns()
        if names:
            narrowed = Batch._aligned({name: batch.column(name)[rows]
                                       for name in names})
            values = arg.eval(narrowed)
        else:  # a literal operand: no column to narrow the batch by
            values = np.asarray(arg.eval(batch))[rows]
        result[rows] = values
    return result


class Not(Expr):
    """Boolean negation."""

    __slots__ = ("arg",)

    def __init__(self, arg: Expr) -> None:
        self.arg = arg

    def dtype(self, schema: Schema) -> t.DataType:
        return t.BOOL

    def eval(self, batch: Batch) -> np.ndarray:
        return ~np.asarray(self.arg.eval(batch), dtype=bool)

    def children(self) -> Sequence[Expr]:
        return (self.arg,)

    def key(self, mapping: NameMapping | None = None) -> tuple:
        return ("not", self.arg.key(mapping))

    def rename(self, mapping: NameMapping) -> "Not":
        return Not(self.arg.rename(mapping))

    def substituted(self, values: Sequence[object]) -> "Not":
        arg = self.arg.substituted(values)
        return self if arg is self.arg else Not(arg)

    def __repr__(self) -> str:
        return f"(NOT {self.arg!r})"


class InList(Expr):
    """Membership test against a literal value list.

    SQL three-valued-logic edge cases are folded into two-valued
    results the way a NULL-free engine must: an empty ``IN ()`` is
    uniformly false and an empty ``NOT IN ()`` uniformly true, and a
    ``NOT IN`` probe over a float column treats NaN as *unknown* — a
    NaN operand is excluded from the result (``NaN NOT IN (…)`` is not
    true), matching the fact that ``NaN = v`` is already false for
    every ``v`` on the positive side.
    """

    __slots__ = ("arg", "values", "negated", "slots")

    def __init__(self, arg: Expr, values: Sequence[object],
                 negated: bool = False,
                 slots: Sequence[int | None] | None = None) -> None:
        self.arg = arg
        self.values = tuple(values)
        self.negated = bool(negated)
        #: per value, the slot it came from (as :attr:`Lit.slot`);
        #: ``None`` when no value is tagged
        self.slots = tuple(slots) if slots is not None else None

    def dtype(self, schema: Schema) -> t.DataType:
        return t.BOOL

    def eval(self, batch: Batch) -> np.ndarray:
        data = self.arg.eval(batch)
        result = np.zeros(len(data), dtype=bool)
        for value in self.values:
            result |= np.asarray(data == value, dtype=bool)
        if not self.negated:
            return result
        result = ~result
        arr = np.asarray(data)
        # NaN is only *unknown* when a comparison actually happens; the
        # empty NOT IN () is a vacuous conjunction and stays all-true.
        if self.values and arr.dtype.kind == "f":
            result &= ~np.isnan(arr)
        return result

    def children(self) -> Sequence[Expr]:
        return (self.arg,)

    def key(self, mapping: NameMapping | None = None) -> tuple:
        # keep the historical key for the non-negated form so existing
        # cache fingerprints survive; negation gets a distinct suffix.
        base = ("in", self.arg.key(mapping),
                tuple(sorted(self.values, key=repr)))
        if self.negated:
            return base + ("not",)
        return base

    def rename(self, mapping: NameMapping) -> "InList":
        return InList(self.arg.rename(mapping), self.values, self.negated,
                      self.slots)

    def substituted(self, values: Sequence[object]) -> "InList":
        arg = self.arg.substituted(values)
        if self.slots is None:
            return self if arg is self.arg else \
                InList(arg, self.values, self.negated)
        return InList(arg, slot_values(self.values, self.slots, values),
                      self.negated)

    def __repr__(self) -> str:
        op = "NOT IN" if self.negated else "IN"
        return f"({self.arg!r} {op} {list(self.values)!r})"


@lru_cache(maxsize=512)
def _like_to_regex(pattern: str) -> re.Pattern:
    """Compile a LIKE pattern; cached so the plan-rewrite machinery
    (``rename`` builds fresh ``Like`` nodes on every reuse
    substitution) never recompiles a pattern it has seen."""
    parts = []
    for chunk in re.split(r"([%_])", pattern):
        if chunk == "%":
            parts.append(".*")
        elif chunk == "_":
            parts.append(".")
        else:
            parts.append(re.escape(chunk))
    return re.compile("^" + "".join(parts) + "$")


@lru_cache(maxsize=512)
def _classify_like(pattern: str) -> tuple[str, str]:
    """Map a LIKE pattern onto a cheaper string primitive when its
    shape allows: ``("exact", s)`` for wildcard-free patterns, then
    ``("prefix", s)`` for ``s%``, ``("suffix", s)`` for ``%s``,
    ``("contains", s)`` for ``%s%``, else ``("regex", pattern)``."""
    def literal(s: str) -> bool:
        return "%" not in s and "_" not in s

    if literal(pattern):
        return ("exact", pattern)
    if pattern.endswith("%") and literal(pattern[:-1]):
        return ("prefix", pattern[:-1])
    if pattern.startswith("%") and literal(pattern[1:]):
        return ("suffix", pattern[1:])
    if len(pattern) >= 2 and pattern.startswith("%") \
            and pattern.endswith("%") and literal(pattern[1:-1]):
        return ("contains", pattern[1:-1])
    return ("regex", pattern)


class Like(Expr):
    """SQL ``LIKE`` with ``%`` and ``_`` wildcards (literal pattern).

    Patterns whose shape allows it skip the regex engine entirely:
    wildcard-free patterns become one vectorized equality, and
    ``s%`` / ``%s`` / ``%s%`` use ``str.startswith`` / ``str.endswith``
    / ``in`` — several times cheaper per row than ``re.match``.
    Everything else (inner ``%``, any ``_``) takes the compiled-regex
    path, with compilation cached per pattern (:func:`_like_to_regex`).
    The pattern is classified when the node is evaluated, not built: the
    optimizer's check of a statement template builds nodes over a
    placeholder pattern that are never evaluated.
    """

    __slots__ = ("arg", "pattern", "negated", "slot")

    def __init__(self, arg: Expr, pattern: str, negated: bool = False,
                 slot: int | None = None) -> None:
        self.arg = arg
        self.pattern = pattern
        self.negated = negated
        #: the slot the pattern came from (as :attr:`Lit.slot`)
        self.slot = slot

    def dtype(self, schema: Schema) -> t.DataType:
        return t.BOOL

    def eval(self, batch: Batch) -> np.ndarray:
        data = self.arg.eval(batch)
        kind, literal = _classify_like(self.pattern)
        if kind == "exact":
            result = np.asarray(data == literal, dtype=bool)
        elif kind == "prefix":
            result = np.fromiter((v.startswith(literal) for v in data),
                                 dtype=bool, count=len(data))
        elif kind == "suffix":
            result = np.fromiter((v.endswith(literal) for v in data),
                                 dtype=bool, count=len(data))
        elif kind == "contains":
            result = np.fromiter((literal in v for v in data),
                                 dtype=bool, count=len(data))
        else:
            match = _like_to_regex(self.pattern).match
            result = np.fromiter((match(v) is not None for v in data),
                                 dtype=bool, count=len(data))
        return ~result if self.negated else result

    def children(self) -> Sequence[Expr]:
        return (self.arg,)

    def key(self, mapping: NameMapping | None = None) -> tuple:
        return ("like", self.arg.key(mapping), self.pattern, self.negated)

    def rename(self, mapping: NameMapping) -> "Like":
        return Like(self.arg.rename(mapping), self.pattern, self.negated,
                    self.slot)

    def substituted(self, values: Sequence[object]) -> "Like":
        arg = self.arg.substituted(values)
        if self.slot is None:
            return self if arg is self.arg else \
                Like(arg, self.pattern, self.negated)
        return Like(arg, slot_value(self.slot, values), self.negated)

    def __repr__(self) -> str:
        op = "NOT LIKE" if self.negated else "LIKE"
        return f"({self.arg!r} {op} {self.pattern!r})"


class Func(Expr):
    """A scalar function call.

    Supported functions (all vectorized):

    ``year``, ``month``, ``yearmonth`` (DATE -> INT64 bins),
    ``abs``, ``round``, ``floor`` (numeric), ``bin`` (``bin(x, width)`` =
    ``floor(x / width)`` — binning helper), ``substr`` (1-based
    ``substr(s, start, length)``), ``length``, ``upper``, ``lower``,
    ``startswith(s, prefix)``, ``min2``/``max2`` (two-argument scalar
    min/max), ``extract_days`` (DATE -> raw day count).
    """

    __slots__ = ("name", "args")

    _NUMERIC_RESULT = {"abs", "round", "floor", "min2", "max2"}

    def __init__(self, name: str, args: Sequence[Expr]) -> None:
        self.name = name.lower()
        self.args = tuple(args)
        _check_function_arity(self.name, len(self.args))

    def dtype(self, schema: Schema) -> t.DataType:
        name = self.name
        if name in ("year", "month", "yearmonth", "length", "bin",
                    "extract_days", "floor"):
            return t.INT64
        if name in ("substr", "upper", "lower"):
            return t.STRING
        if name == "startswith":
            return t.BOOL
        if name in ("abs", "round", "min2", "max2"):
            return self.args[0].dtype(schema)
        raise ExpressionError(f"unknown function {self.name!r}")

    def eval(self, batch: Batch) -> np.ndarray:
        name = self.name
        first = self.args[0].eval(batch)
        if name == "year":
            return t.years_of(first)
        if name == "month":
            return t.months_of(first)
        if name == "yearmonth":
            return t.year_month_of(first)
        if name == "extract_days":
            return np.asarray(first, dtype=np.int64)
        if name == "abs":
            return np.abs(first)
        if name == "round":
            digits = int(_literal_arg(self.args[1])) if len(self.args) > 1 \
                else 0
            return np.round(first, digits)
        if name == "floor":
            return np.floor(first).astype(np.int64)
        if name == "bin":
            width = int(_literal_arg(self.args[1]))
            return np.floor_divide(np.asarray(first, dtype=np.int64), width)
        if name == "length":
            return np.fromiter((len(v) for v in first), dtype=np.int64,
                               count=len(first))
        if name == "upper":
            out = np.empty(len(first), dtype=object)
            out[:] = [v.upper() for v in first]
            return out
        if name == "lower":
            out = np.empty(len(first), dtype=object)
            out[:] = [v.lower() for v in first]
            return out
        if name == "substr":
            start = int(_literal_arg(self.args[1]))
            length = int(_literal_arg(self.args[2]))
            lo = start - 1
            out = np.empty(len(first), dtype=object)
            out[:] = [v[lo:lo + length] for v in first]
            return out
        if name == "startswith":
            prefix = str(_literal_arg(self.args[1]))
            return np.fromiter((v.startswith(prefix) for v in first),
                               dtype=bool, count=len(first))
        if name == "min2":
            return np.minimum(first, self.args[1].eval(batch))
        if name == "max2":
            return np.maximum(first, self.args[1].eval(batch))
        raise ExpressionError(f"unknown function {self.name!r}")

    def children(self) -> Sequence[Expr]:
        return self.args

    def key(self, mapping: NameMapping | None = None) -> tuple:
        return ("func", self.name,
                tuple(a.key(mapping) for a in self.args))

    def rename(self, mapping: NameMapping) -> "Func":
        return Func(self.name, [a.rename(mapping) for a in self.args])

    def substituted(self, values: Sequence[object]) -> "Func":
        args = all_substituted(self.args, values)
        return self if args is None else Func(self.name, args)

    def __repr__(self) -> str:
        return f"{self.name}({', '.join(map(repr, self.args))})"


_FUNCTION_ARITY = {
    "year": (1, 1), "month": (1, 1), "yearmonth": (1, 1),
    "extract_days": (1, 1), "abs": (1, 1), "round": (1, 2),
    "floor": (1, 1), "bin": (2, 2), "length": (1, 1), "upper": (1, 1),
    "lower": (1, 1), "substr": (3, 3), "startswith": (2, 2),
    "min2": (2, 2), "max2": (2, 2),
}


def _check_function_arity(name: str, arity: int) -> None:
    bounds = _FUNCTION_ARITY.get(name)
    if bounds is None:
        raise ExpressionError(f"unknown function {name!r}")
    low, high = bounds
    if not low <= arity <= high:
        raise ExpressionError(
            f"function {name!r} takes {low}..{high} arguments, got {arity}")


def _literal_arg(expr: Expr) -> object:
    if not isinstance(expr, Lit):
        raise ExpressionError(
            f"argument {expr!r} must be a literal constant")
    return expr.value


class Case(Expr):
    """``CASE WHEN cond THEN value ... ELSE other END``.

    All branch values must share a type; the ELSE branch is mandatory at
    this level (SQL's implicit NULL default does not exist in this
    NULL-free engine — the binder supplies an explicit zero/empty).
    """

    __slots__ = ("whens", "otherwise")

    def __init__(self, whens: Sequence[tuple[Expr, Expr]],
                 otherwise: Expr) -> None:
        if not whens:
            raise ExpressionError("CASE requires at least one WHEN")
        self.whens = [(c, v) for c, v in whens]
        self.otherwise = otherwise

    def dtype(self, schema: Schema) -> t.DataType:
        return self.whens[0][1].dtype(schema)

    def eval(self, batch: Batch) -> np.ndarray:
        branches = [value.eval(batch) for _, value in self.whens]
        result = self.otherwise.eval(batch)
        if result.dtype.kind != "O":
            # Promote to the common numeric type of all branches so an
            # integer ELSE 0 does not truncate float THEN values.
            common = np.result_type(result,
                                    *[b for b in branches
                                      if b.dtype.kind != "O"])
            result = np.array(result, dtype=common, copy=True)
        else:
            result = result.copy()
        taken = np.zeros(len(batch), dtype=bool)
        for (condition, _), values in zip(self.whens, branches):
            mask = np.asarray(condition.eval(batch), dtype=bool) & ~taken
            if mask.any():
                result[mask] = values[mask]
            taken |= mask
        return result

    def children(self) -> Sequence[Expr]:
        out: list[Expr] = []
        for condition, value in self.whens:
            out.append(condition)
            out.append(value)
        out.append(self.otherwise)
        return out

    def key(self, mapping: NameMapping | None = None) -> tuple:
        return ("case",
                tuple((c.key(mapping), v.key(mapping))
                      for c, v in self.whens),
                self.otherwise.key(mapping))

    def rename(self, mapping: NameMapping) -> "Case":
        return Case([(c.rename(mapping), v.rename(mapping))
                     for c, v in self.whens],
                    self.otherwise.rename(mapping))

    def substituted(self, values: Sequence[object]) -> "Case":
        parts = all_substituted(self.children(), values)
        if parts is None:
            return self
        return Case(list(zip(parts[:-1:2], parts[1:-1:2])), parts[-1])

    def __repr__(self) -> str:
        parts = " ".join(f"WHEN {c!r} THEN {v!r}" for c, v in self.whens)
        return f"(CASE {parts} ELSE {self.otherwise!r} END)"


# ----------------------------------------------------------------------
# aggregate specifications (not scalar expressions; consumed by Aggregate)
# ----------------------------------------------------------------------
AGG_FUNCTIONS = ("sum", "count", "avg", "min", "max", "count_star",
                 "count_distinct")


class AggSpec:
    """One aggregate output of a GROUP BY operator."""

    __slots__ = ("func", "arg", "name")

    def __init__(self, func: str, arg: Expr | None, name: str) -> None:
        func = func.lower()
        if func not in AGG_FUNCTIONS:
            raise ExpressionError(f"unknown aggregate {func!r}")
        if func == "count_star":
            arg = None
        elif arg is None:
            raise ExpressionError(f"aggregate {func!r} requires an argument")
        self.func = func
        self.arg = arg
        self.name = name

    def dtype(self, schema: Schema) -> t.DataType:
        if self.func in ("count", "count_star", "count_distinct"):
            return t.INT64
        if self.func == "avg":
            return t.FLOAT64
        assert self.arg is not None
        arg_type = self.arg.dtype(schema)
        if self.func == "sum":
            return t.FLOAT64 if arg_type is t.FLOAT64 else t.INT64
        return arg_type  # min / max preserve the input type

    def key(self, mapping: NameMapping | None = None) -> tuple:
        arg_key = self.arg.key(mapping) if self.arg is not None else ()
        return ("agg", self.func, arg_key)

    def rename(self, mapping: NameMapping) -> "AggSpec":
        arg = self.arg.rename(mapping) if self.arg is not None else None
        return AggSpec(self.func, arg, self.name)

    def substituted(self, values: Sequence[object]) -> "AggSpec":
        """As :meth:`Expr.substituted`, on the argument."""
        if self.arg is None:
            return self
        arg = self.arg.substituted(values)
        return self if arg is self.arg else AggSpec(self.func, arg, self.name)

    def with_name(self, name: str) -> "AggSpec":
        return AggSpec(self.func, self.arg, name)

    def __repr__(self) -> str:
        inner = repr(self.arg) if self.arg is not None else "*"
        return f"{self.func}({inner}) AS {self.name}"
