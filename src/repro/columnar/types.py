"""Column data types for the columnar substrate.

The engine supports a deliberately small but complete set of scalar types:

========  =======================  ======================================
Type      numpy representation     Notes
========  =======================  ======================================
INT64     ``int64``                integers, also used for keys
FLOAT64   ``float64``              all decimals (TPC-H prices etc.)
BOOL      ``bool_``                selection vectors, predicates
STRING    ``object`` (str)         dictionary-free variable width strings
DATE      ``int32``                days since 1970-01-01 (proleptic)
========  =======================  ======================================

Dates are plain day counts so that range predicates, binning (``year()``)
and arithmetic stay cheap and fully vectorized.
"""

from __future__ import annotations

import datetime as _dt
from dataclasses import dataclass

import numpy as np

from ..errors import TypeError_

_EPOCH = _dt.date(1970, 1, 1)


@dataclass(frozen=True, eq=False)
class DataType:
    """A scalar column type.

    Instances are interned module-level constants (:data:`INT64` etc.)
    and the only instances: they compare and hash by identity, so ``is``
    and ``==`` agree and a dict or set lookup by type hashes nothing.
    """

    name: str
    numpy_dtype: str
    fixed_width: int  # bytes per value; 0 means variable width (STRING)

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return self.name

    def __reduce__(self):
        # Pickling must preserve interning: plans (and the schemas they
        # embed) cross process boundaries in sharded execution, and every
        # ``dtype is STRING`` check would silently misclassify a
        # by-value copy.
        return (type_from_name, (self.name,))

    @property
    def is_numeric(self) -> bool:
        return self.name in ("INT64", "FLOAT64")

    @property
    def is_ordered(self) -> bool:
        """Whether values of this type support range comparisons."""
        return self.name in ("INT64", "FLOAT64", "DATE", "STRING")

    def empty(self, length: int = 0) -> np.ndarray:
        """Return an empty (zeroed) numpy array of this type."""
        if self is STRING:
            return np.empty(length, dtype=object)
        return np.zeros(length, dtype=self.numpy_dtype)


INT64 = DataType("INT64", "int64", 8)
FLOAT64 = DataType("FLOAT64", "float64", 8)
BOOL = DataType("BOOL", "bool", 1)
STRING = DataType("STRING", "object", 0)
DATE = DataType("DATE", "int32", 4)

ALL_TYPES = (INT64, FLOAT64, BOOL, STRING, DATE)
_BY_NAME = {t.name: t for t in ALL_TYPES}

# Average payload assumed per string value when estimating result sizes;
# used only for cache-size accounting of variable-width columns for which
# no sample is available.
DEFAULT_STRING_WIDTH = 16


def type_from_name(name: str) -> DataType:
    """Look up a type by its name (``"INT64"``, ``"DATE"``, ...)."""
    try:
        return _BY_NAME[name.upper()]
    except KeyError:
        raise TypeError_(f"unknown data type: {name!r}") from None


def infer_type(values: np.ndarray) -> DataType:
    """Infer the library type of a numpy array."""
    kind = values.dtype.kind
    if kind == "b":
        return BOOL
    if kind in ("i", "u"):
        return DATE if values.dtype.itemsize == 4 else INT64
    if kind == "f":
        return FLOAT64
    if kind == "O" or kind in ("U", "S"):
        return STRING
    raise TypeError_(f"cannot infer column type from dtype {values.dtype}")


def coerce_array(values: np.ndarray, dtype: DataType) -> np.ndarray:
    """Coerce ``values`` to the numpy representation of ``dtype``."""
    if dtype is STRING:
        if values.dtype.kind != "O":
            return values.astype(object)
        return values
    return np.asarray(values, dtype=dtype.numpy_dtype)


def common_numeric_type(a: DataType, b: DataType) -> DataType:
    """The result type of arithmetic between two numeric/date operands."""
    if FLOAT64 in (a, b):
        return FLOAT64
    if a is DATE and b is DATE:
        return INT64  # date difference is a day count
    if DATE in (a, b):
        return DATE  # date +/- integer days
    return INT64


def date_to_days(value: str | _dt.date) -> int:
    """Convert a date (or an ISO ``YYYY-MM-DD`` string) to a day count."""
    if isinstance(value, str):
        value = _dt.date.fromisoformat(value)
    return (value - _EPOCH).days


def days_to_date(days: int) -> _dt.date:
    """Convert a day count back to a :class:`datetime.date`."""
    return _EPOCH + _dt.timedelta(days=int(days))


def days_to_iso(days: int) -> str:
    """Render a day count as an ISO date string."""
    return days_to_date(days).isoformat()


def years_of(days: np.ndarray) -> np.ndarray:
    """Vectorized extraction of the calendar year from day counts."""
    dates = np.asarray(days, dtype="int64").astype("datetime64[D]")
    return dates.astype("datetime64[Y]").astype(np.int64) + 1970


def months_of(days: np.ndarray) -> np.ndarray:
    """Vectorized extraction of the calendar month (1..12)."""
    dates = np.asarray(days, dtype="int64").astype("datetime64[D]")
    months = dates.astype("datetime64[M]").astype(np.int64)
    return months % 12 + 1


def year_month_of(days: np.ndarray) -> np.ndarray:
    """Vectorized ``year * 100 + month`` bin (used by binning rules)."""
    dates = np.asarray(days, dtype="int64").astype("datetime64[D]")
    months = dates.astype("datetime64[M]").astype(np.int64)
    return (months // 12 + 1970) * 100 + months % 12 + 1


def first_day_of_year(year: int) -> int:
    """Day count of January 1st of ``year``."""
    return date_to_days(_dt.date(int(year), 1, 1))


def first_day_of_month(year: int, month: int) -> int:
    """Day count of the first day of ``year-month``."""
    return date_to_days(_dt.date(int(year), int(month), 1))


#: rows joined per temporary in :func:`array_nbytes`, so sizing a whole
#: table never holds a second copy of a string column's payload.
_NBYTES_CHUNK_ROWS = 1 << 16


def array_nbytes(values: np.ndarray, dtype: DataType) -> int:
    """Memory footprint of a column payload in bytes.

    STRING columns are charged per-character (plus the object pointer is
    deliberately ignored: the recycler cares about payload volume, and a
    deterministic number keeps experiments reproducible across platforms).
    The characters are counted as the length of the values joined — one
    C loop instead of a ``len`` call per row; every operator sizes every
    batch it emits with this.
    """
    if dtype is not STRING:
        return int(values.nbytes)
    total = 0
    for start in range(0, len(values), _NBYTES_CHUNK_ROWS):
        items = values[start:start + _NBYTES_CHUNK_ROWS].tolist()
        try:
            total += len("".join(items))
        except TypeError:
            # a non-``str`` element: whatever ``len`` says of each one
            total += sum(map(len, items))
    return total


def string_codes(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sorted distinct values of a STRING column and, per row, the
    position of its value among them — what ``np.unique(values,
    return_inverse=True)`` returns, without its Python-compare sort of
    every row: only the distinct values are sorted (with the same
    ``str`` ``<``, so the order is the same) and each row costs one
    dict lookup.  The one key-coding kernel behind string GROUP BY,
    ORDER BY, DISTINCT, ``count(DISTINCT)`` and join keys.
    """
    items = values.tolist()
    distinct = sorted(set(items))
    uniques = np.empty(len(distinct), dtype=object)
    uniques[:] = distinct
    position = {value: code for code, value in enumerate(distinct)}
    inverse = np.fromiter(map(position.__getitem__, items),
                          dtype=np.int64, count=len(items))
    return uniques, inverse


#: an integer key column is coded by counting (:func:`dense_codes`)
#: when its values span at most ``DENSE_SPAN_PER_ROW`` values per row
#: plus ``DENSE_SPAN_SLACK``: the counts then cost O(rows) time and a
#: few int64s per row of memory, whatever the values are.
DENSE_SPAN_PER_ROW = 4
DENSE_SPAN_SLACK = 1024


def dense_codes(values: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """What ``np.unique(values, return_inverse=True)`` returns for a
    non-empty integer column whose values lie in a dense range, without
    its sort: a presence bitmap over ``[min, max]`` (``bincount``), its
    running count (the rank of every present value among the present
    ones, so the uniques come out sorted and the codes dense) and one
    gather per row.  ``None`` when the range is too wide to count over.

    The range is checked in Python ints, so no span can overflow.  The
    offsets from ``min`` are taken in int64 arithmetic and the uniques
    rebuilt in the column's dtype; either may wrap (a uint64 column
    above 2^63, an int8 column spanning more than 127) but lands on the
    true value, which fits.
    """
    lo, hi = values.min(), values.max()
    if int(hi) - int(lo) > DENSE_SPAN_PER_ROW * len(values) + \
            DENSE_SPAN_SLACK:
        return None
    offsets = np.subtract(values, lo, dtype=np.int64, casting="unsafe")
    present = np.bincount(offsets) > 0
    rank = np.cumsum(present) - 1
    uniques = np.flatnonzero(present).astype(values.dtype) + lo
    return uniques, rank[offsets]


def key_codes(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(sorted uniques, inverse)`` of a key column of any type —
    ``np.unique(values, return_inverse=True)``'s result, by counting
    for an integer column over a dense range (:func:`dense_codes`) and
    by :func:`string_codes` for a STRING column."""
    kind = values.dtype.kind
    if kind == "O":
        return string_codes(values)
    if kind in ("i", "u") and len(values):
        coded = dense_codes(values)
        if coded is not None:
            return coded
    return np.unique(values, return_inverse=True)
