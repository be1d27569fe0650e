"""Shared vectorized grouping utilities (hash aggregate, distinct)."""

from __future__ import annotations

import numpy as np

from ..columnar import types as t


def factorize(arrays: list[np.ndarray]) -> tuple[np.ndarray, int]:
    """Encode rows of multiple key columns into dense int64 group codes.

    Returns ``(codes, num_groups_upper_bound)``; codes of equal rows are
    equal.  Works for any column dtype (object arrays included).
    """
    if not arrays:
        raise ValueError("factorize requires at least one key column")
    n = len(arrays[0])
    combined = np.zeros(n, dtype=np.int64)
    radix = 1
    for arr in arrays:
        _, inverse = t.key_codes(arr)
        cardinality = int(inverse.max()) + 1 if n else 1
        combined = combined * cardinality + inverse.astype(np.int64)
        radix *= max(cardinality, 1)
        if radix > 2 ** 53:  # re-densify to avoid overflow on many keys
            _, combined = np.unique(combined, return_inverse=True)
            combined = combined.astype(np.int64)
            radix = int(combined.max()) + 1 if n else 1
    return combined, radix


def group_order(codes: np.ndarray) -> np.ndarray:
    """The stable ascending order of non-negative group codes.

    Codes below 2^8 or 2^16 are sorted as ``uint8`` / ``uint16``, which
    numpy's stable sort orders by radix in O(n) instead of a timsort of
    int64s; a stable order is unique, so the permutation is the same.
    """
    if len(codes):
        top = int(codes.max())
        if top < 1 << 8:
            codes = codes.astype(np.uint8)
        elif top < 1 << 16:
            codes = codes.astype(np.uint16)
    return np.argsort(codes, kind="stable")


class GroupedRows:
    """Rows sorted by group, with group boundary offsets."""

    __slots__ = ("order", "starts", "num_groups", "sizes")

    def __init__(self, codes: np.ndarray) -> None:
        self.order = group_order(codes)
        sorted_codes = codes[self.order]
        if len(sorted_codes) == 0:
            self.starts = np.zeros(0, dtype=np.int64)
        else:
            boundaries = np.flatnonzero(np.diff(sorted_codes)) + 1
            self.starts = np.concatenate(
                [np.zeros(1, dtype=np.int64), boundaries])
        self.num_groups = len(self.starts)
        ends = np.concatenate(
            [self.starts[1:], np.array([len(codes)], dtype=np.int64)])
        self.sizes = ends - self.starts

    def representatives(self, values: np.ndarray) -> np.ndarray:
        """First value of each group."""
        return values[self.order[self.starts]]

    def reduce_sum(self, values: np.ndarray) -> np.ndarray:
        if self.num_groups == 0:
            return values[:0]
        return np.add.reduceat(values[self.order], self.starts)

    def reduce_min(self, values: np.ndarray) -> np.ndarray:
        if self.num_groups == 0:
            return values[:0]
        return np.minimum.reduceat(values[self.order], self.starts)

    def reduce_max(self, values: np.ndarray) -> np.ndarray:
        if self.num_groups == 0:
            return values[:0]
        return np.maximum.reduceat(values[self.order], self.starts)

    def reduce_count(self) -> np.ndarray:
        return self.sizes.astype(np.int64)


def count_distinct_per_group(codes: np.ndarray,
                             values: np.ndarray) -> np.ndarray:
    """``count(DISTINCT values)`` per group of ``codes``.

    Groups are identified the same way :class:`GroupedRows` identifies
    them (ascending code order), so the result aligns with the grouped
    reductions.
    """
    if len(codes) == 0:
        return np.zeros(0, dtype=np.int64)
    _, value_codes = t.key_codes(values)
    pair = codes.astype(np.int64) * (int(value_codes.max()) + 1) \
        + value_codes.astype(np.int64)
    order = group_order(pair)
    sorted_codes = codes[order]
    sorted_pairs = pair[order]
    first_of_pair = np.concatenate(
        [[True], sorted_pairs[1:] != sorted_pairs[:-1]])
    return _sum_flags_by_group(sorted_codes, first_of_pair)


def _sum_flags_by_group(sorted_codes: np.ndarray,
                        flags: np.ndarray) -> np.ndarray:
    boundaries = np.flatnonzero(np.diff(sorted_codes)) + 1
    starts = np.concatenate([np.zeros(1, dtype=np.int64), boundaries])
    return np.add.reduceat(flags.astype(np.int64), starts)
