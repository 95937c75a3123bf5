"""Frequent sequential pattern mining over item sequence databases.

Patterns are scored exactly: a pattern keeps the integers its scores are
ratios of (support count, database size, prefix count), so support ratio,
confidence and ranking are exact rationals with ranking == k * support_ratio
and no rounding; display rounding happens only at serialization time.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Iterable, NamedTuple

from . import kernels
from .transactions import SequenceDatabase


class InvalidThreshold(Exception):
    pass


Element = tuple[str, str]  # (kind, name)


class SequentialPattern(NamedTuple):
    """A mined sequence: support_count of db_size sequences hold it and
    prefix_count hold its first k-1 elements (support_count when k == 1).
    The scores are exact rationals computed from these on demand."""

    elements: tuple[Element, ...]
    support_count: int
    db_size: int
    prefix_count: int

    @property
    def k(self) -> int:
        return len(self.elements)

    @property
    def kind(self) -> str:
        return self.elements[0][0]

    def names(self) -> tuple[str, ...]:
        return tuple(name for _, name in self.elements)

    @property
    def support_ratio(self) -> Fraction:
        return Fraction(self.support_count, self.db_size)

    @property
    def confidence(self) -> Fraction:
        return Fraction(self.support_count, self.prefix_count)

    @property
    def ranking(self) -> Fraction:
        return Fraction(len(self.elements) * self.support_count, self.db_size)


def ranking_key(lcm: int) -> Callable[[SequentialPattern], tuple]:
    """The sort key of sort_patterns, for patterns whose database sizes all
    divide lcm: ranking desc, support desc, then names and kinds.

    The ranking k * count / db_size is compared as the exact integer
    k * count * (lcm // db_size), so patterns mined from databases of
    different sizes still order exactly; any common multiple gives the same
    order.
    """
    def key(p: SequentialPattern) -> tuple:
        kinds, names = zip(*p.elements)
        return (-len(kinds) * p.support_count * (lcm // p.db_size), -p.support_count,
                names, kinds)

    return key


def sort_patterns(patterns: Iterable[SequentialPattern]) -> list[SequentialPattern]:
    """Ranking desc, support desc, then lexicographic on names and kinds,
    exactly (ranking_key over the lcm of the patterns' database sizes)."""
    patterns = list(patterns)
    patterns.sort(key=ranking_key(math.lcm(*{p.db_size for p in patterns})))
    return patterns


def _encode(db: SequenceDatabase) -> tuple[list[list[int]], list[Element]]:
    vocab: dict[Element, int] = {}
    alphabet: list[Element] = []
    records: list[list[int]] = []
    for rec in db.records:
        encoded = []
        for element in rec.items:
            if element not in vocab:
                vocab[element] = len(alphabet)
                alphabet.append(element)
            encoded.append(vocab[element])
        records.append(encoded)
    return records, alphabet


class RankedPatterns(list):
    """Patterns in sort_patterns order, no element list twice: what the
    miners return. ``repository.make_repository`` stores such a list as it
    is, without sorting it again."""


def _build_patterns(raw: Iterable[tuple[tuple[int, ...], int]],
                    alphabet: list[Element], db_size: int) -> RankedPatterns:
    counts = dict(raw)  # one pattern per id sequence, and ids name distinct elements
    return RankedPatterns(sort_patterns(
        SequentialPattern(tuple(alphabet[i] for i in ids), count, db_size,
                          counts[ids[:-1]] if len(ids) > 1 else count)
        for ids, count in counts.items()))


def mine_prefixspan(db: SequenceDatabase, min_support: int) -> RankedPatterns:
    """All sequences with support >= min_support, exactly; sorted by ranking."""
    if min_support < 1:
        raise InvalidThreshold(f"min_support must be >= 1, got {min_support}")
    if not db.records:
        return RankedPatterns()
    records, alphabet = _encode(db)
    raw, _ = kernels.prefixspan(records, min_support)
    return _build_patterns(raw, alphabet, len(records))


class AdaptivePatterns(RankedPatterns):
    """The patterns adaptive_mine kept, in ranking order, and the min-support
    they were mined at. A list, so callers that iterate or count the
    patterns read it as before."""

    def __init__(self, patterns: Iterable[SequentialPattern], min_support: int):
        super().__init__(patterns)
        self.min_support = min_support


def adaptive_mine(db: SequenceDatabase, max_patterns: int = 50) -> AdaptivePatterns:
    """Mine at the smallest min_support whose result fits under max_patterns;
    if no threshold fits, the top max_patterns by ranking at the largest."""
    if max_patterns < 1:
        raise InvalidThreshold(f"max_patterns must be >= 1, got {max_patterns}")
    if not db.records:
        return AdaptivePatterns([], 1)
    records, alphabet = _encode(db)
    n = len(records)
    # The pattern count never rises with min_support, so bisect for the
    # smallest fitting m in [lo, hi]; hi == n + 1 stands for "none fits".
    lo, hi = 1, n + 1
    while lo < hi:
        m = (lo + hi) // 2
        raw, exceeded = kernels.prefixspan(records, m, cap=max_patterns)
        if exceeded:
            lo = m + 1
        else:
            hi = m
    if lo <= n:
        # The last probe overflowed unless it was at lo: mine at lo again, so
        # the result is always that of the last kernel call, at the threshold
        # chosen, as with the linear scan.
        if m != lo:
            raw, _ = kernels.prefixspan(records, lo, cap=max_patterns)
        return AdaptivePatterns(_build_patterns(raw, alphabet, n), lo)
    raw, _ = kernels.prefixspan(records, n)
    return AdaptivePatterns(_build_patterns(raw, alphabet, n)[:max_patterns], n)
