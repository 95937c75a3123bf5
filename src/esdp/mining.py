"""Frequent sequential pattern mining over item sequence databases.

Patterns are scored exactly: a pattern keeps the integers its scores are
ratios of (support count, database size, prefix count), so support ratio,
confidence and ranking are exact rationals with ranking == k * support_ratio
and no rounding; display rounding happens only at serialization time.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Callable, Iterable, NamedTuple

from . import kernels
from .transactions import SequenceDatabase

if TYPE_CHECKING:
    from fractions import Fraction


class InvalidThreshold(ValueError):
    pass


Element = tuple[str, str]  # (kind, name)


class SequentialPattern(NamedTuple):
    """A mined sequence: support_count of db_size sequences hold it and
    prefix_count hold its first k-1 elements (support_count when k == 1).
    The scores are exact rationals computed from these on demand; fractions
    is imported only then, as no command but eval asks for a score."""

    elements: tuple[Element, ...]
    support_count: int
    db_size: int
    prefix_count: int

    @property
    def k(self) -> int:
        return len(self.elements)

    def names(self) -> tuple[str, ...]:
        return tuple(name for _, name in self.elements)

    @property
    def support_ratio(self) -> Fraction:
        from fractions import Fraction
        return Fraction(self.support_count, self.db_size)

    @property
    def confidence(self) -> Fraction:
        from fractions import Fraction
        return Fraction(self.support_count, self.prefix_count)

    @property
    def ranking(self) -> Fraction:
        from fractions import Fraction
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


def precedes(a: SequentialPattern, b: SequentialPattern) -> bool:
    """Whether a sorts before b in sort_patterns order: ranking desc,
    compared by cross-multiplying, support desc, then names and kinds.
    This is ranking_key's order, found without a common multiple of the
    database sizes."""
    elements_a, count_a, size_a, _ = a
    elements_b, count_b, size_b, _ = b
    rise = len(elements_a) * count_a * size_b - len(elements_b) * count_b * size_a
    if rise:
        return rise > 0
    if count_a != count_b:
        return count_a > count_b
    return _elements_precede(elements_a, elements_b)


def _elements_precede(a: tuple[Element, ...], b: tuple[Element, ...]) -> bool:
    """Whether element list a sorts before b on names, then kinds."""
    for (_, x), (_, y) in zip(a, b):
        if x != y:
            return x < y
    if len(a) != len(b):
        return len(a) < len(b)
    return [kind for kind, _ in a] < [kind for kind, _ in b]


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
    """Patterns in sort_patterns order, no element list twice, and the
    min-support they were mined at: what the miners return.
    ``repository.make_repository`` stores such a list as it is, without
    sorting it again."""

    def __init__(self, patterns: Iterable[SequentialPattern], min_support: int):
        super().__init__(patterns)
        self.min_support = min_support


_new = tuple.__new__


def _build_patterns(raw: Iterable[tuple[tuple[int, ...], int]],
                    alphabet: list[Element], db_size: int) -> list[SequentialPattern]:
    """The records of the kernel's (ids, count) results, in sort_patterns order.

    raw is read in the kernel's depth-first order, where a k-pattern's
    prefix is the last (k-1)-pattern before it, so each record extends its
    prefix's elements by one element and takes the prefix's count. A filter
    that drops patterns, such as a closed-pattern filter, must run on the
    records returned and not on raw, since a record's prefix count is read
    from its prefix's entry in raw.
    """
    # at[d]: (elements, count) of the last d-pattern read. at[0] is the empty
    # prefix; its count 0 gives a single its own count as prefix count.
    at = [((), 0)]
    patterns = []
    for ids, count in raw:
        k = len(ids)
        elements, prefix_count = at[k - 1]
        elements += (alphabet[ids[-1]],)
        del at[k:]
        at.append((elements, count))
        patterns.append(_new(SequentialPattern, (elements, count, db_size, prefix_count or count)))
    return sort_patterns(patterns)


def mine_prefixspan(db: SequenceDatabase, min_support: int) -> RankedPatterns:
    """All sequences with support >= min_support, exactly; sorted by ranking."""
    if min_support < 1:
        raise InvalidThreshold(f"min_support must be >= 1, got {min_support}")
    records, alphabet = _encode(db)
    raw, _ = kernels.prefixspan(records, min_support)
    return RankedPatterns(_build_patterns(raw, alphabet, len(records)), min_support)


def adaptive_mine(db: SequenceDatabase, max_patterns: int = 50) -> RankedPatterns:
    """Mine at the smallest min_support whose result fits under max_patterns;
    if no threshold fits, the top max_patterns by ranking at the largest."""
    if max_patterns < 1:
        raise InvalidThreshold(f"max_patterns must be >= 1, got {max_patterns}")
    records, alphabet = _encode(db)
    raw, min_support = kernels.prefixspan(records, 1, cap=max_patterns)
    patterns = _build_patterns(raw, alphabet, len(records))
    return RankedPatterns(patterns[:max_patterns], min_support)  # all unless none fits
