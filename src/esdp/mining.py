"""Frequent sequential pattern mining over item sequence databases.

Patterns are scored exactly: support ratios, confidences and rankings are
kept as rationals so that ranking == k * support_ratio holds with no
rounding; display rounding happens only at serialization time.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from . import kernels
from .transactions import SequenceDatabase


class InvalidThreshold(Exception):
    pass


Element = tuple[str, str]  # (kind, name)


@dataclass(frozen=True)
class SequentialPattern:
    elements: tuple[Element, ...]
    support_count: int
    support_ratio: Fraction
    confidence: Fraction
    ranking: Fraction

    @property
    def k(self) -> int:
        return len(self.elements)

    @property
    def kind(self) -> str:
        return self.elements[0][0]

    def names(self) -> tuple[str, ...]:
        return tuple(name for _, name in self.elements)


def pattern_sort_key(p: SequentialPattern):
    """Ranking desc, support desc, then lexicographic on names and kinds."""
    return (-p.ranking, -p.support_count, p.names(), tuple(k for k, _ in p.elements))


def _encode(db: SequenceDatabase) -> tuple[list[list[int]], dict[Element, int], list[Element]]:
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
    return records, vocab, alphabet


def support(alpha: Sequence[Element], db: SequenceDatabase) -> int:
    """Number of database records containing alpha as a subsequence."""
    if not alpha:
        raise ValueError("alpha must be non-empty")
    records, vocab, _ = _encode(db)
    encoded = []
    for element in alpha:
        if element not in vocab:
            return 0
        encoded.append(vocab[element])
    return kernels.support_count(records, encoded)


def _build_patterns(raw: Iterable[tuple[tuple[int, ...], int]],
                    alphabet: list[Element], db_size: int) -> list[SequentialPattern]:
    counts = {ids: count for ids, count in raw}
    patterns = []
    for ids, count in counts.items():
        elements = tuple(alphabet[i] for i in ids)
        ratio = Fraction(count, db_size)
        if len(ids) == 1:
            confidence = Fraction(1)
        else:
            confidence = Fraction(count, counts[ids[:-1]])
        patterns.append(SequentialPattern(
            elements=elements,
            support_count=count,
            support_ratio=ratio,
            confidence=confidence,
            ranking=len(ids) * ratio,
        ))
    patterns.sort(key=pattern_sort_key)
    return patterns


def mine_prefixspan(db: SequenceDatabase, min_support: int) -> list[SequentialPattern]:
    """All sequences with support >= min_support, exactly; sorted by ranking."""
    if min_support < 1:
        raise InvalidThreshold(f"min_support must be >= 1, got {min_support}")
    if not db.records:
        return []
    records, _, alphabet = _encode(db)
    raw, _ = kernels.prefixspan(records, min_support)
    return _build_patterns(raw, alphabet, len(records))


class AdaptivePatterns(list):
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
    records, _, alphabet = _encode(db)
    n = len(records)
    for m in range(1, n + 1):
        raw, exceeded = kernels.prefixspan(records, m, cap=max_patterns)
        if not exceeded:
            return AdaptivePatterns(_build_patterns(raw, alphabet, n), m)
    raw, _ = kernels.prefixspan(records, n)
    return AdaptivePatterns(_build_patterns(raw, alphabet, n)[:max_patterns], n)


def score(p: SequentialPattern, db: SequenceDatabase,
          ) -> tuple[Fraction, Fraction, Fraction]:
    """(support_ratio, confidence, ranking) of p against db, recomputed."""
    count = support(p.elements, db)
    ratio = Fraction(count, len(db.records))
    if p.k == 1:
        confidence = Fraction(1)
    else:
        prefix_count = support(p.elements[:-1], db)
        confidence = Fraction(count, prefix_count) if prefix_count else Fraction(0)
    return ratio, confidence, p.k * ratio
