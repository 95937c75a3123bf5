"""Retrieval metrics: precision/recall over sets, order-respecting
sequence precision/recall, and ROC points for scored binary outcomes."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Hashable, Iterable, Sequence


class UndefinedMetric(ValueError):
    pass


class DegenerateLabels(ValueError):
    pass


@dataclass
class RetrievalOutcome:
    retrieved: list[Hashable]
    relevant: set[Hashable]

    def __post_init__(self) -> None:
        if len(set(self.retrieved)) != len(self.retrieved):
            raise ValueError("retrieved must be duplicate-free")


def precision_recall(outcome: RetrievalOutcome) -> tuple[Fraction, Fraction]:
    """(|retrieved ∩ relevant| / |retrieved|, same numerator / |relevant|)."""
    if not outcome.retrieved:
        raise UndefinedMetric("precision undefined: nothing retrieved")
    if not outcome.relevant:
        raise UndefinedMetric("recall undefined: empty relevant set")
    hits = sum(1 for r in outcome.retrieved if r in outcome.relevant)
    return (Fraction(hits, len(outcome.retrieved)),
            Fraction(hits, len(outcome.relevant)))


def lcs_length(a: Sequence, b: Sequence) -> int:
    """Longest common subsequence length, classic DP."""
    m, n = len(a), len(b)
    prev = [0] * (n + 1)
    for i in range(1, m + 1):
        cur = [0] * (n + 1)
        for j in range(1, n + 1):
            if a[i - 1] == b[j - 1]:
                cur[j] = prev[j - 1] + 1
            else:
                cur[j] = max(prev[j], cur[j - 1])
        prev = cur
    return prev[n]


def sequence_pr(recommended: Sequence, gold: Sequence) -> tuple[Fraction, Fraction]:
    """Order-respecting precision/recall: statements count as relevant only
    when they appear in the gold order (longest common subsequence)."""
    if not recommended:
        raise UndefinedMetric("sequence precision undefined: empty recommendation")
    if not gold:
        raise UndefinedMetric("sequence recall undefined: empty gold sequence")
    hits = lcs_length(recommended, gold)
    return Fraction(hits, len(recommended)), Fraction(hits, len(gold))


def roc_points(scored: Iterable[tuple[Fraction | float, int]]) -> list[tuple[Fraction, Fraction]]:
    """(FPR, TPR) at each distinct score as the threshold (predict positive
    when score >= threshold), sorted by FPR ascending, always including the
    (0,0) and (1,1) extremes."""
    pairs = list(scored)
    positives = sum(1 for _, label in pairs if label)
    negatives = len(pairs) - positives
    if positives == 0 or negatives == 0:
        raise DegenerateLabels("need at least one positive and one negative label")
    points = {(Fraction(0), Fraction(0)), (Fraction(1), Fraction(1))}
    for t in {score for score, _ in pairs}:
        tp = sum(1 for s, label in pairs if label and s >= t)
        fp = sum(1 for s, label in pairs if not label and s >= t)
        points.add((Fraction(fp, negatives), Fraction(tp, positives)))
    return sorted(points)


def auc_trapezoid(points: Sequence[tuple[Fraction, Fraction]]) -> Fraction:
    """Area under the FPR-sorted ROC polyline."""
    pts = sorted(points)
    area = Fraction(0)
    for (x0, y0), (x1, y1) in zip(pts, pts[1:]):
        area += (x1 - x0) * (y0 + y1) / 2
    return area


def average_pr(per_query: Sequence[tuple[Fraction, Fraction]],
               ) -> tuple[Fraction, Fraction]:
    """Mean of per-query precision and recall (top-N reporting helper)."""
    if not per_query:
        raise UndefinedMetric("no queries to average")
    n = len(per_query)
    return (sum(p for p, _ in per_query) / n, sum(r for _, r in per_query) / n)
