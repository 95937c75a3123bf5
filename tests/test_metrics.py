from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from esdp.metrics import (
    DegenerateLabels,
    RetrievalOutcome,
    UndefinedMetric,
    auc_trapezoid,
    average_pr,
    lcs_length,
    precision_recall,
    roc_points,
    sequence_pr,
)
from oracles import lcs_brute


def test_seven_retrieved_four_correct_nine_relevant():
    # 7 identifications, 4 correct, 9 actually present
    outcome = RetrievalOutcome(
        retrieved=[f"d{i}" for i in range(4)] + [f"c{i}" for i in range(3)],
        relevant={f"d{i}" for i in range(9)},
    )
    assert precision_recall(outcome) == (Fraction(4, 7), Fraction(4, 9))


def test_thirty_retrieved_twenty_relevant_sixty_total():
    outcome = RetrievalOutcome(
        retrieved=[f"hit{i}" for i in range(20)] + [f"miss{i}" for i in range(10)],
        relevant={f"hit{i}" for i in range(20)} | {f"rest{i}" for i in range(40)},
    )
    assert precision_recall(outcome) == (Fraction(20, 30), Fraction(20, 60))


def test_perfect_retrieval():
    outcome = RetrievalOutcome(retrieved=["a", "b"], relevant={"a", "b"})
    assert precision_recall(outcome) == (1, 1)


def test_undefined_metric_on_empty_denominators():
    with pytest.raises(UndefinedMetric):
        precision_recall(RetrievalOutcome(retrieved=[], relevant={"a"}))
    with pytest.raises(UndefinedMetric):
        precision_recall(RetrievalOutcome(retrieved=["a"], relevant=set()))


def test_retrieved_must_be_duplicate_free():
    with pytest.raises(ValueError, match="duplicate-free"):
        RetrievalOutcome(retrieved=["a", "a"], relevant={"a"})


def test_sequence_pr_worked_example():
    # five recommended statements, four relevant and in order, gold of four
    gold = ["s1", "s2", "s3", "s4"]
    recommended = ["s1", "s2", "noise", "s3", "s4"]
    assert sequence_pr(recommended, gold) == (Fraction(4, 5), Fraction(4, 4))


def test_sequence_pr_identical():
    assert sequence_pr(["a", "b"], ["a", "b"]) == (1, 1)


def test_sequence_pr_reversed():
    assert sequence_pr(["c", "b", "a"], ["a", "b", "c"]) == (Fraction(1, 3), Fraction(1, 3))


def test_sequence_pr_undefined_cases():
    with pytest.raises(UndefinedMetric):
        sequence_pr([], ["a"])
    with pytest.raises(UndefinedMetric):
        sequence_pr(["a"], [])


@given(st.lists(st.integers(0, 3), max_size=7), st.lists(st.integers(0, 3), max_size=7))
@settings(max_examples=60, deadline=None)
def test_lcs_matches_brute_force(a, b):
    assert lcs_length(a, b) == lcs_brute(a, b)


def test_roc_extreme_thresholds():
    scored = [(0.9, 1), (0.4, 1), (0.6, 0), (0.1, 0)]
    points = roc_points(scored)
    assert points[0] == (Fraction(0), Fraction(0))
    assert points[-1] == (Fraction(1), Fraction(1))


def test_roc_mixed_threshold():
    # at threshold 0.6 one positive (0.9) and one negative (0.6) score at or above
    scored = [(0.9, 1), (0.4, 1), (0.6, 0), (0.1, 0)]
    assert (Fraction(1, 2), Fraction(1, 2)) in roc_points(scored)


def test_roc_perfect_separator_passes_corner():
    scored = [(0.9, 1), (0.8, 1), (0.2, 0), (0.1, 0)]
    points = roc_points(scored)
    assert (Fraction(0), Fraction(1)) in points
    assert auc_trapezoid(points) == 1


def test_roc_degenerate_labels():
    with pytest.raises(DegenerateLabels):
        roc_points([(0.5, 1), (0.6, 1)])


def test_roc_sorted_and_monotone():
    rng = random.Random(3)
    for _ in range(30):
        scored = [(rng.random(), rng.randint(0, 1)) for _ in range(12)]
        labels = {lab for _, lab in scored}
        if labels != {0, 1}:
            continue
        points = roc_points(scored)
        fprs = [x for x, _ in points]
        tprs = [y for _, y in points]
        assert fprs == sorted(fprs)
        assert tprs == sorted(tprs)
        assert all(0 <= x <= 1 and 0 <= y <= 1 for x, y in points)
        assert points[0] == (0, 0) and points[-1] == (1, 1)


def test_recall_monotone_for_nested_retrieval():
    rng = random.Random(5)
    universe = [f"u{i}" for i in range(30)]
    for _ in range(30):
        relevant = set(rng.sample(universe, rng.randint(1, 15)))
        ranked = rng.sample(universe, 20)
        last_recall = Fraction(0)
        for n in range(1, 21):
            outcome = RetrievalOutcome(retrieved=ranked[:n], relevant=relevant)
            _, recall = precision_recall(outcome)
            assert recall >= last_recall
            last_recall = recall


def test_average_pr():
    pairs = [(Fraction(1), Fraction(1, 2)), (Fraction(1, 2), Fraction(1))]
    assert average_pr(pairs) == (Fraction(3, 4), Fraction(3, 4))
    with pytest.raises(UndefinedMetric):
        average_pr([])


def test_auc_half_for_random_diagonal():
    points = [(Fraction(0), Fraction(0)), (Fraction(1, 2), Fraction(1, 2)),
              (Fraction(1), Fraction(1))]
    assert auc_trapezoid(points) == Fraction(1, 2)
