from __future__ import annotations

import random
from fractions import Fraction

import pytest

from conftest import PLANTED_ELEMENTS, random_sequence_db
from esdp.kernels import _pure
from esdp.mining import (
    InvalidThreshold,
    adaptive_mine,
    mine_prefixspan,
    pattern_sort_key,
    score,
    support,
)
from esdp.transactions import SequenceDatabase, SequenceRecord
from oracles import exhaustive_mine

try:
    from esdp.kernels import _fast
except ImportError:
    _fast = None


def db_of(*sequences: str) -> SequenceDatabase:
    records = tuple(
        SequenceRecord(f"s{i}", tuple(("MI", ch) for ch in seq))
        for i, seq in enumerate(sequences)
    )
    return SequenceDatabase(records, "test")


ABC_DB = db_of("abc", "ac", "bc")


def as_counts(patterns):
    return {tuple(n for _, n in p.elements): p.support_count for p in patterns}


def test_mine_three_record_example():
    got = as_counts(mine_prefixspan(ABC_DB, 2))
    assert got == {("a",): 2, ("b",): 2, ("c",): 3, ("a", "c"): 2, ("b", "c"): 2}


def test_mine_single_record_all_subsequences():
    got = as_counts(mine_prefixspan(db_of("ab"), 1))
    assert got == {("a",): 1, ("b",): 1, ("a", "b"): 1}


def test_min_support_above_db_size_empty():
    assert mine_prefixspan(ABC_DB, 4) == []


def test_invalid_threshold():
    with pytest.raises(InvalidThreshold):
        mine_prefixspan(ABC_DB, 0)
    with pytest.raises(InvalidThreshold):
        adaptive_mine(ABC_DB, 0)


def test_support_examples(fixture_db):
    assert support(list(PLANTED_ELEMENTS), fixture_db) == 7
    assert Fraction(7, len(fixture_db.records)) == Fraction(7, 12)
    # a full record contains itself
    rec = fixture_db.records[0]
    assert support(list(rec.items), fixture_db) >= 1
    # absent item
    assert support([("MI", "nowhere.never()")], fixture_db) == 0


def test_score_fig35_values(fixture_db):
    patterns = mine_prefixspan(fixture_db, 2)
    top = patterns[0]
    assert top.elements == PLANTED_ELEMENTS
    assert top.k == 5
    assert top.support_count == 7
    assert top.support_ratio == Fraction(7, 12)
    assert top.confidence == 1
    assert top.ranking == Fraction(35, 12)
    assert abs(float(top.ranking) - 2.91667) < 1e-4
    ratio, confidence, ranking = score(top, fixture_db)
    assert (ratio, confidence, ranking) == (top.support_ratio, top.confidence, top.ranking)


def test_confidence_base_case_and_prefix_rule():
    patterns = {tuple(n for _, n in p.elements): p for p in mine_prefixspan(ABC_DB, 2)}
    assert patterns[("c",)].confidence == 1
    assert patterns[("c",)].support_ratio == Fraction(3, 3)
    assert patterns[("a", "c")].confidence == Fraction(2, 2)


def test_ranking_is_k_times_support():
    for p in mine_prefixspan(ABC_DB, 1):
        assert p.ranking == p.k * p.support_ratio
        assert p.ranking / p.k == p.support_ratio


def test_anti_monotonicity_and_downward_closure():
    rng = random.Random(7)
    for _ in range(20):
        db = random_sequence_db(rng)
        patterns = mine_prefixspan(db, 1)
        counts = {p.elements: p.support_count for p in patterns}
        for elements, count in counts.items():
            if len(elements) > 1:
                prefix = elements[:-1]
                assert prefix in counts
                assert counts[prefix] >= count


def test_oracle_equivalence_sample():
    rng = random.Random(11)
    for _ in range(25):
        db = random_sequence_db(rng)
        min_support = rng.randint(1, max(1, len(db.records)))
        expected = exhaustive_mine([r.items for r in db.records], min_support)
        got = {p.elements: p.support_count for p in mine_prefixspan(db, min_support)}
        assert got == expected


def test_adaptive_under_cap_returns_everything():
    db = db_of("ab", "cd")
    all_patterns = as_counts(mine_prefixspan(db, 1))
    assert len(all_patterns) <= 50
    assert as_counts(adaptive_mine(db, 50)) == all_patterns


def test_adaptive_raises_support_to_fit():
    # ~120 patterns at support 1, far fewer at 2
    db = db_of("abcdefg", "abc", "abc")
    at1 = mine_prefixspan(db, 1)
    at2 = mine_prefixspan(db, 2)
    assert len(at1) > 50 >= len(at2)
    got = adaptive_mine(db, 50)
    assert as_counts(got) == as_counts(at2)


def test_adaptive_smallest_qualifying_support_property():
    rng = random.Random(3)
    for _ in range(10):
        db = random_sequence_db(rng)
        cap = rng.randint(1, 12)
        got = adaptive_mine(db, cap)
        sizes = {m: len(mine_prefixspan(db, m)) for m in range(1, len(db.records) + 1)}
        fitting = [m for m, size in sizes.items() if size <= cap]
        if fitting:
            expected = as_counts(mine_prefixspan(db, min(fitting)))
            assert as_counts(got) == expected
            assert got.min_support == min(fitting)
        else:
            assert len(got) == cap
            assert got.min_support == len(db.records)
            full = sorted(mine_prefixspan(db, len(db.records)), key=pattern_sort_key)
            assert [p.elements for p in got] == [p.elements for p in full[:cap]]


def test_adaptive_single_pattern_cap():
    db = db_of("a", "a")
    got = adaptive_mine(db, 1)
    assert len(got) == 1
    assert got[0].support_count == 2


def test_empty_db():
    empty = SequenceDatabase((), "none")
    assert mine_prefixspan(empty, 1) == []
    assert adaptive_mine(empty, 5) == []


# --- backend twins ---------------------------------------------------------------

@pytest.mark.skipif(_fast is None, reason="compiled kernel not built")
def test_backends_agree():
    rng = random.Random(23)
    for _ in range(30):
        n = rng.randint(1, 8)
        records = [[rng.randint(0, 4) for _ in range(rng.randint(1, 6))] for _ in range(n)]
        m = rng.randint(1, n)
        pure_out = sorted(_pure.prefixspan(records, m)[0])
        fast_out = sorted(_fast.prefixspan(records, m)[0])
        assert pure_out == fast_out
        alpha = [rng.randint(0, 4) for _ in range(rng.randint(1, 3))]
        assert _pure.support_count(records, alpha) == _fast.support_count(records, alpha)
        assert _pure.contains(records[0], alpha) == _fast.contains(records[0], alpha)


@pytest.mark.skipif(_fast is None, reason="compiled kernel not built")
def test_backends_agree_on_cap_overflow():
    records = [[0, 1, 2, 3, 4], [0, 1, 2, 3, 4]]
    _, pure_exceeded = _pure.prefixspan(records, 1, cap=5)
    _, fast_exceeded = _fast.prefixspan(records, 1, cap=5)
    assert pure_exceeded and fast_exceeded
