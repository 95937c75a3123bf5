from __future__ import annotations

import random
import sys
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import PLANTED_ELEMENTS, random_sequence_db
from esdp import kernels
from esdp.extractor import extract_corpus
from esdp.mining import (
    InvalidThreshold,
    SequentialPattern,
    adaptive_mine,
    mine_prefixspan,
    sort_patterns,
)
from esdp.transactions import SequenceDatabase, SequenceRecord, build_sequence_db
from oracles import (
    adaptive_mine_reference,
    exhaustive_mine,
    pattern_sort_key,
)

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import gen  # noqa: E402  the benchmark's seeded corpus generator


def db_of(*sequences: str) -> SequenceDatabase:
    records = tuple(
        SequenceRecord(f"s{i}", tuple(("MI", ch) for ch in seq))
        for i, seq in enumerate(sequences)
    )
    return SequenceDatabase(records)


ABC_DB = db_of("abc", "ac", "bc")


def as_counts(patterns):
    return {tuple(n for _, n in p.elements): p.support_count for p in patterns}


def oracle_scores(elements, counts, db_size):
    """(support_ratio, confidence, ranking) of elements from exhaustive
    support counts: confidence is count / prefix count, 1 for one item."""
    count = counts[elements]
    prefix_count = counts[elements[:-1]] if len(elements) > 1 else count
    ratio = Fraction(count, db_size)
    return ratio, Fraction(count, prefix_count), len(elements) * ratio


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
    counts = exhaustive_mine([r.items for r in fixture_db.records], 1)
    assert counts[PLANTED_ELEMENTS] == 7
    assert len(fixture_db) == 12
    # a full record contains itself
    assert counts[fixture_db.records[0].items] >= 1
    # absent item
    assert (("MI", "nowhere.never()"),) not in counts
    assert {p.elements: p.support_count for p in mine_prefixspan(fixture_db, 1)} == counts


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
    counts = exhaustive_mine([r.items for r in fixture_db.records], 1)
    assert oracle_scores(top.elements, counts, len(fixture_db)) == (
        top.support_ratio, top.confidence, top.ranking)


def test_confidence_base_case_and_prefix_rule():
    patterns = {tuple(n for _, n in p.elements): p for p in mine_prefixspan(ABC_DB, 2)}
    assert patterns[("c",)].confidence == 1
    assert patterns[("c",)].support_ratio == Fraction(3, 3)
    assert patterns[("a", "c")].confidence == Fraction(2, 2)


def test_ranking_is_k_times_support():
    for p in mine_prefixspan(ABC_DB, 1):
        assert p.ranking == p.k * p.support_ratio
        assert p.ranking / p.k == p.support_ratio


@st.composite
def mixed_size_patterns(draw) -> list[SequentialPattern]:
    """Patterns with distinct element-lists from databases of different
    sizes, as merge_update leaves them; small sizes make equal rankings
    such as 1/3 = 2/6 = 4/12 common."""
    element_lists = draw(st.lists(
        st.lists(st.tuples(st.sampled_from(["MI", "FD"]), st.sampled_from("abc")),
                 min_size=1, max_size=3).map(tuple),
        max_size=12, unique=True))
    patterns = []
    for elements in element_lists:
        db_size = draw(st.sampled_from([1, 3, 4, 6, 12, 35]))
        count = draw(st.integers(1, db_size))
        prefix_count = count if len(elements) == 1 else draw(st.integers(count, db_size))
        patterns.append(SequentialPattern(elements, count, db_size, prefix_count))
    return patterns


@settings(max_examples=200, deadline=None)
@given(mixed_size_patterns())
def test_sort_patterns_orders_as_the_rational_key(patterns):
    assert sort_patterns(patterns) == sorted(patterns, key=pattern_sort_key)


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
        patterns = mine_prefixspan(db, min_support)
        assert {p.elements: p.support_count for p in patterns} == expected
        for p in patterns:
            assert (p.support_ratio, p.confidence, p.ranking) == oracle_scores(
                p.elements, expected, len(db))


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


@st.composite
def kernel_inputs(draw):
    """(records, min_support): a small random database of item ids and a
    threshold in 1..n+1."""
    records = draw(st.lists(st.lists(st.integers(0, 5), max_size=8), max_size=8))
    return records, draw(st.integers(1, len(records) + 1))


@settings(max_examples=400, deadline=None)
@given(kernel_inputs())
def test_prefixspan_equals_exhaustive_mining(inputs):
    # every frequent subsequence with its support, at the threshold given,
    # in depth-first order with ascending extensions: the order of tuples
    records, min_support = inputs
    assert kernels.prefixspan(records, min_support) == (
        sorted(exhaustive_mine(records, min_support).items()), min_support)


@settings(max_examples=400, deadline=None)
@given(kernel_inputs(), st.sampled_from([0, 1000]) | st.integers(1, 6))
@example(([[], [0, 1, 2]], 1), 6)  # m rises past the supports of patterns already found
def test_capped_prefixspan_mines_at_the_smallest_fitting_threshold(inputs, cap):
    records, min_support = inputs
    n = len(records)
    results, m = kernels.prefixspan(records, min_support, cap=cap)
    supports = exhaustive_mine(records, 1)
    assert results == sorted((p, s) for p, s in supports.items() if s >= m)
    fitting = (t for t in range(min_support, n + 1)
               if sum(s >= t for s in supports.values()) <= cap)
    assert m == next(fitting, max(n, min_support))


def test_prefixspan_long_pattern_needs_no_recursion():
    expected = [((0,) * k, 2) for k in range(1, 1501)]
    assert kernels.prefixspan([[0] * 1500] * 2, 2) == (expected, 2)
    # no threshold fits a cap of 10: every pattern at the largest
    assert kernels.prefixspan([[0] * 1500] * 2, 1, cap=10) == (expected, 2)


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), max_patterns=st.integers(1, 15))
def test_adaptive_one_kernel_pass_equals_the_linear_scan(seed, max_patterns):
    db = random_sequence_db(random.Random(seed), max_records=10, max_items=7)
    with mock.patch.object(kernels, "prefixspan", wraps=kernels.prefixspan) as kernel:
        got = adaptive_mine(db, max_patterns)
    expected_support, expected = adaptive_mine_reference(db, max_patterns)
    assert got.min_support == expected_support
    assert list(got) == expected
    assert kernel.call_count == 1


@pytest.fixture(scope="module")
def gen_dbs(tmp_path_factory):
    """Sequence databases of small generated corpora, by generator seed."""
    dbs = {}
    for seed in (1, 2):
        root = tmp_path_factory.mktemp(f"gen{seed}")
        gen.generate_corpus(root, seed, files=6, methods=5)
        dbs[seed] = build_sequence_db(extract_corpus([root])[0])
    return dbs


@pytest.mark.parametrize("cap", [10, 50, 200, 1000])
@pytest.mark.parametrize("seed", [1, 2], ids=["gen-seed1", "gen-seed2"])
def test_adaptive_on_generated_corpora(seed, cap, gen_dbs):
    db = gen_dbs[seed]
    got = adaptive_mine(db, cap)
    m = got.min_support
    assert list(got) == mine_prefixspan(db, m)[:cap]
    assert len(mine_prefixspan(db, m)) <= cap or m == len(db.records)
    assert m == 1 or len(mine_prefixspan(db, m - 1)) > cap


def test_adaptive_falls_back_when_no_threshold_fits():
    db = db_of("abcd", "abcd")
    got = adaptive_mine(db, 3)
    assert (got.min_support, list(got)) == adaptive_mine_reference(db, 3)
    assert got.min_support == 2 and len(got) == 3


def test_adaptive_single_pattern_cap():
    db = db_of("a", "a")
    got = adaptive_mine(db, 1)
    assert len(got) == 1
    assert got[0].support_count == 2


def test_empty_db():
    empty = SequenceDatabase(())
    assert mine_prefixspan(empty, 1) == []
    assert adaptive_mine(empty, 5) == []
