"""Acceptance suite: one test per release criterion, each printing a
pass line. Tolerances are exact unless stated otherwise; runtime budgets
are asserted with wall-clock measurements."""

from __future__ import annotations

import random
import statistics
import time
from fractions import Fraction

import pytest

from conftest import random_sequence_db
from esdp.groum import GroumNode, Groum, patt_explorer
from esdp.metrics import RetrievalOutcome, precision_recall, sequence_pr
from esdp.mining import SequentialPattern, mine_prefixspan
from esdp.query import (
    QueryContext,
    Recommendation,
    abstract_query,
    extract_skeleton_items,
    render_skeleton,
    search,
)
from esdp.repository import SchemaViolation, make_repository, parse, serialize
from oracles import exhaustive_groum_patterns, exhaustive_mine, iso_brute, parse_reference
from test_repository import mutate, random_repo


def _report(name: str) -> None:
    print(f"ACCEPTANCE {name}: PASS")


def test_mining_oracle_equivalence():
    """>= 200 random databases, exact pattern/support equality, < 30 s."""
    rng = random.Random(2025)
    started = time.perf_counter()
    runs = 0
    while runs < 200:
        db = random_sequence_db(rng, max_records=8, max_items=6, alphabet=5)
        min_support = rng.randint(1, len(db.records))
        expected = exhaustive_mine([r.items for r in db.records], min_support)
        got = {p.elements: p.support_count for p in mine_prefixspan(db, min_support)}
        assert got == expected
        runs += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 30, f"mining oracle run took {elapsed:.1f}s"
    _report(f"mining-oracle-equivalence ({runs} databases, {elapsed:.1f}s)")


def test_fig35_reconstruction(fixture_db):
    """Planted 5-sequence tops the 12-record fixture with the published scores."""
    started = time.perf_counter()
    assert len(fixture_db.records) == 12
    patterns = mine_prefixspan(fixture_db, 2)
    top = patterns[0]
    assert top.k == 5
    assert top.support_count == 7
    assert top.support_ratio == Fraction(7, 12)
    expected_ranking = 5 * Fraction(7, 12)
    assert top.ranking == expected_ranking
    assert abs(float(top.ranking) - float(expected_ranking)) < 1e-9
    assert round(float(expected_ranking), 5) == 2.91667
    repo = make_repository([top], "fixture", "t", 2)
    text = serialize(repo).decode()
    assert ">0.58</support>" in text
    assert ">1.00</confidence>" in text
    assert "<ranking>2.92</ranking>" in text
    elapsed = time.perf_counter() - started
    assert elapsed < 1, f"fixture reconstruction took {elapsed:.2f}s"
    _report(f"fig35-reconstruction ({elapsed * 1000:.0f}ms)")


def test_worked_metric_fixtures():
    """The worked precision/recall fractions, exactly."""
    outcome = RetrievalOutcome(
        retrieved=[f"dog{i}" for i in range(4)] + [f"cat{i}" for i in range(3)],
        relevant={f"dog{i}" for i in range(9)},
    )
    assert precision_recall(outcome) == (Fraction(4, 7), Fraction(4, 9))
    gold = ["s1", "s2", "s3", "s4"]
    recommended = ["s1", "s2", "x", "s3", "s4"]
    assert sequence_pr(recommended, gold) == (Fraction(4, 5), Fraction(4, 4))
    _report("worked-metric-fixtures (4/7, 4/9, 4/5, 4/4)")


def _random_groum(rng: random.Random) -> Groum:
    n = rng.randint(1, 5)
    nodes = tuple(GroumNode(i, f"L{rng.randint(1, 3)}", "action") for i in range(n))
    edges = frozenset((i, j) for i in range(n) for j in range(i + 1, n)
                      if rng.random() < 0.45)
    return Groum(nodes, edges, "rand")


def test_groum_oracle_equivalence():
    """>= 50 random datasets: classes and frequencies match exhaustive
    enumeration with exact independent-occurrence counting, < 60 s."""
    rng = random.Random(77)
    started = time.perf_counter()
    runs = 0
    while runs < 50:
        dataset = [_random_groum(rng) for _ in range(rng.randint(1, 4))]
        sigma = rng.randint(1, 3)
        found = patt_explorer(dataset, sigma)
        expected = exhaustive_groum_patterns(dataset, sigma)
        assert len(found) == len(expected), (dataset, sigma)
        for p in found:
            matching = [f for rep, f in expected if iso_brute(rep, p.representative)]
            assert matching == [p.frequency], (dataset, sigma)
        runs += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 60, f"groum oracle run took {elapsed:.1f}s"
    _report(f"groum-oracle-equivalence ({runs} datasets, {elapsed:.1f}s)")


def test_xml_round_trip_and_mutation_rejection():
    """Structural + byte round trip over >= 100 repositories; 100% of 500
    schema-violating mutants rejected, each with the reference reader's
    message and element path."""
    rng = random.Random(404)
    round_trips = 0
    while round_trips < 100:
        repo = random_repo(rng)
        data = serialize(repo)
        back = parse(data)
        assert back.patterns == repo.patterns
        assert serialize(back) == data
        round_trips += 1

    mutants = 0
    rejected = 0
    attempt = 0
    while mutants < 500:
        repo = random_repo(rng)
        if not repo.patterns:
            continue
        doc = serialize(repo).decode()
        mutant = mutate(doc, attempt, rng)
        attempt += 1
        if mutant is None or mutant == doc:
            continue
        mutants += 1
        try:
            parse(mutant.encode())
        except SchemaViolation as exc:
            with pytest.raises(SchemaViolation) as want:
                parse_reference(mutant.encode())
            assert (str(exc), exc.path) == (str(want.value), want.value.path)
            rejected += 1
    assert rejected == mutants == 500
    _report(f"xml-round-trip ({round_trips} repos, {rejected}/{mutants} mutants rejected)")


def _thousand_pattern_repo() -> bytes:
    rng = random.Random(99)
    patterns = []
    for i in range(1100):
        k = rng.randint(1, 6)
        elements = tuple(("MI", f"api{i}.call{j}(int)") for j in range(k))
        count = rng.randint(1, 50)
        patterns.append(SequentialPattern(elements, count, 50, count))
    repo = make_repository(patterns, "synthetic", "t", 2)
    assert len(repo.patterns) >= 1000
    return serialize(repo)


def test_query_latency_budget():
    """Median cold query (parse + abstract + search) < 150 ms against a
    repository of >= 1000 patterns."""
    data = _thousand_pattern_repo()
    ctx = QueryContext(variables={"api7": "Api7"})
    timings = []
    for _ in range(21):
        started = time.perf_counter()
        repo = parse(data)  # cold: repository loaded from bytes every time
        q = abstract_query("api7.call0(1);", ctx)
        recs = search(q, repo, 5)
        timings.append(time.perf_counter() - started)
        assert recs
    median_ms = statistics.median(timings) * 1000
    assert median_ms < 150, f"median cold query {median_ms:.1f}ms"
    _report(f"query-latency ({median_ms:.1f}ms median over {len(timings)} cold runs)")


def test_skeleton_round_trip_all_fixture_patterns(fixture_db):
    """Re-extraction recovers every mined pattern's post-match elements."""
    patterns = mine_prefixspan(fixture_db, 2)
    assert patterns
    q = abstract_query("private Connection conn;")
    checked = 0
    for p in patterns:
        for offset in range(p.k):
            rec = Recommendation(p, offset)
            skeleton = render_skeleton(rec, q)
            got = extract_skeleton_items(skeleton, rec, q)
            assert got == list(p.elements[offset + 1:]), (p.elements, offset, skeleton)
            checked += 1
    _report(f"skeleton-round-trip ({checked} renderings over {len(patterns)} patterns)")


def test_recall_monotonicity_over_nested_chains():
    """Recall never decreases as top-N grows, over 100 random chains."""
    rng = random.Random(314)
    universe = [f"item{i}" for i in range(40)]
    chains = 0
    while chains < 100:
        relevant = set(rng.sample(universe, rng.randint(1, 20)))
        ranked = rng.sample(universe, rng.randint(5, 30))
        last = Fraction(0)
        for n in range(1, len(ranked) + 1):
            _, recall = precision_recall(
                RetrievalOutcome(retrieved=ranked[:n], relevant=relevant))
            assert recall >= last
            last = recall
        chains += 1
    _report(f"recall-monotonicity ({chains} chains)")
