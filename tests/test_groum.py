from __future__ import annotations

import gc
import random
import signal
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from esdp import groum
from esdp.extractor import extract_corpus, extract_items
from esdp.groum import (
    Groum,
    InvalidThreshold,
    build_groum,
    build_groums_for_methods,
    canonical_form,
    dump_groum,
    frequency,
    independent_occurrence_count,
    induced_subgraph,
    patt_explorer,
)
from esdp.items import SourceItem
import oracles
from oracles import (
    exhaustive_groum_patterns,
    iso_brute,
    max_independent_brute,
    patt_explorer_spec,
)

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import gen  # noqa: E402  the benchmark's seeded corpus generator

FIG_311 = """
public class SearchTest
{
    private ASTParser parser;

    protected CompilationUnit parse (ICompilationUnit lwUnit)
    {
        Parse = ASTParser.newParser(AST.JLS3);
        parser.setKind (ASTParser.K_COMPILATION_UNIT);
        parser.setSource (lwUnit);
        parser.setResolveBindings (true);
        cu = (CompilationUnit)parser.createAST(null);
        return cu;
    }
}
"""


def graph_of(labels: list[str], edges: set[tuple[int, int]], origin="g") -> Groum:
    return Groum(tuple(labels), frozenset(edges), origin)


def random_groum(rng: random.Random, max_nodes=5, n_labels=3) -> Groum:
    n = rng.randint(1, max_nodes)
    labels = [f"T{rng.randint(1, n_labels)}.m" for _ in range(n)]
    edges = {(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.4}
    return graph_of(labels, edges)


def mi(name: str, line: int) -> SourceItem:
    return SourceItem("MI", name, "p.C.m()", line)


def test_fig311_builds_receiver_chain():
    items, markers = extract_items(FIG_311, "s.java")
    body = [it for it in items if it.enclosing.endswith(".parse()")]
    g = build_groum(body, markers)
    assert list(g.labels) == [
        "ASTParser.newParser", "ASTParser.setKind", "ASTParser.setSource",
        "ASTParser.setResolveBindings", "ASTParser.createAST"]
    assert g.edges == frozenset({(0, 1), (1, 2), (2, 3), (3, 4)})


def test_single_call_single_node():
    g = build_groum([mi("x.only()", 1)])
    assert len(g.labels) == 1 and len(g.edges) == 0


def test_unrelated_calls_get_usage_order_edge():
    g = build_groum([mi("alpha.a()", 1), mi("beta.b()", 2)])
    assert len(g.labels) == 2
    assert g.edges == frozenset({(0, 1)})


# a method path under a package, and under a file label when there is none
@pytest.mark.parametrize("enclosing", ["p.q.C.C()", "src/C.java.C.C()"])
def test_constructor_calls_label_their_class_and_tag_this_or_super(enclosing):
    items = [SourceItem("CTI", "this(int)", enclosing, 1),
             SourceItem("SCI", "super()", enclosing, 2),
             SourceItem("MI", "super.g()", enclosing, 3),
             SourceItem("MI", "unknown.h()", enclosing, 4),
             SourceItem("CTI", "this()", enclosing, 5)]
    g = build_groum(items)
    assert g.labels == ("C.<init>", "super.<init>", "Super.g", "Unknown.h", "C.<init>")
    # usage order, plus one data edge per shared tag: this 0->4, super 1->2
    assert g.edges == frozenset({(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)})


def test_control_regions_become_nodes():
    items, markers = extract_items(
        "class C { void m() { if (x.p()) { y.q(); } } }", "c.java")
    body = [it for it in items if it.enclosing.endswith(".m()")]
    g = build_groum(body, markers)
    # the region's node stands at the line where it begins, before the
    # calls on that line
    assert g.labels == ("IF", "Unknown.p", "Unknown.q")


def test_groum_is_acyclic():
    rng = random.Random(1)
    for _ in range(20):
        g = random_groum(rng)
        assert all(a < b for a, b in g.edges)


def test_canonical_form_separates_same_label_multiset():
    g1 = graph_of(["a", "a", "b"], {(0, 2)})  # a->b
    g2 = graph_of(["a", "a", "b"], {(0, 1)})  # a->a
    assert canonical_form(g1) != canonical_form(g2)
    assert not iso_brute(g1, g2)


def test_canonical_form_equal_for_relabelled_chain():
    g1 = graph_of(["a", "b", "c", "b"], {(0, 1), (1, 2), (2, 3)})
    g2 = graph_of(["b", "a", "b", "c"], {(1, 0), (0, 3), (3, 2)})
    assert iso_brute(g1, g2)
    assert canonical_form(g1) == canonical_form(g2)


def test_isomorphism_trivial_cases():
    g = graph_of(["a", "b"], {(0, 1)})
    assert canonical_form(g) == canonical_form(graph_of(["a", "b"], {(0, 1)}))
    reversed_edge = graph_of(["a", "b"], {(1, 0)})
    assert canonical_form(g) != canonical_form(reversed_edge)


def test_isomorphism_agrees_with_brute_force():
    rng = random.Random(13)
    for _ in range(120):
        g1 = random_groum(rng)
        g2 = random_groum(rng)
        assert (canonical_form(g1) == canonical_form(g2)) == iso_brute(g1, g2)


def test_canonical_form_matches_isomorphism():
    rng = random.Random(17)
    graphs = [random_groum(rng, max_nodes=4) for _ in range(40)]
    for i, g1 in enumerate(graphs):
        for g2 in graphs[i + 1:]:
            assert (canonical_form(g1) == canonical_form(g2)) == iso_brute(g1, g2)


@st.composite
def digraphs(draw, max_nodes=6):
    """Labelled digraphs, not only DAGs: any edge but self-loops."""
    n = draw(st.integers(1, max_nodes))
    labels = draw(st.lists(st.sampled_from("ab"), min_size=n, max_size=n))
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return graph_of(labels, {pair for pair, kept in zip(pairs, keep) if kept})


def relabelled(g: Groum, order: list[int]) -> Groum:
    """g with node i moved to position order[i]."""
    labels = [""] * len(g.labels)
    for i, label in enumerate(g.labels):
        labels[order[i]] = label
    return Groum(tuple(labels), frozenset((order[a], order[b]) for a, b in g.edges), g.origin)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_canonical_form_property(data):
    g1 = data.draw(digraphs())
    copy = relabelled(g1, data.draw(st.permutations(range(len(g1.labels)))))
    assert canonical_form(copy) == canonical_form(g1)
    g2 = data.draw(st.one_of(st.just(copy), digraphs()))
    assert (canonical_form(g1) == canonical_form(g2)) == iso_brute(g1, g2)


def shape_of(g: Groum, occ) -> tuple:
    """Labels of occ in ascending node-id order and its induced edges as
    (position, position) pairs."""
    nodes = sorted(occ)
    return (tuple(g.labels[v] for v in nodes),
            tuple(sorted((nodes.index(a), nodes.index(b)) for a, b in g.edges
                         if a in occ and b in occ)))


def counting_canonical_key(monkeypatch) -> list:
    """Patch groum._canonical_key to record each call; return the record."""
    calls = []
    real = groum._canonical_key
    monkeypatch.setattr(groum, "_canonical_key",
                        lambda labels, edges: calls.append(1) or real(labels, edges))
    return calls


def test_occurrences_of_one_shape_share_a_class_and_a_key(monkeypatch):
    # a->b at nodes (0, 1) and, numbered apart, at (5, 7); in two, a at 3 -> b at 1
    one = graph_of(["a", "b", "c", "c", "c", "a", "c", "b"], {(0, 1), (5, 7), (1, 2)})
    two = graph_of(["c", "b", "c", "a"], {(3, 1)}, "h")
    hosts = [groum._Host.of(one), groum._Host.of(two)]
    key = canonical_form(induced_subgraph(one, {0, 1}))
    calls = counting_canonical_key(monkeypatch)
    within = groum._isomorphism_classes(
        hosts, {0: {frozenset({5, 7}), frozenset({0, 1})}}, {}, {})
    assert within == [(key, {0: [frozenset({0, 1}), frozenset({5, 7})]})]
    assert len(calls) == 1  # one labelled shape
    calls.clear()
    across = groum._isomorphism_classes(
        hosts[:1] * 2, {1: {frozenset({5, 7})}, 0: {frozenset({0, 1})}}, {}, {})
    assert across == [(key, {0: [frozenset({0, 1})], 1: [frozenset({5, 7})]})]
    assert len(calls) == 1
    # the same class under another shape: b is numbered below a
    calls.clear()
    mixed = groum._isomorphism_classes(
        hosts, {0: {frozenset({0, 1})}, 1: {frozenset({1, 3})}}, {}, {})
    assert mixed == [(key, {0: [frozenset({0, 1})], 1: [frozenset({1, 3})]})]
    assert len(calls) == 2


def test_independent_occurrences_examples():
    assert independent_occurrence_count([frozenset({1}), frozenset({2})]) == (2, True)
    assert independent_occurrence_count(
        [frozenset({1, 2}), frozenset({2, 3})]) == (1, True)
    # chain overlap: 1-2 overlap, 2-3 overlap, 1 and 3 disjoint
    occs = [frozenset({1, 2}), frozenset({2, 3}), frozenset({3, 4})]
    assert independent_occurrence_count(occs) == (2, True)


def test_independent_occurrences_against_brute():
    rng = random.Random(29)
    for _ in range(40):
        occs = [frozenset(rng.sample(range(8), rng.randint(1, 3)))
                for _ in range(rng.randint(1, 8))]
        got, exact = independent_occurrence_count(occs)
        assert exact
        assert got == max_independent_brute(occs)


def test_disjoint_occurrences_counted_without_branching():
    occs = [frozenset({2 * i, 2 * i + 1}) for i in range(20)]

    def too_slow(signum, frame):
        raise TimeoutError("20 disjoint occurrences took over 1 s")

    previous = signal.signal(signal.SIGALRM, too_slow)
    signal.alarm(1)
    try:
        assert independent_occurrence_count(occs) == (20, True)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_occurrences_free_of_conflict_are_taken_without_branching(monkeypatch):
    calls = []
    search = groum._max_independent
    monkeypatch.setattr(groum, "_max_independent", lambda *args: calls.append(args) or search(*args))
    # one component: a center that conflicts with 19 leaves, which conflict with nothing else
    star = [frozenset(range(20))] + [frozenset({i, 100 + i}) for i in range(19)]
    assert independent_occurrence_count(star) == (19, True)
    assert len(calls) == 3  # the component, then without and with the center


def test_pairwise_disjoint_occurrences_never_reach_the_search(monkeypatch):
    calls = []
    search = groum._max_independent
    monkeypatch.setattr(groum, "_max_independent", lambda *args: calls.append(args) or search(*args))
    for occs in ([], [frozenset({3})], [frozenset({2 * i, 2 * i + 1}) for i in range(30)],
                 [frozenset({1, 2}), frozenset({5}), frozenset({3, 4, 9})]):
        assert independent_occurrence_count(occs) == (len(occs), True)
    assert calls == []
    # one shared node: the two occurrences holding it form a component to search
    assert independent_occurrence_count(
        [frozenset({1, 2}), frozenset({5}), frozenset({2, 9})]) == (2, True)
    assert calls


def test_greedy_beyond_limit_flags_lower_bound():
    # one overlapping chain: a single conflict component of 25 occurrences
    occs = [frozenset({i, i + 1}) for i in range(25)]
    got, exact = independent_occurrence_count(occs)
    assert got == 13 and not exact


def test_small_conflict_components_beyond_limit_counted_exactly():
    rng = random.Random(53)
    components = []
    for c in range(5):
        nodes = range(10 * c, 10 * c + 6)  # components share no node
        components.append([frozenset(rng.sample(nodes, rng.randint(1, 3)))
                           for _ in range(5)])
    occs = [occ for component in components for occ in component]
    rng.shuffle(occs)
    assert len(occs) == 25 > groum.EXACT_OCCURRENCE_LIMIT
    expected = sum(max_independent_brute(component) for component in components)
    assert independent_occurrence_count(occs) == (expected, True)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 45).flatmap(lambda n: st.lists(
    st.frozensets(st.integers(0, 60), min_size=1, max_size=3), min_size=n, max_size=n)))
def test_independent_occurrences_match_reference(occs):
    """Components of every size, greedy ones among them, against the count
    before it always split into components."""
    assert independent_occurrence_count(occs) == oracles.independent_occurrence_count_reference(occs)


def test_patt_explorer_three_identical_chains():
    dataset = [graph_of(["a", "b"], {(0, 1)}) for _ in range(3)]
    found = patt_explorer(dataset, 3)
    summary = sorted((p.size, p.frequency, tuple(sorted(p.representative.labels)))
                     for p in found)
    assert summary == [(1, 3, ("a",)), (1, 3, ("b",)), (2, 3, ("a", "b"))]


def test_patt_explorer_sigma_beyond_total_nodes():
    dataset = [graph_of(["a", "b"], {(0, 1)})]
    assert patt_explorer(dataset, 3) == []


def test_patt_explorer_sixteen_identical_chains():
    # the 14 inner nodes share label, in- and out-degree; refinement splits
    # them into single nodes, so one node order is tried, not 14!
    chain = graph_of(["StringBuilder.append"] * 16, {(i, i + 1) for i in range(15)})

    def too_slow(signum, frame):
        raise TimeoutError("patt_explorer ran over 5 s on two 16-node chains")

    previous = signal.signal(signal.SIGALRM, too_slow)
    signal.alarm(5)
    try:
        found = patt_explorer([chain, chain], 2)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert [(p.size, p.frequency, p.frequency_is_exact) for p in found] == [
        (k, 2 * (16 // k), True) for k in range(1, 17)]
    for p in found:
        assert p.representative.edges == frozenset((i, i + 1) for i in range(p.size - 1))


def test_patt_explorer_diamond_with_symmetric_middle():
    # the two middle nodes carry one label and the same neighbours:
    # refinement cannot split them, so both orders of that cell are tried
    diamond = graph_of(["a", "m", "m", "d"], {(0, 1), (0, 2), (1, 3), (2, 3)})
    flipped = graph_of(["m", "d", "a", "m"], {(2, 0), (2, 3), (0, 1), (3, 1)})
    assert canonical_form(diamond) == canonical_form(flipped)
    found = patt_explorer([diamond, flipped], 2)
    expected = exhaustive_groum_patterns([diamond, flipped], 2)
    assert len(found) == len(expected)
    for p in found:
        matches = [f for rep, f in expected if iso_brute(rep, p.representative)]
        assert matches == [p.frequency]
    assert {p.size for p in found} == {1, 2, 3, 4}


def test_patt_explorer_invalid_threshold():
    with pytest.raises(InvalidThreshold):
        patt_explorer([graph_of(["a"], set())], 0)


def test_single_groum_sigma_one_equals_connected_enumeration():
    g = graph_of(["a", "b", "a", "c", "b"], {(0, 1), (1, 2), (1, 3), (3, 4)})
    found = patt_explorer([g], 1)
    expected = exhaustive_groum_patterns([g], 1)
    assert len(found) == len(expected)
    for p in found:
        matches = [f for rep, f in expected if iso_brute(rep, p.representative)]
        assert matches == [p.frequency]


def test_oracle_equivalence_random_sample():
    rng = random.Random(41)
    for _ in range(12):
        dataset = [random_groum(rng, max_nodes=4) for _ in range(rng.randint(1, 3))]
        sigma = rng.randint(1, 3)
        found = patt_explorer(dataset, sigma)
        expected = exhaustive_groum_patterns(dataset, sigma)
        assert len(found) == len(expected)
        for p in found:
            matches = [f for rep, f in expected if iso_brute(rep, p.representative)]
            assert matches == [p.frequency]


def test_patt_explorer_leaves_no_garbage_cycles(fixture_corpus):
    items, markers = extract_corpus([str(fixture_corpus)], ".java")
    dataset = build_groums_for_methods(items, markers)
    gc.collect()
    gc.disable()
    try:
        found = patt_explorer(dataset, 2)
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert any(p.size > 2 for p in found)


def test_canonical_key_computed_once_per_shape(fixture_corpus, tmp_path, monkeypatch):
    """On the fixture and on the benchmark's corpus shape, where the same
    idioms give the same labelled shapes in many methods."""
    gen.generate_corpus(tmp_path, 3, files=12, methods=5)
    real_classes = groum._isomorphism_classes
    calls = counting_canonical_key(monkeypatch)
    for corpus, sigma in ((fixture_corpus, 2), (tmp_path, 8)):
        items, markers = extract_corpus([str(corpus)], ".java")
        dataset = build_groums_for_methods(items, markers)
        candidates_seen: set[tuple[int, frozenset[int]]] = set()

        def recording_classes(hosts, candidates, *memos):
            candidates_seen.update((gi, occ) for gi, occs in candidates.items() for occ in occs)
            return real_classes(hosts, candidates, *memos)

        calls.clear()
        monkeypatch.setattr(groum, "_isomorphism_classes", recording_classes)
        memoized = patt_explorer(dataset, sigma)
        seeds = sum(p.size == 1 for p in memoized)  # keyed by canonical_form
        shapes = {shape_of(dataset[gi], occ) for gi, occ in candidates_seen}
        assert len(shapes) < len(candidates_seen)  # shapes repeat
        assert len(calls) == len(shapes) + seeds

        # fresh memos for every partition compute the repeated keys again
        calls.clear()
        monkeypatch.setattr(groum, "_isomorphism_classes",
                            lambda hosts, candidates, *memos: real_classes(hosts, candidates, {}, {}))
        unmemoized = patt_explorer(dataset, sigma)
        assert len(calls) > len(shapes) + seeds
        assert memoized == unmemoized


@st.composite
def groum_datasets(draw):
    """1-6 sparse DAGs of up to 10 nodes over 3-5 labels."""
    n_labels = draw(st.integers(3, 5))
    dataset = []
    for _ in range(draw(st.integers(1, 6))):
        n = draw(st.integers(1, 10))
        labels = draw(st.lists(st.integers(1, n_labels), min_size=n, max_size=n))
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        edges = draw(st.sets(st.sampled_from(pairs), max_size=2 * n)) if pairs else set()
        dataset.append(graph_of([f"T{k}.m" for k in labels], edges))
    return dataset


@settings(max_examples=150, deadline=None)
@given(dataset=groum_datasets(), sigma=st.integers(1, 6))
# one label along a chain: 21 overlapping occurrences of the pair, counted greedily
@example(dataset=[graph_of(["T1.m"] * 22, {(i, i + 1) for i in range(21)})], sigma=2)
def test_patt_explorer_matches_reference(dataset, sigma):
    assert patt_explorer(dataset, sigma) == patt_explorer_spec(dataset, sigma)


def test_patt_explorer_matches_reference_on_generated_corpus(tmp_path):
    """The benchmark's corpus shape (12 files x 5 methods, sigma 8), where
    the same idioms give the same labelled shapes in many methods."""
    gen.generate_corpus(tmp_path, 3, files=12, methods=5)
    items, markers = extract_corpus([str(tmp_path)], ".java")
    dataset = build_groums_for_methods(items, markers)
    found = patt_explorer(dataset, 8)
    assert found == patt_explorer_spec(dataset, 8)
    assert len(found) > 50 and any(p.size > 3 for p in found)


@pytest.mark.parametrize("sigma", [2, 3])
def test_patt_explorer_matches_reference_on_fixture(fixture_corpus, sigma):
    items, markers = extract_corpus([str(fixture_corpus)], ".java")
    dataset = build_groums_for_methods(items, markers)
    found = patt_explorer(dataset, sigma)
    assert found == patt_explorer_spec(dataset, sigma)
    assert any(p.size > 2 for p in found)


def test_label_groups_below_sigma_are_never_partitioned(monkeypatch):
    rng = random.Random(65)
    dataset = [random_groum(rng, max_nodes=8) for _ in range(6)]
    sigma = 3
    partitioned: list[int] = []
    real = groum._isomorphism_classes

    def recording(hosts, candidates, *memos):
        partitioned.append(sum(len(occs) for occs in candidates.values()))
        return real(hosts, candidates, *memos)

    monkeypatch.setattr(groum, "_isomorphism_classes", recording)
    found = patt_explorer(dataset, sigma)
    assert found == patt_explorer_spec(dataset, sigma)
    assert any(p.size > 2 for p in found)
    assert partitioned and min(partitioned) >= sigma
    # the bound has groups to skip: the extensions of a found pattern by
    # one frequent label, counted as distinct node sets
    frequent = {p.representative.labels[0] for p in found if p.size == 1}
    groups: dict[tuple, set] = {}
    for i, p in enumerate(found):
        for gi, occs in p.occurrences.items():
            g = dataset[gi]
            for occ in occs:
                for a, b in g.edges:
                    for x, y in ((a, b), (b, a)):
                        if x in occ and y not in occ and g.labels[y] in frequent:
                            groups.setdefault((i, g.labels[y]), set()).add((gi, occ | {y}))
    assert min(map(len, groups.values())) < sigma


def test_every_occurrence_is_induced_subgraph():
    rng = random.Random(43)
    dataset = [random_groum(rng, max_nodes=5) for _ in range(3)]
    for p in patt_explorer(dataset, 2):
        for gi, occs in p.occurrences.items():
            for occ in occs:
                sub = induced_subgraph(dataset[gi], occ)
                assert iso_brute(sub, p.representative)
        assert p.frequency == frequency(p.occurrences)[0]


def test_growth_soundness():
    rng = random.Random(47)
    dataset = [random_groum(rng, max_nodes=5) for _ in range(3)]
    sigma = 2
    found = patt_explorer(dataset, sigma)
    by_size: dict[int, list] = {}
    for p in found:
        by_size.setdefault(p.size, []).append(p)
    for p in found:
        assert p.frequency >= sigma
        if p.size == 1:
            continue
        rep = p.representative
        smaller = by_size.get(p.size - 1, [])
        ids = range(len(rep.labels))
        contained = False
        for drop in ids:
            keep = frozenset(ids) - {drop}
            sub = induced_subgraph(rep, keep)
            if any(iso_brute(sub, q.representative) for q in smaller):
                contained = True
                break
        assert contained


def test_build_groums_for_methods_splits_blocks():
    # a method with only a control region gets its groum, with or without
    # a local declaration; one with neither actions nor regions gets none
    source = """class C {
    void m1() { a.x(); a.y(); }
    void m2() { b.z(); }
    void a() { int x = 0; if (x > 0) { } }
    void b() { if (y) { } }
    void c() { int x = 0; }
}
"""
    items, markers = extract_items(source, "c.java")
    groums = build_groums_for_methods(items, markers)
    assert [(g.origin, g.labels) for g in groums] == [
        ("c.java.C.a()", ("IF",)), ("c.java.C.b()", ("IF",)),
        ("c.java.C.m1()", ("Unknown.x", "Unknown.y")), ("c.java.C.m2()", ("Unknown.z",))]


def test_dump_format():
    g = graph_of(["A.m", "B.n"], {(0, 1)})
    assert dump_groum(g) == "node 0 A.m\nnode 1 B.n\nedge 0 1"
