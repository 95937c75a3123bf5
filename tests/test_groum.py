from __future__ import annotations

import gc
import random
import signal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from esdp.extractor import extract_corpus, extract_items
from esdp.groum import (
    Groum,
    GroumNode,
    InvalidThreshold,
    MalformedControlNesting,
    build_groum,
    build_groums_for_methods,
    canonical_form,
    dump_groum,
    frequency,
    independent_occurrence_count,
    induced_subgraph,
    patt_explorer,
)
from esdp.items import ControlMarker, ItemKind, MarkerKind, SourceItem
from oracles import exhaustive_groum_patterns, iso_brute, max_independent_brute

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
    nodes = tuple(GroumNode(i, lab, "action") for i, lab in enumerate(labels))
    return Groum(nodes, frozenset(edges), origin)


def random_groum(rng: random.Random, max_nodes=5, n_labels=3) -> Groum:
    n = rng.randint(1, max_nodes)
    labels = [f"T{rng.randint(1, n_labels)}.m" for _ in range(n)]
    edges = {(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.4}
    return graph_of(labels, edges)


def mi(name: str, line: int) -> SourceItem:
    return SourceItem(ItemKind.MI, name, "p.C.m()", line)


def test_fig311_builds_receiver_chain():
    items, markers = extract_items(FIG_311, "s.java")
    body = [it for it in items if it.enclosing.endswith(".parse()")]
    g = build_groum(body, markers)
    assert [n.label for n in g.nodes] == [
        "ASTParser.newParser", "ASTParser.setKind", "ASTParser.setSource",
        "ASTParser.setResolveBindings", "ASTParser.createAST"]
    assert g.edges == frozenset({(0, 1), (1, 2), (2, 3), (3, 4)})


def test_single_call_single_node():
    g = build_groum([mi("x.only()", 1)])
    assert len(g.nodes) == 1 and len(g.edges) == 0


def test_unrelated_calls_get_usage_order_edge():
    g = build_groum([mi("alpha.a()", 1), mi("beta.b()", 2)])
    assert len(g.nodes) == 2
    assert g.edges == frozenset({(0, 1)})


def test_control_regions_become_nodes():
    items, markers = extract_items(
        "class C { void m() { if (x.p()) { y.q(); } } }", "c.java")
    body = [it for it in items if it.enclosing.endswith(".m()")]
    g = build_groum(body, markers)
    assert "IF" in [n.label for n in g.nodes]
    roles = {n.label: n.role for n in g.nodes}
    assert roles["IF"] == "control"


def test_malformed_nesting_raises():
    bad = [ControlMarker(MarkerKind.IF_END, "p.C.m()", 3)]
    with pytest.raises(MalformedControlNesting):
        build_groum([], bad)
    with pytest.raises(MalformedControlNesting):
        build_groum([], [ControlMarker(MarkerKind.IF_BEGIN, "p.C.m()", 1),
                         ControlMarker(MarkerKind.LOOP_END, "p.C.m()", 2)])


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


def relabelled(g: Groum, ids: list[int]) -> Groum:
    """g with node i renamed ids[i] and the nodes listed in a new order."""
    nodes = tuple(GroumNode(ids[n.id], n.label, n.role) for n in reversed(g.nodes))
    return Groum(nodes, frozenset((ids[a], ids[b]) for a, b in g.edges), g.origin)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_canonical_form_property(data):
    g1 = data.draw(digraphs())
    ids = data.draw(st.permutations([10 * i + 3 for i in range(len(g1.nodes))]))
    copy = relabelled(g1, ids)
    assert canonical_form(copy) == canonical_form(g1)
    g2 = data.draw(st.one_of(st.just(copy), digraphs()))
    assert (canonical_form(g1) == canonical_form(g2)) == iso_brute(g1, g2)


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


def test_greedy_beyond_limit_flags_lower_bound():
    occs = [frozenset({i}) for i in range(25)]
    got, exact = independent_occurrence_count(occs)
    assert got == 25 and not exact


def test_patt_explorer_three_identical_chains():
    dataset = [graph_of(["a", "b"], {(0, 1)}) for _ in range(3)]
    found = patt_explorer(dataset, 3)
    summary = sorted((p.size, p.frequency, tuple(sorted(p.representative.labels())))
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
        ids = [n.id for n in rep.nodes]
        contained = False
        for drop in ids:
            keep = frozenset(ids) - {drop}
            sub = induced_subgraph(rep, keep)
            if any(iso_brute(sub, q.representative) for q in smaller):
                contained = True
                break
        assert contained


def test_build_groums_for_methods_splits_blocks():
    source = """class C {
    void m1() { a.x(); a.y(); }
    void m2() { b.z(); }
}
"""
    items, markers = extract_items(source, "c.java")
    groums = build_groums_for_methods(items, markers)
    assert [g.origin for g in groums] == ["c.java.C.m1()", "c.java.C.m2()"]
    assert [len(g.nodes) for g in groums] == [2, 1]


def test_dump_format():
    g = graph_of(["A.m", "B.n"], {(0, 1)})
    assert dump_groum(g) == "node 0 A.m\nnode 1 B.n\nedge 0 1"
