from __future__ import annotations

import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import PLANTED_ELEMENTS
from esdp.extractor import extract_corpus, extract_items
from esdp.mining import SequentialPattern, mine_prefixspan
from esdp.query import (
    QueryContext,
    Recommendation,
    UnparsableQuery,
    UserQuery,
    abstract_query,
    derive_bindings,
    extract_skeleton_items,
    render_skeleton,
    search,
)
from esdp.repository import make_repository
from esdp.transactions import build_sequence_db
from oracles import search_reference

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import gen  # noqa: E402  the benchmark's seeded corpus generator


def pattern_of(elements, count=2, size=4) -> SequentialPattern:
    return SequentialPattern(tuple(elements), count, size, count)


@pytest.fixture()
def fig35_repo():
    p = SequentialPattern(PLANTED_ELEMENTS, 7, 12, 7)
    return make_repository([p], "fixture", "t", 2)


PARSER_CONTEXT = QueryContext(
    variables={"parser": "ASTParser"},
    imports=["org.eclipse.jdt.core.dom.ASTParser",
             "org.eclipse.jdt.core.ICompilationUnit"],
)


def test_abstract_query_method_invocation():
    q = abstract_query("parser = ASTParser.newParser(AST.JLS3);", PARSER_CONTEXT)
    assert q.item == ("MI", "dom.ASTParser.newParser(int)")


def test_abstract_query_field_declaration():
    q = abstract_query("private Connection conn;")
    assert q.item == ("FD", "Connection")


def test_abstract_query_empty_raises():
    with pytest.raises(UnparsableQuery):
        abstract_query("   ")
    with pytest.raises(UnparsableQuery):
        abstract_query("}{")


@pytest.mark.parametrize("statement, imports, message", [
    ("{{{;", [], "unbalanced '{' at 1:1"),
    ("{{{;", ["a.B", "c.D"], "unbalanced '{' at 1:1"),
    ("  x = `y`;", [], "illegal character '`' at 1:7"),
    ("\n a();\n  b = `c`;", [], "illegal character '`' at 3:7"),
    ("private int x = `y`;", ["a.B"], "illegal character '`' at 1:17"),
    ("}}", [], "unbalanced '}'"),  # the brace left over is the wrapper's
])
def test_abstract_query_error_names_the_statement_position(statement, imports, message):
    with pytest.raises(UnparsableQuery) as exc:
        abstract_query(statement, QueryContext(imports=imports))
    assert str(exc.value) == message


@pytest.mark.parametrize("statement, item", [
    # "final" alone is legal on a local: read inside a method, as the corpus is
    ("final Foo f = new Foo();", ("VD", "Foo")),
    ("private final Foo f;", ("FD", "Foo")),
    ("final static Foo F = x;", ("FD", "Foo")),
    ("private Connection conn;", ("FD", "Connection")),
])
def test_field_style_needs_an_access_or_static_modifier(statement, item):
    assert abstract_query(statement).item == item


def test_identity_space_coherence():
    # statement-level constructs abstract to the items corpus extraction emits
    cases = [
        ("private Connection conn;", ("FD", "Connection")),
        ("String s;", ("VD", "String")),
        ("new File();", ("CI", "File()")),
        ("box.open(name);", ("MI", "box.open(unknown)")),
        ("new File[5];", ("AC", "File[]")),
        ("this(p);", ("CTI", "this(unknown)")),
        ("super(p);", ("SCI", "super(unknown)")),
        ("widget.field_A = 2;", ("FA", "widget.field_A")),
    ]
    ctx = QueryContext(variables={"box": "Box", "widget": "Widget"})
    for statement, expected in cases:
        assert abstract_query(statement, ctx).item == expected, statement


def test_search_fig35_first(fig35_repo):
    q = abstract_query("parser = ASTParser.newParser(AST.JLS3);", PARSER_CONTEXT)
    recs = search(q, fig35_repo, 5)
    assert len(recs) == 1
    assert recs[0].match_offset == 0
    assert recs[0].score == Fraction(35, 12)


def test_search_absent_item_empty(fig35_repo):
    q = abstract_query("ghost.vanish();")
    assert search(q, fig35_repo, 5) == []


def test_search_orders_by_ranking():
    a = pattern_of([("MI", "a()"), ("MI", "b()")], count=3, size=5)  # ranking 1.2
    c = pattern_of([("MI", "a()"), ("MI", "c()")], count=2, size=5)  # ranking 0.8
    repo = make_repository([a, c])
    q = abstract_query("x.a();", QueryContext(variables={}))
    # query item is (MI, unknown.a()); containment fails but substring matches
    recs = search(q, repo, 2)
    assert [r.pattern.elements for r in recs] == [a.elements, c.elements]


def test_search_tiers_prefer_antecedent():
    lead = pattern_of([("MI", "x.hit()")], count=1, size=9)          # low ranking
    inner = pattern_of([("MI", "y.other()"), ("MI", "x.hit()")], count=4, size=9)
    repo = make_repository([lead, inner])
    q = abstract_query("x.hit();", QueryContext(variables={"x": "X"}))
    assert q.item == ("MI", "x.hit()")
    recs = search(q, repo, 2)
    assert recs[0].pattern.elements == lead.elements      # antecedent tier first
    assert recs[1].pattern.elements == inner.elements
    assert recs[1].match_offset == 1


def test_search_truncation_is_prefix_monotone(fig35_repo):
    patterns = [pattern_of([("MI", f"v.m{i}()"), ("MI", "v.t()")], count=i + 1, size=9)
                for i in range(5)]
    repo = make_repository(patterns)
    q = abstract_query("v.t();", QueryContext(variables={"v": "V"}))
    previous: list = []
    for n in range(1, 7):
        got = [r.pattern.elements for r in search(q, repo, n)]
        assert got[: len(previous)] == previous
        previous = got


_SEARCH_ITEMS = st.tuples(st.sampled_from(["MI", "FD"]),
                          st.sampled_from(["v.a()", "v.a(int)", "w.a()", "v.b()", "a", "x"]))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.lists(_SEARCH_ITEMS, min_size=1, max_size=4).map(tuple),
                          st.integers(1, 6), st.sampled_from([6, 7])),
                max_size=10, unique_by=lambda t: t[0]),
       _SEARCH_ITEMS, st.integers(1, 12))
def test_search_returns_store_patterns_by_tier_in_ranking_order(drawn, item, top_n):
    repo = make_repository(SequentialPattern(e, count, size, count) for e, count, size in drawn)
    store_index = {p: i for i, p in enumerate(repo.patterns)}
    recs = search(UserQuery("", item, QueryContext()), repo, top_n)
    assert [(r.pattern, r.match_offset) for r in recs] == search_reference(item, repo.patterns, top_n)
    assert len(recs) <= top_n
    assert len({r.pattern for r in recs}) == len(recs)
    assert all(r.pattern in store_index for r in recs)
    # tier 0: led by the item, 1: holds it elsewhere, 2: name substring match
    tiers = [0 if r.pattern.elements[0] == item else 1 if item in r.pattern.elements else 2
             for r in recs]
    assert tiers == sorted(tiers)
    for (a, tier_a), (b, tier_b) in zip(zip(recs, tiers), zip(recs[1:], tiers[1:])):
        if tier_a == tier_b:
            assert store_index[a.pattern] < store_index[b.pattern]
            assert a.pattern.ranking >= b.pattern.ranking
    if len(recs) < top_n:
        assert {p for p in repo.patterns if item in p.elements} <= {r.pattern for r in recs}


def test_search_matches_per_element_split_on_generated_store(tmp_path):
    """Substring matches (tier 3) on a store mined from a generated corpus,
    for the benchmark's query mix, equal those of splitting every element
    name of every pattern visited."""
    gen.generate_corpus(tmp_path, 3, files=6, methods=5)
    repo = make_repository(mine_prefixspan(build_sequence_db(extract_corpus([tmp_path])[0]), 3))
    tier3 = 0
    for spec in gen.generate_queries(3, 40):
        q = abstract_query(spec["statement"], QueryContext(dict(spec["vars"]), spec["imports"]))
        for top_n in (spec["top"], len(repo.patterns)):
            got = [(r.pattern, r.match_offset) for r in search(q, repo, top_n)]
            assert got == search_reference(q.item, repo.patterns, top_n)
            tier3 += sum(q.item not in p.elements for p, _ in got)
    assert tier3 > 0


def test_render_skeleton_fig35(fig35_repo):
    q = abstract_query("parser = ASTParser.newParser(AST.JLS3);", PARSER_CONTEXT)
    rec = search(q, fig35_repo, 1)[0]
    skeleton = render_skeleton(rec, q)
    assert skeleton.splitlines() == [
        "parser.setKind(0);",
        "parser.setSource((core.ICompilationUnit) null);",
        "parser.setResolveBindings(true);",
        "parser.createAST(null);",
    ]


def test_render_skeleton_final_offset_empty(fig35_repo):
    rec = Recommendation(fig35_repo.patterns[0], 4)
    q = abstract_query("parser.createAST(null);", PARSER_CONTEXT)
    assert render_skeleton(rec, q) == ""


def test_render_declaration_then_call():
    p = pattern_of([("FD", "Connection"), ("MI", "connection.close()")])
    q = abstract_query("private Connection conn;")
    rec = Recommendation(p, 0)
    skeleton = render_skeleton(rec, q)
    assert skeleton == "connection.close();"
    # the full recommendation shown to the user: declaration then the call
    assert (q.raw_statement + "\n" + skeleton).splitlines() == [
        "private Connection conn;", "connection.close();"]


_FIELD_QUERY = ("private Connection conn;", None)
_PARSER_QUERY = ("parser = ASTParser.newParser(AST.JLS3);", PARSER_CONTEXT)


@pytest.mark.parametrize("seed, min_support, queries", [
    pytest.param(None, 2, [_FIELD_QUERY, _PARSER_QUERY], id="fixture"),
    pytest.param(1, 3, [_FIELD_QUERY, _PARSER_QUERY], id="gen-seed1"),
    pytest.param(2, 3, [_FIELD_QUERY, _PARSER_QUERY], id="gen-seed2"),
])
def test_skeleton_round_trip_fixture_patterns(seed, min_support, queries, fixture_db, tmp_path):
    """Re-extracting a skeleton gives back the pattern after the match, at
    every match offset, on the fixture and on small generated corpora."""
    db = fixture_db
    if seed is not None:
        gen.generate_corpus(tmp_path, seed, files=6, methods=5)
        db = build_sequence_db(extract_corpus([tmp_path])[0])
    patterns = mine_prefixspan(db, min_support)
    assert patterns
    for statement, context in queries:
        q = abstract_query(statement, context)
        for p in patterns:
            for offset in range(p.k):
                rec = Recommendation(p, offset)
                skeleton = render_skeleton(rec, q)
                got = extract_skeleton_items(skeleton, rec, q)
                assert got == list(p.elements[offset + 1:]), (p.elements, offset, skeleton)


def test_skeleton_round_trip_of_calls_on_arrays():
    """A call on an array variable names a receiver that is an identifier,
    so its skeleton extracts again as the pattern, at every offset."""
    source = "class C { void m(String[] args) { int[][] a = null; a.clone(); args.toString(); } }"
    elements = tuple(it.identity for it in extract_items(source)[0][1:])
    assert elements[2:] == (("MI", "intArrayArray.clone()"), ("MI", "stringArray.toString()"))
    for offset in range(len(elements)):
        rec = Recommendation(pattern_of(elements), offset)
        q = UserQuery("", elements[offset], QueryContext())
        skeleton = render_skeleton(rec, q)
        assert extract_skeleton_items(skeleton, rec, q) == list(elements[offset + 1:]), skeleton


def test_derive_bindings():
    bindings = derive_bindings(PLANTED_ELEMENTS)
    assert bindings == {"aSTParser": "ASTParser"}


# --- the skeleton round trip for every kind a method sequence can hold ----------

_ARG_TYPES = st.sampled_from(["int", "double", "boolean", "char", "String", "null",
                              "unknown", "Widget", "lib.Item", "int[]"])
_ARGS = st.lists(_ARG_TYPES, max_size=3).map(",".join)
# instance, static (simple and qualified) and unknown receivers
_RECEIVERS = st.sampled_from(["box", "conn", "Util", "net.Conn", "unknown"])
_BODY_ITEMS = st.one_of(
    st.builds("MI {}.{}({})".format, _RECEIVERS, st.sampled_from(["open", "close"]), _ARGS),
    st.builds("CI {}({})".format, st.sampled_from(["Widget", "lib.Item"]), _ARGS),
    st.sampled_from(["VD int", "VD String", "VD Widget", "VD lib.Item", "VD Widget[]",
                     "ACD Runnable", "ACD lib.Item", "AC int[]", "AC Widget[]", "AC int[][]",
                     "AA int[]", "AA Widget[]", "AA int[][]", "AA Widget[][]",
                     "AA unknown[]"]),
    st.builds("FA {}.{}".format, _RECEIVERS, st.sampled_from(["size", "LIMIT"])),
    st.builds("CTI this({})".format, _ARGS),
    st.builds("SCI super({})".format, _ARGS),
    st.just("RT"),
).map(lambda text: tuple(text.split(" ", 1)) if " " in text else (text, ""))


@settings(max_examples=300, deadline=None)
@given(st.lists(_BODY_ITEMS, min_size=1, max_size=8),
       st.sampled_from(["void", "int", "Widget", "lib.Item"]),
       st.sampled_from([{}, {"b": "Box"}, {"box": "Crate"}]))
def test_skeleton_round_trip_of_every_body_kind(body, rtype, variables):
    """Rendering the elements after the match and extracting them again
    gives them back; a method's returns all name its one return type."""
    tail = tuple((kind, name or rtype) for kind, name in body)
    p = pattern_of((("MD", "m():void"),) + tail)
    rec = Recommendation(p, 0)
    q = UserQuery("", p.elements[0], QueryContext(variables=dict(variables)))
    skeleton = render_skeleton(rec, q)
    assert extract_skeleton_items(skeleton, rec, q) == list(tail), skeleton


@pytest.mark.parametrize("arg_type", ["int", "long", "short", "byte", "char", "boolean",
                                      "float", "double", "String", "lib.Item"])
def test_skeleton_round_trip_of_every_argument_type(arg_type):
    """A placeholder argument extracts again as the type it stands for."""
    p = pattern_of([("MD", "m():void"), ("MI", f"box.open({arg_type})")])
    rec = Recommendation(p, 0)
    q = UserQuery("", p.elements[0], QueryContext())
    skeleton = render_skeleton(rec, q)
    assert extract_skeleton_items(skeleton, rec, q) == [p.elements[1]], skeleton


def test_render_skeleton_comments_kinds_without_a_statement():
    """A mined sequence holds its MD only as its head and no PD or ID; after
    the match, such an element of a hand-written store is a comment line."""
    p = pattern_of([("MI", "box.open()"), ("MD", "run(int):void"), ("ID", "a.b.C"),
                    ("PD", "p"), ("TD", "L"), ("MI", "box.close()")])
    rec = Recommendation(p, 0)
    q = UserQuery("", p.elements[0], QueryContext())
    skeleton = render_skeleton(rec, q)
    assert skeleton.splitlines() == [
        "// MD run(int):void", "// ID a.b.C", "// PD p", "// TD L", "box.close();"]
    assert extract_skeleton_items(skeleton, rec, q) == [("MI", "box.close()")]
