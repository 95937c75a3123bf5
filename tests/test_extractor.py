from __future__ import annotations

import re
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from esdp import extractor
from esdp.extractor import (
    KEYWORDS,
    MAX_NESTING,
    UnparsableSource,
    dump_items,
    extract_items,
    iter_source_files,
    tokenize,
)
from esdp.items import ItemKind
from esdp.transactions import build_sequence_db
from oracles import extract_items_reference, tokenize_reference

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import gen  # noqa: E402  the benchmark's seeded corpus generator

FIG_311 = """
public class SearchTest
{
    private ASTParser parser;
    private compilationUnit cu;

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

FIG_311_BODY_ITEMS = [
    ("MI", "ASTParser.newParser(int)"),
    ("MI", "aSTParser.setKind(int)"),
    ("MI", "aSTParser.setSource(ICompilationUnit)"),
    ("MI", "aSTParser.setResolveBindings(boolean)"),
    ("MI", "aSTParser.createAST(null)"),
    ("RT", "CompilationUnit"),
]


def method_items(items, suffix=".parse()"):
    return [it.identity for it in items if it.enclosing.endswith(suffix)]


def test_field_declaration_abstracts_to_type_at_line():
    source = "package com;\n\npublic class Test {\n\n    private Connection conn;\n}\n"
    items, _ = extract_items(source, "Test.java")
    fd = [it for it in items if it.kind is ItemKind.FD]
    assert len(fd) == 1
    assert fd[0].name == "Connection"
    assert fd[0].enclosing == "com.Test"
    assert fd[0].line == 5


def test_empty_source_yields_nothing():
    assert extract_items("", "x.java") == ([], [])
    assert extract_items("   \n\t\n", "x.java") == ([], [])


def test_method_body_item_stream_in_order():
    items, _ = extract_items(FIG_311, "SearchTest.java")
    assert method_items(items) == FIG_311_BODY_ITEMS


def test_items_sorted_by_line():
    items, _ = extract_items(FIG_311, "SearchTest.java")
    lines = [it.line for it in items]
    assert lines == sorted(lines)


def _rename(source: str, **renames: str) -> str:
    for old, new in renames.items():
        source = re.sub(rf"\b{old}\b", new, source)
    return source


def test_alpha_renaming_leaves_identities_unchanged():
    renamed = _rename(FIG_311, parser="q", cu="zz", lwUnit="input0", Parse="w")
    base, _ = extract_items(FIG_311, "a.java")
    other, _ = extract_items(renamed, "a.java")
    assert sorted(it.identity for it in base) == sorted(it.identity for it in other)


@given(name=st.from_regex(r"[a-z][a-zA-Z0-9]{2,8}", fullmatch=True).filter(
    lambda s: s not in KEYWORDS))
@settings(max_examples=30, deadline=None)
def test_local_variable_name_never_in_identity(name):
    source = f"class C {{ void m() {{ Connection {name}; {name}.close(); }} }}"
    items, _ = extract_items(source, "c.java")
    idents = [it.identity for it in items]
    reference, _ = extract_items(
        "class C { void m() { Connection v0; v0.close(); } }", "c.java")
    assert idents == [it.identity for it in reference]


SEVENTEEN_KINDS = """package foo.biz;
import java.io.File;

public class Example_Class extends SuperClass implements Runnable {
    private Connection conn;

    public File method (String s) {
        String t;
        File f = new File("x");
        Enumeration e = new Enumeration () { };
        int[] arr = new int[5];
        arr[0] = 1;
        obj.field_A = 2;
        f.open(t);
        return f;
    }

    public Example_Class(String s) {
        this(s);
        super(s);
    }
}
"""


def test_exactly_seventeen_item_kinds():
    assert len(ItemKind) == 17


def test_all_seventeen_kinds_covered():
    items, _ = extract_items(SEVENTEEN_KINDS, "e.java")
    kinds = {it.kind for it in items}
    assert kinds == set(ItemKind), f"missing: {set(ItemKind) - kinds}"


def test_import_resolution_uses_last_package_segment():
    source = ("package p;\nimport org.eclipse.jdt.core.dom.ASTParser;\n"
              "class C { private ASTParser x; }")
    items, _ = extract_items(source, "c.java")
    assert ("FD", "dom.ASTParser") in [it.identity for it in items]


def test_ambiguous_import_keeps_simple_name():
    source = ("import a.b.Widget;\nimport c.d.Widget;\n"
              "class C { private Widget w; }")
    items, _ = extract_items(source, "c.java")
    assert ("FD", "Widget") in [it.identity for it in items]


def test_unresolvable_receiver_renders_unknown():
    source = "class C { void m() { mystery.poke(1); } }"
    items, _ = extract_items(source, "c.java")
    assert ("MI", "unknown.poke(int)") in [it.identity for it in items]


def test_unrecognized_statements_skipped_without_error():
    source = """class C {
    void m() {
        try { risky(); } catch (Exception e) { }
        switch (x) { case 1: break; }
        conn.close();
    }
}
"""
    items, _ = extract_items(source, "c.java")
    assert ("MI", "unknown.close()") in [it.identity for it in items]


def test_unbalanced_braces_raise_with_position():
    with pytest.raises(UnparsableSource) as err:
        extract_items("class C {\n void m() {\n}\n", "c.java")
    assert err.value.line >= 1 and err.value.column >= 1


def test_illegal_character_raises():
    with pytest.raises(UnparsableSource):
        extract_items("class C { void m() { int x = `bad`; } }", "c.java")


def test_unterminated_string_raises():
    with pytest.raises(UnparsableSource):
        extract_items('class C { String s = "oops; }', "c.java")


def test_control_markers_nest():
    source = """class C {
    void m() {
        if (a) {
            while (b) {
                c.run();
            }
        }
    }
}
"""
    _, markers = extract_items(source, "c.java")
    order = [m.kind.value for m in markers]
    assert order == ["IF_BEGIN", "LOOP_BEGIN", "LOOP_END", "IF_END"]


def test_dump_format():
    items, _ = extract_items("package p;\nclass C { private X x; }", "c.java")
    lines = dump_items(items).splitlines()
    assert lines[0] == "PD\tp\tc.java\t1"
    assert all(len(line.split("\t")) == 4 for line in lines)


def test_duplicate_invocations_both_emitted():
    source = "class C { void m() { x.tick(); x.tick(); } }"
    items, _ = extract_items(source, "c.java")
    ticks = [it for it in items if it.kind is ItemKind.MI]
    assert len(ticks) == 2


# --- scanner against the character-at-a-time reference ---------------------------

# characters where regex classes and str predicates part ways ('²' is a digit
# but not decimal, '½' numeric but neither, '一' a letter that is numeric,
# '\xa0' whitespace the lexer does not skip), the form feed that Java skips
# as whitespace (JLS 3.6), and every token class
_LEXEMES = st.sampled_from([
    "a", "Zq", "_", "$", "if", "class", "0", "7", "0x1F", "1.5", "2f", ".", "..",
    "²", "½", "①", "一", "é", "\xa0", '"', "'", "\\", "/*", "*/", "//", "/", "*",
    "\n", "\r", "\t", "\f", " ", "==", "->", "::", "/=", "{", "}", "(", ")", ";", "`", "#",
])
_TEXT = st.one_of(st.text(), st.lists(st.one_of(_LEXEMES, st.text(max_size=2)),
                                      max_size=40).map("".join))


def _token_rows(source):
    """tokenize's lists as (kind, text, line, col) rows, the reference's form."""
    tokens = tokenize(source)
    return [(kind, text, *tokens.position(i))
            for i, (kind, text) in enumerate(zip(tokens.kinds, tokens.texts))]


def _lex(lexer, source):
    try:
        return lexer(source)
    except UnparsableSource as exc:
        return ("error", str(exc), exc.line, exc.column)


@settings(max_examples=400, deadline=None)
@given(_TEXT)
@example("x\u00b2 = 1.\u00b2 + \u00b2$;")
@example("int \u00bd;")
@example("a\u00a0b")
@example('s = "a\\\nb" /* c\n */ // d')
@example("'\\")
@example("x /* y")
def test_tokenize_matches_reference(source):
    assert _lex(_token_rows, source) == _lex(tokenize_reference, source)


def test_tokenize_digit_classes():
    tokens = tokenize("x\u00b2 \u00b2y 1.\u00b2;")
    assert list(zip(tokens.kinds, tokens.texts)) == [
        ("ident", "x\u00b2"), ("num", "\u00b2y"), ("num", "1.\u00b2"), ("punct", ";"),
        ("eof", "")]
    with pytest.raises(UnparsableSource, match="illegal character '\u00bd' at 1:5"):
        tokenize("int \u00bd;")


_JAVA_LEXEMES = st.sampled_from([
    "class C {", "void m() {", "}", "{", "(", ")", "[", "]", ";", ",", ".", "=",
    "if (a) ", "else ", "while (b) ", "for (int i : xs) ", "do ", "return ", "try ",
    "new B(", "new int[", "x.f(", "a.b().c(", "this.", "super(", "(A) ", "final ",
    "@A ", "List<String> ", "import a.b.C;", "package p;", "int ", "y", "x", "2.5",
    '"s"', "'c'", "->", "\n", "for (A a = x, b = y; ; ) ", "this.f.g(", "(A) (B) ",
    "do x(); while (", "import a.*;", "l: ", "new int[] {", "x.<A>f(", "class L { } ",
    "int v[][] ",
])
_NESTINGS = [("if (a) {", "}"), ("{", "}"), ("if (a) ", ""), ("(", ")"), ("f(", ")"),
             ("a.b().c(", ")"), ("new A(", ")"), ("a[", "]"), ("class Q {", "}")]


@settings(max_examples=150, deadline=None)
@given(st.one_of(_TEXT, st.lists(_JAVA_LEXEMES, max_size=60).map("".join)),
       st.sampled_from(_NESTINGS), st.integers(0, 3 * MAX_NESTING))
def test_extract_items_raises_only_unparsable_source(body, nesting, depth):
    nested = nesting[0] * depth + body + nesting[1] * depth
    for source in (body, "class K { void m() { " + nested + " } }",
                   "class K { void m() { x = " + nested + "; } }"):
        try:
            extract_items(source, "k.java")
        except UnparsableSource:
            pass


@pytest.mark.parametrize("opener, closer", [("if (a) {\n", "}\n"), ("{\n", "}\n"),
                                            ("f(", ")"), ("(", ")")])
def test_nesting_beyond_limit_names_line(opener, closer):
    depth = MAX_NESTING + 1
    source = "class K {\n  void m() {\n    " + opener * depth + "y();" + closer * depth + "\n  }\n}\n"
    with pytest.raises(UnparsableSource, match=f"nesting deeper than {MAX_NESTING}") as err:
        extract_items(source, "k.java")
    assert err.value.line >= 3


def test_nesting_within_limit_parses():
    depth = 40  # if-block and call: two nested parse methods a level each
    source = ("class K {\n  void m() {\n" + "if (a) {\n" * depth + "x.f(" * depth + "y"
              + ")" * depth + ";\n" + "}\n" * depth + "  }\n}\n")
    items, markers = extract_items(source, "k.java")
    assert sum(it.kind is ItemKind.MI for it in items) == depth
    assert len(markers) == 2 * depth


def test_else_if_chain_reads_without_nesting():
    branches = 3 * MAX_NESTING
    source = ("class K { void m() { if (a) x.f(); "
              + "else if (b) x.f(); " * branches + "else x.g(); } }")
    items, markers = extract_items(source, "k.java")
    kinds = [m.kind.value for m in markers]
    assert kinds == ["IF_BEGIN"] * (branches + 1) + ["IF_END"] * (branches + 1)
    assert sum(it.kind is ItemKind.MI for it in items) == branches + 2



# --- one reader per construct: exact items of short sources --------------------

@pytest.mark.parametrize("body, expected", [
    ("B f; void m() { this.f.g(); }", [("FD", "B"), ("MD", "m():void"), ("MI", "b.g()")]),
    ("void m() { super.h(); }", [("MD", "m():void"), ("MI", "super.h()")]),
    ("int k; void m() { this.k = 1; }", [("FD", "int"), ("MD", "m():void"), ("FA", "a.k")]),
    ("void m() { a.b.c = 1; }", [("MD", "m():void"), ("FA", "unknown.c")]),
    ("void m() { new B().c().d(); }",
     [("MD", "m():void"), ("CI", "B()"), ("MI", "a.c()"), ("MI", "unknown.d()")]),
    ("void m(X x) { (x).e(); }", [("MD", "m(X):void"), ("MI", "unknown.e()")]),
    ("void m() { ((Foo) y).z(); }", [("MD", "m():void"), ("MI", "unknown.z()")]),
    ("void m(C x) { f((A) (B) x); }", [("MD", "m(C):void"), ("MI", "a.f(A)")]),
    ('A(int i) { this(1); } A() { super("s", 2.5); }',
     [("MD", "A(int)"), ("CTI", "this(int)"), ("MD", "A()"), ("SCI", "super(String,double)")]),
    ("void m() { do { a.f(); } while (b.g()); }",
     [("MD", "m():void"), ("MI", "unknown.f()"), ("MI", "unknown.g()")]),
    ("void m(List xs) { for (Item x : xs) { x.run(); } }",
     [("MD", "m(List):void"), ("VD", "Item"), ("MI", "item.run()")]),
    ("void m() { for (int i = 0; i < 3; i++) { s.f(i); } }",
     [("MD", "m():void"), ("VD", "int"), ("MI", "unknown.f(int)")]),
    ("void m() throws E, F { g(); }", [("MD", "m():void"), ("MI", "a.g()")]),
    ("void m(int i) { int[] xs = new int[] {1, 2}; xs[i] = 3; }",
     [("MD", "m(int):void"), ("VD", "int[]"), ("AC", "int[]"), ("AA", "int[]")]),
    ("void m() { int[][] g = new int[2][3]; g[0][1] = h[2]; }",
     [("MD", "m():void"), ("VD", "int[][]"), ("AC", "int[][]"), ("AA", "int[][]"),
      ("AA", "unknown[]")]),
    ("B f; void m() { f.g(); this.f.x = 1; f.x = 2; }",
     [("FD", "B"), ("MD", "m():void"), ("MI", "b.g()"), ("FA", "b.x"), ("FA", "b.x")]),
    ("B f; void m() { this.g(); super.f.g(); this.f.h.g(); }",
     [("FD", "B"), ("MD", "m():void"), ("MI", "a.g()"), ("MI", "unknown.g()"),
      ("MI", "unknown.g()")]),
    ("void m(int... xs) { xs[0] = 1; }", [("MD", "m(int[]):void"), ("AA", "int[]")]),
    ("void m(String s, String[]... xs) { }", [("MD", "m(String,String[][]):void")]),
    ("B f; void m(X x) { x.m(this.f); x.m(f); }",
     [("FD", "B"), ("MD", "m(X):void"), ("MI", "x.m(B)"), ("MI", "x.m(B)")]),
    ("int[] g; void m(X x) { x.m(this.g[0]); }",
     [("FD", "int[]"), ("MD", "m(X):void"), ("MI", "x.m(int)"), ("AA", "int[]")]),
    ("int[] g; void m(X x) { x.m(g[0]); }",
     [("FD", "int[]"), ("MD", "m(X):void"), ("MI", "x.m(int)"), ("AA", "int[]")]),
    ("int[] g; void m() { this.g[0] = 1; g[0] = 2; this.g[1].h(); }",
     [("FD", "int[]"), ("MD", "m():void"), ("AA", "int[]"), ("AA", "int[]"), ("AA", "int[]"),
      ("MI", "unknown.h()")]),
    # a labeled statement is its statement; the method goes on after it
    ("void m() { outer: for (int i = 0; ; ) { x.f(); } y.g(); } void n() { }",
     [("MD", "m():void"), ("VD", "int"), ("MI", "unknown.f()"), ("MI", "unknown.g()"),
      ("MD", "n():void")]),
    # an array creation reads its initializer and names every dimension
    ("void m(X x) { Foo[] a = new Foo[] { x.make() }; new int[2][]; }",
     [("MD", "m(X):void"), ("VD", "Foo[]"), ("AC", "Foo[]"), ("MI", "x.make()"),
      ("AC", "int[][]")]),
    ("void m() { int[][] g = new int[][] {{1}, {2}}; }",
     [("MD", "m():void"), ("VD", "int[][]"), ("AC", "int[][]")]),
    # generics are skipped in types and left alone in expressions
    ("void m() { List<String> l = x; l.add(y); if (a < b && c > d) { z.f(); } }",
     [("MD", "m():void"), ("VD", "List"), ("MI", "list.add(unknown)"), ("MI", "unknown.f()")]),
    ("void m() { final Widget w = make(); w.run(); }",
     [("MD", "m():void"), ("VD", "Widget"), ("MI", "a.make()"), ("MI", "widget.run()")]),
    ("void m(int v[]) { v[0] = 1; }", [("MD", "m(int[]):void"), ("AA", "int[]")]),
    # explicit type arguments of a generic call are skipped
    ("Foo f; void m() { f.<String>get(); Foo.<K, V>make(); this.<T>h(); f.g().<T>k(); }",
     [("FD", "Foo"), ("MD", "m():void"), ("MI", "foo.get()"), ("MI", "Foo.make()"),
      ("MI", "a.h()"), ("MI", "foo.g()"), ("MI", "unknown.k()")]),
    # every C-style '[]' after a declarator adds a dimension, to that declarator
    ("void m() { int w[][] = null; w[0][0] = 1; int[] u[] = null; u[0][0] = 2; }",
     [("MD", "m():void"), ("VD", "int[][]"), ("AA", "int[][]"), ("VD", "int[][]"),
      ("AA", "int[][]")]),
    ("int f[][], g; void m() { int a[], b = 1; f[0][0] = a[b]; }",
     [("FD", "int[][]"), ("MD", "m():void"), ("VD", "int[]"), ("AA", "int[][]"),
      ("AA", "int[]")]),
])
def test_reader_items(body, expected):
    items, _ = extract_items("class A extends B { " + body + " }", "a.java")
    assert [it.identity for it in items] == [("TD", "A"), ("SC", "B")] + expected


@pytest.mark.parametrize("source, expected", [
    # a wildcard import reads its '.*' and the imports after it
    ("import java.util.*;\nimport a.b.List;\nclass C { List l; }",
     [("ID", "java.util.*"), ("ID", "a.b.List"), ("TD", "C"), ("FD", "b.List")]),
    ("class A<T extends Comparable<T>> { T t; Map<String, List<Integer>> m; }",
     [("TD", "A"), ("FD", "T"), ("FD", "Map")]),
    ("interface I { void m(); int n(String s); }",
     [("TD", "I"), ("MD", "m():void"), ("MD", "n(String):int")]),
])
def test_unit_items(source, expected):
    assert [it.identity for it in extract_items(source, "a.java")[0]] == expected


def test_local_class_stays_out_of_its_method_record():
    source = "class C { void m() { class L { void n() { y.g(); } } x.f(); } }"
    items, _ = extract_items(source, "c.java")
    assert [it.identity for it in items if it.kind is ItemKind.TD] == [("TD", "C"), ("TD", "L")]
    records = {r.sid: r.items for r in build_sequence_db(items).records}
    assert records == {"c.java.C.m()": (("MD", "m():void"), ("MI", "unknown.f()")),
                       "c.java.C.m().L.n()": (("MD", "n():void"), ("MI", "unknown.g()"))}


def test_labeled_loop_keeps_its_markers():
    source = "class C { void m() { outer: while (a) { if (b) { continue outer; } } } }"
    _, markers = extract_items(source, "c.java")
    assert [m.kind.value for m in markers] == ["LOOP_BEGIN", "IF_BEGIN", "IF_END", "LOOP_END"]


@pytest.mark.parametrize("source, expected", [
    ("class A extends B, C implements D { }",
     [("TD", "A"), ("SC", "B"), ("SC", "C"), ("II", "D")]),
    ("interface I extends J, K { }", [("TD", "I"), ("II", "J"), ("II", "K")]),
])
def test_supertype_lists(source, expected):
    assert [it.identity for it in extract_items(source, "a.java")[0]] == expected


@pytest.mark.parametrize("init, body, last", [
    ("Foo a = x(), b = y()", "b.call();", ("MI", "foo.call()")),
    ("int v[] = x", "v[0] = 1;", ("AA", "int[]")),
])
def test_for_init_binds_every_declarator(init, body, last):
    in_for, _ = extract_items(f"class K {{ void m() {{ for ({init}; ; ) {{ {body} }} }} }}")
    in_block, _ = extract_items(f"class K {{ void m() {{ {init}; {body} }} }}")
    assert [it.identity for it in in_for] == [it.identity for it in in_block]
    assert in_for[-1].identity == last


def test_extract_items_tokenizes_through_the_module_global(monkeypatch, fixture_corpus):
    """A tracer that wraps ``extractor.tokenize`` by name sees every file
    once, and its result's length is the token count with eof."""
    counted = []

    def counting(source):
        tokens = tokenize(source)
        counted.append((source, len(tokens)))
        return tokens

    monkeypatch.setattr(extractor, "tokenize", counting)
    paths = list(iter_source_files([fixture_corpus]))
    extractor.extract_corpus([fixture_corpus])
    sources = [p.read_text(encoding="utf-8") for p in paths]
    assert [source for source, _ in counted] == sources
    assert [n for _, n in counted] == [len(tokenize_reference(s)) for s in sources]


# --- the parser against the parent extractor kept in oracles ----------------------

def _extraction(extract, source):
    try:
        items, markers = extract(source, "k.java")
    except UnparsableSource as exc:
        return ("error", exc.message, exc.line, exc.column)
    return ([(it.kind, it.name, it.enclosing, it.line) for it in items],
            [(m.kind, m.enclosing, m.line) for m in markers])


@settings(max_examples=300, deadline=None)
@given(st.one_of(_TEXT, st.lists(_JAVA_LEXEMES, max_size=60).map("".join)),
       st.sampled_from(_NESTINGS), st.integers(0, MAX_NESTING + 10))
@example("{ } {\n{ } x", ("{", "}"), 0)  # the innermost brace left open is named
@example("} {", ("{", "}"), 0)
@example("if (a) {\n  b = \"c", ("{", "}"), 3)
def test_extract_items_matches_reference(body, nesting, depth):
    nested = nesting[0] * depth + body + nesting[1] * depth
    for source in (body, "class K { void m() { " + nested + " } }",
                   "class K {\n int[] g; B f;\n void m() {\n" + nested + "\n}\n}"):
        assert _extraction(extract_items, source) == _extraction(extract_items_reference, source)


@pytest.mark.parametrize("corpus", ["fixture", "gen-seed1", "gen-seed2"])
def test_extract_items_matches_reference_on_corpora(corpus, fixture_corpus, tmp_path):
    if corpus == "fixture":
        root = fixture_corpus
    else:
        root = tmp_path
        gen.generate_corpus(root, int(corpus[-1]), files=6, methods=5)
    paths = list(iter_source_files([root]))
    assert paths
    for path in paths:
        source = path.read_text(encoding="utf-8")
        assert _extraction(extract_items, source) == _extraction(extract_items_reference, source)
