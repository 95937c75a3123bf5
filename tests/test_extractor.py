from __future__ import annotations

import random
import re
import sys
from pathlib import Path

import pytest
from hypothesis import Phase, find, given, settings
from hypothesis.errors import NoSuchExample
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
from esdp.items import ITEM_KINDS
from esdp.transactions import build_sequence_db
from java_units import FORMS, LABEL, SKIPPED, java_units

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import checks  # noqa: E402  the benchmark's checks against the generator's record
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
    fd = [it for it in items if it.kind == "FD"]
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
    assert len(ITEM_KINDS) == 17


def test_all_seventeen_kinds_covered():
    items, _ = extract_items(SEVENTEEN_KINDS, "e.java")
    kinds = {it.kind for it in items}
    assert kinds == set(ITEM_KINDS), f"missing: {set(ITEM_KINDS) - kinds}"


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
    assert [(m.label, m.line) for m in markers] == [("IF", 3), ("LOOP", 4)]


def test_dump_format():
    items, _ = extract_items("package p;\nclass C { private X x; }", "c.java")
    lines = dump_items(items).splitlines()
    assert lines[0] == "PD\tp\tc.java\t1"
    assert all(len(line.split("\t")) == 4 for line in lines)


def test_duplicate_invocations_both_emitted():
    source = "class C { void m() { x.tick(); x.tick(); } }"
    items, _ = extract_items(source, "c.java")
    ticks = [it for it in items if it.kind == "MI"]
    assert len(ticks) == 2


# --- scanner ---------------------------------------------------------------------

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


def test_tokenize_reads_each_operator_whole():
    operators = "== != <= >= && || ++ -- += -= *= /= %= &= |= ^= -> ::".split()
    tokens = tokenize("a " + " a ".join(operators) + " a")
    assert tokens.texts[1:-1:2] == operators


@pytest.mark.parametrize("source, tokens", [
    # a signed exponent, a leading or trailing '.', a suffix after a '.'
    ("1.5e-3f 1e+5 1E-2d 1. .5 1.f 2.e3",
     [("num", t) for t in ("1.5e-3f", "1e+5", "1E-2d", "1.", ".5", "1.f", "2.e3")]),
    # a hex one has a signed 'p' exponent, and only that
    ("0x1p3 0x1.8P-2f 0x.8p1 0x1e+5",
     [("num", "0x1p3"), ("num", "0x1.8P-2f"), ("num", "0x.8p1"), ("num", "0x1e"),
      ("punct", "+"), ("num", "5")]),
    # a '.' before no digit stays a '.'
    ("a.b ... f(.5)",
     [("ident", "a"), ("punct", "."), ("ident", "b")] + [("punct", ".")] * 3
     + [("ident", "f"), ("punct", "("), ("num", ".5"), ("punct", ")")]),
])
def test_tokenize_reads_numeric_literals_whole(source, tokens):
    read = tokenize(source)
    assert list(zip(read.kinds, read.texts)) == tokens + [("eof", "")]


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


@pytest.mark.parametrize("opener, closer", [
    ("if (a) {\n", "}\n"), ("{\n", "}\n"), ("f(", ")"), ("(", ")"),
    # the limit reached in a class body, in a call's arguments (a call is
    # two levels and a parenthesis one, five a repeat, so here the arguments
    # cross it first) and in an array initializer
    ("class Q {\n", "}\n"), ("f(f((", ")))"), ("new int[][][] {{{", "}}}"),
])
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
    assert sum(it.kind == "MI" for it in items) == depth
    assert len(markers) == depth


@pytest.mark.parametrize("source, kind, count", [
    # siblings: each leaves the nesting count as it found it
    ("class K { " + "class Q { } " * (3 * MAX_NESTING) + "}", "TD", 3 * MAX_NESTING + 1),
    ("class K { int[][] a = {" + "{1}, " * (3 * MAX_NESTING) + "}; }", "FD", 1),
    # a chain of field writes is one expression, not one level per write
    ("class K { void m() { " + "a.b = " * 300 + "1; } }", "FA", 300),
], ids=["member classes", "initializer groups", "field writes"])
def test_siblings_parse_past_the_nesting_limit(source, kind, count):
    items, _ = extract_items(source, "k.java")
    assert sum(it.kind == kind for it in items) == count


def test_else_if_chain_reads_without_nesting():
    branches = 3 * MAX_NESTING
    source = ("class K { void m() { if (a) x.f(); "
              + "else if (b) x.f(); " * branches + "else x.g(); } }")
    items, markers = extract_items(source, "k.java")
    assert [m.label for m in markers] == ["IF"] * (branches + 1)
    assert sum(it.kind == "MI" for it in items) == branches + 2



# --- one reader per construct: exact items of short sources --------------------

@pytest.mark.parametrize("body, expected", [
    ("B f; void m() { this.f.g(); }", [("FD", "B"), ("MD", "m():void"), ("MI", "b.g()")]),
    ("void m() { super.h(); }", [("MD", "m():void"), ("MI", "super.h()")]),
    ("int k; void m() { this.k = 1; }", [("FD", "int"), ("MD", "m():void"), ("FA", "a.k")]),
    ("void m() { a.b.c = 1; }", [("MD", "m():void"), ("FA", "unknown.c")]),
    ("void m() { new B().c().d(); }",
     [("MD", "m():void"), ("CI", "B()"), ("MI", "b.c()"), ("MI", "unknown.d()")]),
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
    # A statement is a declaration only if an ident, a '<' or a '[' follows
    # the dotted name it starts with; a call or an assignment is not
    # read as a type first.
    ("void m() { a.b.C x = y; x.f(); }", [("MD", "m():void"), ("VD", "a.b.C"), ("MI", "c.f()")]),
    ("void m() { Outer.Inner<T> y; y.g(); }",
     [("MD", "m():void"), ("VD", "Outer.Inner"), ("MI", "inner.g()")]),
    ("void m() { Foo[] z; z[0].h(); }",
     [("MD", "m():void"), ("VD", "Foo[]"), ("AA", "Foo[]"), ("MI", "unknown.h()")]),
    ("void m(X x) { x.y = 3; }", [("MD", "m(X):void"), ("FA", "x.y")]),
    ("void m() { f(1); }", [("MD", "m():void"), ("MI", "a.f(int)")]),
    ("void m(X x) { x.m(a).n(); }",
     [("MD", "m(X):void"), ("MI", "x.m(unknown)"), ("MI", "unknown.n()")]),
    ("void m(X x) { lbl: x.f(); x.g(); }", [("MD", "m(X):void"), ("MI", "x.f()"), ("MI", "x.g()")]),
    # a type name starts with an ASCII letter, '_' or '$'
    ("void m() { Été x = y; x.f(); }", [("MD", "m():void"), ("MI", "unknown.f()")]),
    ("void m() { $T x = y; _U w; x.f(); w.g(); }",
     [("MD", "m():void"), ("VD", "$T"), ("VD", "_U"), ("MI", "$T.f()"), ("MI", "_U.g()")]),
    # initializers are skipped whole, and so is a member that names no type
    ("static { a.run(); } { b.run(); } void m() { c.go(); }",
     [("MD", "m():void"), ("MI", "unknown.go()")]),
    ("Other() { x.run(); } int f;", [("FD", "int")]),
    # a nested class's fields end with it; a parenthesized argument types as its content
    ("B f; class N { C g; } void m(int i) { this.f.g((i)); }",
     [("FD", "B"), ("TD", "N"), ("FD", "C"), ("MD", "m(int):void"), ("MI", "b.g(int)")]),
])
def test_reader_items(body, expected):
    items, _ = extract_items("class A extends B { " + body + " }", "a.java")
    assert [it.identity for it in items] == [("TD", "A"), ("SC", "B")] + expected


def test_items_emitted_out_of_token_order_keep_their_lines():
    # A call or a creation is emitted after the items of its arguments,
    # which it comes before in the source. Each item is listed in token
    # order, with the line its construct starts on, also across the local
    # class between the calls.
    source = ("class C {\n void m(X x) {\n  x.f(\n   y.g(),\n   new D(\n    z.h()));\n"
              "  class L {\n   void n() { w.k(); }\n  }\n  x.e();\n }\n}\n")
    items, _ = extract_items(source, "c.java")
    assert [(it.identity, it.line) for it in items] == [
        (("TD", "C"), 1), (("MD", "m(X):void"), 2), (("MI", "x.f(unknown,D)"), 3),
        (("MI", "unknown.g()"), 4), (("CI", "D(unknown)"), 5), (("MI", "unknown.h()"), 6),
        (("TD", "L"), 7), (("MD", "n():void"), 8), (("MI", "unknown.k()"), 8),
        (("MI", "x.e()"), 10)]


@pytest.mark.parametrize("source, expected", [
    # a wildcard import reads its '.*' and the imports after it
    ("import java.util.*;\nimport a.b.List;\nclass C { List l; }",
     [("ID", "java.util.*"), ("ID", "a.b.List"), ("TD", "C"), ("FD", "b.List")]),
    ("class A<T extends Comparable<T>> { T t; Map<String, List<Integer>> m; }",
     [("TD", "A"), ("FD", "T"), ("FD", "Map")]),
    ("interface I { void m(); int n(String s); }",
     [("TD", "I"), ("MD", "m():void"), ("MD", "n(String):int")]),
    # a generic method or constructor: its type parameters are skipped
    ('class G { public <T> T first(List<T> xs) { Log.info("x"); return xs.get(0); } }',
     [("TD", "G"), ("MD", "first(List):T"), ("MI", "Log.info(String)"), ("RT", "T"),
      ("MI", "list.get(int)")]),
    ("class G { static <K, V extends Comparable<V>> void put(Map<K, V> m, K k) "
     "{ m.put(k, null); } }",
     [("TD", "G"), ("MD", "put(Map,K):void"), ("MI", "map.put(K,null)")]),
    ("class G { <T> G(T t) { super(); } }", [("TD", "G"), ("MD", "G(T)"), ("SCI", "super()")]),
    # a '<' in a method body is still a comparison
    ("class G { boolean m(int a) { if (a < 3) { x.f(a); } return a < 3; } }",
     [("TD", "G"), ("MD", "m(int):boolean"), ("MI", "unknown.f(int)"), ("RT", "boolean")]),
    # a '{' in an expression is read to its '}': what follows it is kept
    ("class C { void m(X x) { int[] a = {1, 2}; x.f(); } void n(Y y) { y.g(); } }",
     [("TD", "C"), ("MD", "m(X):void"), ("VD", "int[]"), ("MI", "x.f()"), ("MD", "n(Y):void"),
      ("MI", "y.g()")]),
    ("class C { int[] a = {1, 2}; void n(Y y) { y.g(); } }",
     [("TD", "C"), ("FD", "int[]"), ("MD", "n(Y):void"), ("MI", "y.g()")]),
    ("class C { void m(int[][] a, X x) { a = new int[][] {{1}, {2, x.f()}}; x.g(); } }",
     [("TD", "C"), ("MD", "m(int[][],X):void"), ("AC", "int[][]"), ("MI", "x.f()"),
      ("MI", "x.g()")]),
    ("class C { void m() { int k = switch (x) { case 1 -> 2; default -> 3; }; y.h(); } }",
     [("TD", "C"), ("MD", "m():void"), ("VD", "int"), ("MI", "unknown.h()")]),
    # a lambda's block body gives its items to the method around it
    ("class C { void m(List list, Y y) { list.forEach(x -> { y.g(); }); y.h(); } }",
     [("TD", "C"), ("MD", "m(List,Y):void"), ("MI", "list.forEach(unknown)"), ("MI", "y.g()"),
      ("MI", "y.h()")]),
    ("class C { Runnable r = () -> { y.g(); }; void n(Y y) { y.g(); } }",
     [("TD", "C"), ("FD", "Runnable"), ("MI", "unknown.g()"), ("MD", "n(Y):void"),
      ("MI", "y.g()")]),
    ("class C { Callable r = () -> { return 1; }; int m() { f(() -> { return 2; }); return 3; } }",
     [("TD", "C"), ("FD", "Callable"), ("RT", "unknown"), ("MD", "m():int"),
      ("MI", "c.f(unknown)"), ("RT", "unknown"), ("RT", "int")]),
    # annotations and 'final' on locals, loop variables and local classes
    ('class C { void m() { @SuppressWarnings("u") List l = f(); l.size(); } }',
     [("TD", "C"), ("MD", "m():void"), ("VD", "List"), ("MI", "c.f()"), ("MI", "list.size()")]),
    ("class C { void m() { @Ann class L { } } }", [("TD", "C"), ("MD", "m():void"), ("TD", "L")]),
    ("class C { void m(List xs) { for (final A a : xs) { a.run(); } } }",
     [("TD", "C"), ("MD", "m(List):void"), ("VD", "A"), ("MI", "a.run()")]),
    ("class C { void m(List xs) { for (@Ann A a : xs) { a.run(); } } }",
     [("TD", "C"), ("MD", "m(List):void"), ("VD", "A"), ("MI", "a.run()")]),
    ("class C { void m() { for (final int i = 0; i < 3; i++) { f(i); } } }",
     [("TD", "C"), ("MD", "m():void"), ("VD", "int"), ("MI", "c.f(int)")]),
    # numeric literals: hex and binary int or long, decimal by suffix, point or exponent
    ("class C { void m(X x) { x.f(0xFF, 0b1L, 10L, 1e5, 2.5f, 1.5, 3d, 1_000); } }",
     [("TD", "C"), ("MD", "m(X):void"),
      ("MI", "x.f(int,long,long,double,float,double,double,int)")]),
    # a signed exponent and a hex 'p' exponent; a '.' may lead or end
    ("class C { void m(X x) { x.f(1.5e-3f, 0x1p3, 1e+5); x.g(1., .5, 1.f, 0x1p3f); } }",
     [("TD", "C"), ("MD", "m(X):void"), ("MI", "x.f(float,double,double)"),
      ("MI", "x.g(double,double,float,float)")]),
    # selectors after a creation, a literal, a class literal and a call
    ("class C { void m() { new Foo().bar(); } }",
     [("TD", "C"), ("MD", "m():void"), ("CI", "Foo()"), ("MI", "foo.bar()")]),
    ('class C { void m() { "s".length(); } }',
     [("TD", "C"), ("MD", "m():void"), ("MI", "string.length()")]),
    ("class C { void m() { Foo.class.getName(); f(Foo.class); } }",
     [("TD", "C"), ("MD", "m():void"), ("MI", "unknown.getName()"), ("MI", "c.f(Class)")]),
    ("class C { void m() { a.b().c = 1; a.b()[0] = 1; } }",
     [("TD", "C"), ("MD", "m():void"), ("MI", "unknown.b()"), ("FA", "unknown.c"),
      ("MI", "unknown.b()"), ("AA", "unknown[]")]),
    # an argument is typed by its whole chain
    ("class C { void m() { g(new Foo().h()); } }",
     [("TD", "C"), ("MD", "m():void"), ("MI", "c.g(unknown)"), ("CI", "Foo()"),
      ("MI", "foo.h()")]),
    # an index into a value of no array type accesses an unknown array
    ("class C { B f; void m() { f[0] = 1; } }",
     [("TD", "C"), ("FD", "B"), ("MD", "m():void"), ("AA", "unknown[]")]),
    # a lambda's parameters shadow what they name up to the end of the
    # expression, and a lambda argument types as unknown
    ("class C { Conn x; void m() { f(x -> { x.run(); }); } }",
     [("TD", "C"), ("FD", "Conn"), ("MD", "m():void"), ("MI", "c.f(unknown)"),
      ("MI", "unknown.run()")]),
    ("class C { Conn x; void m() { g((Conn c) -> c.open(), (a, x) -> x.go(a)); x.close(); } }",
     [("TD", "C"), ("FD", "Conn"), ("MD", "m():void"), ("MI", "c.g(unknown,unknown)"),
      ("MI", "conn.open()"), ("MI", "unknown.go(unknown)"), ("MI", "conn.close()")]),
    # a receiver is an identifier: an array's names its element type and dimensions
    ("class C { void m(String[] args) { int[][] a = null; a.clone(); args.toString(); } }",
     [("TD", "C"), ("MD", "m(String[]):void"), ("VD", "int[][]"),
      ("MI", "intArrayArray.clone()"), ("MI", "stringArray.toString()")]),
    # a var local has its initializer's value type, a for-each one unknown
    ("class C { void m(List xs) { var c = new Conn(); c.open(); for (var x : xs) x.run(); } }",
     [("TD", "C"), ("MD", "m(List):void"), ("VD", "Conn"), ("CI", "Conn()"),
      ("MI", "conn.open()"), ("VD", "unknown"), ("MI", "unknown.run()")]),
    ('class C { void m() { var s = "a" + 1; s.trim(); var k = f(); k.g(); } }',
     [("TD", "C"), ("MD", "m():void"), ("VD", "String"), ("MI", "string.trim()"),
      ("VD", "unknown"), ("MI", "c.f()"), ("MI", "unknown.g()")]),
])
def test_unit_items(source, expected):
    assert [it.identity for it in extract_items(source, "a.java")[0]] == expected


def test_local_class_stays_out_of_its_method_record():
    source = "class C { void m() { class L { void n() { y.g(); } } x.f(); } }"
    items, _ = extract_items(source, "c.java")
    assert [it.identity for it in items if it.kind == "TD"] == [("TD", "C"), ("TD", "L")]
    records = {r.sid: r.items for r in build_sequence_db(items).records}
    assert records == {"c.java.C.m()": (("MD", "m():void"), ("MI", "unknown.f()")),
                       "c.java.C.m().L.n()": (("MD", "n():void"), ("MI", "unknown.g()"))}


def test_labeled_loop_keeps_its_markers():
    source = "class C { void m() { outer: while (a) { if (b) { continue outer; } } } }"
    _, markers = extract_items(source, "c.java")
    assert [m.label for m in markers] == ["LOOP", "IF"]


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
    assert [n for _, n in counted] == [len(tokenize(s).texts) for s in sources]


# --- the parser against units written with their items ---------------------------

@settings(max_examples=300, deadline=None)
@given(java_units())
def test_extract_items_matches_the_generated_record(unit):
    assert extract_items(unit.source, LABEL) == (unit.items, unit.markers)


_IDENTIFIER = r"(?!(?:{})\b)[A-Za-z_$][\w$]*".format(
    "|".join(sorted(KEYWORDS - {"super"}, key=len, reverse=True)))
_RECEIVER = re.compile(rf"{_IDENTIFIER}(?:\.{_IDENTIFIER})*")


@settings(max_examples=100, deadline=None)
@given(java_units())
def test_every_receiver_is_an_identifier_path(unit):
    """The receiver of every call and field write, rendered from a variable,
    a type, a creation or a literal, is unknown, super or a dotted path of
    Java identifiers: a skeleton can write it as a statement."""
    for kind, name, _, _ in extract_items(unit.source, LABEL)[0]:
        if kind in ("MI", "FA"):
            receiver = name.partition("(")[0].rpartition(".")[0]
            assert _RECEIVER.fullmatch(receiver), name


def test_grammar_reaches_every_construct():
    """One unit holds every item kind, both marker labels, every skipped
    statement and every recorded form: a grammar that lost a construct fails
    here, naming it."""
    everything = set(ITEM_KINDS) | {"IF", "LOOP"} | SKIPPED | FORMS
    reached = set()

    def held(unit):
        return {row[0] for row in unit.items + unit.markers} | unit.written

    def holds_everything(constructs):
        reached.update(constructs)
        return constructs == everything

    try:
        find(java_units(min_choices=4096).map(held), holds_everything,
             settings=settings(max_examples=200, database=None, phases=[Phase.generate]),
             random=random.Random(0))
    except NoSuchExample:
        pytest.fail(f"never written: {sorted(everything - reached)}")


# --- positions, limits and corpora -----------------------------------------------

@pytest.mark.parametrize("source, message, line, column", [
    ("{ } {\n{ } x", "unbalanced '{'", 1, 5),  # the innermost brace left open
    ("} {", "unbalanced '}'", 1, 1),
    ('if (a) {\n  b = "c', "unterminated string literal", 2, 7),
])
def test_error_names_its_message_and_position(source, message, line, column):
    with pytest.raises(UnparsableSource) as err:
        extract_items(source, "k.java")
    assert (err.value.message, err.value.line, err.value.column) == (message, line, column)


def test_nesting_limit_is_exact():
    """A class declaration is one level, and the expressions of a method
    read before it leave the count as they found it."""
    head = "class K { void m() { f(g(1), (2)); x = h(3); } "
    items, _ = extract_items(head + "class Q {" * (MAX_NESTING - 1) + "}" * MAX_NESTING)
    assert len(items) == MAX_NESTING + 4
    with pytest.raises(UnparsableSource, match=f"nesting deeper than {MAX_NESTING}"):
        extract_items(head + "class Q {" * MAX_NESTING + "}" * (MAX_NESTING + 1))


@pytest.mark.parametrize("seed", [1, 2])
def test_generated_corpus_extracts_to_its_record(seed, tmp_path):
    record = gen.write_inputs(tmp_path, seed, files=6, methods=5)
    assert checks.check_extraction(record["methods"], str(tmp_path / "corpus")) == []
