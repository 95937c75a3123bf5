from __future__ import annotations

from esdp.extractor import extract_corpus, extract_items
from esdp.transactions import build_sequence_db

TWO_METHODS = """package pkg;
class Cls {
    void m1() {
        a.one();
        b.two();
    }
    void m2() {
        a.one();
    }
}
"""

EQ31_STYLE = """package p;
class ClassA {
    void m() {
        ICompilationUnit one;
        ASTParser two;
        two.setKind(1);
        two.setSource(one);
        two.setResolveBindings(true);
    }
}
"""


def test_single_method_sequence_record():
    items, _ = extract_items(EQ31_STYLE, "a.java")
    db = build_sequence_db(items)
    assert [r.sid for r in db.records] == ["p.ClassA.m()"]
    rec = db.records[0]
    assert ("VD", "ICompilationUnit") in rec.items
    assert ("VD", "ASTParser") in rec.items
    assert ("MI", "aSTParser.setKind(int)") in rec.items


def test_empty_items_give_empty_list():
    assert build_sequence_db([]).records == ()
    assert len(build_sequence_db([])) == 0


def test_two_methods_two_records():
    items, _ = extract_items(TWO_METHODS, "t.java")
    db = build_sequence_db(items)
    assert [r.sid for r in db.records] == ["pkg.Cls.m1()", "pkg.Cls.m2()"]


def test_sequence_preserves_duplicates_and_order():
    source = "class C { void m() { x.t(); y.u(); x.t(); } }"
    items, _ = extract_items(source, "c.java")
    db = build_sequence_db(items)
    names = [name for _, name in db.records[0].items]
    assert names == ["m():void", "unknown.t()", "unknown.u()", "unknown.t()"]


def test_md_item_heads_each_sequence():
    items, _ = extract_items(TWO_METHODS, "t.java")
    db = build_sequence_db(items)
    for rec in db.records:
        assert rec.items[0][0] == "MD"


def test_sequence_matches_line_order_not_call_order():
    shuffled = """class C {
    void m() {
        first.a();
        second.b();
        third.c();
    }
}
"""
    items, _ = extract_items(shuffled, "c.java")
    base = [n for _, n in build_sequence_db(items).records[0].items]

    permuted = """class C {
    void m() {
        third.c();
        first.a();
        second.b();
    }
}
"""
    items2, _ = extract_items(permuted, "c.java")
    got = [n for _, n in build_sequence_db(items2).records[0].items]
    assert got == ["m():void", "unknown.c()", "unknown.a()", "unknown.b()"]
    assert sorted(got) == sorted(base)


def test_sequence_lengths_sum(fixture_corpus):
    items, _ = extract_corpus([fixture_corpus])
    db = build_sequence_db(items)
    method_scoped = [it for it in items if it.enclosing.endswith("()")]
    heads = sum(1 for r in db.records if r.items[0][0] == "MD")
    assert sum(len(r.items) for r in db.records) == len(method_scoped) + heads


def test_determinism(fixture_corpus):
    items1, _ = extract_corpus([fixture_corpus])
    items2, _ = extract_corpus([fixture_corpus])
    assert build_sequence_db(items1) == build_sequence_db(items2)


def test_fixture_db_has_twelve_records(fixture_db):
    assert len(fixture_db) == 12
