from __future__ import annotations

import os
from pathlib import Path

import pytest

from conftest import write_fixture_corpus
from esdp.cli import main
from esdp.repository import SchemaViolation, make_repository, parse, serialize


@pytest.fixture()
def corpus(tmp_path) -> Path:
    return write_fixture_corpus(tmp_path / "corpus")


def run(argv, capsys):
    status = main(argv)
    return status, capsys.readouterr().out


def test_mine_writes_fig35_shaped_repo(corpus, tmp_path, capsys):
    repo_path = tmp_path / "out.xml"
    status, out = run(["mine", "--corpus", str(corpus), "--min-support", "2",
                       "--repo", str(repo_path)], capsys)
    assert status == 0
    assert "12 method sequences" in out
    repo = parse(repo_path.read_bytes())
    top = repo.patterns[0]
    assert top.k == 5
    assert top.support_count == 7
    text = repo_path.read_text()
    assert '<support num="7" den="12">0.58</support>' in text
    assert "<ranking>2.92</ranking>" in text


def test_adaptive_mine_records_threshold_used(corpus, tmp_path, capsys):
    repo_path = tmp_path / "out.xml"
    status, _ = run(["mine", "--corpus", str(corpus), "--adaptive",
                     "--repo", str(repo_path)], capsys)
    assert status == 0
    repo = parse(repo_path.read_bytes())
    # the fixture has 63 patterns at min-support 5 and 31 at 6 and 7
    assert repo.min_support_used == 6
    assert len(repo.patterns) == 31
    assert min(p.support_count for p in repo.patterns) >= repo.min_support_used


def test_query_table_and_skeleton(corpus, tmp_path, capsys):
    repo_path = tmp_path / "out.xml"
    run(["mine", "--corpus", str(corpus), "--repo", str(repo_path)], capsys)
    status, out = run([
        "query", "--repo", str(repo_path), "--top", "5", "--pick", "1",
        "--var", "parser=ASTParser",
        "--import", "org.eclipse.jdt.core.dom.ASTParser",
        "parser = ASTParser.newParser(AST.JLS3);"], capsys)
    assert status == 0
    assert "rank" in out and "ranking" in out
    assert "2.92" in out
    assert "parser.setKind(0);" in out


def test_query_latency_flag(corpus, tmp_path, capsys):
    repo_path = tmp_path / "out.xml"
    run(["mine", "--corpus", str(corpus), "--repo", str(repo_path)], capsys)
    status, out = run(["query", "--repo", str(repo_path), "--pick", "1", "--time",
                       "--var", "parser=ASTParser",
                       "parser.setKind(0);"], capsys)
    assert status == 0
    assert "query time:" in out


def test_unknown_command_exits_2(capsys):
    with pytest.raises(SystemExit) as err:
        main(["frobnicate"])
    assert err.value.code == 2


def test_bad_threshold_exits_2(corpus, capsys):
    with pytest.raises(SystemExit) as err:
        main(["mine", "--corpus", str(corpus), "--min-support", "0"])
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "argument --min-support: must be a positive integer, got '0'" in captured.err


@pytest.mark.parametrize("argv, named", [
    (["mine", "--corpus", "c", "--max-patterns", "0"], "--max-patterns"),
    (["update", "--corpus", "c", "--min-support", "-1"], "--min-support"),
    (["groum", "--corpus", "c", "--sigma", "0"], "--sigma"),
    (["query", "--top", "0", "x.y();"], "--top"),
    (["query", "--top", "two", "x.y();"], "--top"),
    (["query", "--var", "bad", "x.y();"], "--var"),
    (["eval", "--gold", "g.tsv", "--var", "=Type"], "--var"),
])
def test_usage_error_names_argument(argv, named, capsys):
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument {named}: " in captured.err


def test_missing_corpus_is_usage_error(capsys):
    with pytest.raises(SystemExit) as err:
        main(["mine"])
    assert err.value.code == 2


def test_extract_dump(corpus, capsys):
    status, out = run(["extract", "--corpus", str(corpus)], capsys)
    assert status == 0
    lines = out.strip().splitlines()
    assert all(len(line.split("\t")) == 4 for line in lines)
    assert any(line.startswith("MI\tdom.ASTParser.newParser(int)") for line in lines)


def test_update_merges(corpus, tmp_path, capsys):
    repo_path = tmp_path / "repo.xml"
    run(["mine", "--corpus", str(corpus), "--repo", str(repo_path),
         "--min-support", "3"], capsys)
    before = len(parse(repo_path.read_bytes()).patterns)
    status, out = run(["update", "--corpus", str(corpus), "--repo", str(repo_path),
                       "--min-support", "2"], capsys)
    assert status == 0
    after = len(parse(repo_path.read_bytes()).patterns)
    assert after >= before


def test_groum_report(corpus, capsys):
    status, out = run(["groum", "--corpus", str(corpus), "--sigma", "2"], capsys)
    assert status == 0
    assert "node 0 ASTParser.newParser" in out
    assert "edge 0 1" in out
    assert "pattern size=5" in out


def test_eval_report(corpus, tmp_path, capsys):
    repo_path = tmp_path / "repo.xml"
    run(["mine", "--corpus", str(corpus), "--repo", str(repo_path)], capsys)
    gold = tmp_path / "gold.tsv"
    expected = ("dom.ASTParser.newParser(int) aSTParser.setKind(int) "
                "aSTParser.setSource(core.ICompilationUnit) "
                "aSTParser.setResolveBindings(boolean) aSTParser.createAST(null)")
    gold.write_text(
        "parser = ASTParser.newParser(AST.JLS3);\t" + expected + "\t1\n"
        "ghost.vanish();\tno.such(item)\t0\n",
        encoding="utf-8")
    status, out = run([
        "eval", "--repo", str(repo_path), "--gold", str(gold),
        "--var", "parser=ASTParser",
        "--import", "org.eclipse.jdt.core.dom.ASTParser"], capsys)
    assert status == 0
    assert "mean precision" in out
    assert "AUC" in out


def test_eval_csv_format(corpus, tmp_path, capsys):
    repo_path = tmp_path / "repo.xml"
    run(["mine", "--corpus", str(corpus), "--repo", str(repo_path)], capsys)
    gold = tmp_path / "gold.tsv"
    gold.write_text("parser.setKind(0);\taSTParser.setKind(int)\n", encoding="utf-8")
    status, out = run(["eval", "--repo", str(repo_path), "--gold", str(gold),
                       "--var", "parser=ASTParser", "--format", "csv"], capsys)
    assert status == 0
    assert out.splitlines()[0] == "query,matched,precision,recall,score"


def test_eval_gold_not_utf8_names_file_and_byte_offset(corpus, tmp_path, capsys):
    repo_path = tmp_path / "repo.xml"
    run(["mine", "--corpus", str(corpus), "--repo", str(repo_path)], capsys)
    gold = tmp_path / "gold.tsv"
    gold.write_bytes(b"x.y();\tcaf\xe9\n")
    status, out = run(["eval", "--repo", str(repo_path), "--gold", str(gold)], capsys)
    assert status == 1
    assert out == f"ValueError: {gold}: not UTF-8 at byte offset 10\n"


@pytest.mark.parametrize("bad, message", [
    ("x.y();", "malformed gold line: 'x.y();'"),
    ("x.y();\ta.b()\tyes", "gold label must be 0 or 1: 'x.y();\\ta.b()\\tyes'"),
])
def test_eval_bad_gold_line_names_file_and_line(corpus, tmp_path, capsys, bad, message):
    repo_path = tmp_path / "repo.xml"
    run(["mine", "--corpus", str(corpus), "--repo", str(repo_path)], capsys)
    gold = tmp_path / "gold.tsv"
    gold.write_text(f"# statement, items, label\nx.y();\ta.b()\t1\n\n{bad}\n",
                    encoding="utf-8")
    status, out = run(["eval", "--repo", str(repo_path), "--gold", str(gold)], capsys)
    assert status == 1
    assert out == f"ValueError: {gold}:4: {message}\n"


def test_store_in_missing_directory_is_named(corpus, tmp_path, capsys):
    store = tmp_path / "no-such-dir" / "x.xml"
    status, out = run(["mine", "--corpus", str(corpus), "--repo", str(store)], capsys)
    assert status == 1
    assert out == f"FileNotFoundError: [Errno 2] No such file or directory: '{store}'\n"


def test_long_frequent_pattern_is_mined(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    body = "    a.f();\n" * 1100
    (corpus / "A.java").write_text(
        f"class A {{\n  void m1() {{\n{body}  }}\n  void m2() {{\n{body}  }}\n}}\n",
        encoding="utf-8")
    status, out = run(["mine", "--corpus", str(corpus), "--min-support", "2",
                       "--repo", str(tmp_path / "r.xml")], capsys)
    assert status == 0
    assert out.startswith("mined 1100 patterns from 2 method sequences")


def test_domain_error_exits_1(tmp_path, capsys):
    status, out = run(["query", "--repo", str(tmp_path / "missing.xml"),
                       "--pick", "1", "x.y();"], capsys)
    assert status == 1
    assert "FileNotFoundError" in out


def test_directory_in_place_of_a_file_exits_1(corpus, tmp_path, capsys):
    repo_path = tmp_path / "repo.xml"
    run(["mine", "--corpus", str(corpus), "--repo", str(repo_path)], capsys)
    for argv, path in [(["query", "--repo", str(tmp_path), "--pick", "1", "x.y();"], tmp_path),
                       (["eval", "--repo", str(repo_path), "--gold", str(corpus)], corpus)]:
        status = main(argv)
        out, err = capsys.readouterr()
        assert status == 1
        assert out.startswith("IsADirectoryError: ") and str(path) in out
        assert out.count("\n") == 1
        assert err == ""


def test_mine_determinism(corpus, tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "1445558400")
    a, b = tmp_path / "a.xml", tmp_path / "b.xml"
    run(["mine", "--corpus", str(corpus), "--repo", str(a)], capsys)
    run(["mine", "--corpus", str(corpus), "--repo", str(b)], capsys)
    assert a.read_bytes() == b.read_bytes()


def test_esdp_repo_env_default(corpus, tmp_path, capsys, monkeypatch):
    repo_path = tmp_path / "env.xml"
    monkeypatch.setenv("ESDP_REPO", str(repo_path))
    status, _ = run(["mine", "--corpus", str(corpus)], capsys)
    assert status == 0
    assert repo_path.exists()


def test_self_retrieval(corpus, tmp_path, capsys):
    # a query drawn from the corpus itself always finds a supporting pattern
    repo_path = tmp_path / "repo.xml"
    run(["mine", "--corpus", str(corpus), "--repo", str(repo_path)], capsys)
    status, out = run([
        "query", "--repo", str(repo_path), "--pick", "1",
        "--var", "parser=ASTParser",
        "--import", "org.eclipse.jdt.core.dom.ASTParser",
        "parser.setSource(unit);"], capsys)
    assert status == 0
    assert "no recommendation" not in out


@pytest.mark.parametrize("count,size,shown", [(1, 8, "0.13"), (30, 2000, "0.02")])
def test_query_prints_store_rounding(tmp_path, capsys, count, size, shown):
    from esdp.mining import SequentialPattern
    from esdp.repository import make_repository, serialize

    pattern = SequentialPattern((("MI", "aSTParser.setKind(int)"),), count, size, count)
    repo_path = tmp_path / "one.xml"
    repo_path.write_bytes(serialize(make_repository([pattern])))
    assert f'<support num="{count}" den="{size}">{shown}</support>' in repo_path.read_text()
    status, out = run(["query", "--repo", str(repo_path), "--pick", "1",
                       "--var", "parser=ASTParser", "parser.setKind(0);"], capsys)
    assert status == 0
    row = next(line for line in out.splitlines() if line.startswith("1 "))
    assert row.split()[2:5] == [shown, "1.00", shown]


def _two_call_store(tmp_path) -> Path:
    from esdp.mining import SequentialPattern
    from esdp.repository import make_repository, serialize

    pattern = SequentialPattern((("MI", "aSTParser.setKind(int,int)"),
                                 ("MI", "aSTParser.flush()")), 1, 8, 1)
    repo_path = tmp_path / "two.xml"
    repo_path.write_bytes(serialize(make_repository([pattern])))
    return repo_path


_SET_KIND = ["--var", "parser=ASTParser", "parser.setKind(0, 1);"]


def test_query_csv_quotes_a_cell_with_a_comma(tmp_path, capsys):
    status, out = run(["query", "--repo", str(_two_call_store(tmp_path)), "--pick", "1",
                       "--format", "csv", *_SET_KIND], capsys)
    assert status == 0
    assert out.splitlines() == [
        "rank,k,support,confidence,ranking,sequence",
        '1,2,0.13,1.00,0.25,"aSTParser.setKind(int,int) aSTParser.flush()"',
        "--- skeleton ---", "parser.flush();"]


def test_query_out_writes_the_skeleton_to_the_file(tmp_path, capsys):
    out_path = tmp_path / "skeleton.java"
    status, out = run(["query", "--repo", str(_two_call_store(tmp_path)), "--pick", "1",
                       "--out", str(out_path), *_SET_KIND], capsys)
    assert status == 0
    assert out_path.read_text(encoding="utf-8") == "parser.flush();\n"
    assert out.splitlines()[-1] == f"skeleton -> {out_path}"
    assert "--- skeleton ---" not in out


def test_query_pick_beyond_the_list_exits_1(tmp_path, capsys):
    status, out = run(["query", "--repo", str(_two_call_store(tmp_path)), "--pick", "2",
                       *_SET_KIND], capsys)
    assert status == 1
    assert out.strip() == "ValueError: --pick 2 out of range 1..1"


def test_corpus_may_name_a_source_file(corpus, capsys):
    from esdp.extractor import dump_items, extract_items

    path = corpus / "Dao1.java"
    status, out = run(["extract", "--corpus", str(path)], capsys)
    assert status == 0
    items, _ = extract_items(path.read_text(encoding="utf-8"), str(path))
    assert out == dump_items(items) + "\n"
    assert "MI\tconnection.close()\tcom.fixture.Dao1.open1()\t8" in out.splitlines()


def test_query_time_includes_store_parse(corpus, tmp_path, capsys, monkeypatch):
    import time

    import esdp.cli

    repo_path = tmp_path / "out.xml"
    run(["mine", "--corpus", str(corpus), "--repo", str(repo_path)], capsys)

    def slow_parse(data):
        time.sleep(0.05)
        return parse(data)

    monkeypatch.setattr(esdp.cli, "parse", slow_parse)
    status, out = run(["query", "--repo", str(repo_path), "--pick", "1", "--time",
                       "--var", "parser=ASTParser", "parser.setKind(0);"], capsys)
    assert status == 0
    shown = next(line for line in out.splitlines() if line.startswith("query time:"))
    assert float(shown.split()[2]) >= 50.0


@pytest.mark.parametrize("failing", ["merge_update", "replace"])
def test_failed_update_leaves_store_whole(corpus, tmp_path, capsys, monkeypatch, failing):
    import esdp.cli

    (tmp_path / "store").mkdir()
    repo_path = tmp_path / "store" / "store.xml"
    run(["mine", "--corpus", str(corpus), "--min-support", "3", "--repo", str(repo_path)],
        capsys)
    before = repo_path.read_bytes()

    def fail(*args):
        raise OSError(f"{failing} failed")

    if failing == "merge_update":
        monkeypatch.setattr(esdp.cli, "merge_update", fail)
    else:
        monkeypatch.setattr(os, "replace", fail)
    status, out = run(["update", "--corpus", str(corpus), "--min-support", "2",
                       "--repo", str(repo_path)], capsys)
    assert status == 1
    assert out == f"OSError: {failing} failed\n"
    assert repo_path.read_bytes() == before
    assert [p.name for p in repo_path.parent.iterdir()] == ["store.xml"]


def test_control_character_in_label_is_refused(corpus, tmp_path, capsys):
    repo_path = tmp_path / "out.xml"
    status, out = run(["mine", "--corpus", str(corpus), "--repo", str(repo_path),
                       "--corpus-label", "team\tA"], capsys)
    assert status == 1
    assert "control character" in out
    assert not repo_path.exists()


def _mine_bad_file(tmp_path, capsys, name: str, data: bytes):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    bad = corpus / name
    bad.write_bytes(data)
    status = main(["mine", "--corpus", str(corpus), "--repo", str(tmp_path / "r.xml")])
    captured = capsys.readouterr()
    assert status == 1
    assert "Traceback" not in captured.err
    assert not (tmp_path / "r.xml").exists()
    return bad, captured.out


def test_lexical_error_names_file_and_position(tmp_path, capsys):
    bad, out = _mine_bad_file(tmp_path, capsys, "Bad.java",
                              b"class Bad {\n  void m() { int x = `y`; }\n}\n")
    assert out.strip() == f"UnparsableSource: {bad}: illegal character '`' at 2:22"


def test_file_not_utf8_names_file_and_byte_offset(tmp_path, capsys):
    data = b'class Bad { String s = "caf\xe9"; }\n'
    bad, out = _mine_bad_file(tmp_path, capsys, "Bad.java", data)
    offset = data.index(b"\xe9")
    assert out.strip() == f"UnparsableSource: {bad}: not UTF-8 at byte offset {offset}"


def test_form_feed_is_whitespace(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "A.java").write_text("class A {\n\f  void m() { x.f(); }\n}\n",
                                   encoding="utf-8")
    status, out = run(["mine", "--corpus", str(corpus), "--min-support", "1",
                       "--repo", str(tmp_path / "r.xml")], capsys)
    assert status == 0
    assert "from 1 method sequences" in out
    assert '<s i="2" kind="MI">unknown.f()</s>' in (tmp_path / "r.xml").read_text()


@pytest.mark.parametrize("opener, closer", [("if (a) {\n", "}\n"), ("(", ")")])
def test_deep_nesting_names_file(tmp_path, capsys, opener, closer):
    source = ("class Deep {\n  void m() {\n    x = 1;\n" + opener * 400 + "y();"
              + closer * 400 + "\n  }\n}\n")
    bad, out = _mine_bad_file(tmp_path, capsys, "Deep.java", source.encode())
    assert out.startswith(f"UnparsableSource: {bad}: nesting deeper than ")


def _refused_update(tmp_path, capsys, store: bytes) -> str:
    """Run update against store; assert that it is refused and left whole,
    with no temporary file; the error line it prints."""
    corpus = tmp_path / "corpus"
    if not corpus.exists():
        corpus.mkdir()
        (corpus / "A.java").write_text("class A { void m() { x.f(); } }", encoding="utf-8")
    repo_path = tmp_path / "store" / "store.xml"
    repo_path.parent.mkdir(exist_ok=True)
    repo_path.write_bytes(store)
    status, out = run(["update", "--corpus", str(corpus), "--min-support", "1",
                       "--repo", str(repo_path)], capsys)
    assert status == 1
    assert repo_path.read_bytes() == store
    assert [p.name for p in repo_path.parent.iterdir()] == ["store.xml"]
    return out


def test_update_refuses_what_parse_refuses(tmp_path, capsys):
    from test_repository import mutated_documents

    refused = 0
    for mutant in mutated_documents():
        with pytest.raises(SchemaViolation) as err:
            parse(mutant)
        assert _refused_update(tmp_path, capsys, mutant) == f"SchemaViolation: {err.value}\n"
        refused += 1
    assert refused >= 100


def test_update_refuses_a_store_out_of_ranking_order(tmp_path, capsys):
    from test_repository import _swap_blocks, pattern_of

    repo = make_repository([pattern_of(["x()", "y()"], count=2, size=4),
                            pattern_of(["z()"], count=3, size=4)], "c", "t", 1)
    assert repo.patterns[0].ranking > repo.patterns[1].ranking
    swapped = _swap_blocks(serialize(repo), 0)
    parse(swapped)  # parse checks no order
    assert _refused_update(tmp_path, capsys, swapped) == (
        "SchemaViolation: /esdp-repository/patterns/pattern[2]: line 11: pattern ranks above "
        "pattern[1]: stored patterns must be in ranking order\n")
