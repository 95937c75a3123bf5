from __future__ import annotations

import csv
import importlib
import json
import os
import pkgutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import esdp.cli
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
    # an extension starts with its dot
    (["extract", "--corpus", "c", "--ext", "java"], "--ext"),
    (["mine", "--corpus", "c", "--ext", "."], "--ext"),
    # the threshold is given or found, and the cap bounds only the search
    (["mine", "--corpus", "c", "--adaptive", "--min-support", "3"], "--min-support"),
    (["update", "--corpus", "c", "--min-support", "3", "--max-patterns", "5"], "--max-patterns"),
    # an extension ends a file name
    (["groum", "--corpus", "c", "--ext", ".d/x.java"], "--ext"),
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
    # the report names the threshold the store records
    status, out = run(["update", "--adaptive", "--corpus", str(corpus), "--repo",
                       str(repo_path)], capsys)
    assert status == 0
    assert out.startswith(f"updated {repo_path} with 31 fresh patterns at min-support 6 ")
    assert parse(repo_path.read_bytes()).min_support_used == 6


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


def test_eval_csv_reads_back_as_the_table_cells(corpus, tmp_path, capsys):
    # RFC 4180: a cell with a comma or a double quote is quoted, and each
    # double quote in it doubled
    repo_path = tmp_path / "repo.xml"
    run(["mine", "--corpus", str(corpus), "--repo", str(repo_path)], capsys)
    gold = tmp_path / "gold.tsv"
    gold.write_text('s.f("a,b");\ta.b()\ns.g("x");\ta.b()\n'
                    "parser.setKind(0);\taSTParser.setKind(int)\n", encoding="utf-8")
    status, out = run(["eval", "--repo", str(repo_path), "--gold", str(gold),
                       "--var", "parser=ASTParser", "--format", "csv"], capsys)
    assert status == 0
    assert list(csv.reader(out.splitlines())) == [
        ["query", "matched", "precision", "recall", "score"],
        ['s.f("a,b");', "0", "0.00", "0.00", "0.00"],
        ['s.g("x");', "0", "0.00", "0.00", "0.00"],
        ["parser.setKind(0);", "1", "0.25", "1.00", "2.33"],
        ["mean", "", "0.08", "0.33", ""]]


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


def test_eval_refused_gold_statement_names_file_and_line(corpus, tmp_path, capsys):
    repo_path = tmp_path / "repo.xml"
    run(["mine", "--corpus", str(corpus), "--repo", str(repo_path)], capsys)
    gold = tmp_path / "gold.tsv"
    # the position is the statement's own, stripped, not the query wrapper's
    for statement, message in [("{{{;", "unbalanced '{' at 1:1"),
                               ("  x = `y`;", "illegal character '`' at 1:5")]:
        gold.write_text(f"# statement, items, label\nx.y();\ta.b()\t1\n\n{statement}\ta.b()\n",
                        encoding="utf-8")
        status, out = run(["eval", "--repo", str(repo_path), "--gold", str(gold)], capsys)
        assert status == 1
        assert out == f"UnparsableQuery: {gold}:4: {message}\n"


def test_eval_gold_without_queries_names_file(corpus, tmp_path, capsys):
    repo_path = tmp_path / "repo.xml"
    run(["mine", "--corpus", str(corpus), "--repo", str(repo_path)], capsys)
    gold = tmp_path / "gold.tsv"
    gold.write_text("# statement, items, label\n\n", encoding="utf-8")
    status, out = run(["eval", "--repo", str(repo_path), "--gold", str(gold)], capsys)
    assert (status, out) == (1, f"ValueError: {gold}: gold file holds no queries\n")


_LABELLED_GOLD = (
    "parser = ASTParser.newParser(AST.JLS3);\taSTParser.newParser(int)\t1\n"
    "parser.setKind(0);\taSTParser.setKind(int)\t1\n"
    "parser.createAST(null);\taSTParser.createAST(null)\t0\n"
    'conn = DriverManager.getConnection("x");\tconnection.close()\t1\n'
    "ghost.vanish();\tno.such(item)\t0\n")


@pytest.mark.parametrize("fmt, roc_lines", [
    ("table", ["ROC points: (0.00,0.00) (0.00,0.33) (0.00,0.67) (0.50,0.67) (0.50,1.00) "
               "(1.00,1.00)",
               "AUC 0.8333"]),
    ("csv", ["fpr,tpr", "0.0000,0.0000", "0.0000,0.3333", "0.0000,0.6667", "0.5000,0.6667",
             "0.5000,1.0000", "1.0000,1.0000", "auc,0.8333"]),
])
def test_eval_roc_from_exact_scores(corpus, tmp_path, capsys, monkeypatch, fmt, roc_lines):
    import esdp.metrics

    repo_path = tmp_path / "repo.xml"
    run(["mine", "--corpus", str(corpus), "--repo", str(repo_path)], capsys)
    gold = tmp_path / "gold.tsv"
    gold.write_text(_LABELLED_GOLD, encoding="utf-8")
    scored = []
    roc_points = esdp.metrics.roc_points

    def recording_roc_points(pairs):
        scored.extend(pairs)
        return roc_points(scored)

    monkeypatch.setattr(esdp.metrics, "roc_points", recording_roc_points)
    status, out = run(["eval", "--repo", str(repo_path), "--gold", str(gold),
                       "--var", "parser=ASTParser", "--var", "conn=Connection",
                       "--import", "org.eclipse.jdt.core.dom.ASTParser", "--format", fmt],
                      capsys)
    assert status == 0
    # the scores reach roc_points as the exact fractions the store ranks by
    assert [(type(score), score, label) for score, label in scored] == [
        (Fraction, Fraction(35, 12), 1), (Fraction, Fraction(7, 3), 1),
        (Fraction, Fraction(5, 6), 0), (Fraction, Fraction(1, 2), 1), (Fraction, 0, 0)]
    assert out.splitlines()[-len(roc_lines):] == roc_lines


@pytest.mark.parametrize("fmt, roc_lines", [
    ("table", ["ROC points: (0.00,0.00) (0.00,0.75) (0.13,0.75) (0.25,0.75) (0.38,0.75) "
               "(0.38,1.00) (0.50,1.00) (0.63,1.00) (0.75,1.00) (0.88,1.00) (1.00,1.00)",
               "AUC 0.9063"]),
    ("csv", ["fpr,tpr", "0.0000,0.0000", "0.0000,0.7500", "0.1250,0.7500", "0.2500,0.7500",
             "0.3750,0.7500", "0.3750,1.0000", "0.5000,1.0000", "0.6250,1.0000",
             "0.7500,1.0000", "0.8750,1.0000", "1.0000,1.0000", "auc,0.9063"]),
])
def test_eval_roc_rounds_half_up_as_the_store_does(tmp_path, capsys, fmt, roc_lines):
    # eight negatives put the FPR at eighths and four positives the AUC at
    # 29/32: 1/8, 5/8 and 29/32 are ties that round up, where a binary
    # float rounds them to 0.12, 0.62 and 0.9062
    from esdp.mining import SequentialPattern

    counts = [2, 4, 6, 8, 10, 12, 14, 16, 18, 18, 18, 11]  # of 20; negatives first
    store = tmp_path / "store.xml"
    store.write_bytes(serialize(make_repository(
        [SequentialPattern((("MI", f"aSTParser.m{i}()"),), n, 20, n)
         for i, n in enumerate(counts)])))
    gold = tmp_path / "gold.tsv"
    gold.write_text("".join(f"parser.m{i}();\taSTParser.m{i}()\t{int(i >= 8)}\n"
                            for i in range(len(counts))), encoding="utf-8")
    status, out = run(["eval", "--repo", str(store), "--gold", str(gold),
                       "--var", "parser=ASTParser", "--format", fmt], capsys)
    assert status == 0
    assert out.splitlines()[-len(roc_lines):] == roc_lines


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
    missing = tmp_path / "no-such-corpus"
    status, out = run(["mine", "--corpus", str(missing), "--repo", str(tmp_path / "r.xml")],
                      capsys)
    assert (status, out) == (1, f"FileNotFoundError: corpus path not found: {missing}\n")



@pytest.mark.parametrize("module,function,error", [
    ("groum", "patt_explorer", "InvalidThreshold"),
    ("metrics", "sequence_pr", "UndefinedMetric"),
    ("metrics", "roc_points", "DegenerateLabels"),
])
def test_error_of_a_lazily_imported_module_exits_1(corpus, tmp_path, capsys, monkeypatch,
                                                   module, function, error):
    # groum and metrics are imported by the commands that use them
    imported = importlib.import_module(f"esdp.{module}")

    def fail(*args):
        raise getattr(imported, error)("refused")

    monkeypatch.setattr(imported, function, fail)
    if module == "groum":
        argv = ["groum", "--corpus", str(corpus)]
    else:
        repo_path = tmp_path / "repo.xml"
        run(["mine", "--corpus", str(corpus), "--repo", str(repo_path)], capsys)
        gold = tmp_path / "gold.tsv"
        gold.write_text("parser.setKind(0);\taSTParser.setKind(int)\t1\n"
                        "ghost.vanish();\tno.such(item)\t0\n", encoding="utf-8")
        argv = ["eval", "--repo", str(repo_path), "--gold", str(gold),
                "--var", "parser=ASTParser"]
    assert run(argv, capsys) == (1, f"{error}: refused\n")

def _esdp_exception_classes() -> list[type[Exception]]:
    """Every Exception subclass an esdp module defines."""
    classes = []
    for info in pkgutil.iter_modules(esdp.__path__, "esdp."):
        module = importlib.import_module(info.name)
        classes += [obj for obj in vars(module).values()
                    if isinstance(obj, type) and issubclass(obj, Exception)
                    and obj.__module__ == module.__name__]
    return classes


_ESDP_EXCEPTIONS = _esdp_exception_classes()


def test_every_esdp_error_is_a_value_error():
    assert {cls.__name__ for cls in _ESDP_EXCEPTIONS} >= {
        "UnparsableSource", "UnparsableQuery", "SchemaViolation", "InvalidThreshold",
        "UndefinedMetric", "DegenerateLabels"}
    assert [cls for cls in _ESDP_EXCEPTIONS if not issubclass(cls, ValueError)] == []


@pytest.mark.parametrize("error", _ESDP_EXCEPTIONS, ids=lambda cls: cls.__name__)
def test_every_esdp_error_exits_1_in_one_line(corpus, capsys, monkeypatch, error):
    def fail(*args):
        raise error("refused")

    monkeypatch.setattr(esdp.cli, "extract_corpus", fail)
    status = main(["extract", "--corpus", str(corpus)])
    out, err = capsys.readouterr()
    assert (status, out, err) == (1, f"{error.__name__}: refused\n", "")


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


@pytest.mark.parametrize("epoch, created", [
    ("0", "1970-01-01T00:00:00Z"), ("-1", "1969-12-31T23:59:59Z"),
    ("1445558400", "2015-10-23T00:00:00Z"), ("253402300799", "9999-12-31T23:59:59Z")])
def test_source_date_epoch_stamps_created(corpus, tmp_path, capsys, monkeypatch, epoch,
                                          created):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", epoch)
    repo_path = tmp_path / "out.xml"
    status, _ = run(["mine", "--corpus", str(corpus), "--repo", str(repo_path)], capsys)
    assert status == 0
    assert f' created="{created}" '.encode() in repo_path.read_bytes().split(b"\n", 1)[0]


@pytest.mark.parametrize("epoch", ["100000000000000000000", "253402300800", "-62135596801",
                                   "1.5", "soon"])
@pytest.mark.parametrize("command", ["mine", "update"])
def test_source_date_epoch_outside_years_1_to_9999_is_refused(
        corpus, tmp_path, capsys, monkeypatch, epoch, command):
    repo_path = tmp_path / "out.xml"
    before = None
    if command == "update":
        run(["mine", "--corpus", str(corpus), "--repo", str(repo_path)], capsys)
        before = repo_path.read_bytes()
    monkeypatch.setenv("SOURCE_DATE_EPOCH", epoch)
    status, out = run([command, "--corpus", str(corpus), "--repo", str(repo_path)], capsys)
    assert status == 1
    assert out == ("ValueError: SOURCE_DATE_EPOCH must be an integer from -62135596800 to "
                   f"253402300799 (years 1..9999), got {epoch!r}\n")
    if before is None:
        assert not repo_path.exists()
    else:
        assert repo_path.read_bytes() == before


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


def test_failed_query_out_leaves_the_file_whole(tmp_path, capsys, monkeypatch):
    store = _two_call_store(tmp_path)
    (tmp_path / "out").mkdir()
    out_path = tmp_path / "out" / "skeleton.java"
    out_path.write_text("old\n", encoding="utf-8")

    def fail(fd):
        raise OSError("fsync failed")

    monkeypatch.setattr(os, "fsync", fail)  # after the skeleton is written
    status, out = run(["query", "--repo", str(store), "--pick", "1",
                       "--out", str(out_path), *_SET_KIND], capsys)
    assert status == 1
    assert out == "OSError: fsync failed\n"
    assert out_path.read_text(encoding="utf-8") == "old\n"
    assert [p.name for p in out_path.parent.iterdir()] == ["skeleton.java"]


def test_written_files_keep_the_mode_of_the_file_they_replace(corpus, tmp_path, capsys):
    umask = os.umask(0)
    os.umask(umask)
    store = tmp_path / "store.xml"
    run(["mine", "--corpus", str(corpus), "--repo", str(store)], capsys)
    assert store.stat().st_mode & 0o777 == 0o666 & ~umask
    store.chmod(0o640)
    run(["update", "--corpus", str(corpus), "--repo", str(store)], capsys)
    assert store.stat().st_mode & 0o777 == 0o640
    skeleton = tmp_path / "skeleton.java"
    query = ["query", "--repo", str(_two_call_store(tmp_path)), "--pick", "1",
             "--out", str(skeleton), *_SET_KIND]
    assert main(query) == 0
    assert skeleton.stat().st_mode & 0o777 == 0o666 & ~umask
    skeleton.chmod(0o604)
    assert main(query) == 0
    assert skeleton.stat().st_mode & 0o777 == 0o604


def test_query_pick_beyond_the_list_exits_1(tmp_path, capsys):
    status, out = run(["query", "--repo", str(_two_call_store(tmp_path)), "--pick", "2",
                       *_SET_KIND], capsys)
    assert status == 1
    assert out.strip() == "ValueError: --pick 2 out of range 1..1"


@pytest.mark.parametrize("answer, picked", [("2", 2), ("second", 1), (EOFError, 1), ("0", 1),
                                            ("6", 1), ("\u00b2", 1)],
                         ids=["digit", "non-digit", "eof", "zero", "past-the-list",
                              "superscript-two"])
def test_pick_prompt_on_a_terminal(corpus, tmp_path, capsys, monkeypatch, answer, picked):
    # a non-digit answer, end of input (Ctrl-D) and a number outside 1..5
    # all pick the first
    repo_path = tmp_path / "repo.xml"
    run(["mine", "--corpus", str(corpus), "--repo", str(repo_path)], capsys)
    query = ["query", "--repo", str(repo_path), "--var", "parser=ASTParser",
             "parser.setKind(0);"]
    expected = run(query + ["--pick", str(picked)], capsys)
    prompts = []

    def ask(prompt):
        prompts.append(prompt)
        if answer is EOFError:
            raise EOFError
        return answer

    monkeypatch.setattr(sys.stdin, "isatty", lambda: True)
    monkeypatch.setattr("builtins.input", ask)
    assert run(query, capsys) == expected
    assert prompts == ["select recommendation 1..5: "]


def test_corpus_may_name_a_source_file(corpus, capsys):
    from esdp.extractor import dump_items, extract_items

    path = corpus / "Dao1.java"
    status, out = run(["extract", "--corpus", str(path)], capsys)
    assert status == 0
    items, _ = extract_items(path.read_text(encoding="utf-8"), str(path))
    assert out == dump_items(items) + "\n"
    assert "MI\tconnection.close()\tcom.fixture.Dao1.open1()\t8" in out.splitlines()


def test_ext_takes_a_file_root_as_it_takes_a_file_in_a_directory(tmp_path, capsys):
    (tmp_path / "K.src.java").write_text("class K { void run(Conn c) { c.open(); } }\n")
    path = str(tmp_path / "K.src.java")
    status, out = run(["extract", "--corpus", path, "--ext", ".src.java"], capsys)
    assert status == 0 and f"MI\tconn.open()\t{path}.K.run()\t1" in out.splitlines()
    assert run(["extract", "--corpus", str(tmp_path), "--ext", ".src.java"], capsys) == (0, out)


def test_ext_is_a_literal_suffix_not_a_glob(tmp_path, capsys):
    # ".ja*" names only files whose names end in ".ja*", whether the root is
    # the directory or the file
    for name in ("A.java", "B.jav", "C.ja*"):
        (tmp_path / name).write_text("class K { void run(Conn c) { c.open(); } }\n")
    star = str(tmp_path / "C.ja*")
    status, out = run(["extract", "--corpus", str(tmp_path), "--ext", ".ja*"], capsys)
    assert status == 0
    assert [line for line in out.splitlines() if line.startswith("MI")] == [
        f"MI\tconn.open()\t{star}.K.run()\t1"]
    assert run(["extract", "--corpus", star, "--ext", ".ja*"], capsys) == (0, out)
    assert run(["extract", "--corpus", str(tmp_path / "B.jav"), "--ext", ".ja*"],
               capsys) == (0, "\n")


def test_overlapping_corpus_roots_read_each_file_once(tmp_path, capsys, monkeypatch):
    # D/sub is under D: its file is one method sequence, not two
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "0")
    sub = tmp_path / "D" / "sub"
    sub.mkdir(parents=True)
    (sub / "K.java").write_text("class K { void run(Conn c) { c.open(); c.close(); } }\n")
    root = str(tmp_path / "D")
    both, one = tmp_path / "both.xml", tmp_path / "one.xml"
    status, out = run(["mine", "--min-support", "1", "--corpus", root, "--corpus", str(sub),
                       "--corpus-label", "D", "--repo", str(both)], capsys)
    assert (status, out) == (0, f"mined 7 patterns from 1 method sequences -> {both}\n")
    assert main(["mine", "--min-support", "1", "--corpus", root, "--corpus-label", "D",
                 "--repo", str(one)]) == 0
    assert both.read_bytes() == one.read_bytes()
    status, out = run(["extract", "--corpus", str(sub / "K.java"), "--corpus", root], capsys)
    assert out.count("\tK\t") == 1 and f"\t{sub / 'K.java'}\t" in out


def test_closed_standard_output_exits_1_without_a_traceback(corpus):
    # as in `esdp extract --corpus D | head -1`, the reader is gone before
    # esdp writes
    code = "import sys, esdp.cli\nsys.exit(esdp.cli.main(sys.argv[1:]))\n"
    env = dict(os.environ, PYTHONPATH=str(Path(esdp.cli.__file__).resolve().parents[1]))
    child = subprocess.Popen([sys.executable, "-c", code, "extract", "--corpus", str(corpus)],
                             stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    child.stdout.close()
    with child.stderr:
        stderr = child.stderr.read().decode()
    assert child.wait(timeout=60) == 1
    assert stderr == ""


def test_query_time_includes_store_parse(corpus, tmp_path, capsys, monkeypatch):
    import time

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


def _esdp_child(argv: list, **env: str) -> subprocess.CompletedProcess:
    """esdp run as its own process with argv, str or bytes, and env added."""
    code = "import sys, esdp.cli\nsys.exit(esdp.cli.main(sys.argv[1:]))\n"
    env = dict(os.environ, PYTHONPATH=str(Path(esdp.cli.__file__).resolve().parents[1]),
               SOURCE_DATE_EPOCH="0", **env)
    return subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, env=env,
                          timeout=60)


def _corpus_not_utf8(tmp_path) -> bytes:
    """The fixture corpus in a directory whose name is not UTF-8; its path."""
    path = os.fsencode(tmp_path) + b"/d\xff"
    write_fixture_corpus(Path(os.fsdecode(path)))
    return path


@pytest.mark.parametrize("label", [None, b"team\xff"])
def test_corpus_label_not_utf8_is_refused(tmp_path, label):
    # the default label is the corpus path
    corpus = _corpus_not_utf8(tmp_path)
    store = tmp_path / "out.xml"
    done = _esdp_child(["mine", "--corpus", corpus, "--repo", str(store),
                        *(["--corpus-label", label] if label else [])])
    assert (done.returncode, done.stderr) == (1, b"")
    shown = os.fsdecode(label or corpus)
    assert done.stdout == (f"ValueError: repository metadata {shown!r} cannot be encoded "
                           "as UTF-8\n").encode()
    assert not store.exists()


def test_reports_write_a_path_as_its_bytes(tmp_path):
    # a strict standard output, as a UTF-8 locale gives without UTF-8 mode
    corpus = _corpus_not_utf8(tmp_path)
    store = os.fsencode(tmp_path) + b"/s\xff.xml"
    strict = {"PYTHONIOENCODING": "utf-8:strict"}
    done = _esdp_child(["extract", "--corpus", corpus], **strict)
    assert (done.returncode, done.stderr) == (0, b"")
    assert b"\nPD\tcom.fixture\t" + corpus + b"/Dao1.java\t1\n" in b"\n" + done.stdout
    done = _esdp_child(["extract", "--corpus", corpus + b"x"], **strict)
    assert (done.returncode, done.stderr) == (1, b"")
    assert done.stdout == b"FileNotFoundError: corpus path not found: " + corpus + b"x\n"
    done = _esdp_child(["mine", "--corpus", corpus, "--corpus-label", "c", "--repo", store],
                       **strict)
    assert (done.returncode, done.stderr) == (0, b"")
    assert done.stdout.endswith(b" method sequences -> " + store + b"\n")
    assert parse(Path(os.fsdecode(store)).read_bytes()).corpus_label == "c"
    # a UTF-8 path on a standard output that cannot encode it
    missing = os.fsencode(tmp_path) + "/é".encode()
    done = _esdp_child(["extract", "--corpus", missing], PYTHONIOENCODING="ascii:strict")
    assert (done.returncode, done.stderr) == (1, b"")
    assert done.stdout == b"FileNotFoundError: corpus path not found: " + missing + b"\n"


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
        assert _refused_update(tmp_path, capsys, mutant) == (
            f"SchemaViolation: {tmp_path / 'store' / 'store.xml'}: {err.value}\n")
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
        f"SchemaViolation: {tmp_path / 'store' / 'store.xml'}: "
        "/esdp-repository/patterns/pattern[2]: line 11: pattern ranks above "
        "pattern[1]: stored patterns must be in ranking order\n")


@pytest.mark.parametrize("command", ["query", "eval"])
def test_refused_store_is_named(tmp_path, capsys, command):
    store = tmp_path / "bad.xml"
    store.write_bytes(b"garbage\n")
    gold = tmp_path / "gold.tsv"
    gold.write_text("x.y();\ta.b()\n", encoding="utf-8")
    argv = {"query": ["query", "--repo", str(store), "--pick", "1", "x.y();"],
            "eval": ["eval", "--repo", str(store), "--gold", str(gold)]}[command]
    assert run(argv, capsys) == (1, f"SchemaViolation: {store}: /esdp-repository: line 1: "
                                    "expected the <esdp-repository> header, found 'garbage'\n")


@pytest.mark.parametrize("argv", [
    [], ["-h"], ["frobnicate"],
    ["query"], ["query", "-h"], ["query", "x.y();", "extra"],
    ["mine", "--help"], ["groum", "--sigma", "0", "--corpus", "c"],
], ids=repr)
def test_subcommand_parser_answers_as_the_full_parser(argv, capsys):
    # main builds only the subcommand argv names; its help, usage errors and
    # exit status are those of the parser with every subcommand built
    def outcome(parse_args):
        with pytest.raises(SystemExit) as err:
            parse_args(argv)
        captured = capsys.readouterr()
        return captured.out, captured.err, err.value.code

    built = outcome(main)
    assert built == outcome(lambda argv: esdp.cli._build_parser().parse_args(argv))
    if argv == ["query", "x.y();", "extra"]:
        assert built[1].startswith("usage: esdp [-h] {extract,mine,update,query,groum,eval} ...\n")


def test_query_imports_neither_groum_nor_metrics(tmp_path):
    code = ("import sys\n"
            "import esdp.cli\n"
            "status = esdp.cli.main(sys.argv[1:])\n"
            "print(status, *(m for m in ('esdp.groum', 'esdp.metrics') if m in sys.modules))\n")
    env = dict(os.environ, PYTHONPATH=str(Path(esdp.cli.__file__).resolve().parents[1]))
    done = subprocess.run([sys.executable, "-c", code, "query", "--repo",
                           str(_two_call_store(tmp_path)), "--pick", "1", *_SET_KIND],
                          capture_output=True, text=True, env=env)
    assert done.returncode == 0, done.stderr
    assert "--- skeleton ---" in done.stdout
    assert done.stdout.splitlines()[-1] == "0"


def test_commands_import_no_dataclasses_fractions_or_datetime(tmp_path):
    # The standard modules dataclasses (with inspect), fractions (with
    # decimal) and datetime are not loaded by mine, update, query or groum;
    # eval may load fractions.
    corpus = write_fixture_corpus(tmp_path / "corpus")
    store = tmp_path / "store.xml"
    commands = [["mine", "--corpus", str(corpus), "--repo", str(store)],
                ["update", "--adaptive", "--corpus", str(corpus), "--repo", str(store)],
                ["query", "--repo", str(store), "--pick", "1", "--out",
                 str(tmp_path / "skeleton.java"), "--var", "parser=ASTParser",
                 "parser.setKind(0);"],
                ["groum", "--corpus", str(corpus)]]
    code = ("import json, sys\n"
            "import esdp.cli\n"
            "for argv in json.loads(sys.argv[1]):\n"
            "    assert esdp.cli.main(argv) == 0, argv\n"
            "print(*(m for m in ('dataclasses', 'inspect', 'fractions', 'decimal', 'datetime')\n"
            "        if m in sys.modules))\n")
    env = dict(os.environ, PYTHONPATH=str(Path(esdp.cli.__file__).resolve().parents[1]),
               SOURCE_DATE_EPOCH="0")
    done = subprocess.run([sys.executable, "-c", code, json.dumps(commands)],
                          capture_output=True, text=True, env=env)
    assert done.returncode == 0, done.stderr
    assert "pattern size=" in done.stdout and "skeleton -> " in done.stdout
    assert done.stdout.splitlines()[-1] == ""


def _last_block_line(store: bytes, text: bytes) -> int:
    """The number of the first line from the last pattern block on that
    starts with text."""
    lines = store.split(b"\n")
    last = max(n for n, line in enumerate(lines) if line.startswith(b"    <pattern "))
    return next(n for n in range(last, len(lines)) if lines[n].startswith(text)) + 1


def _three_pattern_store() -> bytes:
    from test_repository import pattern_of

    return serialize(make_repository([pattern_of(["a()"], count=4, size=4),
                                      pattern_of(["b()"], count=3, size=4),
                                      pattern_of(["c()", "d()"], count=1, size=4)], "c", "t", 1))


def _refused_as_parse_refuses(tmp_path, capsys, store: bytes) -> str:
    """update refuses store with parse's error, after the store path, and
    leaves it whole; that error."""
    with pytest.raises(SchemaViolation) as err:
        parse(store)
    assert _refused_update(tmp_path, capsys, store) == (
        f"SchemaViolation: {tmp_path / 'store' / 'store.xml'}: {err.value}\n")
    return str(err.value)


def test_update_reports_a_later_schema_fault_before_an_order_fault(tmp_path, capsys):
    from test_repository import _swap_blocks

    swapped = _swap_blocks(_three_pattern_store(), 0)  # pattern[2] ranks above pattern[1]
    line = _last_block_line(swapped, b'        <s i="2"')
    bad = swapped.replace(b'<s i="2"', b'<s i="9"')
    error = _refused_as_parse_refuses(tmp_path, capsys, bad)
    assert error.startswith(f"/esdp-repository/patterns/pattern[3]/sequence/s[2]: line {line}: ")


def test_update_refuses_a_store_cut_inside_its_last_block(tmp_path, capsys):
    store = _three_pattern_store()
    line = _last_block_line(store, b"      <sequence>")
    cut = b"\n".join(store.split(b"\n")[:line]) + b"\n"
    error = _refused_as_parse_refuses(tmp_path, capsys, cut)
    assert error == (f'/esdp-repository/patterns/pattern[3]/sequence/s[1]: line {line + 1}: '
                     "expected <s i=\"1\" kind=\"..\">name</s>, found ''")


def test_update_refuses_a_byte_not_utf8_on_the_last_line(tmp_path, capsys):
    store = _three_pattern_store()
    bad = store.replace(b"</esdp-repository>", b"</esdp-repository\xff>")
    error = _refused_as_parse_refuses(tmp_path, capsys, bad)
    last = store.count(b"\n")
    assert error == f"/esdp-repository: line {last}: not UTF-8 (invalid start byte)"


def test_update_peak_memory_stays_below_the_store_size(tmp_path):
    # The one-pass update holds neither the store nor a copy of it: its
    # traced peak stays under the store's size (the in-memory splice peaked
    # at 4.6 times it).
    import tracemalloc

    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
    import gen  # the benchmark's seeded corpus generator

    corpus = tmp_path / "corpus"
    gen.generate_corpus(corpus, 11, files=6, methods=5)
    store = tmp_path / "store.xml"
    assert main(["mine", "--corpus", str(corpus), "--min-support", "2",
                 "--repo", str(store)]) == 0
    update = ["update", "--adaptive", "--corpus", str(corpus), "--repo", str(store)]
    assert main(update) == 0  # warm-up: lazy imports and their caches
    size = store.stat().st_size
    tracemalloc.start()
    try:
        assert main(update) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert size > 1_000_000
    assert peak < size
