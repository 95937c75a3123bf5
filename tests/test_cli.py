from __future__ import annotations

import os
from pathlib import Path

import pytest

from conftest import write_fixture_corpus
from esdp.cli import RunConfig, dispatch, main
from esdp.repository import parse


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


def test_domain_error_exits_1(tmp_path, capsys):
    status, out = run(["query", "--repo", str(tmp_path / "missing.xml"),
                       "--pick", "1", "x.y();"], capsys)
    assert status == 1
    assert "FileNotFoundError" in out


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


def test_dispatch_reports_unknown_command():
    status, report = dispatch("nope", RunConfig())
    assert status == 2
    assert "unknown command" in report


@pytest.mark.parametrize("count,size,shown", [(1, 8, "0.13"), (30, 2000, "0.02")])
def test_query_prints_store_rounding(tmp_path, capsys, count, size, shown):
    from fractions import Fraction

    from esdp.mining import SequentialPattern
    from esdp.repository import make_repository, serialize

    ratio = Fraction(count, size)
    pattern = SequentialPattern((("MI", "aSTParser.setKind(int)"),), count, ratio,
                                Fraction(1), ratio)
    repo_path = tmp_path / "one.xml"
    repo_path.write_bytes(serialize(make_repository([pattern])))
    assert f'<support num="{count}" den="{size}">{shown}</support>' in repo_path.read_text()
    status, out = run(["query", "--repo", str(repo_path), "--pick", "1",
                       "--var", "parser=ASTParser", "parser.setKind(0);"], capsys)
    assert status == 0
    row = next(line for line in out.splitlines() if line.startswith("1 "))
    assert row.split()[2:5] == [shown, "1.00", shown]


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


@pytest.mark.parametrize("failing", ["serialize", "replace"])
def test_failed_update_leaves_store_whole(corpus, tmp_path, capsys, monkeypatch, failing):
    import esdp.cli

    (tmp_path / "store").mkdir()
    repo_path = tmp_path / "store" / "store.xml"
    run(["mine", "--corpus", str(corpus), "--min-support", "3", "--repo", str(repo_path)],
        capsys)
    before = repo_path.read_bytes()

    def fail(*args):
        raise OSError(f"{failing} failed")

    if failing == "serialize":
        monkeypatch.setattr(esdp.cli, "serialize", fail)
    else:
        monkeypatch.setattr(os, "replace", fail)
    with pytest.raises(OSError, match=failing):
        main(["update", "--corpus", str(corpus), "--min-support", "2", "--repo", str(repo_path)])
    assert repo_path.read_bytes() == before
    assert [p.name for p in repo_path.parent.iterdir()] == ["store.xml"]


def test_control_character_in_label_is_refused(corpus, tmp_path, capsys):
    repo_path = tmp_path / "out.xml"
    status, out = run(["mine", "--corpus", str(corpus), "--repo", str(repo_path),
                       "--corpus-label", "team\tA"], capsys)
    assert status == 1
    assert "control character" in out
    assert not repo_path.exists()
