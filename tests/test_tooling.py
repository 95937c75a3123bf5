"""The benchmark's tooling fits this checkout: the names its layer tracer
wraps exist and what they return reads as it expects, so a traced run
(``perfbench/run.py --trace 1``) can start and finish."""

from __future__ import annotations

import importlib
import sys
from pathlib import Path

import pytest

from conftest import write_fixture_corpus
from esdp.cli import main
from esdp.repository import parse

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from trace_layers import WRAPPED, Tracer  # noqa: E402


@pytest.mark.parametrize("module,attr", [(module, attr) for module, attr, _ in WRAPPED],
                         ids=[f"{module}.{attr}" for module, attr, _ in WRAPPED])
def test_traced_name_resolves(module, attr):
    # Tracer.install replaces each name through getattr, so one renamed or
    # dropped name makes every traced call raise before it runs.
    assert callable(getattr(importlib.import_module(module), attr, None))


def _traced(argv: list[str]) -> dict:
    """The layers of one traced call of main(argv), which must succeed."""
    tracer = Tracer()
    tracer.install()
    try:
        assert main(argv) == 0
    finally:
        tracer.uninstall()
    return tracer.collect(0.0)


def test_traced_mine_and_query_count_the_store(tmp_path):
    # The tracer counts the bytes serialize returns and the patterns of the
    # repository parse returns; a traced `mine` and a traced `query` check
    # that both still read that way, and that the store read shows under
    # repository.parse_s. The traced `mine` shows time in the layers of its
    # write path: parsing the corpus, building the sequences and writing
    # the store, and counts the miner's patterns as len() of what it returns.
    corpus = write_fixture_corpus(tmp_path / "corpus")
    store = tmp_path / "store.xml"
    layers = _traced(["mine", "--corpus", str(corpus), "--min-support", "3",
                      "--repo", str(store)])
    assert layers["repository.store_bytes"] == store.stat().st_size > 0
    assert layers["mining.patterns"] == len(parse(store.read_bytes()).patterns) > 0
    for layer in ("extractor.parse_s", "transactions.build_s", "repository.serialize_s"):
        assert layers[layer] > 0, layer
    layers = _traced(["query", "--repo", str(store), "--pick", "1",
                      "--var", "parser=ASTParser", "parser.setKind(0);"])
    assert layers["repository.patterns_parsed"] > 0
    assert layers["repository.parse_s"] > 0


def test_traced_adaptive_update_completes(tmp_path):
    # The tracer counts each kernel call's patterns as len(result[0]); one
    # traced `update --adaptive` checks that the kernel's result still reads
    # that way, so a run with `--trace 1` does not fail on it, and that the
    # store's read and rewrite show under repository.merge_s.
    corpus = write_fixture_corpus(tmp_path / "corpus")
    store = tmp_path / "store.xml"
    assert main(["mine", "--corpus", str(corpus), "--min-support", "3",
                 "--repo", str(store)]) == 0
    layers = _traced(["update", "--adaptive", "--corpus", str(corpus), "--repo", str(store)])
    assert layers["kernels.calls"] == 1
    assert layers["mining.patterns"] == 31
    assert layers["repository.merge_s"] > 0


def test_traced_groum_counts_graphs_and_patterns(tmp_path):
    # The tracer counts the groums build_groums_for_methods returns and the
    # patterns of patt_explorer, with those whose frequency_is_exact is
    # false; a traced `groum` checks that both still read that way and that
    # the explorer's time shows under groum.explore_s.
    corpus = write_fixture_corpus(tmp_path / "corpus")
    layers = _traced(["groum", "--corpus", str(corpus), "--sigma", "2"])
    assert layers["groum.graphs"] > 0
    assert layers["groum.patterns"] > 0
    assert layers["groum.lower_bound_patterns"] == 0
    assert layers["groum.explore_s"] > 0
