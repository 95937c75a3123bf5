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

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from trace_layers import WRAPPED, Tracer  # noqa: E402


@pytest.mark.parametrize("module,attr", [(module, attr) for module, attr, _ in WRAPPED],
                         ids=[f"{module}.{attr}" for module, attr, _ in WRAPPED])
def test_traced_name_resolves(module, attr):
    # Tracer.install replaces each name through getattr, so one renamed or
    # dropped name makes every traced call raise before it runs.
    assert callable(getattr(importlib.import_module(module), attr, None))


def test_traced_adaptive_update_completes(tmp_path):
    # The tracer counts each kernel call's patterns as len(result[0]); one
    # traced `update --adaptive` checks that the kernel's result still reads
    # that way, so a run with `--trace 1` does not fail on it.
    corpus = write_fixture_corpus(tmp_path / "corpus")
    store = tmp_path / "store.xml"
    assert main(["mine", "--corpus", str(corpus), "--min-support", "3",
                 "--repo", str(store)]) == 0
    tracer = Tracer()
    tracer.install()
    try:
        assert main(["update", "--adaptive", "--corpus", str(corpus),
                     "--repo", str(store)]) == 0
    finally:
        tracer.uninstall()
    layers = tracer.collect(0.0)
    assert layers["kernels.calls"] == 1
    assert layers["mining.patterns"] == 31
