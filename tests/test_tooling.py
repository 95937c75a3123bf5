"""The benchmark's tooling fits this checkout: the names its layer tracer
wraps exist, so a traced run (``perfbench/run.py --trace 1``) can start."""

from __future__ import annotations

import importlib
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from trace_layers import WRAPPED  # noqa: E402


@pytest.mark.parametrize("module,attr", [(module, attr) for module, attr, _ in WRAPPED],
                         ids=[f"{module}.{attr}" for module, attr, _ in WRAPPED])
def test_traced_name_resolves(module, attr):
    # Tracer.install replaces each name through getattr, so one renamed or
    # dropped name makes every traced call raise before it runs.
    assert callable(getattr(importlib.import_module(module), attr, None))
