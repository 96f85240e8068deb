"""The benchmark's hooks into curvkit still exist.

perfbench/tracer.py wraps curvkit functions by module and attribute name,
and perfbench/run.py reads bardeen's bundle directly; a rename in src/
would break `perfbench/run.py --trace 1` without failing any other test."""

import importlib
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def perfbench(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return (importlib.import_module("tracer"), importlib.import_module("run"))


def test_traced_layers_exist(perfbench):
    tracer, _ = perfbench
    for module, attr, _ in tracer.LAYERS:
        assert callable(getattr(importlib.import_module(f"curvkit.{module}"),
                                attr, None)), f"curvkit.{module}.{attr}"


def test_structure_counts(perfbench):
    _, run = perfbench
    counts = run.structure_counts()
    assert counts["curvature.zero_valued.nabla_C"] == 88
    assert set(counts) == {f"curvature.{kind}.{name}"
                           for kind in ("nodes", "nonzero")
                           for name in run.NODES_TENSORS} | {
        "curvature.zero_valued.nabla_C"}
