"""Every function the span tracer wraps (bench/spans.py TARGETS) exists in
the package, so a rename or deletion here cannot silently drop a span."""

import importlib.util
import inspect
import types
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"
_spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
spans = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(spans)


@pytest.mark.parametrize("module,attr", spans.TARGETS)
def test_span_target_resolves_to_a_function(module, attr):
    owner = importlib.import_module(f"hermitia.{module}")
    *path, leaf = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    assert isinstance(inspect.getattr_static(owner, leaf), types.FunctionType)
