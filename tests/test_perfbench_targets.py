"""The benchmark's traced entry points still exist.

``perfbench/spans.py`` wraps entry points of ``src/`` by name, so renaming
or deleting one breaks the benchmark, which the tier-1 suite does not
run. This loads that module by path, without installing its tracer, and
resolves every target as its tracer would.
"""
import importlib.util
import inspect
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_every_traced_entry_point_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.TARGETS
    missing = []
    for owner, attr, _layer, _note in spans.TARGETS:
        try:
            inspect.getattr_static(owner, attr)
        except AttributeError:
            missing.append(f"{owner.__name__}.{attr}")
    assert missing == []
