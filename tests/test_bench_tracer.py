"""bench/tracer.py wraps package functions by module and attribute name;
a rename that breaks one of its targets fails here, not only in a traced
benchmark run."""

import importlib.util
import sys
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def test_every_entry_point_resolves(monkeypatch):
    # load the tracer without writing a bytecode cache next to it
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("dwnls_bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    targets = [t for *_, ts in tracer.ENTRY_POINTS for t in ts]
    missing = []
    for module, path in targets:
        owner, attr = tracer._owner(module, path)
        if not callable(getattr(owner, attr, None)):
            missing.append(f"{module}:{path}")
    assert targets and not missing
