"""bench/tracer.py wraps package functions by module and attribute name,
and its hooks read some of their arguments by position and some of their
results by attribute; a rename or reorder that breaks one of these fails
here, not only in a traced benchmark run."""

import dataclasses
import importlib.util
import inspect
import sys
from pathlib import Path
from typing import get_type_hints

from dwnls import bound_states, reduced_dynamics, shadowing

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


def test_hooks_read_what_they_expect():
    # the midpoint-path hook counts steps from args[3] and args[4]
    names = list(inspect.signature(
        reduced_dynamics._implicit_midpoint_path).parameters)
    assert names[3:5] == ["t_span", "dt"]
    # the renormalize hook reads .iterations of spectral_renormalize's
    # result, the shadow-run hook .horizon_truncated of the report
    state = get_type_hints(bound_states.spectral_renormalize)["return"]
    assert "iterations" in {f.name for f in dataclasses.fields(state)}
    report = get_type_hints(shadowing.run_shadow_experiment)["return"]
    assert isinstance(report.horizon_truncated, property)
