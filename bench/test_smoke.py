"""Smoke test of the benchmark: every workload at its minimal size, with
tracing off and on, passes its output check and reports every metric of
BENCHMARK.json with its unit. Takes a few minutes.

    python3 -m pytest -q bench/test_smoke.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from metrics import END_TO_END, EXACT, PER_LAYER, source_workload  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
_RESULTS: dict = {}


def _bench(root: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(root / "bench" / "run.py"), *args],
                          cwd=root, capture_output=True, text=True, timeout=600)


def _result(workload: str, trace: int) -> dict:
    key = (workload, trace)
    if key not in _RESULTS:
        proc = _bench(ROOT, "--workload", workload, "--seed", "0", "--seconds", "1",
                      "--trace", str(trace), "--size", "min")
        assert proc.returncode == 0, proc.stderr
        _RESULTS[key] = json.loads(proc.stdout.strip().splitlines()[-1])
    return _RESULTS[key]


def test_benchmark_json_matches_the_tables():
    assert SPEC["command"] == ["python3", "bench/run.py"]
    assert [(w["name"], w["why"]) for w in SPEC["workloads"]] == \
        [(w.name, w.why) for w in WORKLOADS.values()]
    assert SPEC["end_to_end"] == [{"name": n, "unit": u, "better": b, "bound": bound}
                                  for n, u, b, bound in END_TO_END]
    assert SPEC["per_layer"] == [{"name": n, "unit": u, "better": b}
                                 for n, u, b, *_ in PER_LAYER]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_every_metric_present_with_its_unit(workload, trace):
    result = _result(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in spec}
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_exact_counts_repeat_across_traced_runs():
    # in every traced run a metric comes from its source workload's own
    # process, so runs that share a source must agree on the exact counts
    for name in EXACT:
        by_source: dict = {}
        for workload in WORKLOADS:
            value = _result(workload, 1)["metrics"][name]["value"]
            by_source.setdefault(source_workload(name, workload), set()).add(value)
        assert all(len(values) == 1 for values in by_source.values()), (name, by_source)


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(tmp_path, "--workload", "phaseplane", "--seed", "1",
                  "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
