"""Benchmark of the dwnls CLI: one closed-loop client, one run at a time,
each run a fresh interpreter.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

With --trace 0 it runs the workload's CLI command until S seconds have
passed (at least once), then probes the set-up several times, and reports
the end-to-end metrics as medians. With --trace 1 it runs the command once
untraced and once traced, plus the minimal-size companion runs that
measure the per-layer metrics of layers the workload does not reach, and
reports the per-layer metrics. Every CLI run gets its output check.

--workload all runs every workload in turn; --size min shrinks the inputs
(smoke test); --profile adds a cProfile run and prints its top 10.
The last line of standard output is the result as one JSON object; the
full record of the run is written to .bench_runs/<run>/result.json.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from metrics import (EV, PER_LAYER, PP, SH, UNITS, import_times, layer_metrics,
                     moves, source_workload)
from workloads import WORKLOADS, Workload

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RUNS = ROOT / ".bench_runs"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_PROBES = 2          # set-up samples besides the one of each CLI run
TIME_LIMIT_S = 170.0      # whole invocation, including the runs' set-up


class Deadline:
    def __init__(self, seconds: float):
        self.end = time.perf_counter() + seconds

    def left(self) -> float:
        return self.end - time.perf_counter()


@dataclass
class CliRun:
    workload: str
    opts: dict
    mode: str
    rc: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    sidecar: dict
    stderr: str
    failures: list = field(default_factory=list)
    work: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.failures


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    env.update({var: "1" for var in THREAD_VARS})
    return env


def spawn(wl: Workload, opts: dict, mode: str, tag: str, rundir: Path,
          deadline: Deadline, exact: bool = False) -> CliRun:
    """One CLI run in a fresh interpreter, timed from spawn to exit."""
    out = rundir / tag
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    sidecar = out / "sidecar.json"
    cmd = [sys.executable]
    if mode == "trace":
        cmd += ["-X", "importtime"]
    cmd += [str(BENCH / "child.py"), "--mode", mode, "--src", str(SRC),
            "--sidecar", str(sidecar)]
    if wl.setup_fn:
        cmd += ["--setup-fn", wl.setup_fn]
    # a relative --out keeps the manifest, and so the bytes written, the
    # same in every run directory
    cmd += ["--"] + wl.argv({**opts, "out": "cli"})
    with open(out / "stderr.txt", "w+", encoding="utf-8") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=out, env=child_env(),
                                stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        killer = threading.Timer(max(deadline.left(), 1.0), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
        proc.returncode = rc = os.waitstatus_to_exitcode(status)
        err.seek(0)
        stderr = err.read()
    data = {}
    if sidecar.exists():
        with open(sidecar, encoding="utf-8") as fh:
            data = json.load(fh)
    run = CliRun(wl.name, opts, mode, rc, wall, usage.ru_utime + usage.ru_stime,
                 usage.ru_maxrss / 1024.0, data, stderr)
    if rc != 0:
        reason = "killed at the time limit" if rc < 0 else f"exit code {rc}"
        tail = stderr.strip().splitlines()[-1:] or [""]
        run.failures.append(f"{reason} {tail[0]}".strip())
    elif not data:
        run.failures.append("no sidecar written")
    elif mode != "setup":
        try:
            run.failures += wl.check(opts, out / "cli", exact)
            run.work = wl.work(opts, out / "cli")
        except (OSError, KeyError, ValueError, TypeError, ZeroDivisionError) as exc:
            run.failures.append(f"output unreadable: {exc!r}")
    return run


def warm_up(wl: Workload, opts: dict, rundir: Path, deadline: Deadline) -> None:
    """Compile the package's bytecode once, untimed, in a fresh checkout."""
    if not any((SRC / "dwnls" / "__pycache__").glob("cli.*.pyc")):
        spawn(wl, opts, "setup", "warmup", rundir, deadline)


def _median(values: list) -> float:
    return statistics.median(values) if values else 0.0


def measure(wl: Workload, seed: int, size: str, seconds: float,
            rundir: Path, deadline: Deadline):
    """End-to-end metrics: CLI runs for `seconds`, then set-up probes."""
    opts = wl.options(seed, size)
    exact = seed == 0 and size == "full"
    warm_up(wl, opts, rundir, deadline)
    runs: list[CliRun] = []
    begin = time.perf_counter()
    while True:
        runs.append(spawn(wl, opts, "run", f"run{len(runs)}", rundir, deadline, exact))
        elapsed = time.perf_counter() - begin
        if elapsed >= seconds or deadline.left() < 3.0 * runs[-1].wall_s + 20.0:
            break
    probes = [spawn(wl, opts, "setup", f"setup{i}", rundir, deadline)
              for i in range(SETUP_PROBES)]
    setups = [r.sidecar["setup_s"] for r in runs + probes if r.ok]
    wall = _median([r.wall_s for r in runs])
    setup = _median(setups)
    work = next((r.work for r in runs if r.ok), 0.0)
    ok = sum(r.ok for r in runs)
    metrics = {
        "wall_s": wall,
        "cpu_s": _median([r.cpu_s for r in runs]),
        "setup_s": setup,
        "peak_rss_mb": _median([r.rss_mb for r in runs]),
        "work_rate": work / (wall - setup) if wall > setup else 0.0,
        "ok_share": ok / len(runs),
    }
    extra = {"failed_share": 1.0 - ok / len(runs), "cli_runs": len(runs),
             "setup_samples": len(setups), "work_units": work,
             "work_unit": wl.unit}
    return runs, probes, metrics, extra


def traced(wl: Workload, seed: int, size: str, rundir: Path, deadline: Deadline):
    """Per-layer metrics: an untraced and a traced run of the workload,
    companion runs for the metrics of layers it does not reach, and the
    --jobs 2 / --jobs 1 comparison of phaseplane."""
    opts = wl.options(seed, size)
    exact = seed == 0 and size == "full"
    warm_up(wl, opts, rundir, deadline)
    base = spawn(wl, opts, "run", "untraced", rundir, deadline, exact)
    sources = {wl.name: spawn(wl, opts, "trace", "traced", rundir, deadline, exact)}
    for name in sorted({source_workload(m[0], wl.name) for m in PER_LAYER} - {wl.name}):
        other = WORKLOADS[name]
        sources[name] = spawn(other, other.options(seed, "min"), "trace",
                              f"companion-{name}", rundir, deadline)
    pp = WORKLOADS[PP]
    if wl.name == PP:
        jobs1 = base
    else:
        jobs1 = spawn(pp, pp.options(seed, "min"), "run", "jobs1", rundir, deadline)
    jobs2 = spawn(pp, {**jobs1.opts, "jobs": 2}, "run", "jobs2", rundir, deadline)
    runs = [base, *sources.values(), jobs1, jobs2]
    runs = list({id(r): r for r in runs}.values())

    points = {SH: WORKLOADS[SH].nominal["points"], EV: WORKLOADS[EV].nominal["points"]}
    derived = {name: layer_metrics(r.sidecar["trace"], r.opts, points)
               for name, r in sources.items() if "trace" in r.sidecar}
    own = sources[wl.name]
    direct = {"cli.import_s": base.sidecar.get("import_s", 0.0),
              "cli.phaseplane.jobs2_over_jobs1": jobs2.wall_s / jobs1.wall_s,
              "trace.overhead_s": own.wall_s - base.wall_s}
    direct.update(import_times(own.stderr))
    metrics, origin = {}, {}
    for name, *_ in PER_LAYER:
        src = source_workload(name, wl.name)
        if name in direct:
            metrics[name] = direct[name]
        else:
            metrics[name] = derived.get(src, {}).get(name, 0.0)
        origin[name] = f"{src} ({size if src == wl.name else 'min'})"
    extra = {"origin": origin, "traced_wall_s": own.wall_s,
             "untraced_wall_s": base.wall_s,
             "span_count": own.sidecar.get("trace", {}).get("span_count", 0)}
    return runs, [], metrics, extra


def profiled(wl: Workload, seed: int, size: str, rundir: Path, deadline: Deadline):
    opts = wl.options(seed, size)
    run = spawn(wl, opts, "profile", "profiled", rundir, deadline,
                seed == 0 and size == "full")
    return run, run.sidecar.get("profile_top10", [])


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, timeout=10,
                             capture_output=True, text=True, check=True)
        dirty = subprocess.run(["git", "status", "--porcelain", "--", "src"],
                               cwd=ROOT, timeout=10, capture_output=True,
                               text=True, check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown (git failed)"
    return res.stdout.strip() + (" (src modified)" if dirty else "")


def provenance(versions: dict) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "platform": platform.platform(),
        "python": versions.get("python", platform.python_version()),
        "numpy": versions.get("numpy", "unknown"),
        "scipy": versions.get("scipy", "unknown"),
        "thread_pools": {var: "1" for var in THREAD_VARS},
        "commit": git_commit(),
        "loop": "closed, one client, one CLI process at a time",
    }


def run_workload(wl: Workload, args, deadline: Deadline) -> dict:
    rundir = RUNS / f"{wl.name}-seed{args.seed}-trace{args.trace}-{args.size}"
    shutil.rmtree(rundir, ignore_errors=True)
    rundir.mkdir(parents=True)
    if args.trace:
        runs, probes, metrics, extra = traced(wl, args.seed, args.size, rundir, deadline)
    else:
        runs, probes, metrics, extra = measure(wl, args.seed, args.size,
                                               args.seconds, rundir, deadline)
    record = {
        "workload": wl.name, "why": wl.why, "seed": args.seed, "size": args.size,
        "trace": args.trace, "seconds": args.seconds,
        "inputs": wl.argv(wl.options(args.seed, args.size)),
        "metrics": {k: {"value": v, "unit": UNITS[k]} for k, v in metrics.items()},
        "extra": extra,
        "runs": [{"tag": r.workload + ":" + r.mode, "rc": r.rc, "wall_s": r.wall_s,
                  "cpu_s": r.cpu_s, "rss_mb": r.rss_mb,
                  "import_s": r.sidecar.get("import_s"),
                  "setup_s": r.sidecar.get("setup_s"), "failures": r.failures}
                 for r in runs + probes],
        "attempted": len(runs),
        "failed": sum(not r.ok for r in runs),
        "correct": all(r.ok for r in runs + probes),
    }
    if args.profile:
        run, top = profiled(wl, args.seed, args.size, rundir, deadline)
        record["profile_top10"] = top
        record["attempted"] += 1
        record["failed"] += not run.ok
        record["correct"] &= run.ok
    versions = next((r.sidecar["versions"] for r in runs if "versions" in r.sidecar), {})
    record["provenance"] = provenance(versions)
    with open(rundir / "result.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    return record


def print_record(rec: dict) -> None:
    print(f"workload {rec['workload']}  seed {rec['seed']}  size {rec['size']}  "
          f"trace {rec['trace']}  runs {rec['attempted']}  failed {rec['failed']}")
    origin = rec["extra"].get("origin", {})
    for name, m in rec["metrics"].items():
        note = f"  [{moves(name)}; measured on {origin[name]}]" if name in origin else ""
        print(f"  {name:44s} {m['value']:16.6g} {m['unit']}{note}")
    if "failed_share" in rec["extra"]:
        print(f"  {'failed_share':44s} {rec['extra']['failed_share']:16.6g} share")
        print(f"  work unit: {rec['extra']['work_unit']}, "
              f"{rec['extra']['work_units']:g} per run")
    for r in rec["runs"]:
        for failure in r["failures"]:
            print(f"  check failed ({r['tag']}): {failure}")
    for row in rec.get("profile_top10", []):
        print(f"  profile {row['tottime_s']:9.3f} s self {row['cumtime_s']:9.3f} s cum "
              f"{row['ncalls']:>9} {row['function']}")
    print("provenance: " + json.dumps(rec["provenance"], sort_keys=True))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "min"), default="full")
    parser.add_argument("--profile", action="store_true")
    args = parser.parse_args(argv)
    if not (SRC / "dwnls" / "cli.py").is_file():
        print(f"no dwnls sources under {SRC}: run from a checkout of the repository",
              file=sys.stderr)
        return 2
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    records = [run_workload(WORKLOADS[n], args, Deadline(TIME_LIMIT_S))
               for n in names]
    for rec in records:
        print_record(rec)
    single = len(records) == 1
    result = {
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": {(k if single else f"{r['workload']}.{k}"): v
                    for r in records for k, v in r["metrics"].items()},
    }
    bad = [k for k, v in result["metrics"].items() if not math.isfinite(v["value"])]
    if bad:
        print(f"non-finite metrics: {bad}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
