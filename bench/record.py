"""Record a result set: for every workload the end-to-end metrics (tracing
off), the per-layer metrics (tracing on) with the end-to-end metric and
workloads each should move, and a top-10 cProfile listing from a third,
profiled run, together with the provenance of the runs.

    python3 bench/record.py bench/results/BENCH_1.json [--seed 0] [--seconds 20]

Takes about ten minutes.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from metrics import moves
from run import TIME_LIMIT_S, Deadline, print_record, run_workload
from workloads import WORKLOADS


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("output", type=Path)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    args = parser.parse_args(argv)
    result = {"seed": args.seed, "seconds": args.seconds, "workloads": {}}
    for name, wl in WORKLOADS.items():
        runs = {}
        for trace, profile in ((0, True), (1, False)):
            opts = argparse.Namespace(seed=args.seed, seconds=args.seconds,
                                      trace=trace, size="full", profile=profile)
            runs[trace] = run_workload(wl, opts, Deadline(TIME_LIMIT_S))
            print_record(runs[trace])
        plain, traced = runs[0], runs[1]
        origin = traced["extra"]["origin"]
        result["provenance"] = plain["provenance"]
        result["workloads"][name] = {
            "why": wl.why,
            "inputs": plain["inputs"],
            "work_unit": wl.unit,
            "correct": plain["correct"] and traced["correct"],
            "end_to_end": plain["metrics"] | {
                "failed_share": {"value": plain["extra"]["failed_share"],
                                 "unit": "share"}},
            "cli_runs": plain["extra"]["cli_runs"],
            "setup_samples": plain["extra"]["setup_samples"],
            "per_layer": {k: v | {"moves": moves(k), "measured_on": origin[k]}
                          for k, v in traced["metrics"].items()},
            "tracing_overhead_s": traced["metrics"]["trace.overhead_s"]["value"],
            "profile_top10": plain.get("profile_top10", []),
        }
    args.output.parent.mkdir(parents=True, exist_ok=True)
    args.output.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    ok = all(w["correct"] for w in result["workloads"].values())
    print(f"wrote {args.output}; all output checks passed: {ok}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
