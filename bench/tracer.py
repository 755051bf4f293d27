"""Spans and counts at the layer boundaries of dwnls, recorded from outside
the package by wrapping each entry point where its caller looks it up.

A span is (id, parent id, name, start, end). Kept spans stay in memory and
are written out when the run ends; hot scalar calls (the reduced vector
fields) are only aggregated. For every name the tracer keeps calls, calls
nested inside another call of the same name, total time of the outermost
calls, and self time (duration minus the time covered by child spans).
Self time is also summed per layer. Traced runs are single-threaded.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict

# (span name, layer, keep spans?, [(module, attribute path), ...])
ENTRY_POINTS = [
    ("linear_spectrum.spectral_data", "linear_spectrum", True,
     [("dwnls.linear_spectrum", "spectral_data")]),
    ("linear_spectrum.tune", "linear_spectrum", True,
     [("dwnls.linear_spectrum", "tune_delta_strength_for_ncr")]),
    ("reduced_dynamics.integrate", "reduced_dynamics", True,
     [("dwnls.reduced_dynamics", "integrate"), ("dwnls.shadowing", "integrate")]),
    ("reduced_dynamics.midpoint_path", "reduced_dynamics", True,
     [("dwnls.reduced_dynamics", "_implicit_midpoint_path")]),
    ("reduced_dynamics.vf_packed", "reduced_dynamics", False,
     [("dwnls.reduced_dynamics", "vf_packed")]),
    ("reduced_dynamics.vf_polar_reduced", "reduced_dynamics", False,
     [("dwnls.reduced_dynamics", "vf_polar_reduced")]),
    ("reduced_dynamics.detect_period", "reduced_dynamics", True,
     [("dwnls.reduced_dynamics", "detect_period"),
      ("dwnls.shadowing", "detect_period")]),
    ("pde.evolve", "pde", True, [("dwnls.pde", "evolve")]),
    ("pde.cn.step", "pde", True, [("dwnls.pde", "CrankNicolsonStepper.step")]),
    ("pde.zgtsv", "pde", True, [("dwnls.pde", "zgtsv")]),
    ("pde.split.step", "pde", True, [("dwnls.pde", "SplitStepper.step")]),
    ("pde.mass", "pde", True, [("dwnls.pde", "mass")]),
    ("pde.hamiltonian", "pde", True,
     [("dwnls.pde", "hamiltonian"), ("dwnls.shadowing", "hamiltonian")]),
    ("pde.center_of_mass", "pde", True,
     [("dwnls.pde", "center_of_mass"), ("dwnls.shadowing", "center_of_mass")]),
    ("shadowing.run", "shadowing", True,
     [("dwnls.shadowing", "run_shadow_experiment")]),
    ("shadowing.reduced_reference", "shadowing", True,
     [("dwnls.shadowing", "reduced_reference")]),
    ("shadowing.tilde_r.step", "shadowing", True,
     [("dwnls.shadowing", "_TildeREvolver.step")]),
    ("shadowing.mode_source", "shadowing", True,
     [("dwnls.shadowing", "mode_source")]),
    ("shadowing.project", "shadowing", True, [("dwnls.shadowing", "project")]),
    ("shadowing.coupling_errors", "shadowing", True,
     [("dwnls.shadowing", "coupling_errors")]),
    ("shadowing.annulus_width_ratio", "shadowing", True,
     [("dwnls.shadowing", "annulus_width_ratio")]),
    ("shadowing.strichartz_monitor", "shadowing", True,
     [("dwnls.shadowing", "strichartz_monitor")]),
    ("bound_states.renormalize", "bound_states", True,
     [("dwnls.bound_states", "spectral_renormalize")]),
    ("bound_states.continue", "bound_states", True,
     [("dwnls.bound_states", "continue_in_omega")]),
    ("bound_states.threshold", "bound_states", True,
     [("dwnls.bound_states", "detect_threshold")]),
    ("io_utils.write_csv", "io_utils", True, [("dwnls.cli", "write_csv")]),
    ("io_utils.write_json", "io_utils", True, [("dwnls.cli", "write_json")]),
    ("io_utils.write_gnuplot", "io_utils", True, [("dwnls.cli", "write_gnuplot")]),
    # every output file goes through Path.write_text, inside io_utils or not
    ("io_utils.write_text", "io_utils", True, [("pathlib", "Path.write_text")]),
]


def _owner(module: str, path: str):
    obj = importlib.import_module(module)
    *outer, attr = path.split(".")
    for part in outer:
        obj = getattr(obj, part)
    return obj, attr


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans: list[tuple] = []
        # name -> [calls, nested calls, outermost total s, self s]
        self.stats: dict[str, list] = {}
        self.layer_self: dict[str, float] = defaultdict(float)
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[list] = []     # [span id, child time]
        self._depth: dict[str, int] = defaultdict(int)
        self._next_id = 0
        self._saved: list[tuple] = []
        self._hooks = {
            "pde.cn.step": self._after_cn_step,
            "reduced_dynamics.midpoint_path": self._after_midpoint_path,
            "bound_states.renormalize": self._after_renormalize,
            "shadowing.run": self._after_shadow_run,
            "io_utils.write_text": self._after_write_text,
        }
        self._zgtsv_seen = 0

    # -- wrapping ------------------------------------------------------

    def wrap(self, fn, name: str, layer: str, keep: bool = True):
        name_id = len(self.names)
        self.names.append(name)
        stat = self.stats.setdefault(name, [0, 0, 0.0, 0.0])
        stack, depth, spans = self._stack, self._depth, self.spans
        layer_self = self.layer_self
        hook = self._hooks.get(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id = span_id + 1
            parent = stack[-1][0] if stack else -1
            frame = [span_id, 0.0]
            stack.append(frame)
            outer = depth[name] == 0
            depth[name] += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                depth[name] -= 1
                stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][1] += dur
                stat[0] += 1
                if outer:
                    stat[2] += dur
                else:
                    stat[1] += 1
                own = dur - frame[1]
                stat[3] += own
                layer_self[layer] += own
                if keep:
                    spans.append((span_id, parent, name_id, t0, t1))
            if hook is not None:
                hook(args, result)
            return result

        return traced

    def install(self) -> None:
        for name, layer, keep, targets in ENTRY_POINTS:
            owners = [_owner(m, p) for m, p in targets]
            original = getattr(*owners[0])
            wrapped = self.wrap(original, name, layer, keep)
            for obj, attr in owners:
                self._saved.append((obj, attr, getattr(obj, attr)))
                setattr(obj, attr, wrapped)

    def uninstall(self) -> None:
        for obj, attr, original in reversed(self._saved):
            setattr(obj, attr, original)
        self._saved.clear()

    # -- counts taken where the work happens ---------------------------

    def _after_cn_step(self, args, result) -> None:
        seen = self.stats["pde.zgtsv"][0]
        sweeps = seen - self._zgtsv_seen
        self._zgtsv_seen = seen
        self.counters["pde.cn.sweeps_max"] = max(
            self.counters["pde.cn.sweeps_max"], sweeps)

    def _after_midpoint_path(self, args, result) -> None:
        t_span, dt = args[3], args[4]
        self.counters["reduced_dynamics.steps"] += int(
            round((t_span[1] - t_span[0]) / dt))

    def _after_renormalize(self, args, result) -> None:
        self.counters["bound_states.iterations"] += result.iterations

    def _after_shadow_run(self, args, result) -> None:
        self.counters["shadowing.horizon_truncated"] += int(result.horizon_truncated)

    def _after_write_text(self, args, result) -> None:
        self.counters["io_utils.bytes_written"] += args[0].stat().st_size

    # -- output ----------------------------------------------------------

    def summary(self) -> dict:
        return {"stats": self.stats, "layer_self": dict(self.layer_self),
                "counters": dict(self.counters), "span_count": len(self.spans)}

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names,
                       "fields": ["id", "parent", "name", "start_s", "end_s"],
                       "spans": self.spans}, fh)
