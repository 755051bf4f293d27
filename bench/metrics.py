"""Metric table of the benchmark and the derivation of per-layer metrics
from a traced run.

Every per-layer metric names the end-to-end metric and the workloads it
should move. In a traced run of workload W a metric is measured on W when
W is among its workloads; otherwise it is measured on a minimal-size
traced run of its first workload (a companion run). BENCHMARK.json must
list the same metrics; the smoke test checks that.
"""

from __future__ import annotations

from workloads import phaseplane_steps

ALL = ("shadow_above", "evolve_split", "groundstate", "phaseplane")
SH, EV, GS, PP = ALL

# name, unit, better, bound (share of the parent's median). On the shared
# 2-vCPU machine the CPU speed drifts by about 10% over minutes, so the
# times carry the largest bound the benchmark contract allows
END_TO_END = [
    ("wall_s", "s", "lower", 0.25),
    ("cpu_s", "s", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("work_rate", "units/s", "higher", 0.25),
    # 1 - failed_share: failed runs show in "failed" and as a drop here
    ("ok_share", "share", "higher", 0.01),
]

LAYERS = ("cli", "io_utils", "linear_spectrum", "reduced_dynamics",
          "bifurcation", "pde", "shadowing", "bound_states")

# name, unit, better, (end-to-end metrics it should move), workloads
PER_LAYER = [
    ("cli.import_s", "s", "lower", ("setup_s",), ALL),
    ("cli.phaseplane.jobs2_over_jobs1", "ratio", "lower", ("wall_s",), (PP,)),
    ("io_utils.bytes_written", "bytes", "lower", ("wall_s",), (PP, EV)),
    ("io_utils.write_s", "s", "lower", ("wall_s",), (PP, EV)),
    ("linear_spectrum.spectral_data.calls", "count", "lower", ("setup_s",), (SH,)),
    ("linear_spectrum.spectral_data.ms_per_call", "ms", "lower", ("setup_s",),
     (SH, EV, GS)),
    ("linear_spectrum.tune_s", "s", "lower", ("setup_s",), (SH,)),
    ("reduced_dynamics.integrate_s", "s", "lower", ("wall_s",), (SH,)),
    ("reduced_dynamics.steps", "count", "lower", ("wall_s",), (SH,)),
    ("reduced_dynamics.vf_calls_per_step", "count", "lower", ("wall_s",), (SH,)),
    ("reduced_dynamics.us_per_step", "us", "lower", ("wall_s",), (SH,)),
    ("reduced_dynamics.chart_retries", "count", "lower", ("wall_s",), (SH,)),
    ("reduced_dynamics.polar_vf_calls_per_step", "count", "lower", ("wall_s",), (PP,)),
    ("reduced_dynamics.phaseplane_us_per_step", "us", "lower", ("wall_s",), (PP,)),
    ("pde.cn.steps", "count", "lower", ("wall_s", "work_rate"), (SH,)),
    ("pde.cn.sweeps_per_step", "count", "lower", ("wall_s", "work_rate"), (SH,)),
    ("pde.cn.sweeps_max", "count", "lower", ("wall_s", "work_rate"), (SH,)),
    ("pde.cn.us_per_step", "us", "lower", ("wall_s", "work_rate"), (SH,)),
    ("pde.cn.zgtsv_us_per_call", "us", "lower", ("wall_s", "work_rate"), (SH,)),
    ("pde.cn.overhead_us_per_step", "us", "lower", ("wall_s", "work_rate"), (SH,)),
    ("pde.cn.bytes_per_sweep", "bytes", "lower", ("wall_s", "work_rate"), (SH,)),
    ("pde.split.steps", "count", "lower", ("wall_s", "work_rate"), (EV,)),
    ("pde.split.us_per_step", "us", "lower", ("wall_s", "work_rate"), (EV,)),
    ("pde.split.bytes_per_step", "bytes", "lower", ("wall_s", "work_rate"), (EV,)),
    ("pde.diagnostics_s", "s", "lower", ("wall_s",), (EV, SH)),
    ("shadowing.tilde_r.us_per_step", "us", "lower", ("wall_s",), (SH,)),
    ("shadowing.mode_source.us_per_call", "us", "lower", ("wall_s",), (SH,)),
    ("shadowing.samples", "count", "lower", ("wall_s",), (SH,)),
    ("shadowing.sample_ms", "ms", "lower", ("wall_s",), (SH,)),
    ("shadowing.post_s", "s", "lower", ("wall_s",), (SH,)),
    ("shadowing.loop_self_s", "s", "lower", ("wall_s",), (SH,)),
    ("shadowing.horizon_truncated", "count", "lower", ("ok_share",), (SH,)),
    ("bound_states.renormalize.calls", "count", "lower", ("wall_s",), (GS,)),
    ("bound_states.iterations", "count", "lower", ("wall_s",), (GS,)),
    ("bound_states.us_per_iteration", "us", "lower", ("wall_s",), (GS,)),
    ("bound_states.continue_s", "s", "lower", ("wall_s",), (GS,)),
    ("bound_states.threshold_s", "s", "lower", ("wall_s",), (GS,)),
]
# import time of each module net of the dwnls modules it imports, from
# python -X importtime; bifurcation does no CLI work beyond this
PER_LAYER += [(f"{layer}.import_s", "s", "lower", ("setup_s",), ALL)
              for layer in LAYERS if layer != "cli"]
# self time per layer, on the workloads whose CLI command reaches the layer
PER_LAYER += [(f"{layer}.self_s", "s", "lower", ("wall_s",), workloads)
              for layer, workloads in (
                  ("cli", ALL), ("io_utils", ALL),
                  ("linear_spectrum", (SH, EV, GS)),
                  ("reduced_dynamics", (SH, PP)), ("pde", (SH, EV)),
                  ("shadowing", (SH,)), ("bound_states", (GS,)))]
PER_LAYER += [("trace.overhead_s", "s", "lower", (), ALL)]

# the exact counts: identical in every traced run of the same code
EXACT = ("pde.cn.sweeps_per_step", "pde.cn.sweeps_max", "pde.cn.steps",
         "pde.split.steps", "reduced_dynamics.steps",
         "reduced_dynamics.vf_calls_per_step", "reduced_dynamics.chart_retries",
         "reduced_dynamics.polar_vf_calls_per_step", "bound_states.iterations",
         "bound_states.renormalize.calls", "shadowing.samples",
         "shadowing.horizon_truncated", "linear_spectrum.spectral_data.calls",
         "io_utils.bytes_written")

UNITS = {m[0]: m[1] for m in END_TO_END} | {m[0]: m[1] for m in PER_LAYER}


def moves(name: str) -> str:
    """'wall_s, work_rate on shadow_above' for a per-layer metric."""
    for metric, _, _, e2e, workloads in PER_LAYER:
        if metric == name:
            return f"{', '.join(e2e) or 'none'} on {', '.join(workloads)}"
    raise KeyError(name)


def source_workload(name: str, workload: str) -> str:
    """Workload whose traced run measures this metric in a run of workload."""
    for metric, _, _, _, workloads in PER_LAYER:
        if metric == name:
            return workload if workload in workloads else workloads[0]
    raise KeyError(name)


# ----------------------------------------------------------------------
# computed bytes: each numpy or LAPACK call reads its operands once and
# writes its result once (complex 16 B, real 8 B per grid point); they
# ignore caches and show the arithmetic intensity, not measured traffic
# ----------------------------------------------------------------------

# bytes per grid point of one fixed-point sweep of CrankNicolsonStepper.step
CN_SWEEP_BYTES_PER_POINT = sum((
    24, 16, 24, 16,          # rho = 0.5 (|z|^2 + |u|^2)
    24, 40, 32, 48, 32, 48,  # _apply_h(u, rho): diagonal and both off-diagonals
    32, 48,                  # rhs = u - 0.5j dt H u
    24, 24, 32,              # d = 1 + 0.5j dt (h_diag - rho)
    128, 128,                # zgtsv: copies of dl, d, du, rhs, then the solve
    48, 24, 8,               # max |z_new - z|
))
# bytes per grid point of one SplitStepper.step
SPLIT_STEP_BYTES_PER_POINT = sum((
    64, 56, 48,              # half step: V - |u|^2, its phase, times u
    32, 48, 32,              # fft, kinetic phase, ifft
    64, 56, 48,              # second half step
))


def _per(total: float, count: float) -> float:
    return total / count if count else 0.0


def layer_metrics(trace: dict, opts: dict, points: dict) -> dict:
    """Per-layer metrics of one traced run (trace = the child's summary)."""
    stats, counters = trace["stats"], trace["counters"]

    def calls(name):
        return stats.get(name, [0, 0, 0.0, 0.0])[0]

    def total(name):
        return stats.get(name, [0, 0, 0.0, 0.0])[2]

    def self_s(name):
        return stats.get(name, [0, 0, 0.0, 0.0])[3]

    cn_steps = calls("pde.cn.step")
    sweeps = calls("pde.zgtsv")
    zgtsv_us = 1e6 * _per(total("pde.zgtsv"), sweeps)
    cn_us = 1e6 * _per(total("pde.cn.step"), cn_steps)
    rd_steps = counters.get("reduced_dynamics.steps", 0)
    samples = calls("shadowing.project")
    iterations = counters.get("bound_states.iterations", 0)
    pp_steps = phaseplane_steps(opts)
    io_s = trace["layer_self"].get("io_utils", 0.0)
    out = {
        "io_utils.bytes_written": counters.get("io_utils.bytes_written", 0),
        "io_utils.write_s": io_s,
        "linear_spectrum.spectral_data.calls": calls("linear_spectrum.spectral_data"),
        "linear_spectrum.spectral_data.ms_per_call":
            1e3 * _per(total("linear_spectrum.spectral_data"),
                       calls("linear_spectrum.spectral_data")),
        "linear_spectrum.tune_s": total("linear_spectrum.tune"),
        "reduced_dynamics.integrate_s": total("reduced_dynamics.integrate"),
        "reduced_dynamics.steps": rd_steps,
        "reduced_dynamics.vf_calls_per_step":
            _per(calls("reduced_dynamics.vf_packed"), rd_steps),
        "reduced_dynamics.us_per_step":
            1e6 * _per(total("reduced_dynamics.midpoint_path"), rd_steps),
        "reduced_dynamics.chart_retries": stats.get(
            "reduced_dynamics.integrate", [0, 0])[1],
        "reduced_dynamics.polar_vf_calls_per_step":
            _per(calls("reduced_dynamics.vf_polar_reduced"), pp_steps),
        "reduced_dynamics.phaseplane_us_per_step":
            1e6 * _per(total("cli.main") - io_s, pp_steps),
        "pde.cn.steps": cn_steps,
        "pde.cn.sweeps_per_step": _per(sweeps, cn_steps),
        "pde.cn.sweeps_max": counters.get("pde.cn.sweeps_max", 0),
        "pde.cn.us_per_step": cn_us,
        "pde.cn.zgtsv_us_per_call": zgtsv_us,
        "pde.cn.overhead_us_per_step": cn_us - _per(sweeps, cn_steps) * zgtsv_us,
        "pde.cn.bytes_per_sweep": CN_SWEEP_BYTES_PER_POINT * points[SH],
        "pde.split.steps": calls("pde.split.step"),
        "pde.split.us_per_step":
            1e6 * _per(total("pde.split.step"), calls("pde.split.step")),
        "pde.split.bytes_per_step": SPLIT_STEP_BYTES_PER_POINT * points[EV],
        "pde.diagnostics_s": sum(total(n) for n in (
            "pde.mass", "pde.hamiltonian", "pde.center_of_mass")),
        "shadowing.tilde_r.us_per_step":
            1e6 * _per(total("shadowing.tilde_r.step"),
                       calls("shadowing.tilde_r.step")),
        "shadowing.mode_source.us_per_call":
            1e6 * _per(total("shadowing.mode_source"),
                       calls("shadowing.mode_source")),
        "shadowing.samples": samples,
        "shadowing.sample_ms": 1e3 * _per(sum(total(n) for n in (
            "shadowing.project", "shadowing.coupling_errors", "pde.hamiltonian",
            "pde.center_of_mass")), samples),
        "shadowing.post_s": total("shadowing.annulus_width_ratio")
            + total("shadowing.strichartz_monitor"),
        "shadowing.loop_self_s": self_s("shadowing.run"),
        "shadowing.horizon_truncated": counters.get("shadowing.horizon_truncated", 0),
        "bound_states.renormalize.calls": calls("bound_states.renormalize"),
        "bound_states.iterations": iterations,
        "bound_states.us_per_iteration":
            1e6 * _per(total("bound_states.renormalize"), iterations),
        "bound_states.continue_s": total("bound_states.continue"),
        "bound_states.threshold_s": total("bound_states.threshold"),
    }
    for layer in LAYERS:
        if layer != "bifurcation":
            out[f"{layer}.self_s"] = trace["layer_self"].get(layer, 0.0)
    return out


def import_times(stderr_text: str) -> dict:
    """<layer>.import_s from python -X importtime output: each dwnls
    module's cumulative import time minus that of the dwnls modules first
    imported beneath it."""
    rows = []
    for line in stderr_text.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        if not cumulative.strip().isdigit():
            continue                     # the header line
        depth = (len(name) - len(name.lstrip())) // 2
        rows.append((depth, int(cumulative) * 1e-6, name.strip()))
    # importtime prints children before their parent
    out = {}
    pending: list[tuple[int, float]] = []    # (depth, cumulative) of dwnls rows
    for depth, cumulative, name in rows:
        if not name.startswith("dwnls"):
            continue
        nested = sum(c for d, c in pending if d > depth)
        pending = [(d, c) for d, c in pending if d <= depth]
        pending.append((depth, cumulative))
        layer = name.split(".")[1] if "." in name else None
        if layer in LAYERS and layer != "cli":
            out[f"{layer}.import_s"] = cumulative - nested
    return out
