"""Command-line front end: subcommands map onto the module pipelines and
write deterministic CSV/JSON bundles (plus gnuplot stubs) into a run
directory.

    dwnls spectrum   --well delta --strength 1 --sep 10 --out runs/spec
    dwnls phaseplane --ncr 0.2 --n 0.05 --out runs/pp
    dwnls bifurcate  --ncr 0.1 --n-max 0.3 --out runs/bif
    dwnls groundstate --well gauss --sigma 1 --sep 3 --out runs/gs
    dwnls evolve     --well delta --strength 1 --sep 10 --init twomode ...
    dwnls shadow     --side above --tau 0.05 --gamma 0.8 --periods 5 ...

Each command imports the modules it runs as it starts; importing cli loads
only errors, grids and io_utils of the package (the README lists each
command's modules). Options may come from a JSON config (--config), an
object of flag values; explicit flags win. Each value takes its default's
type (float where the default is null) and its sign rule once, in
_resolve, before main makes the run directory; main writes manifest.json
after the command returns, and removes the directories it made if the
command raises before writing into them.
phaseplane accepts --jobs for old configs and ignores it: its orbits run
one after another (threads gave no speed-up under the GIL).
Exit codes: 2 config error, 3 numeric/solver error, 4 verdict failed.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from .errors import DwnlsError
from .grids import Grid
from .io_utils import write_csv, write_gnuplot, write_json

EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_VERDICT = 4

STEP_RTOL = 1e-9  # --t-end (and --dt-record) in whole --dt steps
EPS1_CAP = 0.9    # phaseplane: default --eps1-max <= EPS1_CAP sqrt(ncr + n)


class ConfigError(Exception):
    pass


def _outdir(opts) -> tuple[Path, list[Path]]:
    """The run directory, made if need be, and the directories that making
    it created, deepest first."""
    out = Path(opts["out"])
    made = [p for p in (out, *out.parents) if not p.exists()]
    out.mkdir(parents=True, exist_ok=True)
    existing = [p for p in out.iterdir() if p.is_file()]
    if existing and not opts["force"]:
        raise ConfigError(
            f"output directory {out} is not empty (use --force to overwrite)")
    return out, made


def _grid(opts) -> Grid:
    return Grid.symmetric(opts["xmax"], opts["points"])


def _potential(opts):
    from . import linear_spectrum as spec_mod
    size = {"delta": "strength", "gauss": "sigma"}.get(opts["well"])
    if size is None:
        raise ConfigError(f"unknown well kind {opts['well']!r}")
    return spec_mod.PotentialSpec(opts["well"], opts[size], opts["sep"])


# ----------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------

def cmd_spectrum(opts, out: Path) -> int:
    from . import linear_spectrum as spec_mod
    grid = _grid(opts)
    data = spec_mod.spectral_data(_potential(opts), grid)
    write_json(out / "spectral.json", data.to_json_dict())
    (out / "eigenfunctions.csv").write_text(
        spec_mod.eigenfunctions_to_csv(data), encoding="utf-8")
    write_gnuplot(out / "eigenfunctions.gp", "eigenfunctions.csv",
                  "double-well bound states", using="1:2, '' using 1:3")
    return 0


def _whole_steps(opts, key: str) -> int:
    """opts[key] in steps of --dt: a positive whole number, to a relative
    STEP_RTOL."""
    ratio = opts[key] / opts["dt"]
    steps = round(ratio)
    if steps < 1 or abs(ratio - steps) > STEP_RTOL * steps:
        raise ConfigError(
            f"--{key.replace('_', '-')} must be a whole number of --dt "
            f"steps (to a relative {STEP_RTOL:g}), not {ratio:.12g}")
    return steps


def cmd_phaseplane(opts, out: Path) -> int:
    from . import reduced_dynamics as rd
    ncr, n_offset, dt = opts["ncr"], opts["n"], opts["dt"]
    # eps1^2 is the power in the odd mode, at most N = ncr + n
    power = ncr + n_offset
    if not power > 0:
        raise ConfigError("--n must exceed -ncr (a positive power ncr + n)")
    n_steps = _whole_steps(opts, "t_end")
    every = _whole_steps(opts, "dt_record")
    eps_max = opts["eps1_max"]
    if eps_max is None:
        eps_max = min(1.5 * np.sqrt(abs(n_offset) / 2.0 if n_offset > 0
                                    else ncr / 8.0),
                      EPS1_CAP * np.sqrt(power))
    elif eps_max * eps_max > power:
        raise ConfigError(
            f"--eps1-max must be positive with its square at most the "
            f"power ncr + n = {power:.6g}")
    # a row every dt_record from t = 0, and the state at t_end last
    ts = np.append(opts["dt_record"] * np.arange(-(-n_steps // every)),
                   opts["t_end"])
    index = []
    count = opts["orbits"]
    for i in range(count):
        eps1 = eps_max * (i + 1) / count
        for dth in (0.0, 1.0, 2.0):
            rows, iterations, stalled = rd.polar_midpoint_orbit(
                eps1, dth, n_offset, ncr, dt, n_steps, every)
            y = np.array(rows)
            name = f"orbit_{len(index):03d}.csv"
            write_csv(out / name, ["t", "eps1", "dtheta"],
                      [ts, y[:, 0], y[:, 1]])
            index.append({"file": name, "eps1_0": eps1, "dtheta_0": dth,
                          "eps1_max": float(np.max(y[:, 0])),
                          "eps1_min": float(np.min(y[:, 0])),
                          "midpoint_iterations": iterations,
                          "stalled_steps": stalled})
    write_json(out / "index.json",
               {"ncr": ncr, "n": n_offset, "orbits": index})
    write_gnuplot(out / "phaseplane.gp", "orbit_000.csv",
                  "phase plane (eps1, dtheta)", using="3:2")
    return 0


def cmd_bifurcate(opts, out: Path) -> int:
    from . import bifurcation as bif
    ncr = opts["ncr"]
    n_vals = np.linspace(opts["n_min"], opts["n_max"], opts["count"])
    rows = []
    barrier_rows = []
    for n_level in n_vals:
        for eq in bif.equilibria(float(n_level), ncr):
            rep = bif.linearize(eq, float(n_level), ncr)
            lam = rep.eigenvalues_closed[0]
            rows.append((n_level, {"symmetric": 0, "asymmetric_plus": 1,
                                   "asymmetric_minus": 2}[eq.kind],
                         eq.A, eq.alpha, lam.real, lam.imag,
                         1.0 if rep.classification == bif.SADDLE else 0.0))
        if n_level > ncr:
            barrier_rows.append((n_level, bif.energy_barrier(float(n_level), ncr)))
    cols = list(zip(*rows))
    write_csv(out / "bifurcation.csv",
              ["N", "branch", "A", "alpha", "lambda_re", "lambda_im",
               "classification"],
              [np.array(c) for c in cols])
    if barrier_rows:
        bcols = list(zip(*barrier_rows))
        write_csv(out / "barrier.csv", ["N", "delta_H"],
                  [np.array(c) for c in bcols])
    write_gnuplot(out / "bifurcation.gp", "bifurcation.csv",
                  "pitchfork of equilibria", using="1:4")
    return 0


def cmd_groundstate(opts, out: Path) -> int:
    from . import bound_states as bst, linear_spectrum as spec_mod
    grid = _grid(opts)
    potential = _potential(opts)
    data = spec_mod.spectral_data(potential, grid)
    seeds = bst.default_seeds(data)
    step = opts["omega_step"] or 0.05 * data.n_cr_fd * data.a[0, 0, 0, 0]
    count = opts["count"]
    curve = bst.continue_in_omega(potential, grid, data.omega0 - 0.25 * step,
                                  data.omega0 - count * step, step, seeds)
    (out / "soliton_curve.csv").write_text(curve.to_csv(), encoding="utf-8")
    threshold = dict.fromkeys(("n_star", "omega_star", "odd_eigenvalue"))
    error = None
    try:
        threshold = vars(bst.detect_threshold(curve, potential, grid, seeds))
    except DwnlsError as exc:
        error = {"error": type(exc).__name__, "message": str(exc)}
    write_json(out / "threshold.json", {
        **threshold, "threshold_error": error,
        "n_cr_fd": data.n_cr_fd,
        "omega0": data.omega0, "omega1": data.omega1,
        "newton_iterations_total": int(curve.iterations.sum()),
        "newton_iterations_max": int(curve.iterations.max()),
    })
    write_gnuplot(out / "soliton_curve.gp", "soliton_curve.csv",
                  "power vs frequency", using="1:2")
    return 0


def cmd_evolve(opts, out: Path) -> int:
    from . import linear_spectrum as spec_mod, pde, reduced_dynamics as rd
    grid = _grid(opts)
    potential = _potential(opts)
    _whole_steps(opts, "t_end")
    kind = opts["init"]
    if kind == "zero":
        u0 = np.zeros(grid.n_points, dtype=complex)
    elif kind == "eigenmode":
        data = spec_mod.spectral_data(potential, grid)
        u0 = data.psi0.astype(complex)
    elif kind == "sech":
        u0 = np.sqrt(2.0) / np.cosh(grid.x) + 0.0j
    elif kind == "twomode":
        data = spec_mod.spectral_data(potential, grid)
        n_level, dth = opts["N"], opts["dtheta0"]
        params = rd.ReducedParams.from_spectral(data)
        alpha_eq = rd.equilibrium_alpha(params, n_level)
        rho1 = alpha_eq * np.exp(1j * dth)
        rho0 = np.sqrt(n_level - alpha_eq**2)
        u0 = (rho0 * data.psi0 + rho1 * data.psi1).astype(complex)
    else:
        raise ConfigError(f"unknown init {kind!r}")
    scheme = ("crank_nicolson" if potential.kind == "delta" else "split_step")
    filt = None
    if opts["cutoff"] is not None:
        filt = pde.TailFilter(trigger_steps=opts["filter_steps"],
                              cutoff_radius=opts["cutoff"])
    params = pde.EvolveParams(dt=opts["dt"], t_end=opts["t_end"],
                              scheme=scheme, record_every=opts["record_every"],
                              tail_filter=filt)
    v = spec_mod.potential_samples(potential, grid)
    final, diags = pde.evolve(u0, grid, params, v)
    (out / "diagnostics.csv").write_text(diags.to_csv(), encoding="utf-8")
    (out / "final_state.csv").write_text(pde.snapshot_csv(final, grid),
                                         encoding="utf-8")
    write_gnuplot(out / "diagnostics.gp", "diagnostics.csv",
                  "center of mass", using="1:4")
    return 0


def cmd_shadow(opts, out: Path) -> int:
    from . import linear_spectrum as spec_mod, shadowing as sh
    grid = _grid(opts)
    sparams = sh.ShadowParams(tau=opts["tau"], gamma=opts["gamma"],
                              n_cr=opts["ncr"])
    orbit = sh.OrbitSpec(
        side=opts["side"], amplitude_factor=opts["amplitude_factor"],
        dtheta0=opts["dtheta0"], horizon_periods=opts["periods"],
        dt_pde=opts["dt"])
    data = spec_mod.tune_delta_strength_for_ncr(
        sparams.critical_power, opts["sep"], grid,
        (opts["s_min"], opts["s_max"]))
    report = sh.run_shadow_experiment(sparams, data, orbit)
    write_json(out / "shadow_report.json", report.to_json_dict())
    (out / "eta_series.csv").write_text(report.series_csv(), encoding="utf-8")
    write_gnuplot(out / "eta_series.gp", "eta_series.csv",
                  "projected orbit", using="5:6")
    if not (report.eta_bound_ok and report.annulus_ok
            and not report.horizon_truncated):
        print("shadow verdict failed", file=sys.stderr)
        return EXIT_VERDICT
    return 0


# ----------------------------------------------------------------------
# argument plumbing
# ----------------------------------------------------------------------

_DEFAULTS = {
    "spectrum": {"well": "delta", "strength": 1.0, "sigma": 1.0, "sep": 10.0,
                 "xmax": 40.0, "points": 4096, "out": "runs/spectrum",
                 "force": False},
    "phaseplane": {"ncr": 0.2, "n": 0.05, "t_end": 400.0, "dt": 0.05,
                   "dt_record": 0.5, "orbits": 6, "eps1_max": None,
                   "jobs": 1,  # accepted, no effect
                   "out": "runs/phaseplane", "force": False},
    "bifurcate": {"ncr": 0.1, "n_min": 0.01, "n_max": 0.3, "count": 60,
                  "out": "runs/bifurcate", "force": False},
    "groundstate": {"well": "gauss", "strength": 1.0, "sigma": 1.0, "sep": 3.0,
                    "xmax": 40.0, "points": 4096, "omega_step": None,
                    "count": 60, "out": "runs/groundstate", "force": False},
    "evolve": {"well": "delta", "strength": 1.0, "sigma": 1.0, "sep": 10.0,
               "xmax": 40.0, "points": 4096, "init": "zero", "N": 0.15,
               "dtheta0": 0.0, "dt": 1e-3, "t_end": 10.0, "record_every": 100,
               "cutoff": None, "filter_steps": 10000, "out": "runs/evolve",
               "force": False},
    "shadow": {"side": "below", "tau": 0.05, "gamma": None, "ncr": None,
               "sep": 2.5, "s_min": 2.0, "s_max": 9.0, "xmax": 16.0,
               "points": 1024, "amplitude_factor": 0.3, "dtheta0": None,
               "periods": 5.0, "dt": 4e-3, "out": "runs/shadow",
               "force": False},
}

# each number option's sign rule, across the commands
_SIGN = {**dict.fromkeys(("dt", "dt_record", "t_end", "ncr", "omega_step",
                          "eps1_max", "sep", "s_min", "s_max"), "positive"),
         "n_min": ">= 0", "n_max": ">= 0"}

_COMMANDS = {
    "spectrum": cmd_spectrum,
    "phaseplane": cmd_phaseplane,
    "bifurcate": cmd_bifurcate,
    "groundstate": cmd_groundstate,
    "evolve": cmd_evolve,
    "shadow": cmd_shadow,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dwnls",
        description="double-well NLS/GP laboratory: spectra, reduced "
                    "dynamics, bound states, PDE runs, shadowing")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, defaults in _DEFAULTS.items():
        p = sub.add_parser(name)
        p.add_argument("--config", type=str, default=None,
                       help="JSON file with option values (flags win)")
        for key, val in defaults.items():
            flag = "--" + key.replace("_", "-")
            if isinstance(val, bool):
                p.add_argument(flag, action="store_true", default=None)
            elif isinstance(val, int):
                p.add_argument(flag, type=int, default=None)
            elif isinstance(val, str):
                p.add_argument(flag, type=str, default=None)
            else:  # a float, or null
                p.add_argument(flag, type=float, default=None)
    return parser


def _typed(key: str, val, default):
    """A given value as its option's type (its default's, float where that
    is null), checked against the option's rules."""
    kind = float if default is None else type(default)
    if val is None and default is None:
        return None
    if kind in (bool, str) or type(val) not in (int, float, str):
        if type(val) is not kind:
            raise ConfigError(f"config key {key!r} cannot be "
                              f"{json.dumps(val)}")
        return val
    flag = "--" + key.replace("_", "-")
    try:
        num = float(val)
    except ValueError:
        num = math.nan
    if not math.isfinite(num):
        raise ConfigError(f"{flag} must be a finite number, not {val!r}")
    if kind is int:
        if not (num.is_integer() and num >= 1):
            raise ConfigError(f"{flag} must be a whole number of at least 1, "
                              f"not {val!r}")
        return int(num)
    rule = _SIGN.get(key)
    if rule and not (num > 0 or num == 0 and rule == ">= 0"):
        raise ConfigError(f"{flag} must be {rule}")
    return num


def _resolve(command: str, args: argparse.Namespace) -> dict:
    defaults = _DEFAULTS[command]
    given = {}
    if args.config:
        try:
            loaded = json.loads(Path(args.config).read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config: {exc}") from exc
        if not isinstance(loaded, dict):
            raise ConfigError(f"config must be a JSON object, not "
                              f"{json.dumps(loaded)}")
        unknown = set(loaded) - set(defaults)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        given.update(loaded)
    given.update((key, getattr(args, key)) for key in defaults
                 if getattr(args, key) is not None)
    return {**defaults, **{key: _typed(key, val, defaults[key])
                           for key, val in given.items()}}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        opts = _resolve(args.command, args)
        out, made = _outdir(opts)
        try:
            code = _COMMANDS[args.command](opts, out)
        except BaseException:
            # a failed command leaves no empty directory that main made
            for path in made:
                if any(path.iterdir()):
                    break
                path.rmdir()
            raise
        write_json(out / "manifest.json", dict(sorted(opts.items())))
        return code
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DwnlsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
