"""Command-line front end: subcommands map onto the module pipelines and
write deterministic CSV/JSON bundles (plus gnuplot stubs) into a run
directory.

    dwnls spectrum   --well delta --strength 1 --sep 10 --out runs/spec
    dwnls phaseplane --ncr 0.2 --n 0.05 --out runs/pp
    dwnls bifurcate  --ncr 0.1 --n-max 0.3 --out runs/bif
    dwnls groundstate --well gauss --sigma 1 --sep 3 --out runs/gs
    dwnls evolve     --well delta --strength 1 --sep 10 --init twomode ...
    dwnls shadow     --side above --tau 0.05 --gamma 0.8 --periods 5 ...

Options may come from a JSON config (--config); explicit flags win.
phaseplane accepts --jobs for old configs and ignores it: its orbits run
one after another (threads gave no speed-up under the GIL).
Exit codes: 2 config error, 3 numeric/solver error, 4 verdict failed.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import bifurcation as bif
from . import bound_states as bst
from . import linear_spectrum as spec_mod
from . import pde
from . import reduced_dynamics as rd
from . import shadowing as sh
from .errors import DwnlsError
from .grids import Grid
from .io_utils import write_csv, write_gnuplot, write_json

EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_VERDICT = 4


class ConfigError(Exception):
    pass


def _outdir(opts) -> Path:
    out = Path(opts["out"])
    out.mkdir(parents=True, exist_ok=True)
    existing = [p for p in out.iterdir() if p.is_file()]
    if existing and not opts.get("force", False):
        raise ConfigError(
            f"output directory {out} is not empty (use --force to overwrite)")
    return out


def _grid(opts) -> Grid:
    return Grid.symmetric(float(opts["xmax"]), int(opts["points"]))


def _potential(opts) -> spec_mod.PotentialSpec:
    well = opts["well"]
    if well == "delta":
        return spec_mod.PotentialSpec("delta", float(opts["strength"]),
                                      float(opts["sep"]))
    if well == "gauss":
        return spec_mod.PotentialSpec("gauss", float(opts["sigma"]),
                                      float(opts["sep"]))
    raise ConfigError(f"unknown well kind {well!r}")


def _manifest(out: Path, opts: dict) -> None:
    write_json(out / "manifest.json", {k: v for k, v in sorted(opts.items())})


# ----------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------

def cmd_spectrum(opts) -> int:
    out = _outdir(opts)
    grid = _grid(opts)
    data = spec_mod.spectral_data(_potential(opts), grid)
    write_json(out / "spectral.json", data.to_json_dict())
    (out / "eigenfunctions.csv").write_text(
        spec_mod.eigenfunctions_to_csv(data), encoding="utf-8")
    write_gnuplot(out / "eigenfunctions.gp", "eigenfunctions.csv",
                  "double-well bound states", using="1:2, '' using 1:3")
    _manifest(out, opts)
    return 0


def cmd_phaseplane(opts) -> int:
    out = _outdir(opts)
    ncr = float(opts["ncr"])
    n_offset = float(opts["n"])
    t_end = float(opts["t_end"])
    count = int(opts["orbits"])
    for key in ("dt", "dt_record", "t_end", "orbits"):
        if not float(opts[key]) > 0:
            raise ConfigError(f"--{key.replace('_', '-')} must be positive")
    if opts.get("eps1_max") is not None and not float(opts["eps1_max"]) > 0:
        raise ConfigError("--eps1-max must be positive")
    if not ncr > 0:
        raise ConfigError("--ncr must be positive")
    if not ncr + n_offset > 0:
        raise ConfigError("--n must exceed -ncr (a positive power ncr + n)")
    eps_max = float(opts["eps1_max"]) if opts.get("eps1_max") else \
        1.5 * np.sqrt(abs(n_offset) / 2.0 if n_offset > 0 else ncr / 8.0)
    ics = []
    for i in range(count):
        eps1 = eps_max * (i + 1) / count
        for dth in (0.0, 1.0, 2.0):
            ics.append((eps1, dth))

    def run_one(idx, eps1, dth):
        # every dt_record, then t_end once (arange can round up to it)
        ts = np.arange(0.0, t_end, float(opts["dt_record"]))
        ts = np.append(ts[ts < t_end - 1e-12], t_end)
        dt = float(opts["dt"])
        rows, iterations, stalled = rd.polar_midpoint_orbit(
            eps1, dth, n_offset, ncr, dt, int(round(t_end / dt)), ts)
        y = np.array(rows)
        name = f"orbit_{idx:03d}.csv"
        write_csv(out / name, ["t", "eps1", "dtheta"],
                  [ts[:len(rows)], y[:, 0], y[:, 1]])
        return {"file": name, "eps1_0": eps1, "dtheta_0": dth,
                "eps1_max": float(np.max(y[:, 0])),
                "eps1_min": float(np.min(y[:, 0])),
                "midpoint_iterations": iterations, "stalled_steps": stalled}

    index = [run_one(idx, eps1, dth) for idx, (eps1, dth) in enumerate(ics)]
    write_json(out / "index.json",
               {"ncr": ncr, "n": n_offset, "orbits": index})
    write_gnuplot(out / "phaseplane.gp", "orbit_000.csv",
                  "phase plane (eps1, dtheta)", using="3:2")
    _manifest(out, opts)
    return 0


def cmd_bifurcate(opts) -> int:
    out = _outdir(opts)
    ncr = float(opts["ncr"])
    if int(opts["count"]) < 1:
        raise ConfigError("--count must be positive")
    if not ncr > 0:
        raise ConfigError("--ncr must be positive")
    for key in ("n_min", "n_max"):
        if float(opts[key]) < 0:
            raise ConfigError(f"--{key.replace('_', '-')} must be >= 0")
    n_vals = np.linspace(float(opts["n_min"]), float(opts["n_max"]),
                         int(opts["count"]))
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
    _manifest(out, opts)
    return 0


def cmd_groundstate(opts) -> int:
    out = _outdir(opts)
    if int(opts["count"]) < 1:
        raise ConfigError("--count must be positive")
    if opts.get("omega_step") is not None and \
            not float(opts["omega_step"]) > 0:
        raise ConfigError("--omega-step must be positive")
    grid = _grid(opts)
    potential = _potential(opts)
    data = spec_mod.spectral_data(potential, grid)
    seeds = bst.default_seeds(data)
    step = float(opts["omega_step"]) if opts.get("omega_step") else \
        0.05 * data.n_cr_fd * data.a[0, 0, 0, 0]
    count = int(opts["count"])
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
    _manifest(out, opts)
    return 0


def cmd_evolve(opts) -> int:
    out = _outdir(opts)
    grid = _grid(opts)
    potential = _potential(opts)
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
        n_level = float(opts["N"])
        dth = float(opts["dtheta0"])
        params = rd.ReducedParams.from_spectral(data)
        alpha_eq = sh.equilibrium_alpha(params, n_level)
        rho1 = alpha_eq * np.exp(1j * dth)
        rho0 = np.sqrt(n_level - alpha_eq**2)
        u0 = (rho0 * data.psi0 + rho1 * data.psi1).astype(complex)
    else:
        raise ConfigError(f"unknown init {kind!r}")
    scheme = ("crank_nicolson" if potential.kind == "delta" else "split_step")
    filt = None
    if opts.get("cutoff"):
        filt = pde.TailFilter(trigger_steps=int(opts["filter_steps"]),
                              cutoff_radius=float(opts["cutoff"]))
    params = pde.EvolveParams(dt=float(opts["dt"]), t_end=float(opts["t_end"]),
                              scheme=scheme, record_every=int(opts["record_every"]),
                              tail_filter=filt)
    v = spec_mod.potential_samples(potential, grid)
    final, diags = pde.evolve(u0, grid, params, v)
    (out / "diagnostics.csv").write_text(diags.to_csv(), encoding="utf-8")
    (out / "final_state.csv").write_text(pde.snapshot_csv(final, grid),
                                         encoding="utf-8")
    write_gnuplot(out / "diagnostics.gp", "diagnostics.csv",
                  "center of mass", using="1:4")
    _manifest(out, opts)
    return 0


def cmd_shadow(opts) -> int:
    out = _outdir(opts)
    grid = _grid(opts)
    sparams = sh.ShadowParams(
        tau=float(opts["tau"]),
        gamma=float(opts["gamma"]) if opts.get("gamma") is not None else None,
        n_cr=float(opts["ncr"]) if opts.get("ncr") is not None else None,
    )
    orbit = sh.OrbitSpec(
        side=opts["side"],
        amplitude_factor=float(opts["amplitude_factor"]),
        dtheta0=float(opts["dtheta0"]) if opts.get("dtheta0") is not None else None,
        horizon_periods=float(opts["periods"]),
        dt_pde=float(opts["dt"]),
    )
    data = spec_mod.tune_delta_strength_for_ncr(
        sparams.critical_power, float(opts["sep"]), grid,
        (float(opts["s_min"]), float(opts["s_max"])))
    report = sh.run_shadow_experiment(sparams, data, orbit)
    write_json(out / "shadow_report.json", report.to_json_dict())
    (out / "eta_series.csv").write_text(report.series_csv(), encoding="utf-8")
    write_gnuplot(out / "eta_series.gp", "eta_series.csv",
                  "projected orbit", using="5:6")
    _manifest(out, opts)
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
            elif isinstance(val, float):
                p.add_argument(flag, type=float, default=None)
            else:
                p.add_argument(flag, type=str, default=None)
    return parser


def _resolve(command: str, args: argparse.Namespace) -> dict:
    opts = dict(_DEFAULTS[command])
    if args.config:
        try:
            loaded = json.loads(Path(args.config).read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config: {exc}") from exc
        unknown = set(loaded) - set(opts)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        opts.update(loaded)
    for key in opts:
        val = getattr(args, key, None)
        if val is not None:
            opts[key] = val
    return opts


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        opts = _resolve(args.command, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        return _COMMANDS[args.command](opts)
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
