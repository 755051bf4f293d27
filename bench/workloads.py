"""The four benchmark workloads: CLI inputs per seed and size, the work
unit behind ``work_rate``, and the output check of each run.

Seed 0 gives the nominal inputs. Any other seed perturbs the physical
inputs slightly and deterministically; such runs, and runs at the minimal
size, are checked by exit code and invariant bounds instead of stored
values.
"""

from __future__ import annotations

import csv
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable


def _close(name: str, got: float, want: float, rtol: float, atol: float = 0.0):
    if not math.isfinite(got) or abs(got - want) > atol + rtol * abs(want):
        return [f"{name} = {got!r}, expected {want!r} (rtol {rtol:g}, atol {atol:g})"]
    return []


def _bound(name: str, ok: bool, got) -> list[str]:
    return [] if ok else [f"{name} out of bounds: {got!r}"]


def _read_json(path: Path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _read_csv(path: Path) -> list[dict]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


# ----------------------------------------------------------------------
# shadow_above
# ----------------------------------------------------------------------

SHADOW = {"side": "above", "tau": 0.05, "ncr": 0.1, "amplitude_factor": 0.7,
          "periods": 1.0, "points": 1024, "dt": 4e-3}
SHADOW_MIN = {"points": 256, "dt": 1.6e-2}
# seed 0, full size, at the seed commit
SHADOW_REF = {"sup_eta": 0.020027016931549943,
              "annulus_ratio": 0.13638464000265887,
              "period": 62.917121630493,
              "mass_drift": 2.2500437624195513e-10}


def _shadow_perturb(rng: random.Random, opts: dict) -> None:
    opts["amplitude_factor"] = 0.7 * (1.0 + 0.03 * rng.uniform(-1.0, 1.0))


def _shadow_work(opts: dict, out: Path) -> float:
    rep = _read_json(out / "shadow_report.json")
    return float(round(rep["horizon"] / opts["dt"]))


def _shadow_check(opts: dict, out: Path, exact: bool) -> list[str]:
    rep = _read_json(out / "shadow_report.json")
    bad = []
    bad += _bound("eta_bound_ok", rep["eta_bound_ok"], rep["eta_bound_ok"])
    bad += _bound("annulus_ok", rep["annulus_ok"], rep["annulus_ok"])
    bad += _bound("horizon_truncated", not rep["horizon_truncated"],
                  rep["horizon_truncated"])
    bad += _bound("mass_drift", 0.0 <= rep["mass_drift"] <= 1e-7, rep["mass_drift"])
    bad += _bound("period", 0.0 < rep["period"] < math.inf, rep["period"])
    if exact:
        ref = SHADOW_REF
        bad += _close("sup_eta", rep["sup_eta"], ref["sup_eta"], 1e-6)
        bad += _close("annulus_ratio", rep["annulus_ratio"], ref["annulus_ratio"], 1e-6)
        bad += _close("period", rep["period"], ref["period"], 1e-9)
        # the drift is the fixed-point closure's residue: compare loosely
        bad += _close("mass_drift", rep["mass_drift"], ref["mass_drift"], 1e-2, 1e-12)
    return bad


# ----------------------------------------------------------------------
# evolve_split
# ----------------------------------------------------------------------

# t_end 5 (5000 steps, about 4 s) rather than 20, so that one benchmark run
# holds several CLI runs and reports their median
EVOLVE = {"well": "gauss", "sigma": 1.0, "sep": 3.0, "points": 4096, "init": "twomode",
          "N": 1.0, "dtheta0": 1.0, "dt": 1e-3, "t_end": 5.0,
          "cutoff": 30.0, "filter_steps": 1000}
EVOLVE_MIN = {"points": 1024, "t_end": 1.0, "filter_steps": 500}
EVOLVE_REF = {"N": 0.99999976537631785, "x_com": 1.5352520698462715,
              "removed_mass": 2.3462239939628784e-07}


def _evolve_perturb(rng: random.Random, opts: dict) -> None:
    opts["N"] = 1.0 * (1.0 + 0.02 * rng.uniform(-1.0, 1.0))
    opts["dtheta0"] = 1.0 + 0.05 * rng.uniform(-1.0, 1.0)


def _evolve_work(opts: dict, out: Path) -> float:
    return float(round(opts["t_end"] / opts["dt"]))


def _evolve_check(opts: dict, out: Path, exact: bool) -> list[str]:
    rows = _read_csv(out / "diagnostics.csv")
    first, last = rows[0], rows[-1]
    n0, n1 = float(first["N"]), float(last["N"])
    removed, x_com = float(last["removed_mass"]), float(last["x_com"])
    bad = []
    bad += _bound("final t", abs(float(last["t"]) - opts["t_end"]) < 1e-9, last["t"])
    bad += _close("N + removed_mass", n1 + removed, n0, 1e-6)
    bad += _bound("x_com", abs(x_com) < 40.0, x_com)
    if exact:
        ref = EVOLVE_REF
        bad += _close("N", n1, ref["N"], 1e-9)
        bad += _close("x_com", x_com, ref["x_com"], 1e-6)
        bad += _close("removed_mass", removed, ref["removed_mass"], 1e-6)
    return bad


# ----------------------------------------------------------------------
# groundstate
# ----------------------------------------------------------------------

GROUNDSTATE = {}
GROUNDSTATE_MIN = {"points": 1024, "omega_step": 0.01, "count": 8}
GROUNDSTATE_REF = {"n_star": 0.65632528521308298, "rows": 122}


def _groundstate_perturb(rng: random.Random, opts: dict) -> None:
    # groundstate takes none of the perturbed inputs (amplitude factor, N,
    # dtheta0); moving the well instead moves the pitchfork against the
    # continuation grid and changes the work by several percent
    pass


def _groundstate_rows(out: Path) -> int:
    return len(_read_csv(out / "soliton_curve.csv"))


def _groundstate_work(opts: dict, out: Path) -> float:
    return float(_groundstate_rows(out))


def _groundstate_check(opts: dict, out: Path, exact: bool) -> list[str]:
    thr = _read_json(out / "threshold.json")
    rows = _groundstate_rows(out)
    count = opts.get("count", 60)
    n_star = thr["n_star"]
    bad = []
    bad += _bound("rows", rows == 2 * (count + 1), rows)
    bad += _bound("n_star", n_star is not None
                  and 0.5 < n_star / thr["n_cr_fd"] < 1.0, n_star)
    if exact and n_star is not None:
        bad += _close("n_star", n_star, GROUNDSTATE_REF["n_star"], 1e-5)
        bad += _bound("rows", rows == GROUNDSTATE_REF["rows"], rows)
    return bad


# ----------------------------------------------------------------------
# phaseplane
# ----------------------------------------------------------------------

# t_end 100 (36,000 steps, about 4 s) rather than 400, as for evolve_split
PHASEPLANE = {"jobs": 1, "t_end": 100.0}
PHASEPLANE_MIN = {"orbits": 2, "t_end": 50.0}
# (eps1_max, eps1_min) of the 18 orbits at the seed commit
PHASEPLANE_REF = [
    (0.21997471098762356, 0.03952847075210474),
    (0.23172896429957932, 0.03156199336331919),
    (0.23344454097678605, 0.0350221571338119),
    (0.2091629535777466, 0.07905694150420949),
    (0.25061571508304176, 0.06349325080163339),
    (0.2550092485100361, 0.07039631116688959),
    (0.18956845742523293, 0.11858541225631421),
    (0.273291784347657, 0.0960197032983124),
    (0.2801880493729043, 0.1058053081049306),
    (0.15811388300841897, 0.15811388300841897),
    (0.29683772201359077, 0.12957882830211281),
    (0.3052817726202559, 0.1418798187476932),
    (0.19764235376052372, 0.10458415188134404),
    (0.32041814537838026, 0.16443156090592217),
    (0.3297457989215852, 0.17869066199550276),
    (0.23717082451262841, 0.04192454257350252),
    (0.34382454100654997, 0.2008576239575697),
    (0.3534692912378594, 0.2163691536295907),
]
PP_DEFAULTS = {"ncr": 0.2, "n": 0.05, "t_end": 400.0, "dt": 0.05, "orbits": 6}


def _pp(opts: dict, key: str) -> float:
    return opts.get(key, PP_DEFAULTS[key])


def _phaseplane_perturb(rng: random.Random, opts: dict) -> None:
    opts["n"] = 0.05 * (1.0 + 0.04 * rng.uniform(-1.0, 1.0))


def phaseplane_steps(opts: dict) -> int:
    """Implicit-midpoint steps of one phaseplane run."""
    return 3 * int(_pp(opts, "orbits")) * int(round(_pp(opts, "t_end") / _pp(opts, "dt")))


def _phaseplane_work(opts: dict, out: Path) -> float:
    return float(phaseplane_steps(opts))


def _polar_energy(eps1: float, dtheta: float, n_tot: float, n_cr: float) -> float:
    """Conserved energy of the two-field polar reduction (p = eps1^2)."""
    p = eps1 * eps1
    return (2.0 * n_cr * p - 0.5 * (n_tot - p) ** 2 - 0.5 * p * p
            - (n_tot - p) * p * (2.0 + math.cos(2.0 * dtheta)))


def _phaseplane_check(opts: dict, out: Path, exact: bool) -> list[str]:
    index = _read_json(out / "index.json")
    n_cr, n_tot = _pp(opts, "ncr"), _pp(opts, "ncr") + _pp(opts, "n")
    orbits = index["orbits"]
    bad = _bound("orbit count", len(orbits) == 3 * int(_pp(opts, "orbits")), len(orbits))
    for i, orb in enumerate(orbits):
        lo, hi, e0 = orb["eps1_min"], orb["eps1_max"], orb["eps1_0"]
        bad += _bound(f"orbit {i} eps1 range", 0.0 <= lo <= e0 <= hi
                      and hi * hi <= n_tot, (lo, e0, hi))
        rows = _read_csv(out / orb["file"])
        energy = [_polar_energy(float(r["eps1"]), float(r["dtheta"]), n_tot, n_cr)
                  for r in rows]
        drift = max(abs(h - energy[0]) for h in energy) / abs(energy[0])
        bad += _bound(f"orbit {i} energy drift", drift <= 2e-3, drift)
    if exact:
        for i, (orb, (hi, lo)) in enumerate(zip(orbits, PHASEPLANE_REF)):
            bad += _close(f"orbit {i} eps1_max", orb["eps1_max"], hi, 1e-7)
            bad += _close(f"orbit {i} eps1_min", orb["eps1_min"], lo, 1e-7)
    return bad


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    name: str
    command: str                    # dwnls subcommand
    why: str
    unit: str                       # work unit counted by work_rate
    setup_fn: str | None            # linear_spectrum call made before stepping
    nominal: dict                   # options differing from the CLI defaults
    minimal: dict                   # overrides for the minimal size
    perturb: Callable[[random.Random, dict], None]
    work: Callable[[dict, Path], float]
    check: Callable[[dict, Path, bool], list]

    def options(self, seed: int, size: str = "full") -> dict:
        """CLI options for a seed; seed 0 is nominal."""
        opts = dict(self.nominal)
        if size == "min":
            opts.update(self.minimal)
        if seed != 0:
            self.perturb(random.Random(seed), opts)
        return opts

    def argv(self, opts: dict) -> list[str]:
        """CLI argument list for these options."""
        out = [self.command]
        for key, val in opts.items():
            out += ["--" + key.replace("_", "-"), str(val)]
        return out


WORKLOADS = {w.name: w for w in (
    Workload(
        "shadow_above", "shadow",
        "hot path: CN, R~, reduced midpoint and sampling of one shadowing period; "
        "every layer but bound_states works. work_rate unit: PDE steps",
        "PDE steps", "tune_delta_strength_for_ncr", SHADOW, SHADOW_MIN,
        _shadow_perturb, _shadow_work, _shadow_check),
    Workload(
        "evolve_split", "evolve",
        "split-step FFT march at 4096 points with the tail filter; no CN, R~ or "
        "reduced orbit, so it is the bypass for those. work_rate unit: steps",
        "split-step steps", "spectral_data", EVOLVE, EVOLVE_MIN,
        _evolve_perturb, _evolve_work, _evolve_check),
    Workload(
        "groundstate", "groundstate",
        "only workload for bound_states: bound-state continuation and threshold "
        "bisection, no time stepping. work_rate unit: continuation points",
        "continuation points", "spectral_data", GROUNDSTATE, GROUNDSTATE_MIN,
        _groundstate_perturb, _groundstate_work, _groundstate_check),
    Workload(
        "phaseplane", "phaseplane",
        "18 orbits of scalar implicit midpoint on 2-vectors: pure interpreter "
        "overhead, no grid layer. work_rate unit: midpoint steps",
        "midpoint steps", None, PHASEPLANE, PHASEPLANE_MIN,
        _phaseplane_perturb, _phaseplane_work, _phaseplane_check),
)}
