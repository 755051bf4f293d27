import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from dwnls import bound_states as bs
from dwnls import cli
from dwnls import reduced_dynamics as rd


def run(args):
    return cli.main(args)


class TestSpectrumCommand:
    def test_delta_well(self, tmp_path):
        out = tmp_path / "spec"
        rc = run(["spectrum", "--well", "delta", "--strength", "1",
                  "--sep", "10", "--out", str(out)])
        assert rc == 0
        data = json.loads((out / "spectral.json").read_text())
        assert data["omega0"] < data["omega1"] < 0.0
        assert len(data["a"]) == 16
        assert (out / "eigenfunctions.csv").exists()
        assert (out / "eigenfunctions.gp").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        # every numeric default appears in the manifest even if unset
        for key in ("xmax", "points", "strength", "sigma", "sep"):
            assert key in manifest

    def test_odd_state_absent_exit_code(self, tmp_path, capsys):
        rc = run(["spectrum", "--well", "delta", "--strength", "1",
                  "--sep", "1", "--out", str(tmp_path / "x")])
        assert rc == 3
        assert "odd" in capsys.readouterr().err.lower()

    def test_gaussian_bimodal_csv(self, tmp_path):
        out = tmp_path / "gs"
        rc = run(["spectrum", "--well", "gauss", "--sigma", "1",
                  "--sep", "3", "--out", str(out)])
        assert rc == 0
        rows = (out / "eigenfunctions.csv").read_text().strip().split("\n")[1:]
        psi0 = np.array([float(r.split(",")[1]) for r in rows])
        d = np.diff(psi0)
        maxima = np.where((d[:-1] > 0) & (d[1:] <= 0))[0]
        assert len(maxima) == 2

    def test_refuses_overwrite(self, tmp_path):
        out = tmp_path / "spec"
        assert run(["spectrum", "--out", str(out)]) == 0
        assert run(["spectrum", "--out", str(out)]) == 2
        assert run(["spectrum", "--out", str(out), "--force"]) == 0

    def test_determinism(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        run(["spectrum", "--out", str(out1)])
        run(["spectrum", "--out", str(out2)])
        for name in ("spectral.json", "eigenfunctions.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
        # manifests agree except for the output path itself
        m1 = json.loads((out1 / "manifest.json").read_text())
        m2 = json.loads((out2 / "manifest.json").read_text())
        m1.pop("out"), m2.pop("out")
        assert m1 == m2


class TestPhaseplaneCommand:
    def test_trapped_orbits(self, tmp_path):
        out = tmp_path / "pp"
        rc = run(["phaseplane", "--ncr", "0.2", "--n", "0.05",
                  "--t-end", "150", "--orbits", "2", "--out", str(out)])
        assert rc == 0
        index = json.loads((out / "index.json").read_text())
        assert index["ncr"] == 0.2
        assert len(index["orbits"]) == 6
        # orbits seeded near the center with dtheta = 0 stay trapped
        near = [o for o in index["orbits"]
                if o["dtheta_0"] == 0.0 and abs(o["eps1_0"]
                                                - np.sqrt(0.025)) < 0.08]
        assert near
        for o in near:
            assert o["eps1_min"] > 0.02

    def test_amplitude_vanishes_below(self, tmp_path):
        out = tmp_path / "ppn"
        rc = run(["phaseplane", "--ncr", "0.2", "--n", "-0.05",
                  "--t-end", "150", "--orbits", "4", "--eps1-max", "0.08",
                  "--out", str(out)])
        assert rc == 0
        index = json.loads((out / "index.json").read_text())
        zero_phase = [o for o in index["orbits"] if o["dtheta_0"] == 0.0]
        zero_phase.sort(key=lambda o: o["eps1_0"])
        maxima = [o["eps1_max"] for o in zero_phase]
        assert all(a <= b + 1e-12 for a, b in zip(maxima, maxima[1:]))

    def test_orbits_match_array_midpoint(self, tmp_path):
        # the implicit midpoint on 2-element arrays with vf_polar_reduced,
        # step for step: the command's inlined loop does the same
        # arithmetic, so rows match to the last digit; by t_end 100 a time
        # kept as a running sum of dt would label rows one step late
        ncr = 0.2
        for n_off, t_end, dt, dt_record in (
                (0.05, 20.0, 0.05, 0.5),
                (0.05, 100.0, 0.05, 0.5),
                (-0.05, 100.0, 0.05, 0.5),  # eps1_max from the n < 0 branch
                (0.3, 400.0, 0.05, 0.5),    # winding, |dtheta| below 512
                (0.05, 40.0, 0.02, 0.2)):
            out = tmp_path / f"ppr{n_off:g}_{t_end:g}_{dt:g}"
            assert run(["phaseplane", "--ncr", str(ncr), "--n", str(n_off),
                        "--t-end", str(t_end), "--dt", str(dt),
                        "--dt-record", str(dt_record), "--orbits", "1",
                        "--out", str(out)]) == 0
            index = json.loads((out / "index.json").read_text())
            for orbit in index["orbits"]:
                state = np.array([orbit["eps1_0"], orbit["dtheta_0"]])
                ref = [state]
                iterations = 0
                for _ in range(int(round(t_end / dt))):
                    z = state + dt * np.array(rd.vf_polar_reduced(
                        *state, n_off, ncr))
                    for _ in range(30):
                        znew = state + dt * np.array(rd.vf_polar_reduced(
                            *(0.5 * (state + z)), n_off, ncr))
                        iterations += 1
                        done = np.max(np.abs(znew - z)) < 1e-13
                        z = znew
                        if done:
                            break
                    state = z
                    ref.append(state)
                rows = np.loadtxt(out / orbit["file"], delimiter=",",
                                  skiprows=1)
                every = int(round(dt_record / dt))
                assert np.array_equal(rows[:, 1:],
                                      np.array(ref[::every])[:len(rows)])
                assert orbit["midpoint_iterations"] == iterations
                assert orbit["stalled_steps"] == 0

    def test_no_stalled_steps_past_dtheta_512(self, tmp_path):
        # the three orbits at n = 0.3 wind past |dtheta| = 512 between
        # t = 820 and 1265; there ulp(dtheta) exceeds 1e-13, and a stop
        # test of 1e-13 alone let iterates cycle between adjacent floats
        # through all 30 iterations on 37, 59 and 86 steps up to t = 2000
        out = tmp_path / "pps"
        assert run(["phaseplane", "--n", "0.3", "--t-end", "2000",
                    "--orbits", "1", "--out", str(out)]) == 0
        index = json.loads((out / "index.json").read_text())
        for orbit in index["orbits"]:
            rows = np.loadtxt(out / orbit["file"], delimiter=",",
                              skiprows=1)
            assert np.max(np.abs(rows[:, 2])) > 512.0
            assert orbit["stalled_steps"] == 0

    def test_jobs_flag(self, tmp_path):
        out = tmp_path / "ppj"
        rc = run(["phaseplane", "--ncr", "0.1", "--n", "0.05",
                  "--t-end", "60", "--orbits", "2", "--jobs", "2",
                  "--out", str(out)])
        assert rc == 0


class TestBifurcateCommand:
    def test_outputs(self, tmp_path):
        out = tmp_path / "bif"
        rc = run(["bifurcate", "--ncr", "0.1", "--n-min", "0.02",
                  "--n-max", "0.3", "--count", "30", "--out", str(out)])
        assert rc == 0
        rows = (out / "bifurcation.csv").read_text().strip().split("\n")
        assert rows[0] == "N,branch,A,alpha,lambda_re,lambda_im,classification"
        barrier = (out / "barrier.csv").read_text().strip().split("\n")
        assert barrier[0] == "N,delta_H"
        vals = [tuple(map(float, r.split(","))) for r in barrier[1:]]
        assert all(v[1] > 0 for v in vals)


class TestEvolveCommand:
    def test_zero_data_zero_diagnostics(self, tmp_path):
        out = tmp_path / "ev"
        rc = run(["evolve", "--init", "zero", "--t-end", "0.05",
                  "--dt", "1e-3", "--out", str(out)])
        assert rc == 0
        rows = (out / "diagnostics.csv").read_text().strip().split("\n")[1:]
        for row in rows:
            vals = [float(v) for v in row.split(",")[1:]]
            assert all(v == 0.0 for v in vals)

    def test_split_step_golden_bits(self, tmp_path):
        # a short nominal split-step run with two tail-filter cuts; its last
        # row, as text, pins every bit of the split-step path
        out = tmp_path / "ev"
        rc = run(["evolve", "--well", "gauss", "--sigma", "1.0", "--sep", "3.0",
                  "--points", "4096", "--init", "twomode", "--N", "1.0",
                  "--dtheta0", "1.0", "--dt", "1e-3", "--t-end", "0.5",
                  "--cutoff", "30.0", "--filter-steps", "250",
                  "--record-every", "250", "--out", str(out)])
        assert rc == 0
        rows = (out / "diagnostics.csv").read_text().strip().split("\n")
        assert rows[-1] == ("0.5,0.9999998424679255,-0.17781145994406614,"
                            "1.0450011778602539,0.3680240447558652,2.734375,"
                            "1.5753214053034413e-07")

    @pytest.mark.parametrize("extra", [
        ["--cutoff", "30", "--filter-steps", "0"],
        ["--cutoff", "30", "--record-every", "0"],
        ["--dt", "0.02"],                     # t_end shorter than one step
    ], ids=["filter_steps_0", "record_every_0", "t_end_below_dt"])
    def test_zero_cadence_exit_code(self, tmp_path, extra):
        assert run(["evolve", "--well", "gauss", "--points", "1024",
                    "--t-end", "0.01", *extra,
                    "--out", str(tmp_path / "ev")]) == 2


def _json_lines(path, keys):
    """The lines of a written JSON bundle that hold `keys`, as text."""
    return {line.split(":")[0].strip().strip('"'): line.strip().rstrip(",")
            for line in path.read_text().split("\n")
            if line.split(":")[0].strip().strip('"') in keys}


class TestGoldenBits:
    def test_shadow_golden_bits(self, tmp_path):
        # a coarse one-period shadowing run; these report lines, as text,
        # pin every bit of the projection, R~ and invariant paths
        out = tmp_path / "sh"
        rc = run(["shadow", "--side", "above", "--tau", "0.05",
                  "--ncr", "0.1", "--amplitude-factor", "0.7",
                  "--periods", "1", "--points", "256", "--dt", "1.6e-2",
                  "--out", str(out)])
        assert rc == 0
        keys = ("sup_eta", "w_sup_h1", "tilde_r_sup", "energy_drift",
                "removed_energy")
        assert _json_lines(out / "shadow_report.json", keys) == {
            "sup_eta": '"sup_eta": 0.012295228184817791',
            "w_sup_h1": '"w_sup_h1": 0.00327879837903924',
            "tilde_r_sup": '"tilde_r_sup": 0.0024998119663222928',
            "energy_drift": '"energy_drift": 1.4961271110891516e-09',
            "removed_energy": '"removed_energy": 3.8386416506885901e-05',
        }

    def test_groundstate_golden_bits(self, tmp_path):
        # a short Gaussian continuation with its threshold bisection; n_star
        # pins the bound-state path and n_cr_fd the spectral one
        out = tmp_path / "gs"
        rc = run(["groundstate", "--points", "1024", "--count", "30",
                  "--out", str(out)])
        assert rc == 0
        assert _json_lines(out / "threshold.json", ("n_star", "n_cr_fd")) == {
            "n_star": '"n_star": 0.66802882407344022',
            "n_cr_fd": '"n_cr_fd": 0.82995647678577766',
        }


class TestConfigHandling:
    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"sep": 8.0, "strength": 1.0}))
        out = tmp_path / "out"
        rc = run(["spectrum", "--config", str(cfg), "--sep", "10",
                  "--out", str(out)])
        assert rc == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["sep"] == 10.0    # flag wins over the file

    def test_unknown_config_key(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"nope": 1}))
        assert run(["spectrum", "--config", str(cfg),
                    "--out", str(tmp_path / "o")]) == 2

    def test_missing_config(self, tmp_path):
        assert run(["spectrum", "--config", str(tmp_path / "gone.json"),
                    "--out", str(tmp_path / "o")]) == 2


@pytest.mark.slow
class TestHeavyCommands:
    def test_groundstate_pitchfork(self, tmp_path):
        out = tmp_path / "gs"
        rc = run(["groundstate", "--well", "delta", "--strength", "1",
                  "--sep", "10", "--count", "50", "--out", str(out)])
        assert rc == 0
        rows = (out / "soliton_curve.csv").read_text().strip().split("\n")[1:]
        branches = {r.split(",")[3] for r in rows}
        assert "asym_plus" in branches or "asym_minus" in branches
        th = json.loads((out / "threshold.json").read_text())
        assert th["n_star"] is not None
        assert abs(th["n_star"] - th["n_cr_fd"]) / th["n_cr_fd"] <= 0.5
        assert th["omega_star"] < th["omega0"]
        assert abs(th["odd_eigenvalue"]) < 1e-9
        max_iter = inspect.signature(
            bs.spectral_renormalize).parameters["max_iter"].default
        assert th["newton_iterations_total"] > 0
        assert 0 < th["newton_iterations_max"] <= max_iter

    def test_shadow_smoke(self, tmp_path):
        out = tmp_path / "sh"
        rc = run(["shadow", "--side", "above", "--tau", "0.05",
                  "--ncr", "0.1", "--periods", "1.0",
                  "--amplitude-factor", "0.7", "--out", str(out)])
        assert rc == 0
        rep = json.loads((out / "shadow_report.json").read_text())
        assert rep["side"] == "above"
        assert rep["annulus_ok"] is True
        # the nominal run's invariants: the free-node mass to rounding, and
        # H, with the energy the tail filter removed added back, to the
        # O(dt^2) gap between H and the relaxation's modified energy
        assert rep["mass_drift"] <= 1e-13
        assert rep["energy_drift"] <= 1e-8
        assert rep["removed_energy"] > 1e3 * rep["energy_drift"]
        assert (out / "eta_series.csv").exists()


def _python(code, *args):
    """stdout of `python -c code args` with this package importable."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-c", code, *args], env=env,
                         check=True, capture_output=True, text=True)
    return out.stdout.strip()


def test_import_leaves_heavy_scipy_unloaded():
    # scipy is imported where used, so importing the package loads none of
    # it, scipy.optimize, .integrate and .spatial included
    code = ("import sys, dwnls, dwnls.cli; print(sorted(m for m in sys.modules "
            "if m.split('.')[0] == 'scipy'))")
    assert _python(code) == "[]"


def _run_listing_scipy(argv, tmp_path):
    """Exit code of the CLI run on argv in a fresh interpreter, and the
    full names of the scipy modules loaded by its end."""
    code = ("import sys\nfrom dwnls import cli\n"
            "rc = cli.main(sys.argv[1:])\n"
            "print(rc, *sorted(m for m in sys.modules "
            "if m.split('.')[0] == 'scipy'))")
    out = _python(code, *argv, "--out", str(tmp_path / "run"))
    rc, *loaded = out.splitlines()[-1].split()
    return int(rc), loaded


@pytest.mark.parametrize("argv,loads", [
    (["phaseplane", "--orbits", "2", "--t-end", "50"], []),
    (["bifurcate", "--count", "5"], []),
    (["spectrum", "--points", "1024"], ["scipy.linalg._flapack"]),
    (["groundstate", "--points", "1024", "--omega-step", "0.01",
      "--count", "8"], ["scipy.linalg._flapack"]),
    (["shadow", "--side", "above", "--tau", "0.05", "--ncr", "0.1",
      "--amplitude-factor", "0.7", "--periods", "1", "--points", "256",
      "--dt", "1.6e-2"], ["scipy.linalg._flapack"])],
    ids=["phaseplane", "bifurcate", "spectrum", "groundstate", "shadow"])
def test_scipy_loads_only_for_a_solve(argv, loads, tmp_path):
    # the reduced-model commands run on numpy alone; the grid commands load
    # scipy's compiled LAPACK module and nothing else of scipy: neither
    # scipy nor scipy.linalg, and no scipy.optimize, since every root find
    # goes through dwnls.roots.brentq
    rc, loaded = _run_listing_scipy(argv, tmp_path)
    assert rc == 0
    assert loaded == loads
