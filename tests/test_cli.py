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

    def test_last_row_at_t_end(self, tmp_path):
        # each orbit file ends with the state at t_end: rows every
        # dt_record from t = 0, and t = 100 last
        out = tmp_path / "ppt"
        assert run(["phaseplane", "--t-end", "100", "--orbits", "1",
                    "--out", str(out)]) == 0
        for orbit in json.loads((out / "index.json").read_text())["orbits"]:
            rows = np.loadtxt(out / orbit["file"], delimiter=",", skiprows=1)
            assert len(rows) == 201
            assert rows[-1, 0] == 100.0

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


class TestGroundstateCommand:
    def test_threshold_error_keeps_its_cause(self, tmp_path):
        # three continuation points reach no asymmetric state: the run
        # still exits 0, and threshold.json says why n_star is null
        out = tmp_path / "gs"
        assert run(["groundstate", "--points", "1024", "--count", "3",
                    "--out", str(out)]) == 0
        th = json.loads((out / "threshold.json").read_text())
        assert th["n_star"] is None and th["omega_star"] is None
        assert th["threshold_error"] == {
            "error": "NoBifurcationFound",
            "message": "no asymmetric point on the curve"}


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
        assert rows[-1] == ("0.5,0.99999984246792462,-0.177811459944028,"
                            "1.0450011778635522,0.36802404475601824,2.734375,"
                            "1.5753214052894369e-07")

    def test_crank_nicolson_golden_bits(self, tmp_path):
        # a short Crank-Nicolson run of a sech on the delta well with five
        # tail-filter cuts; its last row, as text, pins every bit of the CN
        # mass, energy and cut path
        out = tmp_path / "ev"
        rc = run(["evolve", "--well", "delta", "--points", "1024",
                  "--init", "sech", "--dt", "1e-3", "--t-end", "0.5",
                  "--cutoff", "30", "--filter-steps", "100",
                  "--record-every", "50", "--out", str(out)])
        assert rc == 0
        rows = (out / "diagnostics.csv").read_text().strip().split("\n")
        assert rows[-1] == ("0.5,4.0000000000000053,-1.3350084915085145,"
                            "-1.3877787807814441e-15,1.4146120990553392,0,"
                            "1.2250907060356335e-25")

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


# the golden shadow inputs, without --periods
SHADOW_GOLDEN = ["shadow", "--side", "above", "--tau", "0.05", "--ncr", "0.1",
                 "--amplitude-factor", "0.7", "--points", "256",
                 "--dt", "1.6e-2"]


class TestGoldenBits:
    def test_shadow_golden_bits(self, tmp_path):
        # a coarse one-period shadowing run; these report lines, as text,
        # pin every bit of the projection, R~ and invariant paths
        out = tmp_path / "sh"
        rc = run([*SHADOW_GOLDEN, "--periods", "1", "--out", str(out)])
        assert rc == 0
        keys = ("period", "sup_eta", "annulus_ratio", "w_sup_h1",
                "w_l4_linf", "tilde_r_sup", "energy_drift", "removed_mass",
                "removed_energy", "tilde_r_removed_mass",
                "tilde_r_removed_ratio")
        assert _json_lines(out / "shadow_report.json", keys) == {
            "period": '"period": 60.515791329203182',
            "sup_eta": '"sup_eta": 0.01229522818483237',
            "annulus_ratio": '"annulus_ratio": 0.098351377773636395',
            "w_sup_h1": '"w_sup_h1": 0.0033004520176489532',
            "w_l4_linf": '"w_l4_linf": 0.00043459974969028514',
            "tilde_r_sup": '"tilde_r_sup": 0.0024998119663225018',
            "energy_drift": '"energy_drift": 1.4961271110891516e-09',
            "removed_mass": '"removed_mass": 6.6404458366372744e-06',
            "removed_energy": '"removed_energy": 3.838641650732999e-05',
            "tilde_r_removed_mass":
                '"tilde_r_removed_mass": 6.4702298028903382e-06',
            "tilde_r_removed_ratio":
                '"tilde_r_removed_ratio": 1.0263075715905636',
        }

    def test_groundstate_golden_bits(self, tmp_path):
        # a short Gaussian continuation with its threshold bisection; n_star
        # pins the bound-state path and n_cr_fd the spectral one
        out = tmp_path / "gs"
        rc = run(["groundstate", "--points", "1024", "--count", "30",
                  "--out", str(out)])
        assert rc == 0
        assert _json_lines(out / "threshold.json", ("n_star", "n_cr_fd")) == {
            "n_star": '"n_star": 0.66802882407340725',
            "n_cr_fd": '"n_cr_fd": 0.82995647678609585',
        }


class TestConfigHandling:
    @pytest.mark.parametrize("argv,option", [
        (["phaseplane", "--dt", "0"], "--dt"),
        (["phaseplane", "--dt-record", "0"], "--dt-record"),
        (["phaseplane", "--t-end", "0"], "--t-end"),
        (["phaseplane", "--orbits", "0"], "--orbits"),
        (["phaseplane", "--eps1-max", "0"], "--eps1-max"),
        (["phaseplane", "--ncr", "-0.1"], "--ncr"),
        (["phaseplane", "--ncr", "0"], "--ncr"),
        (["phaseplane", "--ncr", "0.2", "--n", "-0.5"], "--n must"),
        (["bifurcate", "--count", "0"], "--count"),
        (["bifurcate", "--ncr", "0"], "--ncr"),
        (["bifurcate", "--n-min", "-0.1"], "--n-min"),
        (["bifurcate", "--n-max", "-0.1"], "--n-max"),
        (["groundstate", "--count", "0"], "--count"),
        (["groundstate", "--omega-step", "-0.01"], "--omega-step"),
        ([*SHADOW_GOLDEN, "--dt", "0"], "--dt"),
        ([*SHADOW_GOLDEN, "--periods", "0"], "--periods"),
        ([*SHADOW_GOLDEN, "--periods", "1e-5"], "--periods"),
        ([*SHADOW_GOLDEN, "--side", "below", "--amplitude-factor", "2"],
         "--amplitude-factor"),
    ], ids=["phaseplane_dt_0", "phaseplane_dt_record_0",
            "phaseplane_t_end_0", "phaseplane_orbits_0",
            "phaseplane_eps1_max_0", "phaseplane_ncr_negative",
            "phaseplane_ncr_0", "phaseplane_n_below_minus_ncr",
            "bifurcate_count_0", "bifurcate_ncr_0",
            "bifurcate_n_min_negative", "bifurcate_n_max_negative",
            "groundstate_count_0", "groundstate_omega_step_negative",
            "shadow_dt_0", "shadow_periods_0", "shadow_periods_1e-5",
            "shadow_below_amplitude_2"])
    def test_bad_value_names_its_option(self, tmp_path, capsys, argv,
                                        option):
        # a config error: exit 2, and the message names the option
        assert run([*argv, "--out", str(tmp_path / "run")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and option in err

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
        assert th["n_star"] is not None and th["threshold_error"] is None
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
    # no module imports a scipy package (the two compiled modules load from
    # their files where used), so importing the package loads none of it
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


# the Gaussian well, split step, at the smallest size that has the
# asymmetric equilibrium of the two-mode start
EVOLVE_SPLIT = ["evolve", "--well", "gauss", "--sep", "3", "--init", "twomode",
                "--N", "1", "--dtheta0", "1", "--points", "1024",
                "--t-end", "0.01"]


@pytest.mark.parametrize("argv,loads", [
    (["phaseplane", "--orbits", "2", "--t-end", "50"], []),
    (["bifurcate", "--count", "5"], []),
    (["spectrum", "--points", "1024"], ["scipy.linalg._flapack"]),
    (["groundstate", "--points", "1024", "--omega-step", "0.01",
      "--count", "8"], ["scipy.linalg._flapack"]),
    ([*SHADOW_GOLDEN, "--periods", "1"], ["scipy.linalg._flapack"]),
    ([*SHADOW_GOLDEN, "--periods", "0.5"], ["scipy.linalg._flapack"]),
    (EVOLVE_SPLIT, ["scipy.fft._pocketfft.pypocketfft",
                    "scipy.linalg._flapack"])],
    ids=["phaseplane", "bifurcate", "spectrum", "groundstate", "shadow",
         "shadow_half_period", "evolve"])
def test_scipy_loads_only_for_a_solve(argv, loads, tmp_path):
    # the reduced-model commands run on numpy alone; the grid commands load
    # scipy's compiled LAPACK module and nothing else of scipy: neither
    # scipy nor scipy.linalg, and no scipy.optimize, since every root find
    # goes through dwnls.roots.brentq
    rc, loaded = _run_listing_scipy(argv, tmp_path)
    assert rc == 0
    assert loaded == loads
    if argv[0] == "shadow":
        # the annulus is measured around one full reference period at any
        # horizon: half a period reads the one-period golden string
        lines = _json_lines(tmp_path / "run" / "shadow_report.json",
                            ("annulus_ratio",))
        assert lines == {
            "annulus_ratio": '"annulus_ratio": 0.098351377773636395'}


@pytest.mark.parametrize("argv", [
    None, EVOLVE_SPLIT,
    ["groundstate", "--points", "1024", "--omega-step", "0.01", "--count", "8"]],
    ids=["import", "evolve", "groundstate"])
def test_numpy_fft_and_ma_stay_unloaded(argv, tmp_path):
    # the split step runs on scipy's pocketfft and its wavenumbers are
    # formed in pde, so numpy.fft is never imported; the threshold's
    # distinct omegas are sorted, not np.unique'd, so numpy.ma is not either
    code = "import sys\nfrom dwnls import cli\n"
    if argv is not None:
        code += "assert cli.main(sys.argv[1:]) == 0\n"
        argv = [*argv, "--out", str(tmp_path / "run")]
    code += ("print(*sorted(m for m in sys.modules"
             " if m.split('.')[:2] in (['numpy', 'fft'], ['numpy', 'ma'])))")
    assert _python(code, *(argv or [])) == ""
