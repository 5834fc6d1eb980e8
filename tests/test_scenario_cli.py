"""Scenario parsing, artifact emission, divergence tables, CLI exit codes."""

import csv
import dataclasses
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from contactflows import scenario as scenario_module
from contactflows.cli import main as cli_main
from contactflows.errors import EvaluationError
from contactflows.integrate import integrate_lift
from contactflows.lifts import linear_restoring
from contactflows.potentials import (
    ConvexPotential,
    DuallyFlatWorkspace,
    quadratic_potential,
    spin_potential,
)
from contactflows.scenario import (
    EXIT_CHECK_FAILED,
    EXIT_NUMERICAL,
    EXIT_PASS,
    EXIT_USAGE,
    build_invariant_report,
    divergence_table,
    parse_scenario,
    run_scenario,
)

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def write(tmp_path, text, name="case.scenario"):
    path = tmp_path / name
    path.write_text(text)
    return path


# the [model] keys each model takes besides its name
MODEL_KEYS = {
    "rc": ("R", "C", "gamma0"),
    "rl": ("R", "L", "gamma0"),
    "rlc": ("R", "C", "L", "gamma0"),
    "rc_thermal": ("R", "C", "gamma0", "T0"),
    "rl_thermal": ("R", "L", "gamma0", "T0"),
    "rlc_thermal": ("R", "C", "L", "gamma0", "T0"),
    "spin": ("theta", "gamma0", "lambda0"),
    "onsager": ("L", "gamma0"),
}

RC_TEXT = """
[model]
name = rc
R = 1.0
C = 1.0

[initial]
x = 1.0

[integrator]
method = rk4
step = 1e-3
t_end = 1.0

[outputs]
trajectory_csv = traj.csv
invariant_report = report.txt
"""

# an RLC circuit on the dual chart, started off the submanifold and run long
PHI_RLC_OFF = """
[model]
name = rlc
R = 1.0
C = 1.0
L = 1.0
gamma0 = 1.0

[initial]
x = 0.5 -0.3
p = 0.2 0.4
z = 0.1

[integrator]
t_end = 50
"""


class TestParsing:
    def test_round_trip(self, tmp_path):
        scenario = parse_scenario(write(tmp_path, RC_TEXT))
        assert scenario.model_name == "rc"
        assert scenario.t_end == 1.0
        assert scenario.config.method == "rk4"

    def test_missing_section_rejected(self, tmp_path):
        path = write(tmp_path, "[model]\nname = rc\nR = 1\nC = 1\n")
        result = run_scenario(path)
        assert result.exit_code == EXIT_USAGE

    def test_unknown_model_rejected(self, tmp_path):
        path = write(tmp_path, RC_TEXT.replace("name = rc", "name = flux"))
        assert run_scenario(path).exit_code == EXIT_USAGE

    def test_dimension_mismatch_rejected(self, tmp_path):
        path = write(tmp_path, RC_TEXT.replace("x = 1.0", "x = 1.0 2.0"))
        assert run_scenario(path).exit_code == EXIT_USAGE

    def test_malformed_number_rejected(self, tmp_path):
        path = write(tmp_path, RC_TEXT.replace("R = 1.0", "R = one"))
        assert run_scenario(path).exit_code == EXIT_USAGE

    def test_unknown_onsager_key_rejected(self, tmp_path):
        text = RC_TEXT.replace("name = rc\nR = 1.0\nC = 1.0",
                               "name = onsager\nL = 1.0\ngama0 = 5.0\ntypo_key = 1")
        result = run_scenario(write(tmp_path, text))
        assert result.exit_code == EXIT_USAGE
        assert "gama0" in result.message and "typo_key" in result.message

    def test_valid_onsager_keys_accepted(self, tmp_path):
        text = RC_TEXT.replace("name = rc\nR = 1.0\nC = 1.0",
                               "name = onsager\nL = 1.0\ngamma0 = 5.0")
        assert run_scenario(write(tmp_path, text), out_dir=tmp_path).exit_code == EXIT_PASS

    @pytest.mark.parametrize("section, old, new, key", [
        ("[model]", "C = 1.0", "C = 1.0\npotential = 2", "potential"),
        ("[model]", "C = 1.0", "C = 1.0\nL = 3.0", "l"),
        ("[model]", "C = 1.0", "C = 1.0\nT0 = 1.0", "t0"),
        ("[initial]", "x = 1.0", "x = 1.0\nx_extra = 3", "x_extra"),
        ("[initial]", "x = 1.0", "x = 1.0\np = 1.0", "p"),
        ("[integrator]", "step = 1e-3", "stepp = 0.1", "stepp"),
        ("[integrator]", "step = 1e-3", "step = 1e-3\nrel_tol = 1e-6", "rel_tol"),
        ("[integrator]", "method = rk4", "method = rkf45", "step"),
        ("[outputs]", "invariant_report", "invariant_reprot", "invariant_reprot"),
    ], ids=["potential", "L", "T0", "x_extra", "p_without_z", "stepp", "rel_tol_under_rk4",
            "step_under_rkf45", "output"])
    def test_unread_key_rejected(self, tmp_path, section, old, new, key):
        result = run_scenario(write(tmp_path, RC_TEXT.replace(old, new)), out_dir=tmp_path)
        assert result.exit_code == EXIT_USAGE
        assert result.message.startswith(section)
        assert repr(key) in result.message
        assert not (tmp_path / "traj.csv").exists()

    @pytest.mark.parametrize("name, keys", sorted(MODEL_KEYS.items()))
    def test_every_model_key_accepted(self, tmp_path, name, keys):
        n = 2 if name.startswith("rlc") or name == "onsager" else 1
        values = {"L": "1.0 0.0; 0.0 2.0" if name == "onsager" else "0.5"}
        model = "".join(f"{k} = {values.get(k, '0.5')}\n" for k in keys)
        vec = " ".join(["0.5"] * n)
        initial = f"x = {vec}\np = {vec}\nz = 0.0\n"
        if "thermal" in name:
            initial += "x_extra = 0.0\np_extra = 1.0\n"
        text = (f"[model]\nname = {name}\n{model}\n[initial]\n{initial}\n"
                "[integrator]\nmethod = rk4\nstep = 0.1\nt_end = 1.0\n")
        assert parse_scenario(write(tmp_path, text)).model_name == name

    @pytest.mark.parametrize("old, new", [
        ("x = 1.0", "x = 1e400"),
        ("name = rc\nR = 1.0\nC = 1.0\n\n[initial]\nx = 1.0",
         "name = rlc\nR = 1.0\nC = 1.0\nL = 1.0\n\n[initial]\np = nan 0.2"),
    ], ids=["rc-inf-x", "rlc-nan-p"])
    def test_nonfinite_initial_rejected(self, tmp_path, capsys, old, new):
        path = write(tmp_path, RC_TEXT.replace(old, new))
        result = run_scenario(path, out_dir=tmp_path)
        assert result.exit_code == EXIT_USAGE
        assert result.message.startswith("[initial]") and "non-finite" in result.message
        assert cli_main(["check", str(path)]) == EXIT_USAGE
        assert capsys.readouterr().err.startswith("[initial]")

    @pytest.mark.parametrize("section, old, new", [
        ("[model]", "R = 1.0", "R = nan"),
        ("[model]", "C = 1.0", "C = inf"),
        ("[model]", "C = 1.0", "C = 1.0\ngamma0 = -inf"),
        ("[model]", "name = rc\nR = 1.0\nC = 1.0", "name = rl\nR = 1.0\nL = nan"),
        ("[model]", "name = rc\n", "name = rc_thermal\nT0 = nan\n"),
        ("[model]", "name = rc\n", "name = rc_thermal\nT0 = inf\n"),
        ("[model]", "name = rc\nR = 1.0\nC = 1.0", "name = spin\ntheta = nan\ngamma0 = 1.0"),
        ("[model]", "name = rc\nR = 1.0\nC = 1.0", "name = spin\ntheta = 0.5\ngamma0 = inf"),
        ("[model]", "name = rc\nR = 1.0\nC = 1.0",
         "name = spin\ntheta = 0.5\ngamma0 = 1.0\nlambda0 = nan"),
        ("[model]", "name = rc\nR = 1.0\nC = 1.0", "name = onsager\nL = 1.0\ngamma0 = nan"),
        ("[model]", "name = rc\nR = 1.0\nC = 1.0", "name = onsager\nL = inf"),
        ("[integrator]", "step = 1e-3", "step = nan"),
        ("[integrator]", "step = 1e-3", "step = inf"),
        ("[integrator]", "method = rk4\nstep = 1e-3", "method = rkf45\nrel_tol = nan"),
        ("[integrator]", "method = rk4\nstep = 1e-3", "method = rkf45\nabs_tol = inf"),
        ("[integrator]", "t_end = 1.0", "t_end = nan"),
        ("[integrator]", "t_end = 1.0", "t_end = inf"),
        ("[integrator]", "t_end = 1.0", "t_end = -inf"),
    ], ids=["R-nan", "C-inf", "gamma0-neg-inf", "L-nan", "T0-nan", "T0-inf", "theta-nan",
            "spin-gamma0-inf", "lambda0-nan", "onsager-gamma0-nan", "onsager-L-inf",
            "step-nan", "step-inf", "rel_tol-nan", "abs_tol-inf", "t_end-nan", "t_end-inf",
            "t_end-neg-inf"])
    def test_nonfinite_number_rejected(self, tmp_path, capsys, section, old, new):
        # before the checks tested finiteness, R = nan ended in a step-floor
        # abort, t_end = nan in a one-row PASS and t_end = inf under rk4 in
        # a run that never stopped
        path = write(tmp_path, RC_TEXT.replace(old, new))
        result = run_scenario(path, out_dir=tmp_path)
        assert result.exit_code == EXIT_USAGE
        assert result.message.startswith(section) and "finite" in result.message
        assert not (tmp_path / "traj.csv").exists()
        assert cli_main(["check", str(path)]) == EXIT_USAGE
        assert capsys.readouterr().err.startswith(section)

    def test_pythagorean_unknown_point_rejected(self, tmp_path):
        text = (SCENARIOS / "pythagorean.scenario").read_text() + "x4 = 2.0 2.0\n"
        result = run_scenario(write(tmp_path, text), write_outputs=False)
        assert result.exit_code == EXIT_USAGE
        assert result.message.startswith("[points]") and "'x4'" in result.message

    def _pythagorean_with_n(self, tmp_path, n_text):
        text = (SCENARIOS / "pythagorean.scenario").read_text().replace("n = 2", n_text)
        return run_scenario(write(tmp_path, text), write_outputs=False)

    def test_pythagorean_point_length_must_match_n(self, tmp_path):
        result = self._pythagorean_with_n(tmp_path, "n = 3")
        assert result.exit_code == EXIT_USAGE
        assert result.message.startswith("[points]") and "'x1'" in result.message

    @pytest.mark.parametrize("n_text", ["n = two", "n = 0"])
    def test_pythagorean_n_must_be_positive_integer(self, tmp_path, n_text):
        result = self._pythagorean_with_n(tmp_path, n_text)
        assert result.exit_code == EXIT_USAGE
        assert result.message.startswith("[model]") and "'n'" in result.message


class TestAbortSemantics:
    def _run_raising(self, tmp_path, monkeypatch, exc):
        def raise_(*args, **kwargs):
            raise exc

        monkeypatch.setattr(scenario_module, "integrate_lift", raise_)
        return run_scenario(write(tmp_path, RC_TEXT), out_dir=tmp_path)

    def test_programming_error_propagates(self, tmp_path, monkeypatch):
        with pytest.raises(TypeError):
            self._run_raising(tmp_path, monkeypatch, TypeError("bad operand"))

    def test_numerical_failure_exits_3(self, tmp_path, monkeypatch):
        result = self._run_raising(tmp_path, monkeypatch, EvaluationError("non-finite"))
        assert result.exit_code == EXIT_NUMERICAL
        assert "integration aborted" in result.message

    def test_rk4_blow_up_exits_3_with_t(self, tmp_path):
        # RK4 at h = 10 amplifies the RC decay by about 291 per step
        text = RC_TEXT.replace("step = 1e-3", "step = 10").replace("t_end = 1.0", "t_end = 5000")
        with np.errstate(over="ignore", invalid="ignore"):
            result = run_scenario(write(tmp_path, text), out_dir=tmp_path)
        assert result.exit_code == EXIT_NUMERICAL
        assert "integration truncated" in result.message
        assert "t = " in result.message and "h = 10" in result.message
        assert result.trajectory.truncated
        assert not (tmp_path / "traj.csv").exists()


class TestRunScenario:
    def test_rc_endpoint_and_artifacts(self, tmp_path):
        path = write(tmp_path, RC_TEXT)
        result = run_scenario(path, out_dir=tmp_path)
        assert result.exit_code == EXIT_PASS
        assert result.report.passed
        # trajectory CSV: header + rows, endpoint e^{-1}
        with open(tmp_path / "traj.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["t", "x1", "p1", "z", "h", "delta0", "delta_norm", "kappa"]
        assert float(rows[-1][1]) == pytest.approx(np.exp(-1.0), abs=1e-9)
        assert (tmp_path / "report.txt").read_text().startswith("invariant report")

    def test_malformed_file_writes_nothing(self, tmp_path):
        path = write(tmp_path, RC_TEXT.replace("name = rc", "name = flux"))
        result = run_scenario(path, out_dir=tmp_path)
        assert result.exit_code == EXIT_USAGE
        assert not (tmp_path / "traj.csv").exists()

    def test_determinism_bit_identical_csv(self, tmp_path):
        path = write(tmp_path, RC_TEXT)
        run_scenario(path, out_dir=tmp_path / "a")
        run_scenario(path, out_dir=tmp_path / "b")
        assert (tmp_path / "a" / "traj.csv").read_bytes() == (
            tmp_path / "b" / "traj.csv").read_bytes()

    def test_off_submanifold_rate_check(self, tmp_path):
        text = """
[model]
name = spin
theta = 1.0
gamma0 = 1.0
lambda0 = 0.5

[initial]
x = 0.3
p = 0.9
z = 1.2

[integrator]
t_end = 8.0
"""
        result = run_scenario(write(tmp_path, text))
        assert result.exit_code == EXIT_PASS
        names = {c.name for c in result.report.checks}
        assert "delta0 decay rate" in names

    def test_long_decay_fit_stops_at_noise_floor(self, tmp_path):
        # by t = 50, h and delta0 are far below the integration noise; a fit
        # through that noise found rates of about -0.97
        result = run_scenario(write(tmp_path, PHI_RLC_OFF))
        assert result.exit_code == EXIT_PASS
        decay = [c for c in result.report.checks if "decay" in c.name]
        assert len(decay) == 2
        for check in decay:
            assert check.passed and check.residual < 1e-4
            assert "noise floor" in check.expected and "reached at t = " in check.expected

    def test_wrong_decay_rate_still_fails(self, tmp_path):
        scenario = parse_scenario(write(tmp_path, PHI_RLC_OFF))
        traj = integrate_lift(scenario.spec, scenario.initial, scenario.t_end, scenario.config)
        # the flow decays at 1.0; a report that expects 1.01 must fail
        wrong = dataclasses.replace(
            scenario, spec=dataclasses.replace(scenario.spec, restoring=linear_restoring(1.01)))
        report = build_invariant_report(wrong, traj)
        decay = [c for c in report.checks if "decay" in c.name]
        assert len(decay) == 2 and not any(c.passed for c in decay)

    def test_bundled_rc_thermal(self, tmp_path):
        result = run_scenario(SCENARIOS / "rc_thermal.scenario", out_dir=tmp_path)
        assert result.exit_code == EXIT_PASS
        by_name = {c.name: c for c in result.report.checks}
        assert by_name["H_tot conserved"].residual < 1e-9
        assert by_name["entropy nondecreasing"].passed

    def test_bundled_pythagorean(self):
        result = run_scenario(SCENARIOS / "pythagorean.scenario",
                              write_outputs=False)
        assert result.exit_code == EXIT_PASS
        check = result.report.checks[0]
        assert check.residual < 1e-8


class TestDivergenceTable:
    def test_diagonal_zero_and_quadratic_symmetric(self):
        ws = DuallyFlatWorkspace(quadratic_potential(np.eye(1)))
        grid = [np.array([v]) for v in (-1.0, 0.0, 1.0)]
        rows = divergence_table(ws, [(a, b) for a in grid for b in grid])
        for row in rows:
            if np.array_equal(row["x"], row["x_prime"]):
                assert abs(row["D"]) < 1e-12
            assert abs(row["asymmetry"]) < 1e-10  # quadratic: symmetric

    def test_spin_asymmetric(self):
        ws = DuallyFlatWorkspace(spin_potential(1))
        rows = divergence_table(ws, [(np.array([0.1]), np.array([1.2]))])
        assert abs(rows[0]["asymmetry"]) > 1e-4

    def test_transform_failure_recorded_not_raised(self):
        # force a transform failure with a dual point outside the spin chart
        ws = DuallyFlatWorkspace(spin_potential(1))

        class Bad:
            pass

        rows = divergence_table(ws, [(np.array([np.inf]), np.array([0.0]))])
        assert rows[0]["D"] is None
        assert rows[0]["error"]

    def test_programming_error_propagates(self):
        def broken(x):
            raise TypeError("bad operand")

        ws = DuallyFlatWorkspace(ConvexPotential(n=1, value=broken, gradient=lambda x: x))
        with pytest.raises(TypeError):
            divergence_table(ws, [(np.array([0.0]), np.array([1.0]))])


class TestCLI:
    def test_simulate_exit_zero(self, tmp_path):
        code = cli_main(["simulate", str(SCENARIOS / "rc.scenario"),
                         "--out", str(tmp_path)])
        assert code == EXIT_PASS
        assert (tmp_path / "rc_traj.csv").exists()

    def test_check_does_not_write(self, tmp_path):
        path = write(tmp_path, RC_TEXT)
        code = cli_main(["check", str(path)])
        assert code == EXIT_PASS
        assert not (tmp_path / "traj.csv").exists()

    def test_parse_error_exit_two(self, tmp_path):
        path = write(tmp_path, "not a scenario at all [")
        assert cli_main(["simulate", str(path)]) == EXIT_USAGE

    def test_missing_file_exit_two(self):
        assert cli_main(["simulate", "/nonexistent.scenario"]) == EXIT_USAGE

    def test_legendre_subcommand(self, capsys):
        code = cli_main(["legendre", "--potential", "quadratic", "--p", "2.0"])
        assert code == EXIT_PASS
        out = capsys.readouterr().out
        assert "phi(" in out and "x*" in out

    def test_legendre_outside_dual_chart_exit_three(self, capsys):
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            code = cli_main(["legendre", "--potential", "spin", "--p", "1.5"])
        assert code == EXIT_NUMERICAL
        assert "Newton" in capsys.readouterr().err

    def test_legendre_bad_dimension_exit_two(self, capsys):
        assert cli_main(["legendre", "--potential", "quadratic",
                         "--p", "1.0 2.0"]) == EXIT_USAGE

    def test_divergence_subcommand(self, tmp_path):
        out = tmp_path / "div.csv"
        code = cli_main(["divergence", "--potential", "spin",
                         "--grid=-1:1:3", "--out", str(out)])
        assert code == EXIT_PASS
        with open(out) as fh:
            rows = list(csv.reader(fh))
        assert rows[0][:3] == ["x", "x_prime", "D"]
        assert len(rows) == 10  # header + 3x3 pairs

    def test_divergence_to_stdout_matches_file(self, tmp_path, capsys):
        out = tmp_path / "div.csv"
        args = ["divergence", "--potential", "spin", "--n", "2", "--grid=-1:1:2"]
        assert cli_main(args + ["--out", str(out)]) == EXIT_PASS
        capsys.readouterr()
        assert cli_main(args) == EXIT_PASS
        printed = list(csv.reader(capsys.readouterr().out.splitlines()))
        with open(out, newline="") as fh:
            assert printed == list(csv.reader(fh))

    def test_console_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "contactflows.cli", "check",
             str(SCENARIOS / "pythagorean.scenario")],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert "PASS" in proc.stdout
