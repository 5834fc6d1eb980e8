"""Scenario parsing, artifact emission, divergence tables, CLI exit codes."""

import csv
import dataclasses
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from contactflows import integrate as integrate_module
from contactflows import scenario as scenario_module
from contactflows.cli import main as cli_main
from contactflows.errors import EvaluationError, ScenarioError
from contactflows.geometry import ContactHamiltonian, swap_hamiltonian
from contactflows.integrate import MAX_STEP_ATTEMPTS, Trajectory, integrate_lift, solve_fixed
from contactflows.lifts import dual_spec, linear_restoring
from contactflows.models import CircuitParams, rlc_thermal_spec
from contactflows.potentials import (
    ConvexPotential,
    quadratic_potential,
    spin_potential,
)
from contactflows.scenario import (
    DECAY_LAW_FLOORS,
    EXIT_CHECK_FAILED,
    EXIT_NUMERICAL,
    EXIT_PASS,
    EXIT_USAGE,
    build_invariant_report,
    divergence_table,
    parse_scenario,
    run_scenario,
    state_columns,
    write_trajectory_csv,
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

RC_RK4_COARSE = (SCENARIOS / "rc_rk4_coarse.scenario").read_text()

# a start off the submanifold of each lift: rc and spin on the psi side, rlc on the phi side
OFF_SUBMANIFOLD = {
    "rc": ("R = 1.0\nC = 1.0", "x = 0.8\np = 0.5\nz = 0.1"),
    "rlc": ("R = 1.0\nC = 1.1\nL = 0.9", "x = 0.9 -0.3\np = 0.8 -0.4\nz = 0.5"),
    "spin": ("theta = 0.5\nlambda0 = 0.3", "x = 0.8\np = 0.5\nz = 1.0"),
}


def off_submanifold(model, gamma0, t_end=1.0):
    keys, start = OFF_SUBMANIFOLD[model]
    return (f"[model]\nname = {model}\n{keys}\ngamma0 = {gamma0!r}\n\n"
            f"[initial]\n{start}\n\n[integrator]\nt_end = {t_end!r}\n")


def gamma_prime_term(spec, x, p):
    """The vector that Gamma'(D0) multiplies in dp of a psi-side jet.

    grad psi - p for a base lift, (grad psi - p, anchor - p_extra) with an anchor.
    """
    n = spec.n
    g = spec.potential.gradient_at(x[:n])
    if spec.anchor is None:
        return g - p
    return np.append(g - p[:n], spec.anchor - p[n])


def plant(monkeypatch, edit):
    """Make integrate_lift's psi-side jets return ``edit(spec, x, p, dp, hz)`` as dp.

    A phi-side lift gets it in the psi-side jet that the swap relabels.
    """
    build = integrate_module.build_hamiltonian

    def planted(spec):
        if spec.side == "phi":
            return swap_hamiltonian(planted(dual_spec(spec)))
        h = build(spec)

        def jet(x, p, z, diag=None):
            value, dx, dp, hz = h.jet(x, p, z, diag)
            return value, dx, edit(spec, x, p, dp, hz), hz

        return ContactHamiltonian(n=h.n, jet=jet)

    monkeypatch.setattr(integrate_module, "build_hamiltonian", planted)


def plant_gamma_prime(monkeypatch, factor):
    """Make integrate_lift's jets take Gamma' ``factor`` times too large in dp.

    dp = ... + Gamma'(D0) (grad psi - p) and dh/dz = -Gamma'(D0), so the
    planted jet adds (factor - 1) Gamma' times that term to dp.
    """
    plant(monkeypatch, lambda spec, x, p, dp, hz:
          dp - (factor - 1) * hz * gamma_prime_term(spec, x, p))


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
        ("[outputs]", "trajectory_csv = traj.csv", "trajectory_csv =", "trajectory_csv"),
    ], ids=["potential", "L", "T0", "x_extra", "p_without_z", "stepp", "rel_tol_under_rk4",
            "step_under_rkf45", "output", "empty_file_name"])
    def test_unread_key_rejected(self, tmp_path, section, old, new, key):
        result = run_scenario(write(tmp_path, RC_TEXT.replace(old, new)), out_dir=tmp_path)
        assert result.exit_code == EXIT_USAGE
        assert result.message.startswith(section)
        assert repr(key) in result.message
        assert not (tmp_path / "traj.csv").exists()

    @pytest.mark.parametrize("text, section, taken", [
        (RC_TEXT.replace("[outputs]", "[output]"), "[output]",
         "[model], [initial], [integrator], [outputs]"),
        (RC_TEXT + "\n[points]\nx1 = 0.0\n", "[points]",
         "[model], [initial], [integrator], [outputs]"),
        ((SCENARIOS / "pythagorean.scenario").read_text() + "\n[outputs]\nx = t.csv\n",
         "[outputs]", "[model], [points]"),
    ], ids=["misspelt_outputs", "points_in_a_run", "outputs_in_pythagorean"])
    def test_section_the_scenario_does_not_take_rejected(self, tmp_path, monkeypatch, text,
                                                          section, taken):
        monkeypatch.setattr(scenario_module, "integrate_lift", None)  # no run may start
        result = run_scenario(write(tmp_path, text), out_dir=tmp_path)
        assert result.exit_code == EXIT_USAGE
        assert result.message == f"{section}: unknown section; this scenario takes {taken}"

    @pytest.mark.parametrize("file_name", ["nodir/t.csv", "../traj.csv", "/traj.csv", "sub/",
                                           ".", ".."])
    def test_output_must_be_a_bare_file_name(self, tmp_path, monkeypatch, file_name):
        monkeypatch.setattr(scenario_module, "integrate_lift", None)  # no run may start
        text = RC_TEXT.replace("trajectory_csv = traj.csv", f"trajectory_csv = {file_name}")
        result = run_scenario(write(tmp_path, text), out_dir=tmp_path / "out")
        assert result.exit_code == EXIT_USAGE
        assert result.message == ("[outputs]: 'trajectory_csv' must be a bare file name, "
                                  f"got {file_name!r}")
        assert not (tmp_path / "out").exists()

    def test_two_outputs_of_one_file_name_rejected(self, tmp_path, monkeypatch):
        # both used to be written, the report over the trajectory, and the run exited 0
        monkeypatch.setattr(scenario_module, "integrate_lift", None)  # no run may start
        text = RC_TEXT.replace("invariant_report = report.txt", "invariant_report = traj.csv")
        result = run_scenario(write(tmp_path, text), out_dir=tmp_path / "out")
        assert result.exit_code == EXIT_USAGE
        assert result.message == ("[outputs]: 'trajectory_csv' and 'invariant_report' both "
                                  "name 'traj.csv'")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("model, key", [
        ("name = onsager\ngamma0 = 1.0", "L"),
        ("name = rc\nC = 1.0", "R"),
        ("name = spin\ngamma0 = 1.0", "theta"),
    ], ids=["onsager-L", "rc-R", "spin-theta"])
    def test_missing_model_key_named(self, tmp_path, model, key):
        # the message names the scenario key, not the parameter it becomes
        text = RC_TEXT.replace("name = rc\nR = 1.0\nC = 1.0", model)
        result = run_scenario(write(tmp_path, text), out_dir=tmp_path)
        assert result.exit_code == EXIT_USAGE
        assert result.message == f"[model]: missing key(s) {key!r}"

    @pytest.mark.parametrize("missing", ["x_extra", "p_extra"])
    def test_full_state_start_of_a_thermal_model_needs_both_extras(self, tmp_path, missing):
        # a missing extra coordinate used to start at 0, so p_extra = 0, not T0
        extras = {"x_extra": "0.0", "p_extra": "1.0"}
        del extras[missing]
        initial = "x = 1.0\np = 1.0\nz = 0.5\n" + "".join(
            f"{k} = {v}\n" for k, v in extras.items())
        text = RC_TEXT.replace("name = rc\n", "name = rc_thermal\nT0 = 1.0\n").replace(
            "x = 1.0\n", initial)
        result = run_scenario(write(tmp_path, text), out_dir=tmp_path)
        assert result.exit_code == EXIT_USAGE
        assert result.message.startswith("[initial]") and repr(missing) in result.message
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

    @pytest.mark.parametrize("scenario, old, new, code, start", [
        ("rc", "C = 1.0", "C = 5e-324", EXIT_USAGE, "[model]"),
        ("rl_thermal", "L = 0.5", "L = 5e-324", EXIT_USAGE, "[model]"),
        ("rl", "p = 0.8", "p = -1e308", EXIT_USAGE, "[initial]"),
        ("rlc", "z = 0.5", "z = 1e308", EXIT_PASS, ""),
        ("rl", "R = 1.0", "R = 1e308", EXIT_NUMERICAL, "integration truncated"),
        ("rl", "gamma0 = 1.0", "gamma0 = 5e-324", EXIT_PASS, ""),
    ], ids=["C-tiny", "L-tiny", "p-huge", "z-huge", "R-huge", "gamma0-tiny"])
    def test_extreme_value_ends_in_its_exit_code(self, tmp_path, scenario, old, new, code,
                                                 start):
        # under the warning filters: the first two raised StrictConvexityError
        # from run_scenario, the next three warned from numpy ("overflow" or
        # "invalid value encountered in dot"), the last warned that Gamma
        # vanishes at 0.5.  z = 1e308 runs to t_end and passes: a stage input
        # is y + (h A) . K, where A . K alone overflows in its z entry
        text = (SCENARIOS / f"{scenario}.scenario").read_text()
        assert text.count(old) == 1
        result = run_scenario(write(tmp_path, text.replace(old, new)), write_outputs=False)
        assert result.exit_code == code and result.message.startswith(start)

    @pytest.mark.parametrize("factor", [1 - 1e-9, 1 + 5e-10, 1 + 1e-9, 1 + 2e-9])
    def test_rk4_step_budget_is_the_one_solve_fixed_applies(self, tmp_path, factor):
        # [integrator] rejected t_end / step = 2 000 000.001, which solve_fixed
        # runs in 2 000 000 steps; the last two factors are over the budget
        class Started(Exception):
            pass

        def f(t, y, out):
            raise Started

        t_end = MAX_STEP_ATTEMPTS * 1e-3 * factor
        path = write(tmp_path, RC_TEXT.replace("t_end = 1.0", f"t_end = {t_end!r}"))
        try:
            solve_fixed(f, np.zeros(1), t_end, 1e-3)
        except Started:
            assert factor < 1 + 1e-9 and parse_scenario(path).t_end == t_end
        except ValueError:
            assert factor >= 1 + 1e-9
            with pytest.raises(ScenarioError, match=r"^\[integrator\]: t_end / step"):
                parse_scenario(path)

    def test_rk4_run_over_the_step_budget_rejected(self, tmp_path, capsys, monkeypatch):
        # t_end / step = 1e11 RK4 steps: rejected at parse time, never integrated
        def started(*args, **kwargs):
            raise AssertionError("a run over the step budget was started")

        monkeypatch.setattr(scenario_module, "integrate_lift", started)
        text = RC_TEXT.replace("step = 1e-3", "step = 1e-7").replace("t_end = 1.0", "t_end = 1e4")
        path = write(tmp_path, text)
        result = run_scenario(path, out_dir=tmp_path)
        assert result.exit_code == EXIT_USAGE
        assert result.message.startswith("[integrator]") and "step budget" in result.message
        assert cli_main(["check", str(path)]) == EXIT_USAGE
        assert capsys.readouterr().err.startswith("[integrator]")

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

    def test_pythagorean_unknown_potential_rejected(self, tmp_path):
        text = (SCENARIOS / "pythagorean.scenario").read_text().replace(
            "potential = quadratic", "potential = cubic")
        result = run_scenario(write(tmp_path, text), write_outputs=False)
        assert result.exit_code == EXIT_USAGE
        assert result.message == "[model]: unknown potential 'cubic'"

    def test_pythagorean_without_right_angle_exits_2(self, tmp_path):
        text = (SCENARIOS / "pythagorean.scenario").read_text().replace("x3 = 1.0 1.0",
                                                                        "x3 = 2.0 1.0")
        result = run_scenario(write(tmp_path, text), write_outputs=False)
        assert result.exit_code == EXIT_USAGE
        assert result.message.startswith("[points]: not a Pythagorean configuration")


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

    def test_pythagorean_flow_failure_exits_3(self, tmp_path):
        # x3 - x2 = (0, 20) is at a right angle to p2 - p1 = (tanh 1, 0), but
        # the primal geodesic to x3 takes p to tanh 20, which rounds to the
        # edge of the spin chart: its flow stops at the step floor
        text = ("[model]\nname = pythagorean\npotential = spin\nn = 2\n\n"
                "[points]\nx1 = 0.0 0.0\nx2 = 1.0 0.0\nx3 = 1.0 20.0\n")
        result = run_scenario(write(tmp_path, text), write_outputs=False)
        assert result.exit_code == EXIT_NUMERICAL
        assert result.message.startswith(
            "primal geodesic x2 -> x3: submanifold flow truncated: step floor")

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

    def test_divergence_table_along_the_trajectory(self, tmp_path):
        path = write(tmp_path, RC_TEXT + "divergence_table = div.csv\n")
        result = run_scenario(path, out_dir=tmp_path)
        assert result.exit_code == EXIT_PASS
        assert tmp_path / "div.csv" in result.artifacts
        with open(tmp_path / "div.csv") as fh:
            rows = list(csv.DictReader(fh))
        # every pair of 5 states sampled along the run, first and last included
        xs = result.trajectory.states[:, 0]
        assert len(rows) == 25
        assert float(rows[0]["x"]) == xs[0] and float(rows[-1]["x"]) == xs[-1]
        pairs = [(np.array([float(r["x"])]), np.array([float(r["x_prime"])])) for r in rows]
        expect = divergence_table(parse_scenario(path).spec.potential, pairs)
        for row, want in zip(rows, expect):
            assert row["error"] == "" and float(row["D"]) == want["D"]
            assert float(row["D_reverse"]) == want["D_reverse"]
            assert float(row["D"]) >= 0.0
            if row["x"] == row["x_prime"]:
                assert float(row["D"]) == 0.0

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

    def test_trajectory_csv_is_what_csv_writer_writes(self, tmp_path):
        # extended-lift columns, a row whose field failed (NaN diagnostics),
        # a negative zero, 1e-300 and the smallest subnormal
        spec = rlc_thermal_spec(CircuitParams(R=1.0, C=1.0, L=1.0, T0=2.0))
        states = np.array([[0.1, -0.0, 0.5, 1e-300, 2.0, 0.3, 1.25],
                           [1 / 3, 5e-324, -2.5e10, 0.2, 1.9999999999999998, -7e-17, 1.5]])
        diagnostics = {"h": [0.25, np.nan], "delta0": [-0.0, np.nan], "delta_norm": [0.0, np.nan],
                       "kappa": [-3.0, np.nan], "psi_tilde": [1e-300, np.nan], "S": [0.5, np.nan]}
        traj = Trajectory(np.array([0.0, 0.1]), states,
                          {k: np.array(v) for k, v in diagnostics.items()})
        write_trajectory_csv(traj, spec, tmp_path / "traj.csv")
        with open(tmp_path / "oracle.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["t"] + state_columns(spec) + list(diagnostics))
            writer.writerows(np.column_stack([traj.times, states, *traj.diagnostics.values()])
                             .tolist())
        written = (tmp_path / "traj.csv").read_bytes()
        assert written == (tmp_path / "oracle.csv").read_bytes()
        assert written.startswith(b"t,x1,x2,x_extra,p1,p2,p_extra,z,h,delta0,")
        assert b",-0.0," in written and b",5e-324," in written and b",nan" in written

    def test_off_submanifold_decay_law_check(self, tmp_path):
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
        assert "delta0 decay law" in names

    def test_long_decay_law_holds_below_the_noise_floor(self, tmp_path):
        # by t = 50, h and delta0 are far below the integration noise; a fit
        # of their rate through that noise found about -0.97
        result = run_scenario(write(tmp_path, PHI_RLC_OFF))
        assert result.exit_code == EXIT_PASS
        decay = [c for c in result.report.checks if "decay" in c.name]
        assert len(decay) == 2
        floor = 1e-12 + 1e-10 * max(1.0, np.max(np.abs(result.trajectory.states)))
        for check in decay:
            assert check.passed and check.residual <= DECAY_LAW_FLOORS * floor
            assert "e^(-1 t) within" in check.expected

    def test_wrong_decay_law_still_fails(self, tmp_path):
        scenario = parse_scenario(write(tmp_path, PHI_RLC_OFF))
        traj = integrate_lift(scenario.spec, scenario.initial, scenario.t_end, scenario.config)
        # the flow decays at 1.0; a report that expects 1.01 must fail
        wrong = dataclasses.replace(
            scenario, spec=dataclasses.replace(scenario.spec, restoring=linear_restoring(1.01)))
        report = build_invariant_report(wrong, traj)
        decay = [c for c in report.checks if "decay" in c.name]
        assert len(decay) == 2 and not any(c.passed for c in decay)

    @pytest.mark.parametrize("model", ["rc", "rlc", "spin"])
    @pytest.mark.parametrize("gamma0", [0.1, 1.0, 10.0, 100.0])
    def test_decay_laws_hold_and_catch_a_planted_gamma_prime(self, tmp_path, monkeypatch,
                                                              gamma0, model):
        path = write(tmp_path, off_submanifold(model, gamma0))
        result = run_scenario(path)
        assert result.exit_code == EXIT_PASS
        assert [c.name for c in result.report.checks] == ["h decay law", "delta0 decay law"]
        # Gamma' 1e-3 too large in dp moves h off its law; Delta_0 does not see dp
        plant_gamma_prime(monkeypatch, 1.001)
        h_law, d0_law = run_scenario(path).report.checks
        assert not h_law.passed and d0_law.passed

    @pytest.mark.parametrize("step", [0.005, 0.01])
    def test_rk4_decay_laws_allow_for_the_truncation_of_the_step(self, tmp_path, monkeypatch,
                                                                  step):
        # gamma0 step = 0.05 and 0.1: RK4 misses h's law by 1.5e-7 and 2.6e-6, far
        # past the 2.0e-8 that the tolerances alone allowed, which RK4 never reads
        text = RC_RK4_COARSE.replace("step = 0.005", f"step = {step!r}")
        path = write(tmp_path, text)
        result = run_scenario(path, write_outputs=False)
        assert result.exit_code == EXIT_PASS
        assert [c.name for c in result.report.checks] == ["h decay law", "delta0 decay law"]
        h_law, d0_law = result.report.checks
        assert h_law.residual > 1e-7 and h_law.residual > 2 * d0_law.residual
        plant_gamma_prime(monkeypatch, 1.001)
        h_law, d0_law = run_scenario(path, write_outputs=False).report.checks
        assert not h_law.passed and d0_law.passed

    def test_rk4_truncation_term_leaves_rkf45_bounds_alone(self, tmp_path):
        text = RC_RK4_COARSE.replace("method = rk4\nstep = 0.005", "method = rkf45")
        result = run_scenario(write(tmp_path, text), write_outputs=False)
        floor = 1e-12 + 1e-10 * max(1.0, np.max(np.abs(result.trajectory.states)))
        for check in result.report.checks:
            assert check.expected.endswith(f"within {DECAY_LAW_FLOORS * floor * 10.0:.3g}")

    def test_planted_gamma_prime_fails_the_bundled_rlc(self, monkeypatch):
        # a fitted rate of h came out at -1.000287 here, within its 1e-3 tolerance
        plant_gamma_prime(monkeypatch, 1.001)
        result = run_scenario(SCENARIOS / "rlc.scenario", write_outputs=False)
        assert result.exit_code == EXIT_CHECK_FAILED
        assert not result.report.checks[0].passed

    def test_series_at_the_noise_floor_from_the_start_is_checked(self, tmp_path):
        # Delta_0(0) = 2e-11 and Delta(0) = 0: h(0) = 6e-11 starts below the
        # floor of about 1e-10, where a fitted rate had no samples to fit
        text = off_submanifold("rc", 3.0).replace("p = 0.5\nz = 0.1",
                                                   "p = 0.8\nz = 0.31999999998")
        result = run_scenario(write(tmp_path, text))
        assert result.exit_code == EXIT_PASS
        h0 = result.trajectory.diagnostics["h"][0]
        assert 1e-12 < abs(h0) < 1e-10
        assert [c.name for c in result.report.checks] == ["h decay law", "delta0 decay law"]

    @pytest.mark.parametrize("series", ["h", "delta0"])
    def test_nan_diagnostics_row_fails_its_law(self, tmp_path, series):
        scenario = parse_scenario(write(tmp_path, off_submanifold("rlc", 1.0)))
        traj = integrate_lift(scenario.spec, scenario.initial, scenario.t_end, scenario.config)
        assert build_invariant_report(scenario, traj).passed
        traj.diagnostics[series][len(traj.times) // 2] = np.nan
        failed = [c.name for c in build_invariant_report(scenario, traj).checks if not c.passed]
        assert failed == [f"{series} decay law"]

    def test_bundled_spin_fast(self, tmp_path):
        # gamma0 = 40: fitted rates of -40.75 and -40.18 failed this run
        result = run_scenario(SCENARIOS / "spin_fast.scenario", out_dir=tmp_path)
        assert result.exit_code == EXIT_PASS
        assert [c.name for c in result.report.checks] == ["h decay law", "delta0 decay law"]
        assert all("e^(-40 t)" in c.expected for c in result.report.checks)

    def test_bundled_rc_thermal(self, tmp_path):
        result = run_scenario(SCENARIOS / "rc_thermal.scenario", out_dir=tmp_path)
        assert result.exit_code == EXIT_PASS
        by_name = {c.name: c for c in result.report.checks}
        assert by_name["H_tot conserved"].residual < 1e-9
        assert by_name["entropy nondecreasing"].passed

    def test_bundled_rlc_on_the_dual_chart(self, tmp_path):
        from scipy.linalg import expm

        result = run_scenario(SCENARIOS / "rlc.scenario", out_dir=tmp_path)
        assert result.exit_code == EXIT_PASS
        assert sorted(a.name for a in result.artifacts) == ["rlc_report.txt", "rlc_traj.csv"]
        # (V, I) follows its linear flow exactly, also off the submanifold
        traj = result.trajectory
        A = np.array([[0.0, 1.0 / 1.1], [-1.0 / 0.9, -1.0 / 0.9]])
        expect = expm(A * traj.times[-1]) @ np.array([0.8, -0.4])
        assert traj.times[-1] == 5.0
        assert np.max(np.abs(traj.final_state[2:4] - expect)) <= 1e-8

    @pytest.mark.parametrize("name", ["pythagorean", "pythagorean_spin"])
    def test_bundled_pythagorean(self, name):
        result = run_scenario(SCENARIOS / f"{name}.scenario", write_outputs=False)
        assert result.exit_code == EXIT_PASS
        check = result.report.checks[0]
        assert check.residual < 1e-8


class TestDivergenceTable:
    def test_diagonal_zero_and_quadratic_symmetric(self):
        grid = [np.array([v]) for v in (-1.0, 0.0, 1.0)]
        rows = divergence_table(quadratic_potential(np.eye(1)), [(a, b) for a in grid for b in grid])
        for row in rows:
            if np.array_equal(row["x"], row["x_prime"]):
                assert abs(row["D"]) < 1e-12
            assert abs(row["asymmetry"]) < 1e-10  # quadratic: symmetric

    def test_spin_asymmetric(self):
        rows = divergence_table(spin_potential(1), [(np.array([0.1]), np.array([1.2]))])
        assert abs(rows[0]["asymmetry"]) > 1e-4

    def test_transform_failure_recorded_not_raised(self):
        # a point that is not finite fails its row, not the table
        rows = divergence_table(spin_potential(1), [(np.array([np.inf]), np.array([0.0]))])
        assert rows[0]["D"] is None
        assert rows[0]["error"]

    def test_programming_error_propagates(self):
        def broken(x):
            raise TypeError("bad operand")

        psi = ConvexPotential(n=1, value=broken, gradient=lambda x: x)
        with pytest.raises(TypeError):
            divergence_table(psi, [(np.array([0.0]), np.array([1.0]))])


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

    def test_usage_error_exit_two(self, capsys):
        assert cli_main(["legendre", "--potential", "spin"]) == EXIT_USAGE
        assert "--p" in capsys.readouterr().err

    @pytest.mark.parametrize("grid", ["1:2", "1:2:0", "1:2:-1", "nan:1:3", "1:inf:3",
                                      "-1e308:1e308:3"])
    def test_malformed_grid_exit_two(self, grid, capsys):
        assert cli_main(["divergence", "--potential", "spin", f"--grid={grid}"]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "grid must be START:STOP:COUNT" in captured.err

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
