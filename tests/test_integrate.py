"""Integrators: order, tolerance behavior, semigroup property, aborts."""

import warnings
from dataclasses import replace

import numpy as np
import pytest

from contactflows.errors import DimensionMismatchError, EvaluationError, IntegrationAbort
from contactflows.geometry import CanonicalPoint
from contactflows import integrate as integrate_module
from contactflows.integrate import (
    IntegratorConfig,
    integrate_lift,
    integrate_on_submanifold,
    solve_adaptive,
    solve_fixed,
)
from contactflows.models import CircuitParams, rc_spec
from contactflows.potentials import embed_psi

from fitting import fit_decay_rate


def rc_unit():
    return rc_spec(CircuitParams(R=1.0, C=1.0))


def in_row(f):
    """The right-hand side f(t, y) -> dy/dt as the solvers call it: writing into a stage row."""
    def rhs(t, y, out):
        out[:] = f(t, y)
    return rhs


class TestConfig:
    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            IntegratorConfig(method="euler")

    def test_nonpositive_step_rejected(self):
        with pytest.raises(ValueError):
            IntegratorConfig(step=0.0)


class TestRK4:
    def test_rc_endpoint(self):
        spec = rc_unit()
        pt = embed_psi(spec.potential, np.array([1.0]))
        traj = integrate_lift(spec, pt, 1.0,
                              IntegratorConfig(method="rk4", step=1e-3))
        assert abs(traj.final_state[0] - np.exp(-1.0)) < 1e-9

    def test_fourth_order_convergence(self):
        # halving the step cuts the endpoint error by ~2^4  [order check]
        def f(t, y):
            return -y

        errs = []
        for step in (0.1, 0.05):
            traj = solve_fixed(in_row(f), np.array([1.0]), 1.0, step)
            errs.append(abs(traj.final_state[0] - np.exp(-1.0)))
        ratio = errs[0] / errs[1]
        assert 12.0 < ratio < 20.0

    def test_last_step_lands_on_t_end(self):
        def f(t, y):
            return -y

        traj = solve_fixed(in_row(f), np.array([1.0]), 0.35, 0.1)
        assert not traj.truncated
        assert traj.times[-1] == pytest.approx(0.35, abs=1e-12)

    @pytest.mark.parametrize("t_end", [1.0, 2.0, 0.35, 7.3])
    def test_step_of_t_end_over_k_takes_k_steps(self, t_end):
        # the summed times fall short of t_end by rounding; no sliver step follows
        for k in (1, 2, 3, 7, 10, 100, 400):
            traj = solve_fixed(in_row(lambda t, y: -y), np.array([1.0]), t_end, t_end / k)
            assert len(traj.times) == k + 1 and traj.times[-1] == t_end

    def test_last_row_alone_moves_where_a_sliver_step_was_dropped(self):
        # 400 steps of 0.0025 sum to 1 - 1.0e-14; the 400th step now lands on 1
        rows = solve_fixed(in_row(lambda t, y: -y), np.array([1.0]), 1.0, 0.0025)
        short = solve_fixed(in_row(lambda t, y: -y), np.array([1.0]), 0.999, 0.0025)
        assert rows.times[-2] + 0.0025 < 1.0 and rows.times[-1] == 1.0
        assert np.array_equal(rows.times[:-1], short.times[:-1])
        assert np.array_equal(rows.states[:-1], short.states[:-1])
        assert rows.final_state[0] == pytest.approx(np.exp(-1.0), abs=1e-12)

    def test_run_over_the_step_budget_rejected_before_it_starts(self):
        # t_end / step = 1e11 steps
        def f(t, y):
            raise AssertionError("a run over the step budget was started")

        with pytest.raises(ValueError, match="step budget"):
            solve_fixed(in_row(f), np.array([1.0]), 1e4, 1e-7)
        spec = rc_unit()
        with pytest.raises(ValueError, match="step budget"):
            integrate_lift(spec, embed_psi(spec.potential, np.array([1.0])), 1e4,
                           IntegratorConfig(method="rk4", step=1e-7))

    def test_run_of_exactly_the_step_budget_runs(self, monkeypatch):
        monkeypatch.setattr(integrate_module, "MAX_STEP_ATTEMPTS", 5)
        traj = solve_fixed(in_row(lambda t, y: -y), np.array([1.0]), 0.5, 0.1)
        assert len(traj.times) == 6 and not traj.truncated
        with pytest.raises(ValueError, match="step budget"):
            solve_fixed(in_row(lambda t, y: -y), np.array([1.0]), 0.6, 0.1)


class TestRKF45:
    def test_respects_tolerance(self):
        # endpoint error <= 10x rel_tol on the closed-form RC model
        spec = rc_unit()
        pt = embed_psi(spec.potential, np.array([1.0]))
        for rel in (1e-6, 1e-9):
            traj = integrate_lift(spec, pt, 1.0,
                                  IntegratorConfig(rel_tol=rel, abs_tol=rel * 1e-2))
            assert abs(traj.final_state[0] - np.exp(-1.0)) <= 10 * rel

    def test_times_strictly_increasing(self):
        spec = rc_unit()
        traj = integrate_lift(spec, embed_psi(spec.potential, np.array([1.0])), 1.0)
        assert np.all(np.diff(traj.times) > 0)

    def test_semigroup_property(self):
        # integrate 0.3 then 0.7 equals integrate 1.0  [flow property]
        spec = rc_unit()
        pt = embed_psi(spec.potential, np.array([1.0]))
        mid = integrate_lift(spec, pt, 0.3).final_state
        mid_pt = CanonicalPoint(mid[:1], mid[1:2], mid[2])
        two_leg = integrate_lift(spec, mid_pt, 0.7).final_state
        one_leg = integrate_lift(spec, pt, 1.0).final_state
        assert np.allclose(two_leg, one_leg, atol=1e-8)


def blow_up_spec():
    from contactflows.lifts import DriftField, LiftSpec, linear_restoring
    from contactflows.potentials import quadratic_potential

    # finite-time blow-up: dx/dt = x^3 from x = 2 diverges at t = 1/8
    blow = DriftField(n=1, eval=lambda x: x ** 3,
                      jacobian=lambda x: np.array([[3.0 * x[0] ** 2]]))
    return LiftSpec(side="psi", potential=quadratic_potential(np.eye(1)),
                    drift=blow, restoring=linear_restoring(1.0))


def assert_stopped_at(traj, cause):
    """Truncated, with the cause, t and h in the reason and finite partial states."""
    assert traj.truncated
    assert cause in traj.abort_reason
    assert "t = " in traj.abort_reason and "h = " in traj.abort_reason
    assert len(traj.times) == len(traj.states) >= 1
    assert np.all(np.isfinite(traj.states))  # last good state retained
    for values in traj.diagnostics.values():
        assert len(values) == len(traj.times)


class TestAborts:
    # RK4 steps into the non-finite field; RKF45 shrinks its step to the floor
    @pytest.mark.parametrize("config, cause", [
        (IntegratorConfig(method="rk4", step=0.01), "EvaluationError: non-finite"),
        (IntegratorConfig(), "step floor"),
    ], ids=["rk4", "rkf45"])
    def test_nan_rhs_aborts_with_partial_trajectory(self, config, cause):
        spec = blow_up_spec()
        pt = embed_psi(spec.potential, np.array([2.0]))
        with np.errstate(over="ignore", invalid="ignore"):
            traj = integrate_lift(spec, pt, 1.0, config)
        assert_stopped_at(traj, cause)
        assert traj.times[-1] < 0.2

    def test_phi_spin_past_saturation_stops_rk4_with_newton_failure(self):
        from contactflows.lifts import LiftSpec, embed, linear_drift, linear_restoring
        from contactflows.potentials import spin_potential

        # dp/dt = 2 - p from p = 0.5 leaves the spin dual chart |p| < 1 at t = ln 1.5
        spec = LiftSpec(side="phi", potential=spin_potential(1),
                        drift=linear_drift(-1.0, 1, offset=[2.0]),
                        restoring=linear_restoring(1.0))
        pt = embed(spec, np.array([0.5]))
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            traj = integrate_lift(spec, pt, 1.0, IntegratorConfig(method="rk4", step=0.01))
        assert_stopped_at(traj, "Newton")
        assert traj.times[-1] < np.log(1.5) < traj.times[-1] + 0.01

    def test_rkf45_shrinks_past_a_failed_stage(self):
        from contactflows.lifts import LiftSpec, embed, linear_drift, linear_restoring
        from contactflows.potentials import spin_potential

        # dp/dt = -300 (p - 0.99): the first step's later stages overshoot the
        # spin dual chart |p| < 1, so Newton fails there and the step shrinks;
        # t = 0.1 is 30 time constants
        spec = LiftSpec(side="phi", potential=spin_potential(1),
                        drift=linear_drift(-300.0, 1, offset=[0.99]),
                        restoring=linear_restoring(1.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            traj = integrate_lift(spec, embed(spec, np.array([0.0])), 0.1)
        assert not traj.truncated
        assert abs(traj.final_state[1] - 0.99 * (1 - np.exp(-30.0))) < 1e-13

    def test_rkf45_step_floor_names_the_last_stage_error(self):
        def f(t, y):  # dy/dt = 1, evaluable up to y = 1, reached at t = 0.5
            if y[0] > 1.0:
                raise EvaluationError("outside the domain")
            return np.ones(1)

        traj = solve_adaptive(in_row(f), np.array([0.5]), 1.0)
        assert_stopped_at(traj, "reached after EvaluationError: outside the domain")
        assert traj.abort_reason.startswith("step floor")
        assert 0.5 - 1e-9 < traj.times[-1] <= 0.5

    def test_state_whose_field_fails_keeps_its_row_with_nan_diagnostics(self):
        from contactflows.lifts import DriftField, LiftSpec, embed, linear_restoring
        from contactflows.potentials import spin_potential

        # dp/dt = e^{4p}: the last accepted RK4 step lands past the spin dual
        # chart's edge |p| < 1, so the field cannot be evaluated there
        spec = LiftSpec(side="phi", potential=spin_potential(1),
                        drift=DriftField(n=1, eval=lambda p: np.exp(4 * p)),
                        restoring=linear_restoring(1.0))
        pt = embed(spec, np.array([0.0]))
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            traj = integrate_lift(spec, pt, 1.0, IntegratorConfig(method="rk4", step=0.01067669))
        assert_stopped_at(traj, "NewtonConvergenceError")
        assert traj.final_state[1] > 1.0
        for values in traj.diagnostics.values():
            assert np.isnan(values[-1]) and np.all(np.isfinite(values[:-1]))

    def test_step_budget_reports_t_and_h(self, monkeypatch):
        monkeypatch.setattr(integrate_module, "MAX_STEP_ATTEMPTS", 5)
        spec = rc_unit()
        traj = integrate_lift(spec, embed_psi(spec.potential, np.array([1.0])), 1.0)
        assert_stopped_at(traj, "step budget")
        assert len(traj.times) == 7  # the initial state and 6 accepted steps

    @pytest.mark.parametrize("solve", [
        lambda f, y0: solve_fixed(in_row(f), y0, 1.0, 0.01),
        lambda f, y0: solve_adaptive(in_row(f), y0, 1.0),
    ], ids=["rk4", "rkf45"])
    def test_a_step_that_overflows_the_state_stops_it(self, solve):
        # every stage is finite; the first step carries the state past the
        # largest double
        def f(t, y):
            return np.array([1e308, 0.0])

        with np.errstate(over="ignore", invalid="ignore"):
            traj = solve(f, np.array([1.79e308, 1.0]))
        assert_stopped_at(traj, "non-finite state")
        assert traj.times.tolist() == [0.0]

    def test_programming_error_in_rhs_propagates(self):
        with pytest.raises(TypeError):
            solve_adaptive(in_row(lambda t, y: None + y), np.array([1.0]), 1.0)
        with pytest.raises(TypeError):
            solve_fixed(in_row(lambda t, y: None + y), np.array([1.0]), 1.0, 0.1)

    def test_overflowing_submanifold_flow_raises_with_partial_trajectory(self):
        from contactflows.lifts import DriftField

        # du/dt = 100 u: the drift stays finite while u overflows near t = 7.1
        growth = DriftField(n=1, eval=lambda u: 100.0 * u)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(IntegrationAbort) as info:
                integrate_on_submanifold(growth, np.array([1.0]), 10.0,
                                         IntegratorConfig(method="rk4", step=0.01))
        assert "t = " in str(info.value)
        assert_stopped_at(info.value.trajectory, "non-finite state")


SHORT_OR_LONG = pytest.mark.parametrize("wrong", [
    lambda u: np.array([-u[0]]), lambda u: np.append(-u, 0.0)], ids=["short", "long"])
CONFIGS = pytest.mark.parametrize("config", [
    IntegratorConfig(method="rk4", step=0.01), IntegratorConfig()], ids=["rk4", "rkf45"])


@pytest.mark.parametrize("t_end", [1e-15, 1e-300])
def test_tiny_t_end_is_reached(t_end):
    y0 = np.array([1.0])
    for traj in (solve_fixed(in_row(lambda t, y: -y), y0, t_end, 0.1),
                 solve_adaptive(in_row(lambda t, y: -y), y0, t_end)):
        assert not traj.truncated and traj.times.tolist() == [0.0, t_end]
    for config in (IntegratorConfig(method="rk4", step=0.1), IntegratorConfig()):
        spec = rc_unit()
        traj = integrate_lift(spec, embed_psi(spec.potential, np.array([1.0])), t_end, config)
        assert not traj.truncated and traj.times[-1] == t_end
        assert len(traj.diagnostics["h"]) == 2


def test_rkf45_stops_when_its_step_rounds_to_zero():
    # at t_end = 5e-324 the step floor t_end * 1e-14 rounded to 0, and a step
    # shrunk to 0 was tried again until the 2 000 000-attempt budget ran out
    calls = []

    def failing(t, y, out):
        calls.append(t)
        raise EvaluationError("no field here")

    traj = solve_adaptive(failing, np.array([1.0]), 5e-324)
    assert traj.abort_reason.startswith("step floor") and len(calls) == 1


class TestDriftOfTheWrongLength:
    # a 2-d drift whose result has 1 or 3 entries stops the run with a typed
    # error; the previous version broadcast du/dt = (-u0, -u0) and returned
    # [0.368, 1.368] from (1, 2) at t = 1; a lift's run checks the shapes at
    # its start, before the first step
    @SHORT_OR_LONG
    @CONFIGS
    def test_submanifold_flow_raises_with_the_start(self, config, wrong):
        # no smaller step mends a shape error: RKF45 stops at the first call,
        # where it used to shrink the step 13 times down to the step floor
        from contactflows.lifts import DriftField

        calls = []
        drift = DriftField(n=2, eval=lambda u: calls.append(u) or wrong(u))
        with pytest.raises(IntegrationAbort) as info:
            integrate_on_submanifold(drift, np.array([1.0, 2.0]), 1.0, config)
        traj = info.value.trajectory
        assert traj.abort_reason.startswith("DimensionMismatchError: drift has shape")
        assert traj.times.tolist() == [0.0] and len(calls) == 1

    @SHORT_OR_LONG
    @CONFIGS
    @pytest.mark.parametrize("side", ["psi", "phi"])
    def test_anchored_lift_stops_at_its_start(self, side, config, wrong):
        from contactflows.lifts import DriftField, LiftSpec, build_hamiltonian, linear_restoring
        from contactflows.potentials import quadratic_potential

        spec = LiftSpec(side=side, potential=quadratic_potential(np.eye(2)),
                        drift=DriftField(n=2, eval=wrong), restoring=linear_restoring(1.0),
                        anchor=1.3)
        y0 = np.linspace(0.1, 0.7, 7)
        with pytest.raises(DimensionMismatchError):
            build_hamiltonian(spec).field(y0)
        calls = []
        spec = replace(spec, drift=replace(spec.drift,
                                           eval=lambda u: calls.append(u) or wrong(u)))
        with pytest.raises(DimensionMismatchError, match="drift has shape"):
            integrate_lift(spec, y0, 1.0, config)
        assert len(calls) == 1

    @CONFIGS
    @pytest.mark.parametrize("anchor", [None, 1.3], ids=["base", "anchored"])
    def test_psi_jet_of_the_wrong_length_raises_before_the_first_step(self, anchor, config):
        # a 3-entry gradient of a 2-d psi raised numpy's untyped ValueError
        # from inside the run: "operands could not be broadcast together" in
        # the base jet, "shapes (3,) and (2,2) not aligned" in the anchored one
        from contactflows.lifts import LiftSpec, linear_drift, linear_restoring
        from contactflows.potentials import ConvexPotential

        calls = []
        psi = ConvexPotential(n=2, value=lambda x: 0.5 * x.dot(x), jet=lambda x: calls.append(x)
                              or (0.5 * x.dot(x), np.append(x, 9.0), np.eye(2)))
        spec = LiftSpec(side="psi", potential=psi, drift=linear_drift(-1.0, 2),
                        restoring=linear_restoring(1.0), anchor=anchor)
        y0 = np.linspace(0.1, 0.7, 5 if anchor is None else 7)
        with pytest.raises(DimensionMismatchError, match=r"gradient of psi has shape \(3,\)"):
            integrate_lift(spec, y0, 1.0, config)
        assert len(calls) == 1


class TestRateFitting:
    def test_fit_on_clean_exponential(self):
        t = np.linspace(0.0, 5.0, 200)
        v = 3.0 * np.exp(-1.7 * t)
        assert fit_decay_rate(t, v) == pytest.approx(-1.7, abs=1e-10)

    def test_uses_second_half(self):
        # pollute the first half; the fit must not see it
        t = np.linspace(0.0, 6.0, 300)
        v = np.exp(-2.0 * t)
        v[: len(t) // 2] += 0.5
        assert fit_decay_rate(t, v) == pytest.approx(-2.0, abs=1e-8)

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError):
            fit_decay_rate(np.array([0.0, 1.0, 2.0, 3.0]), np.zeros(4))


class TestDeterminism:
    def test_bitwise_reproducible(self):
        spec = rc_unit()
        pt = embed_psi(spec.potential, np.array([1.0]))
        a = integrate_lift(spec, pt, 1.0)
        b = integrate_lift(spec, pt, 1.0)
        assert np.array_equal(a.states, b.states)
        assert np.array_equal(a.times, b.times)
