"""Convex potentials, numeric Legendre transform, divergences."""

import re
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contactflows import potentials as potentials_module
from contactflows.errors import (
    DimensionMismatchError,
    EvaluationError,
    IntegrationAbort,
    NewtonConvergenceError,
    PythagoreanConfigError,
    StrictConvexityError,
)
from contactflows.geometry import CanonicalPoint
from contactflows.integrate import integrate_lift, pythagorean_residual
from contactflows.lifts import (
    LiftSpec,
    build_hamiltonian,
    defects,
    embed,
    geodesic_drift_phi,
    linear_drift,
    linear_restoring,
)
from contactflows.models import MODEL_BUILDERS, CircuitParams, OnsagerParams, SpinParams, rlc_spec
from contactflows.potentials import (
    NEWTON_MAX_ITER,
    ConvexPotential,
    DuallyFlatWorkspace,
    LegendreTransformResult,
    canonical_divergence,
    conjugate,
    delta_psi,
    dual_metric,
    embed_psi,
    involution_check,
    legendre_transform,
    quadratic_potential,
    separable_potential,
    spin_potential,
)

RNG = np.random.default_rng(11)
NON_DIAGONAL_M = np.array([[2.0, 0.3], [0.3, 1.0]])


class TestBuiltins:
    def test_quadratic_values(self):
        # psi = x.Mx/2 with M = diag(2, 1) at x = (1, 3): 1 + 4.5  [DERIVED]
        psi = quadratic_potential(np.diag([2.0, 1.0]))
        x = np.array([1.0, 3.0])
        assert psi.value_at(x) == pytest.approx(5.5)
        assert np.allclose(psi.gradient_at(x), [2.0, 3.0])

    @pytest.mark.parametrize("psi", [quadratic_potential([[2.0]]), quadratic_potential(NON_DIAGONAL_M),
                                     spin_potential(1), spin_potential(2)],
                             ids=["quadratic1", "quadratic2", "spin1", "spin2"])
    @pytest.mark.parametrize("shape", ["0-d", "wrong-length", "2-d"])
    @pytest.mark.parametrize("accessor", ["value_at", "gradient_at", "hessian_at"])
    def test_checked_accessors_reject_an_x_not_of_shape_n(self, psi, shape, accessor):
        x = {"0-d": 0.5, "wrong-length": np.full(psi.n + 1, 0.5),
             "2-d": np.full((1, psi.n), 0.5)}[shape]
        expected = str(np.shape(x))
        with pytest.raises(DimensionMismatchError, match=f"x has shape {re.escape(expected)}, "
                                                         rf"expected \({psi.n},\)"):
            getattr(psi, accessor)(x)

    def test_quadratic_rejects_indefinite(self):
        with pytest.raises((StrictConvexityError, np.linalg.LinAlgError)):
            quadratic_potential(np.diag([1.0, -1.0]))

    def test_spin_potential_values(self):
        # psi(x) = ln cosh x + ln 2; psi(0) = ln 2, psi'(x) = tanh x  [DERIVED]
        psi = spin_potential(1)
        assert psi.value_at(np.array([0.0])) == pytest.approx(np.log(2.0))
        assert psi.gradient_at(np.array([1.3]))[0] == pytest.approx(np.tanh(1.3))

    def test_spin_potential_large_arguments_stable(self):
        # naive ln cosh overflows near x = 1000; the stable form gives
        # |x| + ln 2 - log(. . .) ~ x  [DERIVED: asymptotics of ln cosh]
        psi = spin_potential(1)
        val = psi.value_at(np.array([1000.0]))
        assert np.isfinite(val)
        assert val == pytest.approx(1000.0 + np.log(1.0), abs=1e-12) or val > 999.0

    def test_spin_hessian_past_overflow_is_zero_without_warning(self):
        # cosh^2 overflows past |x| ~ 355, where 1 / cosh^2 is 0
        psi = spin_potential(1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for x in (400.0, -400.0):
                assert psi.hessian_at(np.array([x]), check_spd=False)[0, 0] == 0.0

    @pytest.mark.parametrize("x", [1e308, -1e308])
    def test_spin_past_doubling_overflow_is_finite_without_warning(self, x):
        # -2 |x| overflows past |x| ~ 9e307; there psi(x) = |x| exactly
        psi = spin_potential(1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value = psi.value_at([x])
            jet = psi.jet_at(np.array([x]))
            pt = embed_psi(psi, [x])
        assert value == jet[0] == pt.z == 1e308
        assert jet[1][0] == pt.p[0] == np.sign(x) and jet[2][0, 0] == 0.0

    @pytest.mark.parametrize("call, fragment", [
        (lambda: ConvexPotential(n=0, value=lambda x: 0.0), "dimension n must be >= 1"),
        (lambda: delta_psi(spin_potential(1), CanonicalPoint(np.zeros(2), np.zeros(2), 0.0)),
         "point dimension mismatch"),
    ], ids=["n0", "delta-psi-point"])
    def test_input_checks_raise_a_dimension_mismatch(self, call, fragment):
        with pytest.raises(DimensionMismatchError, match=re.escape(fragment)):
            call()


class TestLegendreTransform:
    def test_quadratic_closed_form(self):
        # psi = x^2/(2c) has phi(p) = c p^2/2 with x* = c p  [DERIVED]
        psi = quadratic_potential([[0.5]])  # psi = x^2/4, c = 2
        res = legendre_transform(psi, np.array([3.0]))
        assert res.x_star[0] == pytest.approx(6.0, abs=1e-10)
        assert res.phi_value == pytest.approx(9.0, abs=1e-10)

    def test_spin_closed_form(self):
        # phi'(p) = arctanh p, phi(p) = p arctanh p - ln cosh arctanh p
        # - ln 2  [DERIVED: invert tanh]
        psi = spin_potential(1)
        p = np.array([0.6])
        res = legendre_transform(psi, p)
        x = np.arctanh(0.6)
        assert res.x_star[0] == pytest.approx(x, abs=1e-10)
        assert res.phi_value == pytest.approx(
            0.6 * x - np.log(np.cosh(x)) - np.log(2.0), abs=1e-10)

    def test_residual_below_tolerance(self):
        psi = spin_potential(2)
        res = legendre_transform(psi, np.array([0.4, -0.8]))
        assert res.residual < 1e-12

    def test_out_of_range_dual_point_raises(self):
        # the spin dual chart is (-1, 1); |p| >= 1 cannot converge
        with pytest.raises(NewtonConvergenceError) as excinfo:
            legendre_transform(spin_potential(1), np.array([1.5]))
        assert excinfo.value.best_x is not None
        assert excinfo.value.iterations > 0

    def test_failure_names_its_cause_and_the_iterations_run(self, monkeypatch):
        # past the dual chart x grows until sech^2 x underflows to a zero
        # Hessian, a few iterations in, long before the iteration budget
        with pytest.raises(NewtonConvergenceError, match="Hessian not positive definite") as excinfo:
            legendre_transform(spin_potential(1), np.array([1.5]))
        assert 0 < excinfo.value.iterations < NEWTON_MAX_ITER
        assert f"after {excinfo.value.iterations} iterations" in str(excinfo.value)
        monkeypatch.setattr(potentials_module, "NEWTON_MAX_ITER", 2)
        with pytest.raises(NewtonConvergenceError, match="iteration budget exhausted after 2 "):
            legendre_transform(spin_potential(1), np.array([0.5]))

    def test_converged_start_is_not_returned(self):
        # a start that already solves grad psi(x) = p ends the solve at once;
        # x* is still an array of the solve's own, so the caller's stays theirs
        start = np.array([0.2])
        res = legendre_transform(quadratic_potential([[1.0]]), np.array([0.2]), x0=start)
        assert res.iterations == 0 and res.x_star is not start
        start[0] = 99.0
        assert res.x_star[0] == 0.2

    def test_accepted_start_gives_the_solved_conjugate(self):
        # a start at x* is accepted as it is, with psi(x*) read there as after
        # any solve; no result keeps a Hessian
        psi = quadratic_potential(NON_DIAGONAL_M)
        p = np.array([0.4, -0.9])
        solved = legendre_transform(psi, p)
        assert solved.iterations > 0 and not hasattr(solved, "hessian")
        accepted = legendre_transform(psi, p, x0=solved.x_star)
        assert accepted.iterations == 0 and not hasattr(accepted, "hessian")
        assert accepted.phi_value == solved.phi_value

    @pytest.mark.parametrize("x0", [[0.1, 0.2, 0.3], [0.1], [[0.1, 0.2]]],
                             ids=["long", "short", "2-d"])
    def test_start_of_the_wrong_shape_is_a_dimension_mismatch(self, x0):
        # the start residual is read by gradient_at, which checks x's shape
        expected = re.escape(str(np.shape(x0)))
        with pytest.raises(DimensionMismatchError, match=f"x has shape {expected}"):
            legendre_transform(spin_potential(2), np.array([0.3, -0.2]), x0=x0)

    @pytest.mark.parametrize("start, p, cause", [
        ([np.nan], [0.5], "Hessian not positive definite after 0 "),
        ([np.inf], [0.5], "Hessian not positive definite"),
        # tanh x = 1 at x = inf is within tol of p, but phi = inf - inf there
        ([np.inf], [1 - 1e-13], r"x or psi\(x\) not finite after 0 "),
    ], ids=["nan", "inf", "inf-within-tol"])
    def test_start_not_finite_is_a_typed_error_not_a_warning(self, start, p, cause):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NewtonConvergenceError, match=cause):
                legendre_transform(spin_potential(1), np.array(p), x0=start)

    @pytest.mark.parametrize("psi", [quadratic_potential(NON_DIAGONAL_M), spin_potential(2)],
                             ids=["quadratic", "spin"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_p_is_a_typed_error_not_a_warning(self, psi, bad):
        # cold, from a given start, and warm from the workspace's predictor
        p = np.array([0.3, bad])
        ws = DuallyFlatWorkspace(psi)
        ws.jet(np.array([0.3, 0.2]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for solve in (lambda: legendre_transform(psi, p),
                          lambda: legendre_transform(psi, p, x0=[0.3, 0.2]),
                          lambda: ws.transform(p)):
                with pytest.raises(EvaluationError, match="p has non-finite entries"):
                    solve()

    @pytest.mark.parametrize("p", [[1.5], [0.3, -1.2], [1.0000001], [-1.5], [1e300]])
    def test_overflow_past_dual_chart_is_a_typed_error_not_a_warning(self, p):
        # Newton, its expanded steps too, drives x past cosh's overflow; that
        # ends the solve, silently, with its cause
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NewtonConvergenceError,
                               match=r"Hessian not positive definite after \d+ iterations"):
                legendre_transform(spin_potential(len(p)), np.array(p))

    @pytest.mark.parametrize("u", [2.0, 5.0, 7.5, 10.0])
    def test_cold_spin_solve_expands_short_newton_steps(self, u):
        # below the root a full step moves x by about 1/2; without the expansion
        # phase these solves take 7, 13, 18 and 22 iterations
        res = legendre_transform(spin_potential(1), np.array([np.tanh(u)]))
        assert res.iterations <= 6
        assert abs(res.x_star[0] - u) <= 1e-13 * np.cosh(u) ** 2

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from([1, 2, 8]).flatmap(
        lambda n: st.lists(st.floats(-7.5, 7.5), min_size=n, max_size=n)))
    def test_spin_solve_meets_the_closed_form_conjugate(self, u):
        # the tolerances of the spin_legendre_batch benchmark's gate  [property]
        p = np.tanh(np.array(u))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            res = legendre_transform(spin_potential(len(u)), p)
        a = np.arctanh(p)
        phi = float(a @ p - np.sum(np.abs(a) + np.log1p(np.exp(-2 * np.abs(a)))))
        assert np.all(np.abs(res.x_star - a) <= 1e-13 * np.cosh(a) ** 2)
        assert abs(res.phi_value - phi) <= 1e-12 * len(u) * max(1.0, float(np.max(np.abs(a))))

    def test_warm_phi_spin_lift_does_not_expand(self, monkeypatch):
        # a warm start converges quadratically, so no step is expanded: the
        # lift makes as many gradient and Hessian calls as with no expansion
        # (each of its 613 solves reads its start residual by gradient_at,
        # and every step by a checked hessian_at)
        calls = {"gradient_at": 0, "hessian_at": 0}
        for name in calls:
            method = getattr(ConvexPotential, name)

            def counting(psi, *args, _name=name, _method=method, **kwargs):
                calls[_name] += 1
                return _method(psi, *args, **kwargs)

            monkeypatch.setattr(ConvexPotential, name, counting)
        spec = LiftSpec(side="phi", potential=spin_potential(2),
                        drift=linear_drift(-1.0, 2, offset=[0.9, -0.8]),
                        restoring=linear_restoring(1.0))
        start = CanonicalPoint(np.array([0.3, -0.2]), np.array([0.2, 0.1]), 0.4)
        traj = integrate_lift(spec, start, 5.0)
        assert traj.abort_reason is None and len(traj.times) == 103
        assert calls == {"gradient_at": 1820, "hessian_at": 1820}

    @settings(max_examples=60, deadline=None)
    @given(st.floats(-0.99, 0.99))
    def test_involution_property(self, p):
        # x -> grad psi -> x* round-trips  [property]
        assert involution_check(spin_potential(1), np.array([np.arctanh(p)])) < 1e-10

    @settings(max_examples=60, deadline=None)
    @given(st.floats(-3, 3), st.floats(-0.95, 0.95))
    def test_fenchel_young(self, x, p):
        # psi(x) + phi(p) >= x p with equality iff p = psi'(x)  [property]
        psi = spin_potential(1)
        res = legendre_transform(psi, np.array([p]))
        gap = psi.value_at(np.array([x])) + res.phi_value - x * p
        assert gap >= -1e-12


class TestMetrics:
    def test_metric_and_dual_metric_are_inverse(self):
        psi = spin_potential(2)
        x = np.array([0.4, -1.1])
        g = psi.hessian_at(x)
        g_star = dual_metric(psi, psi.gradient_at(x))
        assert np.allclose(g @ g_star, np.eye(2), atol=1e-8)


@st.composite
def spd_matrices(draw):
    """Diagonal or non-diagonal SPD M, n in {1, 2, 3}, eigenvalues in [0.3, 9.3]."""
    n = draw(st.sampled_from([1, 2, 3]))
    if draw(st.booleans()):
        return np.diag(draw(st.lists(st.floats(0.3, 3.0), min_size=n, max_size=n)))
    A = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=n * n, max_size=n * n)))
    return A.reshape(n, n) @ A.reshape(n, n).T + 0.3 * np.eye(n)


def counting_legendre(monkeypatch):
    solves = []

    def counting(psi, p, x0=None):
        solves.append(p)
        return legendre_transform(psi, p, x0=x0)

    monkeypatch.setattr(potentials_module, "legendre_transform", counting)
    return solves


class TestClosedFormConjugate:
    @settings(max_examples=60, deadline=None)
    @given(spd_matrices(), st.data())
    def test_closed_form_agrees_with_newton(self, M, data):
        psi = quadratic_potential(M)
        closed = conjugate(DuallyFlatWorkspace(psi))
        newton = conjugate(DuallyFlatWorkspace(without_closed_form(psi)))
        assert closed.closed_conjugate is not None and newton.jet is not None
        n = len(M)
        for p in data.draw(st.lists(st.lists(st.floats(-5.0, 5.0), min_size=n, max_size=n),
                                    min_size=1, max_size=3)):
            p = np.array(p)
            scale = max(1.0, float(np.max(np.abs(p))))
            assert closed.value_at(p) == pytest.approx(newton.value_at(p), rel=1e-12,
                                                       abs=1e-12 * scale ** 2)
            assert np.allclose(closed.gradient_at(p), newton.gradient_at(p),
                               rtol=0, atol=1e-11 * scale)
            assert np.allclose(closed.hessian_at(p), newton.hessian_at(p), rtol=1e-12, atol=0)

    @pytest.mark.parametrize("model", ["rl", "rlc"])
    def test_phi_circuit_run_makes_no_legendre_solve(self, monkeypatch, model):
        solves = counting_legendre(monkeypatch)
        spec = MODEL_BUILDERS[model](CircuitParams(R=1.3, C=0.7, L=0.9, gamma0=0.8))
        assert spec.side == "phi"
        n = spec.n
        start = CanonicalPoint(np.full(n, 0.3), np.linspace(1.0, 0.5, n), 0.1)
        traj = integrate_lift(spec, start, 5.0)
        assert len(traj.times) > 20 and traj.abort_reason is None and not solves

    def test_phi_spin_run_still_solves(self, monkeypatch):
        solves = counting_legendre(monkeypatch)
        spec = LiftSpec(side="phi", potential=spin_potential(2),
                        drift=linear_drift(-1.0, 2), restoring=linear_restoring(1.0))
        start = CanonicalPoint(np.array([0.1, 0.2]), np.array([0.3, -0.7]), 0.1)
        traj = integrate_lift(spec, start, 0.5)
        assert len(solves) >= len(traj.times) > 2
        before = len(solves)
        dual_metric(spin_potential(1), np.array([0.5]))
        assert len(solves) == before + 1

    def test_conjugate_twice_is_psi_built_once_on_first_use(self, monkeypatch):
        solves, inversions = counting_legendre(monkeypatch), []
        inv = np.linalg.inv
        monkeypatch.setattr(np.linalg, "inv", lambda a: inversions.append(a) or inv(a))
        psi = quadratic_potential(NON_DIAGONAL_M)
        assert not inversions
        phi = conjugate(DuallyFlatWorkspace(psi))
        assert conjugate(DuallyFlatWorkspace(phi)) is psi
        assert conjugate(DuallyFlatWorkspace(psi)) is phi and len(inversions) == 1
        # dual_metric reads the one inverse, shared by every reader, so read-only
        g_star = dual_metric(psi, np.array([0.4, -0.9]))
        assert np.array_equal(g_star, inv(NON_DIAGONAL_M)) and not solves
        with pytest.raises(ValueError):
            g_star[0, 0] = 99.0


def phi_side(psi):
    """A phi-side lift of psi, for its submanifold."""
    return LiftSpec(side="phi", potential=psi, drift=linear_drift(-1.0, psi.n),
                    restoring=linear_restoring(1.0))


class TestEmbeddingsAndDeltas:
    def test_embed_psi_zeroes_deltas(self):
        psi = spin_potential(2)
        pt = embed_psi(psi, np.array([0.2, -0.7]))
        d0, d = delta_psi(psi, pt)
        assert abs(d0) < 1e-14 and np.max(np.abs(d)) < 1e-14

    def test_phi_side_embedding_zeroes_its_defects(self):
        spec = phi_side(quadratic_potential(np.diag([2.0, 0.5])))
        d0, d = defects(spec, embed(spec, np.array([1.0, -0.3])))
        assert abs(d0) < 1e-10 and np.max(np.abs(d)) < 1e-10

    def test_both_embeddings_agree_on_matched_charts(self):
        # embedding x and embedding p = grad psi(x) give the same point
        psi = spin_potential(1)
        x = np.array([0.9])
        a = embed_psi(psi, x)
        b = embed(phi_side(psi), psi.gradient_at(x))
        assert np.allclose(a.x, b.x, atol=1e-10)
        assert a.z == pytest.approx(b.z, abs=1e-10)


class TestDivergence:
    def test_diagonal_is_zero(self):
        psi = spin_potential(1)
        assert canonical_divergence(psi, np.array([0.4]), np.array([0.4])) == (
            pytest.approx(0.0, abs=1e-12))

    def test_quadratic_is_half_squared_distance(self):
        # identity M gives D = ||x - x'||^2 / 2 both ways  [DERIVED]
        psi = quadratic_potential(np.eye(2))
        x, xp = np.array([1.0, 2.0]), np.array([0.0, -1.0])
        expect = 0.5 * float((x - xp) @ (x - xp))
        assert canonical_divergence(psi, x, xp) == pytest.approx(expect, abs=1e-10)
        assert canonical_divergence(psi, xp, x) == pytest.approx(expect, abs=1e-10)

    def test_spin_divergence_asymmetric_and_positive(self):
        psi = spin_potential(1)
        a = canonical_divergence(psi, np.array([0.1]), np.array([1.4]))
        b = canonical_divergence(psi, np.array([1.4]), np.array([0.1]))
        assert a > 0 and b > 0
        assert abs(a - b) > 1e-4

    @pytest.mark.parametrize("x, xp", [([np.inf], [0.0]), ([0.0], [np.nan])])
    def test_nonfinite_point_is_a_typed_error_not_a_warning(self, x, xp):
        psi = spin_potential(1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(EvaluationError):
                canonical_divergence(psi, np.array(x), np.array(xp))

    @settings(max_examples=40, deadline=None)
    @given(st.floats(-2, 2), st.floats(-2, 2))
    def test_nonnegativity(self, x, xp):
        psi = spin_potential(1)
        assert canonical_divergence(psi, np.array([x]), np.array([xp])) >= -1e-12


class TestPythagorean:
    def test_orthogonal_config_residual_vanishes(self):
        # quadratic psi: p = x, so (x3-x2) perpendicular to (x2-x1) is the
        # orthogonality condition, and the residual (x2-x3).(p2-p1) = 0
        psi = quadratic_potential(np.eye(2))
        r = pythagorean_residual(psi, np.array([0.0, 0.0]), np.array([1.0, 0.0]),
                                 np.array([1.0, 1.0]))
        assert abs(r) < 1e-8

    def test_non_orthogonal_config_rejected(self):
        psi = quadratic_potential(np.eye(2))
        with pytest.raises(PythagoreanConfigError):
            pythagorean_residual(psi, np.array([0.0, 0.0]), np.array([1.0, 0.0]),
                                 np.array([2.0, 0.5]))

    def test_spin_product_workspace(self):
        # spin psi in n=2 (product of independent sites); pick x3 so the
        # dual displacement p2 - p1 is orthogonal to x3 - x2
        psi = spin_potential(2)
        x1 = np.array([0.0, 0.2])
        x2 = np.array([0.8, 0.2])
        x3 = np.array([0.8, 1.1])  # differs only in the second slot;
        # p2 - p1 = (tanh .8 - tanh 0, 0) is orthogonal to (0, 0.9)
        r = pythagorean_residual(psi, x1, x2, x3)
        assert abs(r) < 1e-8

    @pytest.mark.parametrize("psi, message", [
        (replace(quadratic_potential(np.eye(2)), hessian=2.0 * np.eye(2)),
         "dual geodesic does not reach the corner"),
        (replace(quadratic_potential(np.eye(2)),
                 closed_conjugate=lambda: quadratic_potential(2.0 * np.eye(2))),
         "primal geodesic does not reach the endpoint"),
    ], ids=["psi-hessian-doubled", "conjugate-hessian-doubled"])
    def test_a_geodesic_that_lands_off_target_is_rejected(self, psi, message):
        # a Hessian twice the true one halves the geodesic's speed: after unit
        # time it has come halfway, 0.5 from the point it was to reach
        with pytest.raises(PythagoreanConfigError, match=f"^{message}$"):
            pythagorean_residual(psi, np.array([0.0, 0.0]), np.array([1.0, 0.0]),
                                 np.array([1.0, 1.0]))

    def test_a_stopped_dual_flow_names_its_geodesic(self):
        # p2 = tanh 20 rounds to 1, the edge of the dual chart: x runs off to
        # infinity as the dual geodesic reaches the corner.  The primal case
        # is test_pythagorean_flow_failure_exits_3 of the scenario tests
        with pytest.raises(IntegrationAbort, match="^dual geodesic x1 -> x2: submanifold flow "
                                                   "truncated: step floor") as info:
            pythagorean_residual(spin_potential(2), np.zeros(2), np.array([20.0, 0.0]),
                                 np.array([20.0, 1.0]))
        assert info.value.trajectory.truncated
        assert info.value.trajectory.times[-1] < 1.0


class TestConstantHessianCheck:
    @staticmethod
    def count_factorisations(monkeypatch):
        calls = []
        cholesky = np.linalg.cholesky

        def counting(a):
            calls.append(a)
            return cholesky(a)

        monkeypatch.setattr(np.linalg, "cholesky", counting)
        return calls

    def test_quadratic_factored_once_at_construction(self, monkeypatch):
        calls = self.count_factorisations(monkeypatch)
        psi = quadratic_potential(NON_DIAGONAL_M)
        assert len(calls) == 1
        for x in RNG.standard_normal((50, 2)):
            assert psi.hessian_at(x) is psi.hessian
        legendre_transform(psi, np.array([0.7, -1.2]))
        assert len(calls) == 1

    @pytest.mark.parametrize("H, error, match", [
        (np.diag([1.0, -1.0]), StrictConvexityError, "declared constant matrix"),
        (np.diag([1.0, np.nan]), StrictConvexityError, "declared constant matrix"),
        (np.eye(3), DimensionMismatchError, r"shape \(3, 3\), expected \(2, 2\)"),
        (np.ones(2), DimensionMismatchError, r"shape \(2,\), expected \(2, 2\)"),
    ], ids=["indefinite", "nan", "too_large", "vector"])
    def test_declared_matrix_rejected_at_construction(self, H, error, match):
        with pytest.raises(error, match=match):
            ConvexPotential(n=2, value=lambda x: 0.0, hessian=H)

    def test_declared_matrix_is_kept_as_a_read_only_copy(self):
        M = np.diag([1, 2])  # integers, writable: copied to read-only float64
        psi = ConvexPotential(n=2, value=lambda x: 0.0, hessian=M)
        M[1, 1] = -2
        H = psi.hessian_at(np.zeros(2))
        assert H.dtype == np.float64 and not H.flags.writeable
        assert np.array_equal(H, np.diag([1.0, 2.0]))
        # a read-only float64 matrix is kept as it is: the quadratic's jet returns it
        psi = quadratic_potential(NON_DIAGONAL_M)
        assert psi.jet(np.zeros(2))[2] is psi.hessian
        M = np.diag([1.0, 2.0])
        M.flags.writeable = False
        assert ConvexPotential(n=2, value=lambda x: 0.0, hessian=M).hessian is M

    def test_callable_hessian_factored_on_every_checked_call(self, monkeypatch):
        calls = self.count_factorisations(monkeypatch)
        M = np.diag([1.0, 2.0])
        psi = ConvexPotential(n=2, value=lambda x: 0.0, hessian=lambda x: M)
        assert not calls
        for _ in range(3):
            psi.hessian_at(np.zeros(2))
        assert len(calls) == 3

    def test_indefinite_after_accepted_still_raises(self):
        # Hess psi = diag(1, x_0): SPD for x_0 > 0 only
        psi = ConvexPotential(n=2, value=lambda x: 0.0,
                              hessian=lambda x: np.diag([1.0, x[0]]))
        psi.hessian_at(np.array([0.5, 0.0]))
        x = np.array([-0.25, 3.0])
        with pytest.raises(StrictConvexityError) as excinfo:
            psi.hessian_at(x)
        assert np.array2string(x, precision=4) in str(excinfo.value)

    def test_mutated_constant_hessian_rechecked(self):
        M = np.diag([1.0, 2.0])
        psi = ConvexPotential(n=2, value=lambda x: 0.0, hessian=lambda x: M)
        psi.hessian_at(np.zeros(2))
        M[1, 1] = -2.0
        with pytest.raises(StrictConvexityError):
            psi.hessian_at(np.zeros(2))

    def test_unchecked_hessian_not_factored(self, monkeypatch):
        calls = self.count_factorisations(monkeypatch)
        psi = ConvexPotential(n=2, value=lambda x: 0.0,
                              hessian=lambda x: np.diag([1.0, -1.0]))
        assert psi.hessian_at(np.zeros(2), check_spd=False)[1, 1] == -1.0
        assert not calls

    def test_nan_hessian_raises_on_every_checked_call(self):
        # cholesky returns NaN for a NaN matrix without raising
        psi = spin_potential(1)
        for _ in range(2):
            with pytest.raises(StrictConvexityError, match="not positive definite"):
                psi.hessian_at(np.array([np.nan]))

    def test_nan_quadratic_coefficients_rejected(self):
        with pytest.raises(StrictConvexityError, match="declared constant matrix"):
            quadratic_potential([[np.nan]])


class TestJetOnlyPotential:
    def test_value_gradient_and_hessian_are_read_from_the_jet(self):
        ws = DuallyFlatWorkspace(spin_potential(2))
        phi = conjugate(ws)
        for p in RNG.uniform(-0.9, 0.9, (5, 2)):
            value, x_star, inv_hessian = ws.jet(p)
            assert phi.value_at(p) == value
            assert np.array_equal(phi.gradient_at(p), x_star)
            assert np.array_equal(phi.hessian_at(p), inv_hessian)
            assert np.array_equal(phi.hessian_at(p, check_spd=False), inv_hessian)

    def test_given_callables_are_kept(self):
        psi = ConvexPotential(n=1, value=lambda x: 0.5,
                              jet=lambda x: (1.0, 2 * x, 2 * np.eye(1)))
        assert psi.value_at([3.0]) == 0.5
        assert np.array_equal(psi.gradient_at([3.0]), [6.0])
        assert np.array_equal(psi.hessian_at([3.0]), [[2.0]])

    def test_neither_value_nor_jet_raises(self):
        with pytest.raises(ValueError, match="supply a value, a jet or both"):
            ConvexPotential(n=1, gradient=lambda x: x)


class TestCentralDifferences:
    """A potential given as a value alone: psi(x) = x.x / 2 + sum x_a^4 / 4."""

    psi = ConvexPotential(n=2, value=lambda x: 0.5 * float(x @ x) + 0.25 * float(np.sum(x ** 4)))
    POINTS = [[0.3, -0.7], [1.5, 2.0], [-3.0, 0.1]]

    @pytest.mark.parametrize("x", POINTS)
    def test_gradient_and_hessian_match_closed_forms(self, x):
        x = np.array(x)
        # rounding noise of a central difference with step eps^(1/3) is about
        # eps^(2/3) |psi| on the gradient, and larger again on the Hessian
        scale = 1.0 + abs(self.psi.value_at(x))
        assert np.allclose(self.psi.gradient_at(x), x + x ** 3, rtol=0, atol=1e-10 * scale)
        H = self.psi.hessian_at(x)
        assert np.array_equal(H, H.T)
        assert np.allclose(H, np.diag(1 + 3 * x ** 2), rtol=0, atol=1e-6 * scale)

    @pytest.mark.parametrize("x", POINTS)
    def test_legendre_solve_recovers_x(self, x):
        # the central-difference gradient carries rounding noise of about
        # eps^(2/3) |psi|, above NEWTON_TOL; the solve stops at that noise
        x = np.array(x)
        p = x + x ** 3
        scale = 1.0 + abs(self.psi.value_at(x))
        res = legendre_transform(self.psi, p)
        assert res.residual <= 1e-9 * scale and res.iterations <= 10
        assert np.allclose(res.x_star, x, rtol=0, atol=1e-9)
        assert res.phi_value == pytest.approx(x @ p - self.psi.value_at(x), abs=1e-9 * scale)
        g = dual_metric(self.psi, p)
        assert np.allclose(g @ np.diag(1 + 3 * x ** 2), np.eye(2), rtol=0, atol=1e-5)

    def test_second_differences_make_the_dual_metric_invert_the_exact_hessian(self):
        # a central difference of the central-difference gradient missed the
        # identity by up to 4e-4 here; second differences of the value with
        # their own step eps^(1/4) max(1, |x_a|) miss it by under 4e-6
        worst = 0.0
        for x in np.random.default_rng(0).uniform(-5, 5, (303, 2)):
            g = dual_metric(self.psi, x + x ** 3)
            worst = max(worst, float(np.abs(g @ np.diag(1 + 3 * x ** 2) - np.eye(2)).max()))
        assert worst <= 1e-5


class TestGradientOnlyPotential:
    """A potential given a value and a gradient, no Hessian: psi(x) = sum x_a^2 / 2 + x_a^4 / 4.

    ``hessian_at`` then takes central differences of the gradient
    g_a(x) = x_a + x_a^3 with step s = eps^(1/3) max(1, |x_a|) and
    symmetrises them.  Component b of g reads x_b alone, so a step in x_a
    leaves it bit for bit unchanged: every off-diagonal entry is exactly 0.
    On the diagonal the difference of the cubic is 3 x_a^2 + s^2 exactly,
    a truncation of s^2.  Rounding adds at most 3 eps |g_a| per evaluated
    gradient entry and eps/2 |x_a + s| per rounded argument, each moved
    through a slope of at most G' = 1 + 3 (|x_a| + s)^2; over the divisor
    2s both sides together stay below (3 eps G + eps X G' / 2) / s, with G
    the largest |g_a| and X = |x_a| + s.  The bound allows twice that.
    """

    psi = ConvexPotential(n=2, value=lambda x: float(np.sum(0.5 * x * x + 0.25 * x ** 4)),
                          gradient=lambda x: x + x ** 3)

    @pytest.mark.parametrize("x", TestCentralDifferences.POINTS)
    def test_hessian_is_the_symmetrised_difference_of_the_gradient(self, x):
        x = np.array(x)
        H = self.psi.hessian_at(x)
        assert H[0, 1] == 0.0 and H[1, 0] == 0.0
        eps = np.finfo(float).eps
        s = eps ** (1 / 3) * np.maximum(1.0, np.abs(x))
        X = np.abs(x) + s
        G, slope = X + X ** 3, 1 + 3 * X ** 2
        bound = s * s + 2 * (3 * eps * G + eps * X * slope / 2) / s
        assert np.all(np.abs(np.diag(H) - (1 + 3 * x ** 2)) <= bound)

    def test_checked_call_on_a_concave_gradient_raises(self):
        concave = ConvexPotential(n=2, value=lambda x: -0.5 * float(x @ x), gradient=lambda x: -x)
        with pytest.raises(StrictConvexityError):
            concave.hessian_at(np.array([0.3, -0.2]))
        assert np.allclose(concave.hessian_at(np.array([0.3, -0.2]), check_spd=False), -np.eye(2))


# psi(x) = e^x0 + ln cosh x1 + 3 x2^2 / 2, and per coordinate its conjugate's
# x*(p) and phi(p)  [DERIVED: invert exp, tanh and 3x]
SEPARABLE_PIECES = [
    (np.exp, np.exp, np.exp),
    (lambda t: np.log(np.cosh(t)), np.tanh, lambda t: 1.0 / np.cosh(t) ** 2),
    (lambda t: 1.5 * t * t, lambda t: 3.0 * t, lambda t: 3.0),
]
SEPARABLE_CONJUGATE = [
    (np.log, lambda q: q * np.log(q) - q),
    (np.arctanh, lambda q: q * np.arctanh(q) - np.log(np.cosh(np.arctanh(q)))),
    (lambda q: q / 3.0, lambda q: q * q / 6.0),
]


def potential_cases():
    """(id, psi) for the potential of every model in MODEL_BUILDERS, plus spin n = 2."""
    params = {"spin": SpinParams(theta=0.4, gamma0=2.0, lambda0=0.5),
              "onsager": OnsagerParams(L_matrix=np.array([[2.0, 0.3], [0.3, 1.0]]))}
    cases = [("spin2", spin_potential(2))]
    for name, build in MODEL_BUILDERS.items():
        spec = build(params.get(name, CircuitParams(R=1.3, C=0.7, L=0.9, T0=1.1, gamma0=0.8)))
        cases.append((name, spec.potential))
    return cases


def three_callables(psi, x):
    return psi.value_at(x), psi.gradient_at(x), psi.hessian_at(x, check_spd=False)


def assert_same_jet(got, expect):
    assert type(got[0]) is type(expect[0]) and got[0] == expect[0]
    for a, b in zip(got[1:], expect[1:]):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()


class TestJet:
    @pytest.mark.parametrize("psi", [c for _, c in potential_cases()],
                             ids=[i for i, _ in potential_cases()])
    def test_jet_is_the_three_callables_bit_for_bit(self, psi):
        xs = np.random.default_rng(7).uniform(-1.5, 1.5, (6, psi.n))
        for x in xs:
            assert_same_jet(psi.jet_at(x), three_callables(psi, x))
        # the conjugate's jet and its three callables, each on its own
        # workspace with the same history of warm solves
        jet_side = conjugate(DuallyFlatWorkspace(psi))
        callables_side = conjugate(DuallyFlatWorkspace(psi))
        assert jet_side.jet is not None
        for x in xs:
            p = psi.gradient_at(x)
            assert_same_jet(jet_side.jet_at(p), three_callables(callables_side, p))

    @pytest.mark.parametrize("psi, far", [
        (quadratic_potential([[2.0, 0.4, 0.1], [0.4, 1.0, -0.2], [0.1, -0.2, 0.7]]), []),
        # past |x| ~ 355 cosh^2 overflows, and Hess psi is 0 without a warning
        (spin_potential(2), [[400.0, -400.0], [30.0, -0.2]]),
    ], ids=["quadratic", "spin"])
    def test_written_jet_is_the_three_callables_bit_for_bit(self, psi, far):
        # these potentials write their jet; jet_at then skips the wrappers
        assert psi.jet is not None
        xs = np.random.default_rng(11).uniform(-1.5, 1.5, (6, psi.n))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for x in [*xs, *map(np.array, far)]:
                assert_same_jet(psi.jet_at(x), three_callables(psi, x))

    @pytest.mark.parametrize("extended", [False, True], ids=["base", "extended"])
    def test_phi_field_call_does_one_lookup(self, monkeypatch, extended):
        lookups = []
        transform = DuallyFlatWorkspace.transform

        def counting(ws, p):
            lookups.append(p)
            return transform(ws, p)

        monkeypatch.setattr(DuallyFlatWorkspace, "transform", counting)
        spec, start = off_graph_rlc()
        y = np.concatenate([start.x, start.p, [start.z]])
        h = build_hamiltonian(spec)
        if extended:  # flat state (x, x_extra, p, p_extra, z) of the extended lift
            h = build_hamiltonian(replace(spec, anchor=1.3))
            y = np.concatenate([start.x, [0.2], start.p, [1.1], [start.z]])
        for k in range(5):
            diag = {} if k % 2 else None
            h.field(y + 0.01 * k, diag)
            assert len(lookups) == k + 1

    def test_solve_reads_a_jet_of_other_types(self):
        # psi = |x|^2 with a jet of a numpy scalar, a list and a list of ints
        psi = ConvexPotential(n=2, value=lambda x: float(x @ x), gradient=lambda x: 2 * x,
                              jet=lambda x: (x @ x, [2 * x[0], 2 * x[1]], [[2, 0], [0, 2]]))
        accepted = legendre_transform(psi, np.array([1.0, 2.0]), x0=[0.5, 1.0])
        iterated = legendre_transform(psi, np.array([1.0, 2.0]), x0=[0.0, 1.0])
        for res, iterations in ((accepted, 0), (iterated, 1)):
            assert res.iterations == iterations and np.array_equal(res.x_star, [0.5, 1.0])
            assert type(res.phi_value) is float and res.phi_value == 1.25
        # the solver inverts the jet's list of ints, read as a float64 Hessian
        inv_hessian = DuallyFlatWorkspace(psi).jet(np.array([1.0, 2.0]))[2]
        assert inv_hessian.dtype == np.float64
        assert np.array_equal(inv_hessian, 0.5 * np.eye(2))

    def test_warm_phi_field_call_reads_psi_once_per_quantity(self, monkeypatch, workspaces):
        # a warm solve that accepts its predictor reads the residual by
        # gradient_at and psi(x*) by value_at, and the workspace inverts an
        # unchecked hessian_at; psi's own jet is not read.  The Hamiltonian
        # looks up the conjugate's jet once, when it is built, so the jets
        # are counted where they are defined
        calls = []
        for name in ("value_at", "gradient_at", "hessian_at"):
            method = getattr(ConvexPotential, name)

            def counting(psi, *args, _name=name, _method=method, **kwargs):
                calls.append(_name)
                return _method(psi, *args, **kwargs)

            monkeypatch.setattr(ConvexPotential, name, counting)
        solver_jet = DuallyFlatWorkspace.jet
        monkeypatch.setattr(DuallyFlatWorkspace, "jet",
                            lambda ws, p: calls.append("conjugate jet") or solver_jet(ws, p))
        spec, start = off_graph_rlc()
        psi = spec.potential
        spec = replace(spec, potential=replace(
            psi, jet=lambda x: calls.append("psi jet") or psi.jet(x)))
        h = build_hamiltonian(spec)
        [ws] = workspaces
        y = np.concatenate([start.x, start.p, [start.z]])
        h.field(y)  # the solve the next ones start from
        for k in range(1, 4):
            calls.clear()
            h.field(y + 1e-3 * k)
            # the conjugate's jet, then psi once per quantity its warm solve reads
            assert calls == ["conjugate jet", "gradient_at", "value_at", "hessian_at"]
            assert ws._res.iterations == 0

    def test_phi_spin_run_inverts_once_per_new_p(self, monkeypatch):
        inversions, solves = [], counting_legendre(monkeypatch)
        inv = np.linalg.inv
        monkeypatch.setattr(np.linalg, "inv", lambda a: inversions.append(a) or inv(a))
        spec = LiftSpec(side="phi", potential=spin_potential(2),
                        drift=linear_drift(-1.0, 2), restoring=linear_restoring(1.0))
        start = CanonicalPoint(np.array([0.1, 0.2]), np.array([0.3, -0.7]), 0.1)
        traj = integrate_lift(spec, start, 1.0)
        assert len(traj.times) > 5 and len(inversions) == len(solves)

    def test_warm_quadratic_solve_does_no_linear_solve(self, monkeypatch):
        ws = DuallyFlatWorkspace(quadratic_potential(NON_DIAGONAL_M))
        ws.jet(np.array([0.4, -0.9]))
        solved = []
        solve = np.linalg.solve
        monkeypatch.setattr(np.linalg, "solve", lambda a, b: solved.append(a) or solve(a, b))
        for p in ([0.41, -0.88], [1.7, 2.3], [-30.0, 12.5]):
            _, x, _ = ws.jet(np.array(p))
            rounding = 4 * np.finfo(float).eps * max(1.0, np.max(np.abs(p)))
            assert np.max(np.abs(NON_DIAGONAL_M @ x - p)) <= rounding
        assert not solved

    def test_separable_potential(self):
        psi = separable_potential(SEPARABLE_PIECES)
        x = np.array([0.3, -0.8, 1.2])
        value, g, H = psi.jet_at(x)
        assert psi.jet is None
        assert_same_jet((value, g, H), three_callables(psi, x))
        assert value == pytest.approx(np.exp(0.3) + np.log(np.cosh(-0.8)) + 1.5 * 1.44)
        assert np.allclose(g, [np.exp(0.3), np.tanh(-0.8), 3.6])
        assert np.allclose(H, np.diag([np.exp(0.3), 1 / np.cosh(0.8) ** 2, 3.0]))
        for p in ([0.5, 0.4, -2.0], [3.0, -0.9, 0.1]):
            res = legendre_transform(psi, np.array(p))
            x_star = [xs(q) for (xs, _), q in zip(SEPARABLE_CONJUGATE, p)]
            phi = sum(f(q) for (_, f), q in zip(SEPARABLE_CONJUGATE, p))
            assert np.allclose(res.x_star, x_star, rtol=1e-12, atol=1e-12)
            assert res.phi_value == pytest.approx(phi, rel=1e-12, abs=1e-12)
            assert np.allclose(psi.gradient_at(res.x_star), p, rtol=0, atol=1e-12)


def without_closed_form(psi):
    """psi's own callables in a bare potential: its conjugate goes through the workspace."""
    return ConvexPotential(n=psi.n, value=psi.value, gradient=psi.gradient,
                           hessian=psi.hessian, jet=psi.jet)


def off_graph_rlc():
    """phi-side rlc (R = C = L = gamma0 = 1) and a start off its submanifold.

    Its quadratic is bare, so these runs pin the warm-started workspace,
    whose predictor is exact for a constant Hessian.
    """
    spec = rlc_spec(CircuitParams(R=1.0, C=1.0, L=1.0, gamma0=1.0))
    spec = replace(spec, potential=without_closed_form(spec.potential))
    return spec, CanonicalPoint(np.array([0.3, -0.2]), np.array([1.0, 0.5]), 0.1)


class TestWorkspaceCache:
    def test_cache_reuses_transforms(self):
        ws = DuallyFlatWorkspace(spin_potential(1))
        p = np.array([0.3])
        first = ws.transform(p)
        second = ws.transform(p)
        assert first is second

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from([1, 2]), st.data())
    def test_warm_spin_solve_matches_cold(self, n, data):
        # p = tanh u up to |p| = 1 - 6e-7; x* = artanh p is conditioned by cosh^2 u
        u_prev, u = (np.array(data.draw(st.lists(st.floats(-7.5, 7.5), min_size=n, max_size=n)))
                     for _ in range(2))
        psi = spin_potential(n)
        ws = DuallyFlatWorkspace(psi)
        ws.transform(np.tanh(u_prev))
        p = np.tanh(u)
        warm, cold = ws.transform(p), legendre_transform(psi, p)
        assert np.all(np.abs(warm.x_star - cold.x_star) <= 1e-13 * np.cosh(u) ** 2)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.floats(-10, 10), min_size=4, max_size=4))
    def test_warm_quadratic_solve_matches_cold(self, coords):
        psi = quadratic_potential(NON_DIAGONAL_M)
        p_prev, p = np.array(coords[:2]), np.array(coords[2:])
        ws = DuallyFlatWorkspace(psi)
        ws.transform(p_prev)
        warm, cold = ws.transform(p), legendre_transform(psi, p)
        # relative above |x*| = 1; below, Newton's absolute tolerance sets the scale
        scale = max(1.0, np.max(np.abs(cold.x_star)))
        assert np.max(np.abs(warm.x_star - cold.x_star)) <= 1e-13 * scale

    def test_shared_inverse_hessian_is_read_only(self):
        ws = DuallyFlatWorkspace(without_closed_form(quadratic_potential(NON_DIAGONAL_M)))
        p = np.array([0.4, -0.9])
        H = conjugate(ws).hessian_at(p)
        with pytest.raises(ValueError):
            H[0, 0] = 99.0
        assert np.array_equal(ws.jet(p)[2], np.linalg.inv(NON_DIAGONAL_M))

    def test_shared_x_star_is_read_only(self):
        # the memo hands the same x* to every caller at p and to the next warm start
        ws = DuallyFlatWorkspace(spin_potential(1))
        with pytest.raises(ValueError):
            ws.transform(np.array([0.5])).x_star[0] = 99.0
        res = ws.transform(np.array([0.5]))
        assert res.x_star[0] == pytest.approx(np.arctanh(0.5), abs=1e-15)
        assert res.phi_value == pytest.approx(
            0.5 * np.arctanh(0.5) - np.log(2 * np.cosh(np.arctanh(0.5))), abs=1e-15)

    def test_failed_warm_solve_retried_cold(self, monkeypatch):
        # from x* = artanh(0.999999) the predictor for -0.999999 lands near
        # x = -1e6, where sech^2 underflows to a zero Hessian and Newton stops
        # at once; the cold solve does not
        starts = []

        def recording(psi, p, x0=None):
            starts.append(x0)
            return legendre_transform(psi, p, x0=x0)

        monkeypatch.setattr(potentials_module, "legendre_transform", recording)
        ws = DuallyFlatWorkspace(spin_potential(1))
        ws.transform(np.array([0.999999]))
        p = np.array([-0.999999])
        x = ws.transform(p).x_star
        assert np.array_equal(x, legendre_transform(spin_potential(1), p).x_star)
        assert starts[0] is None and starts[1][0] < -1e5 and starts[2] is None

    def test_long_phi_run_keeps_one_solve(self, workspaces):
        spec, start = off_graph_rlc()
        traj = integrate_lift(spec, start, 50.0)
        assert len(traj.times) > 200
        [ws] = workspaces  # the Hamiltonian's
        held = [v for v in vars(ws).values() if v is not spec.potential]
        assert not any(isinstance(v, (dict, list, set, tuple)) for v in held)
        assert sum(isinstance(v, LegendreTransformResult) for v in held) == 1
        # the diagnostics of the last state solved last
        assert np.array_equal(ws._p, traj.states[-1, 2:4])

    @pytest.mark.parametrize("model", ["rlc", "spin2", "spin2_geodesic_own_workspace"])
    def test_phi_run_independent_of_memo_history(self, model):
        start = CanonicalPoint(np.array([0.1, 0.2]), np.array([0.3, -0.7]), 0.1)
        elsewhere = CanonicalPoint(np.array([-1.0, 2.0]), np.array([-0.83, 0.71]), 0.0)
        t_end = 5.0
        if model == "rlc":
            spec, start = off_graph_rlc()
        elif model == "spin2":
            spec = LiftSpec(side="phi", potential=spin_potential(2),
                            drift=linear_drift(-1.0, 2), restoring=linear_restoring(1.0))
        else:
            # a drift that reads the conjugate through a solver of its own,
            # which integrate_lift clears
            psi = spin_potential(2)
            drift = geodesic_drift_phi(psi, np.array([0.1, -0.1]), np.array([0.3, 0.2]))
            assert drift.workspace.psi is psi
            spec = LiftSpec(side="phi", potential=psi, drift=drift,
                            restoring=linear_restoring(1.0))
            # a start whose runs differed while nothing cleared that solver
            start = CanonicalPoint(np.array([0.02, 0.9]), np.array([-0.57, 0.72]), 0.1)
            elsewhere = CanonicalPoint(np.array([-0.14, 0.52]), np.array([0.756, -0.795]), 0.0)
            t_end = 0.3
        first = integrate_lift(spec, start, t_end)
        # a short run elsewhere leaves another solve in the memo
        integrate_lift(spec, elsewhere, 0.05)
        again = integrate_lift(spec, start, t_end)
        assert first.times.tobytes() == again.times.tobytes()
        assert first.states.tobytes() == again.states.tobytes()
        assert first.diagnostics.keys() == again.diagnostics.keys()
        for key, values in first.diagnostics.items():
            assert values.tobytes() == again.diagnostics[key].tobytes(), key
