"""Convex potentials, numeric Legendre transform, divergences."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contactflows import potentials as potentials_module
from contactflows.errors import (
    EvaluationError,
    NewtonConvergenceError,
    PythagoreanConfigError,
    StrictConvexityError,
)
from contactflows.extended import ExtendedLiftSpec, tilde_hamiltonian
from contactflows.geometry import CanonicalPoint
from contactflows.integrate import integrate_lift
from contactflows.lifts import (
    LiftSpec,
    build_hamiltonian,
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
    delta_phi,
    delta_psi,
    dual_metric,
    embed_phi,
    embed_psi,
    involution_check,
    legendre_transform,
    pythagorean_residual,
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

    def test_failure_names_its_cause_and_the_iterations_run(self):
        # past the dual chart x grows until sech^2 x underflows to a zero
        # Hessian, a few iterations in, long before the iteration budget
        with pytest.raises(NewtonConvergenceError, match="Hessian not positive definite") as excinfo:
            legendre_transform(spin_potential(1), np.array([1.5]))
        assert 0 < excinfo.value.iterations < NEWTON_MAX_ITER
        assert f"after {excinfo.value.iterations} iterations" in str(excinfo.value)
        with pytest.raises(NewtonConvergenceError, match="iteration budget exhausted after 2 "):
            legendre_transform(spin_potential(1), np.array([0.5]), max_iter=2)

    def test_converged_start_is_not_returned(self):
        # a start that already solves grad psi(x) = p ends the solve at once;
        # x* is still an array of the solve's own, so the caller's stays theirs
        start = np.array([0.2])
        res = legendre_transform(quadratic_potential([[1.0]]), np.array([0.2]), x0=start)
        assert res.iterations == 0 and res.x_star is not start
        start[0] = 99.0
        assert res.x_star[0] == 0.2

    @pytest.mark.parametrize("p", [[1.5], [0.3, -1.2]])
    def test_overflow_past_dual_chart_is_a_typed_error_not_a_warning(self, p):
        # Newton drives x past cosh's overflow; that ends the solve, silently
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NewtonConvergenceError):
                legendre_transform(spin_potential(len(p)), np.array(p))

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


class TestEmbeddingsAndDeltas:
    def test_embed_psi_zeroes_deltas(self):
        psi = spin_potential(2)
        pt = embed_psi(psi, np.array([0.2, -0.7]))
        d0, d = delta_psi(psi, pt)
        assert abs(d0) < 1e-14 and np.max(np.abs(d)) < 1e-14

    def test_embed_phi_zeroes_dual_deltas(self):
        psi = quadratic_potential(np.diag([2.0, 0.5]))
        pt = embed_phi(psi, np.array([1.0, -0.3]))
        d0, d = delta_phi(psi, pt)
        assert abs(d0) < 1e-10 and np.max(np.abs(d)) < 1e-10

    def test_both_embeddings_agree_on_matched_charts(self):
        # embedding x and embedding p = grad psi(x) give the same point
        psi = spin_potential(1)
        x = np.array([0.9])
        a = embed_psi(psi, x)
        b = embed_phi(psi, psi.gradient_at(x))
        assert np.allclose(a.x, b.x, atol=1e-10)
        assert a.z == pytest.approx(b.z, abs=1e-10)


class TestDivergence:
    def test_diagonal_is_zero(self):
        ws = DuallyFlatWorkspace(spin_potential(1))
        assert canonical_divergence(ws, np.array([0.4]), np.array([0.4])) == (
            pytest.approx(0.0, abs=1e-12))

    def test_quadratic_is_half_squared_distance(self):
        # identity M gives D = ||x - x'||^2 / 2 both ways  [DERIVED]
        ws = DuallyFlatWorkspace(quadratic_potential(np.eye(2)))
        x, xp = np.array([1.0, 2.0]), np.array([0.0, -1.0])
        expect = 0.5 * float((x - xp) @ (x - xp))
        assert canonical_divergence(ws, x, xp) == pytest.approx(expect, abs=1e-10)
        assert canonical_divergence(ws, xp, x) == pytest.approx(expect, abs=1e-10)

    def test_spin_divergence_asymmetric_and_positive(self):
        ws = DuallyFlatWorkspace(spin_potential(1))
        a = canonical_divergence(ws, np.array([0.1]), np.array([1.4]))
        b = canonical_divergence(ws, np.array([1.4]), np.array([0.1]))
        assert a > 0 and b > 0
        assert abs(a - b) > 1e-4

    @pytest.mark.parametrize("x, xp", [([np.inf], [0.0]), ([0.0], [np.nan])])
    def test_nonfinite_point_is_a_typed_error_not_a_warning(self, x, xp):
        ws = DuallyFlatWorkspace(spin_potential(1))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(EvaluationError):
                canonical_divergence(ws, np.array(x), np.array(xp))

    @settings(max_examples=40, deadline=None)
    @given(st.floats(-2, 2), st.floats(-2, 2))
    def test_nonnegativity(self, x, xp):
        ws = DuallyFlatWorkspace(spin_potential(1))
        assert canonical_divergence(ws, np.array([x]), np.array([xp])) >= -1e-12


class TestPythagorean:
    def test_orthogonal_config_residual_vanishes(self):
        # quadratic psi: p = x, so (x3-x2) perpendicular to (x2-x1) is the
        # orthogonality condition, and the residual (x2-x3).(p2-p1) = 0
        ws = DuallyFlatWorkspace(quadratic_potential(np.eye(2)))
        r = pythagorean_residual(ws, np.array([0.0, 0.0]), np.array([1.0, 0.0]),
                                 np.array([1.0, 1.0]))
        assert abs(r) < 1e-8

    def test_non_orthogonal_config_rejected(self):
        ws = DuallyFlatWorkspace(quadratic_potential(np.eye(2)))
        with pytest.raises(PythagoreanConfigError):
            pythagorean_residual(ws, np.array([0.0, 0.0]), np.array([1.0, 0.0]),
                                 np.array([2.0, 0.5]))

    def test_spin_product_workspace(self):
        # spin psi in n=2 (product of independent sites); pick x3 so the
        # dual displacement p2 - p1 is orthogonal to x3 - x2
        ws = DuallyFlatWorkspace(spin_potential(2))
        x1 = np.array([0.0, 0.2])
        x2 = np.array([0.8, 0.2])
        x3 = np.array([0.8, 1.1])  # differs only in the second slot;
        # p2 - p1 = (tanh .8 - tanh 0, 0) is orthogonal to (0, 0.9)
        r = pythagorean_residual(ws, x1, x2, x3)
        assert abs(r) < 1e-8


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

    def test_quadratic_factored_once(self, monkeypatch):
        calls = self.count_factorisations(monkeypatch)
        psi = quadratic_potential(NON_DIAGONAL_M)
        for x in RNG.standard_normal((50, 2)):
            psi.hessian_at(x)
        legendre_transform(psi, np.array([0.7, -1.2]))
        assert len(calls) == 2  # at construction and on first use

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
        cases.append((name, (spec.base if isinstance(spec, ExtendedLiftSpec) else spec).potential))
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
            h = tilde_hamiltonian(ExtendedLiftSpec(spec, anchor=1.3))
            y = np.concatenate([start.x, [0.2], start.p, [1.1], [start.z]])
        for k in range(5):
            diag = {} if k % 2 else None
            h.field(y + 0.01 * k, diag)
            assert len(lookups) == k + 1

    def test_phi_rlc_run_inverts_its_constant_hessian_once(self, monkeypatch):
        inversions = []
        inv = np.linalg.inv
        monkeypatch.setattr(np.linalg, "inv", lambda a: inversions.append(a) or inv(a))
        spec, start = off_graph_rlc()
        traj = integrate_lift(spec, start, 5.0)
        assert len(traj.times) > 20 and len(inversions) == 1

    def test_phi_spin_run_inverts_once_per_new_p(self, monkeypatch):
        inversions, solves = [], []
        inv = np.linalg.inv
        monkeypatch.setattr(np.linalg, "inv", lambda a: inversions.append(a) or inv(a))

        def counting(psi, p, x0=None):
            solves.append(p)
            return legendre_transform(psi, p, x0=x0)

        monkeypatch.setattr(potentials_module, "legendre_transform", counting)
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


def off_graph_rlc():
    """phi-side rlc (R = C = L = gamma0 = 1) and a start off its submanifold."""
    spec = rlc_spec(CircuitParams(R=1.0, C=1.0, L=1.0, gamma0=1.0))
    return spec, CanonicalPoint(np.array([0.3, -0.2]), np.array([1.0, 0.5]), 0.1)


class TestWorkspaceCache:
    def test_cache_reuses_transforms(self):
        ws = DuallyFlatWorkspace(spin_potential(1))
        p = np.array([0.3])
        first = ws.transform(p)
        second = ws.transform(p)
        assert first is second

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from([1, 2]), st.data(), st.booleans())
    def test_warm_spin_solve_matches_cold(self, n, data, with_hessian):
        # p = tanh u up to |p| = 1 - 6e-7; x* = artanh p is conditioned by cosh^2 u
        u_prev, u = (np.array(data.draw(st.lists(st.floats(-7.5, 7.5), min_size=n, max_size=n)))
                     for _ in range(2))
        psi = spin_potential(n)
        ws = DuallyFlatWorkspace(psi)
        ws.transform(np.tanh(u_prev))
        if with_hessian:
            ws.inverse_hessian(np.tanh(u_prev))
        p = np.tanh(u)
        warm, cold = ws.transform(p), legendre_transform(psi, p)
        assert np.all(np.abs(warm.x_star - cold.x_star) <= 1e-13 * np.cosh(u) ** 2)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.floats(-10, 10), min_size=4, max_size=4), st.booleans())
    def test_warm_quadratic_solve_matches_cold(self, coords, with_hessian):
        psi = quadratic_potential(NON_DIAGONAL_M)
        p_prev, p = np.array(coords[:2]), np.array(coords[2:])
        ws = DuallyFlatWorkspace(psi)
        ws.transform(p_prev)
        if with_hessian:
            ws.inverse_hessian(p_prev)
        warm, cold = ws.transform(p), legendre_transform(psi, p)
        # relative above |x*| = 1; below, Newton's absolute tolerance sets the scale
        scale = max(1.0, np.max(np.abs(cold.x_star)))
        assert np.max(np.abs(warm.x_star - cold.x_star)) <= 1e-13 * scale

    def test_shared_inverse_hessian_is_read_only(self):
        ws = DuallyFlatWorkspace(quadratic_potential(NON_DIAGONAL_M))
        p = np.array([0.4, -0.9])
        H = conjugate(ws).hessian_at(p)
        with pytest.raises(ValueError):
            H[0, 0] = 99.0
        assert np.array_equal(ws.inverse_hessian(p), np.linalg.inv(NON_DIAGONAL_M))

    def test_shared_x_star_is_read_only(self):
        # the memo hands the same x* to every caller at p and to the next warm start
        ws = DuallyFlatWorkspace(spin_potential(1))
        with pytest.raises(ValueError):
            ws.x_star(np.array([0.5]))[0] = 99.0
        assert ws.x_star(np.array([0.5]))[0] == pytest.approx(np.arctanh(0.5), abs=1e-15)
        assert ws.phi_value(np.array([0.5])) == pytest.approx(
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
        ws.inverse_hessian(np.array([0.999999]))
        p = np.array([-0.999999])
        x = ws.x_star(p)
        assert np.array_equal(x, legendre_transform(spin_potential(1), p).x_star)
        assert starts[0] is None and starts[1][0] < -1e5 and starts[2] is None

    def test_long_phi_run_keeps_one_solve(self):
        spec, start = off_graph_rlc()
        traj = integrate_lift(spec, start, 50.0)
        assert len(traj.times) > 200
        held = [v for v in vars(spec.workspace).values() if v is not spec.potential]
        assert not any(isinstance(v, (dict, list, set, tuple)) for v in held)
        assert sum(isinstance(v, LegendreTransformResult) for v in held) == 1
        # the diagnostics of the last state solved last
        assert np.array_equal(spec.workspace._p, traj.states[-1, 2:4])

    @pytest.mark.parametrize("model", ["rlc", "spin2", "spin2_geodesic",
                                       "spin2_geodesic_own_workspace"])
    def test_phi_run_independent_of_memo_history(self, model):
        start = CanonicalPoint(np.array([0.1, 0.2]), np.array([0.3, -0.7]), 0.1)
        elsewhere = CanonicalPoint(np.array([-1.0, 2.0]), np.array([-0.83, 0.71]), 0.0)
        if model == "rlc":
            spec, start = off_graph_rlc()
        elif model == "spin2":
            spec = LiftSpec(side="phi", potential=spin_potential(2),
                            drift=linear_drift(-1.0, 2), restoring=linear_restoring(1.0))
        else:
            # a drift that reads the conjugate through the lift's own workspace,
            # or through one of its own that integrate_lift clears as well
            ws = DuallyFlatWorkspace(spin_potential(2))
            drift_ws = ws if model == "spin2_geodesic" else DuallyFlatWorkspace(ws.psi)
            drift = geodesic_drift_phi(drift_ws, np.array([0.1, -0.1]), np.array([0.3, 0.2]))
            assert drift.workspace is drift_ws
            spec = LiftSpec(side="phi", potential=ws.psi, drift=drift,
                            restoring=linear_restoring(1.0), workspace=ws)
            start = CanonicalPoint(np.array([0.66, 0.32]), np.array([0.35, 0.61]), 0.1)
            elsewhere = CanonicalPoint(np.array([-0.14, 0.52]), np.array([0.756, -0.795]), 0.0)
            if drift_ws is not ws:  # a start whose runs differed while nothing cleared drift_ws
                start = CanonicalPoint(np.array([0.02, 0.9]), np.array([-0.57, 0.72]), 0.1)
        first = integrate_lift(spec, start, 5.0)
        # a short run elsewhere leaves another solve in the memo
        integrate_lift(spec, elsewhere, 0.05)
        again = integrate_lift(spec, start, 5.0)
        assert first.times.tobytes() == again.times.tobytes()
        assert first.states.tobytes() == again.states.tobytes()
        assert first.diagnostics.keys() == again.diagnostics.keys()
        for key, values in first.diagnostics.items():
            assert values.tobytes() == again.diagnostics[key].tobytes(), key
