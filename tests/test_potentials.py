"""Convex potentials, numeric Legendre transform, divergences."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contactflows.errors import (
    NewtonConvergenceError,
    PythagoreanConfigError,
    StrictConvexityError,
)
from contactflows.geometry import CanonicalPoint
from contactflows.potentials import (
    DuallyFlatWorkspace,
    canonical_divergence,
    delta_phi,
    delta_psi,
    dual_metric,
    embed_phi,
    embed_psi,
    involution_check,
    legendre_transform,
    pythagorean_residual,
    quadratic_potential,
    spin_potential,
)

RNG = np.random.default_rng(11)


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


class TestWorkspaceCache:
    def test_cache_reuses_transforms(self):
        ws = DuallyFlatWorkspace(spin_potential(1))
        p = np.array([0.3])
        first = ws.transform(p)
        second = ws.transform(p)
        assert first is second
