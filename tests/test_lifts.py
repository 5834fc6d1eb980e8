"""Lifted vector fields, defect decay, stability certificates, densities."""

import numpy as np
import pytest

from contactflows.errors import OutsideInvariantChartError
from contactflows.geometry import (
    CanonicalPoint,
    hamiltonian_vector_field,
    invariant_density,
    phase_compressibility,
)
from contactflows.integrate import fit_decay_rate, integrate_lift
from contactflows.lifts import (
    LiftSpec,
    RestoringFunction,
    build_hamiltonian,
    delta_velocities,
    geodesic_drift_phi,
    geodesic_drift_psi,
    gradient_drift_phi,
    gradient_drift_psi,
    lifted_field,
    linear_drift,
    linear_restoring,
    onsager_drift,
    restricted_field_phi,
    restricted_field_psi,
    rotational_drift,
    stability_certificate,
)
from contactflows.potentials import (
    DuallyFlatWorkspace,
    canonical_divergence,
    embed_phi,
    embed_psi,
    quadratic_potential,
    spin_potential,
)

RNG = np.random.default_rng(23)


def make_spec(side="psi", n=1, gamma0=1.0, jac=-0.5):
    return LiftSpec(
        side=side,
        potential=spin_potential(n) if side == "psi" else quadratic_potential(np.eye(n)),
        drift=linear_drift(jac, n),
        restoring=linear_restoring(gamma0),
    )


class TestHamiltonianOnSubmanifold:
    @pytest.mark.parametrize("side", ["psi", "phi"])
    def test_h_vanishes_on_submanifold(self, side):
        # h = Delta.F + Gamma(Delta_0) and every Delta vanishes on the
        # embedded graph  [TRIVIAL]
        spec = make_spec(side=side, n=2)
        h = build_hamiltonian(spec)
        for _ in range(10):
            u = 0.8 * RNG.standard_normal(2)
            pt = (embed_psi(spec.potential, u) if side == "psi"
                  else embed_phi(spec.potential, u))
            assert abs(h(pt)) < 1e-10

    def test_h_positive_off_submanifold_matches_formula(self):
        # at (x, p, z): h = (psi'(x) - p) F(x) + gamma0 (psi(x) - z)  [DERIVED]
        spec = make_spec(side="psi", n=1, gamma0=2.0, jac=-0.3)
        h = build_hamiltonian(spec)
        pt = CanonicalPoint(np.array([0.5]), np.array([0.1]), 0.2)
        psi = spec.potential
        expect = (psi.gradient_at(pt.x)[0] - 0.1) * (-0.3 * 0.5) + 2.0 * (
            psi.value_at(pt.x) - 0.2)
        assert h(pt) == pytest.approx(expect, abs=1e-12)

    @pytest.mark.parametrize("side", ["psi", "phi"])
    def test_closed_form_partials_match_fd(self, side):
        from contactflows.geometry import ContactHamiltonian

        spec = make_spec(side=side, n=2, gamma0=1.3, jac=-0.4)
        h = build_hamiltonian(spec)
        fd = ContactHamiltonian(n=2, value=h.value)
        for _ in range(10):
            pt = CanonicalPoint(0.5 * RNG.standard_normal(2),
                                0.4 * RNG.standard_normal(2),
                                float(RNG.standard_normal()))
            va = hamiltonian_vector_field(h, pt).as_array()
            vb = hamiltonian_vector_field(fd, pt).as_array()
            assert np.allclose(va, vb, atol=1e-6)


class TestRestrictedFields:
    def test_psi_side_projection_reproduces_drift(self):
        # the lifted field restricted to the graph projects to dx/dt = F(x)
        spec = make_spec(side="psi", n=1, jac=-0.5)
        x = np.array([0.7])
        dx, dp, dz = restricted_field_psi(spec, x)
        assert dx[0] == pytest.approx(-0.35)
        # dz = grad psi . F on the submanifold [DERIVED]
        assert dz == pytest.approx(float(spec.potential.gradient_at(x) @ dx))
        # dp = Hess psi . F  [DERIVED]
        assert dp[0] == pytest.approx(
            float(spec.potential.hessian_at(x)[0, 0] * dx[0]))

    def test_phi_side_projection_reproduces_drift(self):
        spec = make_spec(side="phi", n=2, jac=-0.25)
        p = np.array([0.4, -0.6])
        dx, dp, dz = restricted_field_phi(spec, p)
        assert np.allclose(dp, -0.25 * p)
        assert dz == pytest.approx(float(p @ dx))

    def test_ambient_field_agrees_on_submanifold(self):
        spec = make_spec(side="psi", n=2, jac=-0.5)
        u = np.array([0.3, -0.4])
        pt = embed_psi(spec.potential, u)
        v = lifted_field(spec, pt)
        dx, dp, dz = restricted_field_psi(spec, u)
        assert np.allclose(v.dx, dx, atol=1e-12)
        assert np.allclose(v.dp, dp, atol=1e-10)
        assert v.dz == pytest.approx(dz, abs=1e-10)


class TestDeltaDecay:
    def test_delta_velocity_triangular_system(self):
        # dDelta_0/dt = -Gamma(Delta_0); dDelta_a/dt = -J^T Delta - Gamma' Delta_a
        spec = make_spec(side="psi", n=1, gamma0=1.0, jac=-0.5)
        pt = CanonicalPoint(np.array([0.2]), np.array([0.5]), 1.0)
        d0dot, ddot = delta_velocities(spec, pt)
        psi = spec.potential
        d0 = psi.value_at(pt.x) - 1.0
        d1 = psi.gradient_at(pt.x)[0] - 0.5
        assert d0dot == pytest.approx(-d0, abs=1e-10)
        assert ddot[0] == pytest.approx((0.5 - 1.0) * d1, abs=1e-10)

    def test_h_decays_at_gamma0(self):
        # h(t) = h(0) e^{-gamma0 t} for linear restoring  [integration]
        spec = make_spec(side="psi", n=1, gamma0=0.8, jac=-0.5)
        pt = CanonicalPoint(np.array([0.4]), np.array([0.9]), 1.3)
        traj = integrate_lift(spec, pt, 6.0)
        rate = fit_decay_rate(traj.times, traj.diagnostics["h"])
        assert rate == pytest.approx(-0.8, abs=1e-4)


class TestGeodesicAndGradientDrifts:
    def test_geodesic_drift_linear_p(self):
        # dual-geodesic drift makes p(t) exactly linear in t  [DERIVED]
        ws = DuallyFlatWorkspace(spin_potential(1))
        p_from, p_to = np.array([0.1]), np.array([0.7])
        drift = geodesic_drift_psi(ws, p_from, p_to)
        x0 = ws.x_star(p_from)
        # integrate dx/dt = F and check p(t) = grad psi(x(t)) stays linear
        from contactflows.integrate import integrate_on_submanifold

        for t in (0.25, 0.5, 1.0):
            x_t = integrate_on_submanifold(drift, x0, t)
            p_t = ws.psi.gradient_at(np.atleast_1d(x_t))
            expect = p_from + t * (p_to - p_from)
            assert np.allclose(p_t, expect, atol=1e-8)

    def test_gradient_drift_exponential_p(self):
        # gradient drift: p(t) - p' = (p(0) - p') e^{-t}  [DERIVED]
        ws = DuallyFlatWorkspace(spin_potential(1))
        target_p = np.array([0.5])
        drift = gradient_drift_psi(ws, ws.x_star(target_p))
        x0 = ws.x_star(np.array([-0.2]))
        from contactflows.integrate import integrate_on_submanifold

        x1 = integrate_on_submanifold(drift, x0, 1.0)
        p1 = ws.psi.gradient_at(np.atleast_1d(x1))
        expect = target_p + (np.array([-0.2]) - target_p) * np.exp(-1.0)
        assert np.allclose(p1, expect, atol=1e-8)

    def test_divergence_decreases_along_gradient_flow(self):
        ws = DuallyFlatWorkspace(quadratic_potential(np.eye(2)))
        target = np.array([0.3, -0.1])
        drift = gradient_drift_psi(ws, target)
        from contactflows.integrate import integrate_on_submanifold

        x = np.array([1.5, 1.0])
        prev = canonical_divergence(ws, x, target)
        for t in (0.2, 0.4, 0.8, 1.6):
            x_t = integrate_on_submanifold(drift, np.array([1.5, 1.0]), t)
            cur = canonical_divergence(ws, np.atleast_1d(x_t), target)
            assert cur <= prev + 1e-12
            prev = cur

    def test_phi_side_drifts_exist(self):
        ws = DuallyFlatWorkspace(quadratic_potential(np.eye(1)))
        assert geodesic_drift_phi(ws, np.array([0.0]), np.array([1.0])).n == 1
        assert gradient_drift_phi(ws, np.array([0.3])).n == 1

    @pytest.mark.parametrize("psi", [spin_potential(2),
                                     quadratic_potential([[2.0, 0.3], [0.3, 1.0]])],
                             ids=["spin", "quadratic"])
    def test_phi_side_drifts_match_closed_form(self, psi):
        # geodesic: Hess psi(x*(p)) . (x_to - x_from); gradient: -Hess psi(x*) . (x* - x*(p'))
        ws = DuallyFlatWorkspace(psi)
        x_from, x_to, target_p = np.array([0.1, -0.4]), np.array([0.7, 0.2]), np.array([0.3, -0.2])
        geodesic = geodesic_drift_phi(ws, x_from, x_to)
        gradient = gradient_drift_phi(ws, target_p)
        assert geodesic.workspace is ws and gradient.workspace is ws  # integrate_lift clears it
        for p in RNG.uniform(-0.8, 0.8, (20, 2)):
            H = psi.hessian_at(ws.x_star(p))
            expected = H @ (x_to - x_from)
            assert np.allclose(geodesic.at(p), expected, rtol=1e-12, atol=1e-14)
            expected = -H @ (ws.x_star(p) - ws.x_star(target_p))
            assert np.allclose(gradient.at(p), expected, rtol=1e-12, atol=1e-14)


class TestStabilityCertificates:
    def test_linear_class_approaches_submanifold(self):
        verdict = stability_certificate(make_spec(jac=0.5, gamma0=1.0))
        assert verdict.verdict == "asymptotically-approaches-submanifold"

    def test_linear_class_violated_is_inconclusive(self):
        # gamma0 + Lambda0 <= 0 breaks the hypothesis
        verdict = stability_certificate(make_spec(jac=-2.0, gamma0=1.0))
        assert verdict.verdict == "inconclusive"

    def test_rotational_class(self):
        spec = LiftSpec(side="psi", potential=quadratic_potential(np.eye(2)),
                        drift=rotational_drift(5.0), restoring=linear_restoring(1.0))
        verdict = stability_certificate(spec)
        assert verdict.verdict == "asymptotically-approaches-submanifold"

    def test_onsager_class_fixed_point(self):
        # gamma0 L - L Hess(U) L positive definite on samples -> fixed point
        L = np.diag([1.0, 2.0])
        psi = quadratic_potential(np.linalg.inv(L))
        spec = LiftSpec(
            side="psi", potential=psi,
            drift=onsager_drift(L, psi.gradient_at, psi.hessian_at),
            restoring=linear_restoring(10.0))
        assert stability_certificate(spec).verdict == "approaches-fixed-point"

    def test_onsager_class_small_gamma_inconclusive(self):
        L = np.diag([1.0, 2.0])
        psi = quadratic_potential(np.linalg.inv(L))
        spec = LiftSpec(
            side="psi", potential=psi,
            drift=onsager_drift(L, psi.gradient_at, psi.hessian_at),
            restoring=linear_restoring(1e-3))
        assert stability_certificate(spec).verdict == "inconclusive"


def test_restoring_function_warns_on_a_nonzero_root():
    # Gamma(d) = d + d^2/2 vanishes at d = -2 as well as at 0
    with pytest.warns(UserWarning, match="vanishes at nonzero defect -2.0"):
        RestoringFunction(eval=lambda d: d + d * d / 2, derivative=lambda d: 1.0 + d)


class TestInvariantDensity:
    def test_density_positive_in_chart(self):
        spec = make_spec()
        pt = CanonicalPoint(np.array([0.0]), np.array([0.0]), -1.0)  # Delta_0 > 0
        h = build_hamiltonian(spec)
        assert h(pt) > 0
        assert invariant_density(h, pt) == pytest.approx(h(pt) ** -2)

    def test_normalization_must_be_positive_and_finite(self):
        h = build_hamiltonian(make_spec())
        pt = CanonicalPoint(np.array([0.0]), np.array([0.0]), -1.0)
        assert invariant_density(h, pt, Z=2.0) == pytest.approx(h(pt) ** -2 / 2.0)
        for Z in (0.0, -1.0, np.nan, np.inf):
            with pytest.raises(ValueError):
                invariant_density(h, pt, Z=Z)

    def test_outside_chart_raises(self):
        spec = make_spec()
        pt = CanonicalPoint(np.array([0.0]), np.array([0.0]), 2.0)  # Delta_0 < 0
        with pytest.raises(OutsideInvariantChartError):
            invariant_density(build_hamiltonian(spec), pt)

    def test_transport_identity(self):
        # d/dt f + kappa f = 0 along the flow for f = h^{-(n+1)}  [DERIVED:
        # chain rule with X_h h = -gamma0 h and kappa = -(n+1) gamma0]
        spec = make_spec(gamma0=0.9)
        pt = CanonicalPoint(np.array([0.1]), np.array([0.2]), -0.5)
        traj = integrate_lift(spec, pt, 1.0)
        f = traj.diagnostics["h"] ** -2.0
        kappa = traj.diagnostics["kappa"]
        assert np.allclose(kappa, kappa[0])
        # integrated form: f(t) = f(0) e^{-kappa t} since kappa is constant
        expect = f[0] * np.exp(-kappa[0] * traj.times)
        assert np.max(np.abs(f - expect) / np.abs(expect)) < 1e-6


class TestCompressibilityOfLifts:
    @pytest.mark.parametrize("n", [1, 2])
    def test_divergence_matches_minus_n_plus_one_gamma(self, n):
        spec = make_spec(n=n, gamma0=1.7)
        h = build_hamiltonian(spec)
        pt = CanonicalPoint(0.3 * RNG.standard_normal(n),
                            0.3 * RNG.standard_normal(n),
                            float(RNG.standard_normal()))
        kappa = phase_compressibility(h, pt)
        assert kappa == pytest.approx(-(n + 1) * 1.7, abs=1e-6)
