"""Prebuilt models: circuits (plain + thermal), spin, Onsager flows."""

from dataclasses import replace

import numpy as np
import pytest

from contactflows.integrate import (
    integrate_lift,
    integrate_on_submanifold,
)
from contactflows.geometry import CanonicalPoint, hamiltonian_vector_field
from contactflows.lifts import (
    DriftField,
    LiftSpec,
    build_hamiltonian,
    embed,
    gradient_drift_psi,
    linear_restoring,
    onsager_drift,
    restricted_field,
    stability_certificate,
)
from contactflows.models import (
    CircuitParams,
    OnsagerParams,
    SpinParams,
    onsager_spec,
    rc_spec,
    rc_thermal_spec,
    rl_spec,
    rl_thermal_spec,
    rlc_spec,
    rlc_thermal_spec,
    spin_spec,
)
from contactflows.potentials import ConvexPotential, embed_psi, legendre_transform, spin_potential

from fitting import fit_decay_rate

RNG = np.random.default_rng(41)


class TestParams:
    @pytest.mark.parametrize("bad", [
        dict(R=-1.0, C=1.0), dict(R=0.0, C=1.0), dict(R=1.0, C=-2.0),
        dict(R=1.0, L=0.0), dict(R=1.0, C=1.0, T0=-0.5),
    ])
    def test_nonpositive_circuit_params_rejected(self, bad):
        with pytest.raises(ValueError):
            CircuitParams(**bad)

    def test_missing_capacitance_rejected(self):
        with pytest.raises(ValueError):
            rc_spec(CircuitParams(R=1.0))

    def test_thermal_requires_positive_t0(self):
        with pytest.raises(ValueError):
            rc_thermal_spec(CircuitParams(R=1.0, C=1.0))

    def test_non_spd_onsager_rejected(self):
        with pytest.raises(ValueError):
            OnsagerParams(L_matrix=np.diag([1.0, -1.0]))

    def test_non_symmetric_onsager_rejected(self):
        with pytest.raises(ValueError, match="L must be symmetric"):
            OnsagerParams(L_matrix=np.array([[2.0, 0.3], [0.0, 1.0]]))

    @pytest.mark.parametrize("L, message", [
        ([[np.nan, 0.0], [0.0, 1.0]], "L must have finite entries"),
        ([[2.0, 5.0], [0.0, 2.0]], "L must be symmetric"),
        ([[1.0, 2.0], [2.0, 1.0]], "L must be positive definite")],
        ids=["nan", "non-symmetric", "indefinite"])
    def test_onsager_drift_checks_l_as_the_params_do(self, L, message):
        # the drift's gate read only the lower triangle, through a Cholesky factorisation
        with pytest.raises(ValueError, match=message):
            onsager_drift(np.array(L), lambda x: x)
        with pytest.raises(ValueError, match=message):
            OnsagerParams(L_matrix=np.array(L))

    def test_m_matrix_is_inverse(self):
        params = OnsagerParams(L_matrix=np.array([[2.0, 0.5], [0.5, 1.0]]))
        assert np.allclose(params.M_matrix @ params.L_matrix, np.eye(2), atol=1e-12)


class TestRC:
    def test_closed_form_discharge(self):
        # dQ/dt = -Q/(RC): Q(1) = e^{-1} for R = C = Q(0) = 1  [DERIVED]
        spec = rc_spec(CircuitParams(R=1.0, C=1.0))
        pt = embed(spec, np.array([1.0]))
        traj = integrate_lift(spec, pt, 1.0)
        assert abs(traj.final_state[0] - np.exp(-1.0)) < 1e-8

    def test_submanifold_component_odes(self):
        # at Q = 1, R = C = 1: (dQ, dV, dz) = (-1, -1, -1)  [oracle: the
        # component expressions of the submanifold field]
        spec = rc_spec(CircuitParams(R=1.0, C=1.0))
        v = restricted_field(spec, np.array([1.0]))
        assert v.dx[0] == pytest.approx(-1.0)
        assert v.dp[0] == pytest.approx(-1.0)
        assert v.dz == pytest.approx(-1.0)

    def test_nonlinear_capacitor_potential(self):
        # quartic-regularized capacitor: drift -psi'(Q)/R still relaxes and
        # h stays zero on the graph
        psi = ConvexPotential(
            n=1,
            value=lambda x: 0.5 * x[0] ** 2 + 0.25 * x[0] ** 4,
            gradient=lambda x: np.array([x[0] + x[0] ** 3]),
            hessian=lambda x: np.array([[1.0 + 3.0 * x[0] ** 2]]),
        )
        R = 2.0
        drift = DriftField(n=1, eval=lambda q: -psi.gradient_at(q) / R,
                           jacobian=lambda q: -psi.hessian_at(q) / R)
        spec = LiftSpec(side="psi", potential=psi, drift=drift, restoring=linear_restoring(1.0))
        pt = embed_psi(psi, np.array([0.8]))
        traj = integrate_lift(spec, pt, 1.0)
        assert np.max(np.abs(traj.diagnostics["h"])) < 1e-9
        assert abs(traj.final_state[0]) < 0.8

    def test_thermal_entropy_and_total_energy(self):
        # dS/dt = Q^2/(T0 R C^2) = 1 at Q = 1 with unit constants; H_tot
        # constant  [oracle: thermal component expressions]
        spec = rc_thermal_spec(CircuitParams(R=1.0, C=1.0, T0=1.0))
        v = restricted_field(spec, np.array([1.0]))
        assert v.dx[-1] == pytest.approx(1.0)
        traj = integrate_lift(spec, embed(spec, np.array([1.0]), 0.0), 2.0)
        H = traj.diagnostics["psi_tilde"]
        assert np.max(np.abs(H - H[0])) < 1e-9
        # closed-form entropy: S(t) = (1 - e^{-2t})/2  [DERIVED: integral
        # of e^{-2t}]
        S = traj.diagnostics["S"]
        assert S[-1] == pytest.approx(0.5 * (1 - np.exp(-4.0)), abs=1e-8)


class TestRL:
    def test_closed_form_current_decay(self):
        # dI/dt = -(R/L) I: I(1) = 2/e from I(0) = 2  [DERIVED]
        spec = rl_spec(CircuitParams(R=1.0, L=1.0))
        pt = embed(spec, np.array([2.0]))
        traj = integrate_lift(spec, pt, 1.0)
        # phi-side state ordering is (x, p, z) = (N, I, z)
        assert abs(traj.final_state[1] - 2.0 / np.e) < 1e-8

    def test_dissipation_rate(self):
        # dz/dt = -R I^2 = -4 at I = 2  [oracle]
        spec = rl_spec(CircuitParams(R=1.0, L=1.0))
        assert restricted_field(spec, np.array([2.0])).dz == pytest.approx(-4.0)

    def test_thermal_entropy_rate(self):
        # dS/dt = R I^2 / T0 = 4 at I = 2, unit constants  [oracle]
        spec = rl_thermal_spec(CircuitParams(R=1.0, L=1.0, T0=1.0))
        # thermal RL is psi-side in the flux N = L I
        v = restricted_field(spec, np.array([2.0]))
        assert v.dx[-1] == pytest.approx(4.0)

    def test_rc_rl_duality(self):
        # RC in (Q, V) and RL in (N, I) coincide under C <-> L relabeling;
        # the decay rates 1/(RC) and R/L agree when R = 1
        rc = rc_spec(CircuitParams(R=1.0, C=0.7))
        rl = replace(rl_thermal_spec(CircuitParams(R=1.0, L=0.7, T0=1.0)), anchor=None)
        x0 = np.array([0.9])
        t_rc = integrate_lift(rc, embed_psi(rc.potential, x0), 1.0)
        t_rl = integrate_lift(rl, embed_psi(rl.potential, x0), 1.0)
        assert abs(t_rc.final_state[0] - t_rl.final_state[0]) < 1e-9
        assert abs(t_rc.final_state[1] - t_rl.final_state[1]) < 1e-9


class TestRLC:
    def test_lossless_limit_conserves_energy(self):
        # R -> 0: undamped LC oscillator, H* constant over one period
        # (dz/dt = -R I^2 = 0)  [TRIVIAL]
        spec = rlc_spec(CircuitParams(R=1e-14, L=1.0, C=1.0))
        p0 = np.array([1.0, 0.0])  # (V, I)
        period = 2 * np.pi
        pt = embed(spec, p0)

        def h_star(p):
            return 0.5 * (p[0] ** 2 + p[1] ** 2)

        traj = integrate_lift(spec, pt, period)
        energies = [h_star(s[2:4]) for s in traj.states]
        assert np.max(np.abs(np.array(energies) - energies[0])) < 1e-9

    def test_damped_oscillation_envelope(self):
        # R = L = C = 1: eigenvalues (-1 +- i sqrt 3)/2, decay envelope
        # e^{-t/2}  [DERIVED: eigen-decomposition of [[0,1],[-1,-1]]]
        spec = rlc_spec(CircuitParams(R=1.0, L=1.0, C=1.0))
        p0 = np.array([1.0, 0.0])
        A = np.array([[0.0, 1.0], [-1.0, -1.0]])
        for t in (1.0, 2.0, 5.0):
            from scipy.linalg import expm

            expect = expm(A * t) @ p0
            p_t = integrate_on_submanifold(spec.drift, p0, t)
            assert np.allclose(p_t, expect, atol=1e-6)

    def test_thermal_entropy_rate_pointwise(self):
        # dS/dt = R I^2 / T0 with I = N/L  [oracle]
        spec = rlc_thermal_spec(CircuitParams(R=0.8, L=2.0, C=1.0, T0=1.5))
        u = np.array([0.5, 1.2])  # (Q, N)
        v = restricted_field(spec, u)
        current = 1.2 / 2.0
        assert v.dx[-1] == pytest.approx(0.8 * current ** 2 / 1.5, abs=1e-12)

    def test_thermal_total_energy_conserved(self):
        spec = rlc_thermal_spec(CircuitParams(R=1.0, L=1.0, C=1.0, T0=1.0))
        traj = integrate_lift(spec, embed(spec, np.array([1.0, 0.0]), 0.0), 3.0)
        H = traj.diagnostics["psi_tilde"]
        S = traj.diagnostics["S"]
        assert np.max(np.abs(H - H[0])) / 3.0 < 1e-9
        assert np.all(np.diff(S) >= -1e-13)


class TestSpin:
    def test_equilibrium_endpoint(self):
        # x(inf) = theta, p(inf) = tanh theta, z(inf) = ln cosh theta + ln 2
        # slowest mode decays at gamma0 - lambda0 = 0.5, so t = 40 puts the
        # transient at e^{-20} ~ 2e-9, well inside the tolerance
        spec = spin_spec(SpinParams(theta=1.0, gamma0=1.0, lambda0=0.5))
        pt = CanonicalPoint(np.array([0.0]), np.array([0.2]), 0.5)
        traj = integrate_lift(spec, pt, 40.0)
        x, p, z = traj.final_state
        assert abs(x - 1.0) < 1e-6
        assert abs(p - np.tanh(1.0)) < 1e-6
        assert abs(z - (np.log(np.cosh(1.0)) + np.log(2.0))) < 1e-6

    def test_uncontrolled_reduction(self):
        # lambda0 = 0: dx/dt = 0 and dp/dt = gamma0 (tanh x - p)  [oracle]
        spec = spin_spec(SpinParams(theta=1.0, gamma0=2.0, lambda0=0.0))
        pt = CanonicalPoint(np.array([0.4]), np.array([0.1]), np.log(2.0) +
                            np.log(np.cosh(0.4)))
        v = hamiltonian_vector_field(build_hamiltonian(spec), pt)
        assert v.dx[0] == pytest.approx(0.0, abs=1e-14)
        assert v.dp[0] == pytest.approx(2.0 * (np.tanh(0.4) - 0.1), abs=1e-10)

    def test_delta_decay_rates(self):
        # Delta_0 decays at gamma0; Delta_1 at gamma0 - lambda0 (the drift
        # Jacobian is -lambda0, so the defect equation reads
        # dDelta_1/dt = (lambda0 - gamma0) Delta_1)  [cross-checked by
        # integration]
        spec = spin_spec(SpinParams(theta=1.0, gamma0=1.0, lambda0=0.5))
        pt = CanonicalPoint(np.array([0.3]), np.array([0.9]), 1.2)
        traj = integrate_lift(spec, pt, 8.0)
        r0 = fit_decay_rate(traj.times, traj.diagnostics["delta0"])
        r1 = fit_decay_rate(traj.times, traj.diagnostics["delta_norm"])
        assert r0 == pytest.approx(-1.0, abs=1e-4)
        assert r1 == pytest.approx(-0.5, abs=1e-4)

    def test_magnetization_stays_in_range_on_submanifold(self):
        spec = spin_spec(SpinParams(theta=2.0, gamma0=1.0, lambda0=0.5))
        pt = embed_psi(spec.potential, np.array([-3.0]))
        traj = integrate_lift(spec, pt, 10.0)
        p_vals = traj.states[:, 1]
        assert np.all(np.abs(p_vals) < 1.0)


class TestOnsager:
    def test_dually_flat_exponential_dual_flow(self):
        # U = psi quadratic with M = L^{-1}: p(t) = p(0) e^{-t}  [oracle]
        spec = onsager_spec(OnsagerParams(L_matrix=np.diag([2.0, 0.5])))
        p0 = np.array([1.0, 1.0])
        x0 = legendre_transform(spec.potential, p0).x_star
        x1 = integrate_on_submanifold(spec.drift, x0, 1.0)
        p1 = spec.potential.gradient_at(np.atleast_1d(x1))
        assert np.allclose(p1, p0 / np.e, atol=1e-8)

    def test_gradient_drift_equivalence(self):
        # L = I with quadratic U: the Onsager drift is the gradient drift
        # toward the minimizer (both produce dp/dt = -p)  [DERIVED]
        spec = onsager_spec(OnsagerParams(L_matrix=np.eye(2)))
        grad = gradient_drift_psi(spec.potential, np.zeros(2))
        for _ in range(10):
            x = RNG.standard_normal(2)
            assert np.allclose(spec.drift.at(x), grad.at(x), atol=1e-10)

    def test_fixed_point_certificate_and_convergence(self):
        # shifted quadratic U with minimum at x_bar: class (c) certificate
        # for large gamma0 and the flow lands on x_bar
        x_bar = np.array([0.7, -0.2])
        M = np.array([[1.5, 0.2], [0.2, 1.0]])
        U = ConvexPotential(
            n=2,
            value=lambda x: 0.5 * float((x - x_bar) @ M @ (x - x_bar)),
            gradient=lambda x: M @ (x - x_bar),
            hessian=lambda x: M,
        )
        spec = onsager_spec(OnsagerParams(L_matrix=np.eye(2), U=U, gamma0=10.0))
        assert stability_certificate(spec).verdict == "approaches-fixed-point"
        x_end = integrate_on_submanifold(spec.drift, np.array([2.0, 2.0]), 25.0)
        assert np.allclose(x_end, x_bar, atol=1e-6)

    def test_quadratic_case_declares_its_jacobian(self, monkeypatch):
        # the default U = psi quadratic gives the constant Jacobian -L M, which
        # a field evaluation reads and never asks jacobian_at for: the one call
        # is the shape check at the start
        params = OnsagerParams(L_matrix=np.array([[2.0, 0.5], [0.5, 1.0]]))
        spec = onsager_spec(params)
        J = spec.drift.jacobian
        assert isinstance(J, np.ndarray) and not J.flags.writeable
        assert np.array_equal(J, -params.L_matrix.dot(spec.potential.hessian_at(np.zeros(2))))
        assert np.allclose(J, -np.eye(2), rtol=0, atol=1e-15)
        custom = onsager_spec(replace(params, U=spin_potential(2)))
        assert callable(custom.drift.jacobian)

        calls = []
        jacobian_at = DriftField.jacobian_at
        monkeypatch.setattr(DriftField, "jacobian_at",
                            lambda drift, u: calls.append(u) or jacobian_at(drift, u))
        traj = integrate_lift(spec, embed(spec, np.array([1.0, -0.5])), 3.0)
        assert len(traj.times) > 10 and not traj.truncated
        assert len(calls) == 1 and np.array_equal(calls[0], [1.0, -0.5])

    def test_custom_potential_jacobian_factors_no_hessian(self, monkeypatch):
        # the drift's Jacobian -L Hess U needs no positive-definiteness check,
        # so a stage reads the unchecked Hessian and factors nothing
        params = OnsagerParams(L_matrix=np.array([[2.0, 0.3], [0.3, 1.0]]),
                               U=spin_potential(2), gamma0=10.0)
        drift = onsager_spec(params).drift
        calls = []
        cholesky = np.linalg.cholesky
        monkeypatch.setattr(np.linalg, "cholesky", lambda a: calls.append(a) or cholesky(a))
        x = np.array([0.4, -1.1])
        J = drift.jacobian_at(x)
        assert calls == []
        assert np.array_equal(J, -params.L_matrix.dot(np.diag(1.0 / np.cosh(x) ** 2)))
