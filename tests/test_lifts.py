"""Lifted vector fields, defect decay, stability certificates, densities."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from contactflows.errors import DimensionMismatchError, OutsideInvariantChartError
from contactflows.geometry import (
    CanonicalPoint,
    central_jacobian,
    hamiltonian_vector_field,
    invariant_density,
    phase_compressibility,
)
from contactflows.integrate import IntegratorConfig, integrate_lift, integrate_on_submanifold
from contactflows.lifts import (
    APPROACHES_FIXED_POINT,
    APPROACHES_SUBMANIFOLD,
    DriftField,
    LiftSpec,
    RestoringFunction,
    affine_drift,
    build_hamiltonian,
    defect_rate_matrix,
    defects,
    delta_velocities,
    dual_spec,
    embed,
    extension_spec,
    geodesic_drift_phi,
    geodesic_drift_psi,
    gradient_drift_phi,
    gradient_drift_psi,
    linear_drift,
    linear_restoring,
    onsager_drift,
    restricted_field,
    rotational_drift,
    stability_certificate,
)
from contactflows.models import (
    MODEL_BUILDERS,
    CircuitParams,
    OnsagerParams,
    SpinParams,
    onsager_spec,
    rc_spec,
    rc_thermal_spec,
    rlc_spec,
    rlc_thermal_spec,
)
from contactflows.potentials import (
    canonical_divergence,
    legendre_transform,
    quadratic_potential,
    separable_potential,
    spin_potential,
)
from fitting import fit_decay_rate
from test_field import CASES
from test_scenario_cli import gamma_prime_term, plant, plant_gamma_prime
from test_swap import phi_cases

RNG = np.random.default_rng(23)


def make_spec(side="psi", n=1, gamma0=1.0, jac=-0.5):
    return LiftSpec(
        side=side,
        potential=spin_potential(n) if side == "psi" else quadratic_potential(np.eye(n)),
        drift=linear_drift(jac, n),
        restoring=linear_restoring(gamma0),
    )


def test_building_specs_makes_no_legendre_solver(workspaces):
    psi = spin_potential(2)
    specs = {side: LiftSpec(side=side, potential=psi, drift=linear_drift(-1.0, 2),
                            restoring=linear_restoring(1.0), anchor=1.3)
             for side in ("psi", "phi")}
    extension_spec(specs["psi"])
    dual_spec(make_spec(side="phi", n=2))  # a quadratic: its conjugate is closed-form
    assert not workspaces
    # without a closed form, the dual's potential reads a solver of its own
    dual = dual_spec(specs["phi"])
    assert [ws.psi for ws in workspaces] == [psi]
    assert dual.potential.jet.__self__ is workspaces[0]


@pytest.mark.parametrize("psi, solvers", [(spin_potential(2), 1),
                                          (quadratic_potential(np.eye(2)), 0)],
                         ids=["spin", "quadratic"])
def test_phi_hamiltonian_makes_one_solver_without_closed_form(workspaces, psi, solvers):
    spec = LiftSpec(side="phi", potential=psi, drift=linear_drift(-1.0, 2),
                    restoring=linear_restoring(1.0))
    h = build_hamiltonian(spec)
    assert len(workspaces) == solvers
    h.field(np.array([0.1, 0.2, 0.3, -0.4, 0.1]))
    assert len(workspaces) == solvers


def test_replaced_potential_gives_the_new_conjugates_field():
    # no solver is kept on a spec, so replacing the potential replaces the
    # conjugate that the phi-side field reads
    spec = LiftSpec(side="phi", potential=spin_potential(1), drift=linear_drift(-0.5, 1),
                    restoring=linear_restoring(1.0))
    other = replace(spec, potential=quadratic_potential(2.0 * np.eye(1)))
    fresh = LiftSpec(side="phi", potential=other.potential, drift=spec.drift,
                     restoring=spec.restoring)
    y = np.array([0.2, 0.3, 0.1])
    field = {name: build_hamiltonian(s).field(y).tobytes()
             for name, s in (("spec", spec), ("other", other), ("fresh", fresh))}
    assert field["other"] == field["fresh"] != field["spec"]


class TestDriftResults:
    @pytest.mark.parametrize("value, jacobian", [
        ([0.5, -1.0], [[1.0, 2.0], [3.0, 4.0]]),
        (np.array([1, -2]), np.array([[1, 0], [0, 2]])),
    ], ids=["lists", "int-arrays"])
    def test_other_results_become_float64(self, value, jacobian):
        drift = DriftField(n=2, eval=lambda u: value, jacobian=lambda u: jacobian)
        f, J = drift.at([0.1, 0.2]), drift.jacobian_at([0.1, 0.2])
        assert f.dtype == np.float64 and f.shape == (2,) and np.array_equal(f, value)
        assert J.dtype == np.float64 and J.shape == (2, 2) and np.array_equal(J, jacobian)

    @pytest.mark.parametrize("scalar", [np.array(0.5), 0.5, 1], ids=["0-d", "float", "int"])
    def test_scalar_results_become_vector_and_matrix(self, scalar):
        drift = DriftField(n=1, eval=lambda u: scalar, jacobian=lambda u: scalar)
        f, J = drift.at(0.3), drift.jacobian_at(0.3)
        assert f.dtype == J.dtype == np.float64 and f.shape == (1,) and J.shape == (1, 1)
        assert f[0] == J[0, 0] == float(scalar)

    @pytest.mark.parametrize("value", [np.array([0.5]), np.array([0.5, -1.0, 2.0]),
                                       np.array([[0.5, -1.0]]), 0.5],
                             ids=["short", "long", "row", "scalar"])
    def test_results_not_of_shape_n_raise(self, value):
        # at the previous version a short result was broadcast by the solvers
        drift = DriftField(n=2, eval=lambda u: value)
        with pytest.raises(DimensionMismatchError, match=r"expected \(2,\)"):
            drift.at([0.1, 0.2])

    def test_float64_results_pass_through(self):
        value, jacobian = np.array([0.5, -1.0]), np.array([[1.0, 2.0], [3.0, 4.0]])
        drift = DriftField(n=2, eval=lambda u: value, jacobian=lambda u: jacobian)
        assert drift.at([0.1, 0.2]) is value and drift.jacobian_at([0.1, 0.2]) is jacobian


MODEL_PARAMS = {"spin": SpinParams(theta=0.4, gamma0=2.0, lambda0=0.5),
                "onsager": OnsagerParams(L_matrix=np.array([[2.0, 0.3], [0.3, 1.0]]))}
CIRCUIT_PARAMS = CircuitParams(R=1.3, C=0.7, L=0.9, T0=1.1, gamma0=0.8)
# (drift, offset) of every drift declared by its matrix: F(u) = A (u - offset)
AFFINE = {**{name: (build(MODEL_PARAMS.get(name, CIRCUIT_PARAMS)).drift,
                    [MODEL_PARAMS["spin"].theta] if name == "spin" else None)
             for name, build in MODEL_BUILDERS.items()},
          "linear": (linear_drift(-0.7, 2, offset=[0.3, -0.2]), [0.3, -0.2]),
          "rotational": (rotational_drift(1.3), None)}


@pytest.mark.parametrize("name", AFFINE)
def test_a_declared_jacobian_is_the_read_only_matrix_the_drift_multiplies_by(name):
    drift, offset = AFFINE[name]
    A = drift.jacobian
    assert isinstance(A, np.ndarray) and not A.flags.writeable
    off = np.zeros(drift.n) if offset is None else np.array(offset)
    for u in np.random.default_rng(5).uniform(-3.0, 3.0, (20, drift.n)):
        assert drift.jacobian_at(u) is A
        assert drift.at(u).tobytes() == A.dot(u - off).tobytes()
        assert np.allclose(A, central_jacobian(drift.at, u), rtol=0, atol=1e-9)
    with pytest.raises(ValueError):
        A[0, 0] = 99.0


def test_affine_drift_needs_a_square_matrix():
    with pytest.raises(DimensionMismatchError, match="expected square"):
        affine_drift([[1.0, 2.0]])


@pytest.mark.parametrize("side", ["psi", "phi"])
@pytest.mark.parametrize("name", MODEL_BUILDERS)
def test_declared_constant_jacobian_gives_the_bits_of_a_callable(name, side):
    # a Hamiltonian reads a declared Jacobian once and calls a callable per
    # evaluation; both are the same matrix, so every output keeps its bits
    params = MODEL_PARAMS.get(name, CIRCUIT_PARAMS)
    spec = replace(MODEL_BUILDERS[name](params), side=side)
    J = spec.drift.jacobian_at(np.zeros(spec.n))
    declared = replace(spec, drift=replace(spec.drift, jacobian=J))
    called = replace(spec, drift=replace(spec.drift, jacobian=lambda u: J))
    assert isinstance(declared.drift.jacobian, np.ndarray) and callable(called.drift.jacobian)

    def outputs(s):
        h = build_hamiltonian(s)
        rng = np.random.default_rng(3)
        dim = 2 * h.n + 1
        for y in rng.uniform(-0.6, 0.6, (20, dim)):
            diag = {}
            yield hamiltonian_vector_field(h, y, diag).tobytes()
            yield np.array([diag[k] for k in sorted(diag)]).tobytes()
        y0 = rng.uniform(-0.5, 0.5, dim)
        for config in (IntegratorConfig(method="rk4", step=0.02), IntegratorConfig()):
            traj = integrate_lift(s, y0, 0.5, config)
            yield traj.abort_reason
            yield traj.times.tobytes() + traj.states.tobytes()
            yield b"".join(traj.diagnostics[k].tobytes() for k in sorted(traj.diagnostics))

    assert list(outputs(declared)) == list(outputs(called))


def nonlinear_gamma_callable_jacobian_lift(side):
    # Gamma(d) = d + d^3 / 3 and a Jacobian -L Hess U(x) that changes with x:
    # the defect-rate matrix is formed at every evaluation
    spin = spin_potential(2)
    L = np.array([[2.0, 0.3], [0.3, 1.0]])
    return LiftSpec(side=side, potential=quadratic_potential([[1.5, 0.2], [0.2, 1.0]]),
                    drift=onsager_drift(L, spin.gradient_at, spin.hessian_at),
                    restoring=RestoringFunction(eval=lambda d: d + d ** 3 / 3,
                                                derivative=lambda d: 1.0 + d * d))


RATE_CASES = [(f"{name}-{side}", replace(MODEL_BUILDERS[name](
    MODEL_PARAMS.get(name, CircuitParams(R=1.3, C=0.7, L=0.9, T0=1.1, gamma0=0.8))),
    side=side, anchor=None)) for name in MODEL_BUILDERS for side in ("psi", "phi")] + [
    (f"nonlinear-{side}", nonlinear_gamma_callable_jacobian_lift(side)) for side in ("psi", "phi")]


@pytest.mark.parametrize("spec", [s for _, s in RATE_CASES], ids=[i for i, _ in RATE_CASES])
def test_base_jet_moves_the_defect_by_its_rate_matrix(spec):
    # dp = Hess psi . F + Delta . R with R = J + Gamma'(Delta_0) I, bit for bit;
    # a phi-side lift swaps the psi-side jet of its dual spec, checked here
    s = spec if spec.side == "psi" else dual_spec(spec)
    n, jet = s.n, build_hamiltonian(s).jet
    R = defect_rate_matrix(s)
    constant = isinstance(s.drift.jacobian, np.ndarray) and s.restoring.gamma0 is not None
    assert (R is not None) is constant
    if constant:
        assert not R.flags.writeable
        assert np.array_equal(R, s.drift.jacobian + s.restoring.gamma0 * np.eye(n))
    rng = np.random.default_rng(11)
    for y in rng.uniform(-0.6, 0.6, (200, 2 * n + 1)):
        x, p, z = y[:n], y[n:2 * n], y[2 * n]
        _, _, dp, _ = jet(x, p, z)
        value, g, H = s.potential.jet_at(x)
        d, f = g - p, s.drift.at(x)
        rates = s.drift.jacobian_at(x) + s.restoring.derivative(value - z) * np.eye(n)
        assert dp.tobytes() == (H.dot(f) + d.dot(rates)).tobytes()


class TestHamiltonianOnSubmanifold:
    @pytest.mark.parametrize("side", ["psi", "phi"])
    def test_h_vanishes_on_submanifold(self, side):
        # h = Delta.F + Gamma(Delta_0) and every Delta vanishes on the
        # embedded graph  [TRIVIAL]
        spec = make_spec(side=side, n=2)
        h = build_hamiltonian(spec)
        for _ in range(10):
            u = 0.8 * RNG.standard_normal(2)
            assert abs(h(embed(spec, u))) < 1e-10

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
        v = restricted_field(spec, x)
        assert v.dx[0] == pytest.approx(-0.35)
        # dz = grad psi . F on the submanifold [DERIVED]
        assert v.dz == pytest.approx(float(spec.potential.gradient_at(x) @ v.dx))
        # dp = Hess psi . F  [DERIVED]
        assert v.dp[0] == pytest.approx(
            float(spec.potential.hessian_at(x)[0, 0] * v.dx[0]))

    def test_phi_side_projection_reproduces_drift(self):
        spec = make_spec(side="phi", n=2, jac=-0.25)
        p = np.array([0.4, -0.6])
        v = restricted_field(spec, p)
        assert np.allclose(v.dp, -0.25 * p)
        assert v.dz == pytest.approx(float(p @ v.dx))

    def test_ambient_field_agrees_on_submanifold(self):
        spec = make_spec(side="psi", n=2, jac=-0.5)
        u = np.array([0.3, -0.4])
        v = hamiltonian_vector_field(build_hamiltonian(spec), embed(spec, u))
        r = restricted_field(spec, u)
        assert np.allclose(v.dx, r.dx, atol=1e-12)
        assert np.allclose(v.dp, r.dp, atol=1e-10)
        assert v.dz == pytest.approx(r.dz, abs=1e-10)

    def test_dual_spec_needs_a_phi_side_lift(self):
        with pytest.raises(ValueError, match="phi-side lift"):
            dual_spec(make_spec(side="psi", n=1))

    @pytest.mark.parametrize("side", ["psi", "phi"])
    def test_base_lift_formulas_reject_an_anchor(self, side):
        # the triangular system of delta_velocities is the base lift's
        spec = replace(make_spec(side=side, n=1), anchor=1.3)
        with pytest.raises(ValueError, match="base lift"):
            delta_velocities(spec, CanonicalPoint(np.array([0.2]), np.array([0.5]), 1.0))


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
        psi = spin_potential(1)
        p_from, p_to = np.array([0.1]), np.array([0.7])
        drift = geodesic_drift_psi(psi, p_from, p_to)
        x0 = legendre_transform(psi, p_from).x_star
        # integrate dx/dt = F and check p(t) = grad psi(x(t)) stays linear
        for t in (0.25, 0.5, 1.0):
            x_t = integrate_on_submanifold(drift, x0, t)
            p_t = psi.gradient_at(np.atleast_1d(x_t))
            expect = p_from + t * (p_to - p_from)
            assert np.allclose(p_t, expect, atol=1e-8)

    def test_gradient_drift_exponential_p(self):
        # gradient drift: p(t) - p' = (p(0) - p') e^{-t}  [DERIVED]
        psi = spin_potential(1)
        target_p = np.array([0.5])
        drift = gradient_drift_psi(psi, legendre_transform(psi, target_p).x_star)
        x0 = legendre_transform(psi, np.array([-0.2])).x_star
        x1 = integrate_on_submanifold(drift, x0, 1.0)
        p1 = psi.gradient_at(np.atleast_1d(x1))
        expect = target_p + (np.array([-0.2]) - target_p) * np.exp(-1.0)
        assert np.allclose(p1, expect, atol=1e-8)

    def test_divergence_decreases_along_gradient_flow(self):
        psi = quadratic_potential(np.eye(2))
        target = np.array([0.3, -0.1])
        drift = gradient_drift_psi(psi, target)
        x = np.array([1.5, 1.0])
        prev = canonical_divergence(psi, x, target)
        for t in (0.2, 0.4, 0.8, 1.6):
            x_t = integrate_on_submanifold(drift, np.array([1.5, 1.0]), t)
            cur = canonical_divergence(psi, np.atleast_1d(x_t), target)
            assert cur <= prev + 1e-12
            prev = cur

    def test_phi_side_drifts_exist(self):
        psi = quadratic_potential(np.eye(1))
        assert geodesic_drift_phi(psi, np.array([0.0]), np.array([1.0])).n == 1
        assert gradient_drift_phi(psi, np.array([0.3])).n == 1

    @pytest.mark.parametrize("psi", [spin_potential(2),
                                     quadratic_potential([[2.0, 0.3], [0.3, 1.0]])],
                             ids=["spin", "quadratic"])
    def test_phi_side_drifts_match_closed_form(self, psi):
        # geodesic: Hess psi(x*(p)) . (x_to - x_from); gradient: -Hess psi(x*) . (x* - x*(p'))
        x_from, x_to, target_p = np.array([0.1, -0.4]), np.array([0.7, 0.2]), np.array([0.3, -0.2])
        geodesic = geodesic_drift_phi(psi, x_from, x_to)
        gradient = gradient_drift_phi(psi, target_p)
        # each keeps a solver of its own, which integrate_lift and
        # integrate_on_submanifold clear; a
        # closed-form conjugate needs none
        solvers = [geodesic.workspace, gradient.workspace]
        if psi.closed_conjugate is None:
            assert [ws.psi for ws in solvers] == [psi, psi] and solvers[0] is not solvers[1]
        else:
            assert solvers == [None, None]
        x_target = legendre_transform(psi, target_p).x_star
        for p in RNG.uniform(-0.8, 0.8, (20, 2)):
            x_star = legendre_transform(psi, p).x_star
            H = psi.hessian_at(x_star)
            expected = H @ (x_to - x_from)
            assert np.allclose(geodesic.at(p), expected, rtol=1e-12, atol=1e-14)
            expected = -H @ (x_star - x_target)
            assert np.allclose(gradient.at(p), expected, rtol=1e-12, atol=1e-14)

    @pytest.mark.parametrize("start, elsewhere", [([-0.54, 0.75], [0.03, -0.61]),
                                                  ([-0.74, 0.05], [-0.07, -0.7])])
    @pytest.mark.parametrize("kind", ["geodesic", "gradient"])
    def test_phi_drift_flow_independent_of_its_solver_history(self, kind, start, elsewhere):
        # a warm solve depends on the one before it at rounding level; each of
        # these second flows from the start differed from the first in its last
        # bits while integrate_on_submanifold left the drift's solver as it was
        psi = spin_potential(2)
        drift = (geodesic_drift_phi(psi, np.array([-0.45, 0.2]), np.array([0.3, -0.6]))
                 if kind == "geodesic" else gradient_drift_phi(psi, np.array([0.3, -0.4])))
        first = integrate_on_submanifold(drift, np.array(start), 0.5)
        integrate_on_submanifold(drift, np.array(elsewhere), 0.5)
        again = integrate_on_submanifold(drift, np.array(start), 0.5)
        assert first.tobytes() == again.tobytes()


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

    @pytest.mark.parametrize("side", ["psi", "phi"])
    def test_circuits_are_classified_by_their_defect_rate_matrix(self, side):
        # J = [[0, 1/C], [-1/L, -R/L]] (rlc) or its transpose with C and L
        # swapped (rlc_thermal) has complex eigenvalues of real part -R/(2L)
        for build in (rlc_spec, rlc_thermal_spec):
            verdict = stability_certificate(replace(build(CIRCUIT), side=side))
            assert verdict.verdict == APPROACHES_SUBMANIFOLD
            assert verdict.checks == {"gamma0": 0.9,
                                      "decay rate": pytest.approx(0.9 - 1.0 / 2.6, abs=1e-12)}
        # J = -1/(RC) = -1.25 outruns gamma0 = 0.9
        verdict = stability_certificate(replace(rc_spec(CIRCUIT), side=side))
        assert verdict.verdict == "inconclusive"
        assert verdict.checks["decay rate"] == pytest.approx(-0.35, abs=1e-12)

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

    def test_onsager_class_reads_the_sample_points(self):
        # L = I and Hess U = (1 + q_0^2) I: gamma0 L - L Hess U L = (2 - 1 - q_0^2) I
        spec = LiftSpec(
            side="psi", potential=quadratic_potential(np.eye(2)),
            drift=onsager_drift(np.eye(2), lambda q: q,
                                lambda q: (1.0 + q[0] ** 2) * np.eye(2)),
            restoring=linear_restoring(2.0))
        near = stability_certificate(spec, sample_points=[[0.0, 0.0], [0.5, -3.0]])
        assert near.verdict == "approaches-fixed-point"
        assert near.checks["sampled points"] == 2
        assert near.checks["min eigenvalue"] == pytest.approx(0.75, rel=1e-12)
        far = stability_certificate(spec, sample_points=[[0.5, 0.0], [2.0, 0.0]])
        assert far.verdict == "inconclusive" and not far
        assert far.checks["min eigenvalue"] == pytest.approx(-3.0, rel=1e-12)

    @pytest.mark.parametrize("drift, restoring, reason", [
        (linear_drift(-0.5, 1),
         RestoringFunction(eval=lambda d: d + 0.3 * d * d, derivative=lambda d: 1 + 0.6 * d),
         "nonlinear restoring term"),
        (DriftField(n=1, eval=lambda u: -u), linear_restoring(1.0), "unrecognized drift class"),
        (onsager_drift(np.eye(1), lambda q: q), linear_restoring(1.0),
         "no Hessian for the potential"),
        (DriftField(n=1, eval=lambda u: -u, structure=("spiral", 1.0)), linear_restoring(1.0),
         "unknown structure 'spiral'"),
    ], ids=["nonlinear-restoring", "untagged-drift", "onsager-without-hessian",
            "unknown-structure"])
    def test_unrecognized_cases_are_inconclusive(self, drift, restoring, reason):
        spec = LiftSpec(side="psi", potential=quadratic_potential(np.eye(1)),
                        drift=drift, restoring=restoring)
        verdict = stability_certificate(spec)
        assert verdict.verdict == "inconclusive" and not verdict
        assert verdict.checks == {"reason": reason}


# ---------------------------------------------------------------------------
# A certificate of decay as a property: from an off-submanifold start the
# defects of a certified lift follow dD/dt = -R^T D with the constant
# defect-rate matrix R = J + gamma0 I, and dD0/dt = -gamma0 D0 (the anchored
# defect D = (p_extra / anchor) grad psi - p too), so D(t) = exp(-R^T t) D(0)
# and D0(t) = D0(0) e^(-gamma0 t).

# a separable potential whose dual chart is all of R^2, so a rotating p stays in it
SEPARABLE = separable_potential([
    (lambda t: t ** 4 / 4 + t * t / 2, lambda t: t ** 3 + t, lambda t: 3 * t * t + 1),
    (lambda t: np.log(np.cosh(t)) + t * t / 2, lambda t: np.tanh(t) + t,
     lambda t: 1 / np.cosh(t) ** 2 + 1),
])
# a constant J that is not normal, so |D| need not shrink monotonically
NON_NORMAL = affine_drift([[-0.3, 1.1], [-0.4, -0.2]])
CIRCUIT = CircuitParams(R=1.0, C=0.8, L=1.3, T0=1.2, gamma0=0.9)
CERTIFIED = [s for _, s in CASES
             if stability_certificate(s).verdict == APPROACHES_SUBMANIFOLD] + [
    LiftSpec(side=side, potential=SEPARABLE, drift=drift,
             restoring=linear_restoring(0.9), anchor=anchor)
    for drift in (rotational_drift(1.7), NON_NORMAL)
    for side in ("psi", "phi") for anchor in (None, 0.7)] + [
    replace(build(params), side=side)
    for build, params in ((rc_thermal_spec, CircuitParams(R=1.0, C=1.0, T0=1.1, gamma0=2.0)),
                          (rlc_spec, CIRCUIT), (rlc_thermal_spec, CIRCUIT))
    for side in ("psi", "phi")]
DECAY_TOL = 1e-8  # relative to 1 + max |state|; RKF45 at its default tolerances misses by 1e-10


def assert_certified_decay(spec, y0, t_end=0.5):
    R, gamma0 = defect_rate_matrix(spec), spec.restoring.gamma0
    traj = integrate_lift(spec, y0, t_end)
    assert not traj.truncated
    tol = DECAY_TOL * (1.0 + float(np.max(np.abs(traj.states))))
    n = len(y0) // 2
    (_, d_start), (_, d_end) = (defects(spec, CanonicalPoint(y[:n], y[n:2 * n], y[-1]))
                                for y in (traj.states[0], traj.final_state))
    assert np.max(np.abs(d_end - expm(-R.T * traj.times[-1]) @ d_start)) <= tol
    d0 = traj.diagnostics["delta0"]
    assert np.max(np.abs(d0 - d0[0] * np.exp(-gamma0 * traj.times))) <= tol


def start(spec, rng):
    return rng.uniform(-0.9, 0.9, 2 * (spec.n + (spec.anchor is not None)) + 1)


@st.composite
def certified_starts(draw):
    spec = draw(st.sampled_from(CERTIFIED))
    return spec, start(spec, np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1))))


@settings(max_examples=40, deadline=None)
@given(st.one_of(certified_starts(), phi_cases().map(
    lambda c: (c[0], np.concatenate([c[3].x, c[3].p, [c[3].z]])))))
def test_certified_lift_shrinks_its_defects_at_the_exact_rates(case):
    spec, y0 = case
    verdict = stability_certificate(spec)
    assume(verdict.verdict == APPROACHES_SUBMANIFOLD)
    assert_certified_decay(spec, y0)


def drop_extended_gamma_prime(spec, x, p, dp, hz):
    # the anchored jet's Gamma'(D0) (grad psi - p) term, which vanishes on the submanifold
    if spec.anchor is None:
        return dp
    return dp + hz * np.append(gamma_prime_term(spec, x, p)[:-1], 0.0)


def flip_jacobian_term(spec, x, p, dp, hz):
    # J^T D enters dp with a minus sign
    n = spec.n
    g = spec.potential.gradient_at(x[:n])
    d = g - p if spec.anchor is None else (p[n] / spec.anchor) * g - p[:n]
    out = dp.copy()
    out[:n] -= 2 * d.dot(spec.drift.jacobian_at(x[:n]))
    return out


@pytest.fixture(scope="module")
def certified_starts_unmutated():
    """A start for each certified lift, from which the unmutated lift meets its decay laws."""
    rng = np.random.default_rng(4)
    starts = [(spec, start(spec, rng)) for spec in CERTIFIED]
    for spec, y0 in starts:
        assert_certified_decay(spec, y0)
    return starts


@pytest.mark.parametrize("mutate, caught", [
    (lambda mp: plant(mp, drop_extended_gamma_prime), lambda s: s.anchor is not None),
    (lambda mp: plant(mp, flip_jacobian_term), lambda s: s.drift.jacobian.any()),
    (lambda mp: plant_gamma_prime(mp, 1.001), lambda s: True),
], ids=["dropped-extended-gamma-prime", "wrong-sign-in-dp", "gamma-prime-off-by-1e-3"])
def test_certified_decay_catches_a_planted_mutation(monkeypatch, certified_starts_unmutated,
                                                    mutate, caught):
    starts = certified_starts_unmutated
    mutate(monkeypatch)
    missed = []
    for spec, y0 in starts:
        try:
            assert_certified_decay(spec, y0)
        except AssertionError:
            continue
        missed.append(spec)
    assert [caught(s) for s in missed] == [False] * len(missed)
    assert len(missed) < len(starts)


# ---------------------------------------------------------------------------
# The Onsager certificate as a property.  For F = -L grad U and a linear
# Gamma, R(u) = J(u) + gamma0 I with J = -L Hess U, and the defects move as
# dD/dt = -R^T D, so d(D.L.D)/dt = -2 D.sym(R L).D <= -2 lam |D|^2 wherever
# lam bounds the least eigenvalue of sym(R L) = gamma0 L - L Hess U L, and
# |D|^2 >= D.L.D / |L|_2.  Hence
#     D(t).L.D(t) <= D(0).L.D(0) exp(-2 lam t / |L|_2).
# The certificate's ``min eigenvalue`` is such a lam at every state on both
# charts, for the default quadratic U = x.L^-1.x / 2, whose Hess U is
# constant, and for the spin U, whose Hess U = diag(sech^2) <= I has its
# worst case at the origin, where the certificate samples.

ONSAGER_L = np.array([[2.0, 0.3], [0.3, 1.0]])
# (U, gamma0, grad U, its inverse x*): D = grad U(x) - p on the psi chart, x - x*(p) on the phi
ONSAGER_CASES = [
    (U, gamma0, grad, inverse)
    for U, gammas, grad, inverse in (
        (None, (1.2, 2.0), lambda x: np.linalg.solve(ONSAGER_L, x), ONSAGER_L.dot),
        (spin_potential(2), (5.0, 10.0), np.tanh, np.arctanh))
    for gamma0 in gammas]


def onsager_case_spec(U, gamma0, side):
    return replace(onsager_spec(OnsagerParams(L_matrix=ONSAGER_L, U=U, gamma0=gamma0)),
                   side=side)


def onsager_defect_energies(spec, grad_u, x_star, t_end=0.5):
    """(times, D.L.D at every state, its bound, the integrator's slack on sqrt(D.L.D)).

    RKF45 at its default tolerances keeps a state within DECAY_TOL (1 + max
    |state|), as ``assert_certified_decay`` allows.  D moves by at most
    1 + |Hess| times that, with Hess the chart potential's Hessian: below
    |L|_2 = 2.1 on these states (1 / (1 - p^2) <= 1.4 for the spin
    conjugate), and the slack takes 10 for that factor.  sqrt(D.L.D) then
    moves by at most |L|_2^1/2 times D's error.
    """
    lam = stability_certificate(spec).checks["min eigenvalue"]
    norm_l = float(np.linalg.norm(ONSAGER_L, 2))
    traj = integrate_lift(spec, start(spec, np.random.default_rng(8)), t_end)
    assert not traj.truncated
    x, p = traj.states[:, :2], traj.states[:, 2:4]
    d = grad_u(x.T).T - p if spec.side == "psi" else x - x_star(p.T).T
    energy = np.einsum("ti,ij,tj->t", d, ONSAGER_L, d)
    bound = energy[0] * np.exp(-2 * lam * traj.times / norm_l)
    slack = math.sqrt(norm_l) * 10 * DECAY_TOL * (1.0 + float(np.max(np.abs(traj.states))))
    return traj.times, energy, bound, slack


@pytest.mark.parametrize("side", ["psi", "phi"])
@pytest.mark.parametrize("U, gamma0, grad_u, x_star", ONSAGER_CASES,
                         ids=["quadratic-1.2", "quadratic-2", "spin-5", "spin-10"])
def test_onsager_certificate_bounds_the_defect_energy(side, U, gamma0, grad_u, x_star):
    spec = onsager_case_spec(U, gamma0, side)
    assert stability_certificate(spec).verdict == APPROACHES_FIXED_POINT
    times, energy, bound, slack = onsager_defect_energies(spec, grad_u, x_star)
    assert len(times) > 10
    assert np.all(np.sqrt(energy) <= np.sqrt(bound) + slack)


def flip_defect_rate_term(spec, x, p, dp, hz):
    # D.R enters the base jet's dp with a plus sign, R = J + Gamma'(D0) I
    n = spec.n
    d = spec.potential.gradient_at(x) - p
    return dp - 2 * d.dot(spec.drift.jacobian_at(x) - hz * np.eye(n))


@pytest.mark.parametrize("side", ["psi", "phi"])
def test_onsager_bound_catches_a_planted_mutation(monkeypatch, side):
    # the sign of D.R flipped: D.L.D grows, by 1.33x the bound at gamma0 = 1.2
    plant(monkeypatch, flip_defect_rate_term)
    for U, gamma0, grad_u, x_star in ONSAGER_CASES[:2]:  # the default U
        spec = onsager_case_spec(U, gamma0, side)
        _, energy, bound, slack = onsager_defect_energies(spec, grad_u, x_star)
        assert np.any(np.sqrt(energy) > np.sqrt(bound) + slack)


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
