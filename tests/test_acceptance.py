"""Acceptance criteria: one test per criterion, at the stated tolerances.

Each criterion is an oracle or property check; there are no reference
tables.  Oracles are closed forms of linear ODEs, eigen-decompositions, or
algebraic identities, each derived independently in the test body.
"""

import time
from dataclasses import replace

import numpy as np

from contactflows.geometry import (
    CanonicalPoint,
    hamiltonian_vector_field,
    phase_compressibility,
    verify_contact_identities,
)
from contactflows.integrate import (
    integrate_lift,
    integrate_on_submanifold,
    pythagorean_residual,
)
from contactflows.lifts import (
    LiftSpec,
    build_hamiltonian,
    embed,
    geodesic_drift_psi,
    gradient_drift_psi,
    linear_drift,
    linear_restoring,
    rotational_drift,
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
    rlc_thermal_spec,
    rlc_spec,
    spin_spec,
)
from contactflows.potentials import (
    canonical_divergence,
    involution_check,
    legendre_transform,
    quadratic_potential,
    spin_potential,
)

from fitting import fit_decay_rate

RNG = np.random.default_rng(2026)


def _random_point(n, scale=0.5):
    return CanonicalPoint(scale * RNG.standard_normal(n),
                          scale * RNG.standard_normal(n),
                          float(scale * RNG.standard_normal()))


def test_criterion_1_contact_identities():
    """5 built-in Hamiltonians x 100 points: pairing < 1e-8, derivation < 1e-6."""
    hams = [
        (1, build_hamiltonian(rc_spec(CircuitParams(R=1.0, C=1.0)))),
        (1, build_hamiltonian(rl_spec(CircuitParams(R=1.0, L=2.0)))),
        (2, build_hamiltonian(rlc_spec(CircuitParams(R=0.5, L=1.0, C=1.0)))),
        (1, build_hamiltonian(spin_spec(SpinParams(theta=1.0, gamma0=1.0,
                                                   lambda0=0.5)))),
        (2, build_hamiltonian(onsager_spec(OnsagerParams(L_matrix=np.diag([2.0, 0.5]))))),
    ]
    start = time.monotonic()
    for n, h in hams:
        for _ in range(100):
            rep = verify_contact_identities(h, _random_point(n))
            assert rep.pairing_residual < 1e-8
            assert rep.derivation_residual < 1e-6
    assert time.monotonic() - start < 5.0


def test_criterion_2_legendre_machinery():
    """Involution < 1e-10 and Fenchel-Young gap >= -1e-12, 1000 samples."""
    start = time.monotonic()
    potentials = [
        (quadratic_potential(np.array([[2.0, 0.3], [0.3, 1.0]])), 2.0),
        (spin_potential(2), 1.5),
    ]
    for psi, scale in potentials:
        for _ in range(500):
            x = scale * RNG.standard_normal(psi.n)
            assert involution_check(psi, x) < 1e-10
            p = psi.gradient_at(scale * RNG.standard_normal(psi.n))
            res = legendre_transform(psi, p)
            x2 = scale * RNG.standard_normal(psi.n)
            gap = psi.value_at(x2) + res.phi_value - float(x2 @ p)
            assert gap >= -1e-12
    assert time.monotonic() - start < 5.0


def test_criterion_3_decay_laws():
    """Delta_0/Delta_1 rates -1.0/-1.5 within 1e-3; h(1)/h(0) = e^-1 within 1e-6.

    The (gamma0, Lambda0) = (1, 0.5) configuration is the identity-Jacobian
    stability class over the spin potential: drift Jacobian +Lambda0 I, so
    the defect decays at gamma0 + Lambda0.
    """
    spec = LiftSpec(side="psi", potential=spin_potential(1),
                    drift=linear_drift(0.5, 1),
                    restoring=linear_restoring(1.0))
    pt = CanonicalPoint(np.array([0.3]), np.array([0.9]), 1.2)
    traj = integrate_lift(spec, pt, 8.0)
    r0 = fit_decay_rate(traj.times, traj.diagnostics["delta0"])
    r1 = fit_decay_rate(traj.times, traj.diagnostics["delta_norm"])
    assert abs(r0 - (-1.0)) < 1e-3
    assert abs(r1 - (-1.5)) < 1e-3

    traj1 = integrate_lift(spec, pt, 1.0)
    ratio = traj1.diagnostics["h"][-1] / traj1.diagnostics["h"][0]
    assert abs(ratio - np.exp(-1.0)) < 1e-6


def test_criterion_4_oscillatory_stability():
    """Rotational drift n=2, omega=5, gamma0=1: ||Delta||(t) = e^-t ||Delta||(0)."""
    spec = LiftSpec(side="psi", potential=quadratic_potential(np.eye(2)),
                    drift=rotational_drift(5.0), restoring=linear_restoring(1.0))
    pt = CanonicalPoint(np.array([0.4, -0.3]), np.array([1.0, 0.7]), 0.9)
    psi = spec.potential
    d0_init = psi.gradient_at(pt.x) - pt.p
    norm0 = float(np.linalg.norm(d0_init))
    for t in (0.5, 1.0, 2.0):
        traj = integrate_lift(spec, pt, t)
        norm_t = traj.diagnostics["delta_norm"][-1]
        assert abs(norm_t - np.exp(-t) * norm0) / (np.exp(-t) * norm0) < 1e-6


def test_criterion_5_compressibility_and_density():
    """Divergence -(n+1)gamma0 within 1e-5 at 100 points; transport identity
    residual < 1e-6; extended lift gives -(n+2)gamma0."""
    gamma0 = 1.0
    for n in (1, 2):
        spec = LiftSpec(side="psi", potential=quadratic_potential(np.eye(n)),
                        drift=linear_drift(-0.5, n),
                        restoring=linear_restoring(gamma0))
        h = build_hamiltonian(spec)
        for _ in range(50):
            kappa = phase_compressibility(h, _random_point(n))
            assert abs(kappa - (-(n + 1) * gamma0)) < 1e-5

    # transport identity in integrated form: with constant kappa,
    # d/dt f + kappa f = 0 means f(t) = f(0) e^{-kappa t}
    spec = LiftSpec(side="psi", potential=quadratic_potential(np.eye(1)),
                    drift=linear_drift(-0.5, 1), restoring=linear_restoring(gamma0))
    pt = CanonicalPoint(np.array([0.1]), np.array([0.2]), -0.5)
    traj = integrate_lift(spec, pt, 1.0)
    f = traj.diagnostics["h"] ** -2.0
    kappa = traj.diagnostics["kappa"][0]
    expect = f[0] * np.exp(-kappa * traj.times)
    assert np.max(np.abs(f - expect) / np.abs(expect)) < 1e-6

    ht = build_hamiltonian(replace(spec, anchor=1.0))
    for _ in range(50):
        kappa = phase_compressibility(ht, _random_point(2))
        assert abs(kappa - (-3 * gamma0)) < 1e-5


def test_criterion_6_geodesics_and_gradient_flows():
    """Dual geodesic: linear p(t) (residual < 1e-8); gradient flow
    exponential within 1e-8; divergence monotone nonincreasing."""
    psi = spin_potential(1)
    p_from, p_to = np.array([0.1]), np.array([0.7])
    drift = geodesic_drift_psi(psi, p_from, p_to)
    x0 = legendre_transform(psi, p_from).x_star
    ts = np.linspace(0.1, 1.0, 10)
    ps = []
    for t in ts:
        x_t = integrate_on_submanifold(drift, x0, float(t))
        ps.append(psi.gradient_at(np.atleast_1d(x_t))[0])
    # linear regression residual of p(t) against t
    coeffs = np.polyfit(ts, ps, 1)
    assert np.max(np.abs(np.polyval(coeffs, ts) - ps)) < 1e-8

    target = np.array([0.5])
    x_target = legendre_transform(psi, target).x_star
    gdrift = gradient_drift_psi(psi, x_target)
    x_start = legendre_transform(psi, np.array([-0.2])).x_star
    prev = None
    for t in ts:
        x_t = np.atleast_1d(integrate_on_submanifold(gdrift, x_start, float(t)))
        p_t = psi.gradient_at(x_t)
        expect = target + (np.array([-0.2]) - target) * np.exp(-t)
        assert np.max(np.abs(p_t - expect)) < 1e-8
        div = canonical_divergence(psi, x_t, x_target)
        if prev is not None:
            assert div <= prev + 1e-12
        prev = div


def test_criterion_7_pythagorean_identity():
    """Three-term residual < 1e-8 on quadratic and spin-product potentials."""
    r = pythagorean_residual(quadratic_potential(np.eye(2)), np.array([0.0, 0.0]),
                             np.array([1.0, 0.0]), np.array([1.0, 1.0]))
    assert abs(r) < 1e-8

    r = pythagorean_residual(spin_potential(2), np.array([0.0, 0.2]),
                             np.array([0.8, 0.2]), np.array([0.8, 1.1]))
    assert abs(r) < 1e-8


def test_criterion_8_circuits():
    """RC/RL closed forms < 1e-8; lossless RLC conserves H* to 1e-9;
    thermal variants conserve H_tot = psi~ with positive entropy production."""
    rc = rc_spec(CircuitParams(R=1.0, C=1.0))
    traj = integrate_lift(rc, embed(rc, np.array([1.0])), 1.0)
    assert abs(traj.final_state[0] - np.exp(-1.0)) < 1e-8

    rl = rl_spec(CircuitParams(R=1.0, L=1.0))
    traj = integrate_lift(rl, embed(rl, np.array([2.0])), 1.0)
    assert abs(traj.final_state[1] - 2.0 / np.e) < 1e-8

    # lossless limit (R -> 0): H* = (C V^2 + L I^2)/2 constant over a period
    lc = rlc_spec(CircuitParams(R=1e-14, L=1.0, C=1.0))
    traj = integrate_lift(lc, embed(lc, np.array([1.0, 0.0])),
                          2 * np.pi)
    energies = 0.5 * (traj.states[:, 2] ** 2 + traj.states[:, 3] ** 2)
    assert np.max(np.abs(energies - energies[0])) < 1e-9

    for spec, u0 in (
        (rc_thermal_spec(CircuitParams(R=1.0, C=1.0, T0=1.0)), np.array([1.0])),
        (rl_thermal_spec(CircuitParams(R=1.0, L=1.0, T0=1.0)), np.array([1.0])),
        (rlc_thermal_spec(CircuitParams(R=1.0, L=1.0, C=1.0, T0=2.0)),
         np.array([1.0, 0.5])),
    ):
        traj = integrate_lift(spec, embed(spec, u0, 0.0), 2.0)
        H = traj.diagnostics["psi_tilde"]
        assert np.max(np.abs(H - H[0])) / 2.0 < 1e-9
        rate = np.polyfit(traj.times, traj.diagnostics["S"], 1)[0]
        assert rate > 0

    # RLC entropy rate is R I^2 / T0 pointwise
    th = rlc_thermal_spec(CircuitParams(R=1.0, L=1.0, C=1.0, T0=2.0))
    traj = integrate_lift(th, embed(th, np.array([1.0, 0.5]), 0.0), 2.0)
    # pointwise identity dS/dt = R I^2 / T0 via the field itself
    h = build_hamiltonian(th)
    for i in range(0, len(traj.times), 7):
        pt = CanonicalPoint(traj.states[i][:3], traj.states[i][3:6], traj.states[i][6])
        v = hamiltonian_vector_field(h, pt)
        assert abs(v.dx[-1] - 1.0 * pt.x[1] ** 2 / 2.0) < 1e-9


def test_criterion_9_conserving_lift():
    """psi~ drift < 1e-9 per unit time along ambient extended flows; the
    plain lift moves psi by > 0.01 at generic points."""
    cases = [
        rc_thermal_spec(CircuitParams(R=1.0, C=1.0, T0=1.0)),
        rl_thermal_spec(CircuitParams(R=1.0, L=1.0, T0=1.0)),
        rlc_thermal_spec(CircuitParams(R=1.0, L=1.0, C=1.0, T0=1.0)),
    ]
    for _ in range(3):  # random drifts over a quadratic potential
        jac = -np.abs(RNG.uniform(0.3, 1.5))
        base = LiftSpec(side="psi", potential=quadratic_potential(np.eye(1)),
                        drift=linear_drift(float(jac), 1),
                        restoring=linear_restoring(1.0))
        cases.append(replace(base, anchor=float(RNG.uniform(0.5, 2.0))))

    for spec in cases:
        n = spec.n
        x = np.append(0.5 * RNG.standard_normal(n), RNG.uniform(0.0, 0.5))
        p = np.append(0.5 * RNG.standard_normal(n),
                      spec.anchor + float(0.3 * RNG.standard_normal()))
        start = CanonicalPoint(x, p, float(RNG.standard_normal()))
        traj = integrate_lift(spec, start, 2.0)
        vals = traj.diagnostics["psi_tilde"]
        assert np.max(np.abs(vals - vals[0])) / 2.0 < 1e-9

        # witness: the section-3 lift does not conserve the base potential
        base = replace(spec, anchor=None)
        lie_vals = []
        for _ in range(20):
            pt = _random_point(n, scale=0.8)
            v = hamiltonian_vector_field(build_hamiltonian(base), pt)
            lie_vals.append(abs(float(base.potential.gradient_at(pt.x) @ v.dx)))
        assert max(lie_vals) > 0.01


def test_criterion_10_onsager_special_case():
    """p(t) = p(0) e^-t within 1e-8 for random SPD L; certificate passes
    above the spectral bound, inconclusive below."""
    for _ in range(5):
        A = RNG.standard_normal((2, 2))
        L = A @ A.T + 0.5 * np.eye(2)
        spec = onsager_spec(OnsagerParams(L_matrix=L))
        p0 = RNG.standard_normal(2)
        x0 = legendre_transform(spec.potential, p0).x_star
        x1 = integrate_on_submanifold(spec.drift, x0, 1.0)
        p1 = spec.potential.gradient_at(np.atleast_1d(x1))
        assert np.max(np.abs(p1 - p0 / np.e)) < 1e-8

    # for U = psi with M = L^-1, the Thm-5 matrix is gamma0 L - L, so the
    # spectral bound on gamma0 is exactly 1
    L = np.diag([2.0, 0.5])
    above = onsager_spec(OnsagerParams(L_matrix=L, gamma0=2.0))
    below = onsager_spec(OnsagerParams(L_matrix=L, gamma0=0.5))
    assert stability_certificate(above).verdict == "approaches-fixed-point"
    assert stability_certificate(below).verdict == "inconclusive"
