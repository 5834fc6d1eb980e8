"""Extended (2n+3)-dimensional conserving lift."""

import numpy as np
import pytest

from contactflows.extended import (
    ExtendedLiftSpec,
    embed_extended,
    restricted_extended_field,
    tilde_deltas,
    tilde_hamiltonian,
    tilde_potential_value,
)
from contactflows.geometry import (
    CanonicalPoint,
    hamiltonian_vector_field,
    invariant_density,
    phase_compressibility,
)
from contactflows.integrate import integrate_lift
from contactflows.lifts import LiftSpec, build_hamiltonian, lifted_field, linear_drift, linear_restoring
from contactflows.potentials import quadratic_potential, spin_potential

RNG = np.random.default_rng(31)


def make_extended(side="psi", n=1, anchor=1.0, gamma0=1.0, jac=-0.5, potential=None):
    if potential is None:
        potential = spin_potential(n) if side == "psi" else quadratic_potential(np.eye(n))
    base = LiftSpec(
        side=side,
        potential=potential,
        drift=linear_drift(jac, n),
        restoring=linear_restoring(gamma0),
    )
    return ExtendedLiftSpec(base=base, anchor=anchor)


class TestConstruction:
    def test_zero_anchor_rejected(self):
        base = make_extended().base
        for anchor in (0.0, np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError):
                ExtendedLiftSpec(base=base, anchor=anchor)

    def test_extension_spec_needs_psi_side(self):
        from contactflows.extended import extension_spec

        with pytest.raises(ValueError):
            extension_spec(make_extended(side="phi"))


class TestTildeStructure:
    def test_tilde_potential_value(self):
        spec = make_extended(anchor=2.0)
        psi = spec.base.potential
        x = np.array([0.4])
        assert tilde_potential_value(spec, x, 0.3) == pytest.approx(
            psi.value_at(x) + 2.0 * 0.3)

    def test_tilde_deltas_vanish_on_extended_graph(self):
        spec = make_extended(anchor=1.5)
        pt = embed_extended(spec, np.array([0.6]), 0.25)
        d0, d = tilde_deltas(spec, pt)
        assert abs(d0) < 1e-12 and np.max(np.abs(d)) < 1e-12

    def test_tilde_h_vanishes_on_extended_graph(self):
        spec = make_extended(anchor=1.5)
        h = tilde_hamiltonian(spec)
        pt = embed_extended(spec, np.array([-0.3]), 0.8)
        assert abs(h(pt)) < 1e-12

    @pytest.mark.parametrize("side", ["psi", "phi"])
    def test_closed_form_partials_match_fd(self, side):
        from contactflows.geometry import ContactHamiltonian, hamiltonian_vector_field

        spec = make_extended(side=side, anchor=1.3, gamma0=0.9, jac=-0.4)
        h = tilde_hamiltonian(spec)
        fd = ContactHamiltonian(n=2, value=h.value)
        for _ in range(10):
            pt = CanonicalPoint(0.4 * RNG.standard_normal(2),
                                0.4 * RNG.standard_normal(2) + np.array([0.0, 1.0]),
                                float(RNG.standard_normal()))
            va = hamiltonian_vector_field(h, pt).as_array()
            vb = hamiltonian_vector_field(fd, pt).as_array()
            assert np.allclose(va, vb, atol=1e-6)


class TestConservation:
    @pytest.mark.parametrize("side", ["psi", "phi"])
    def test_psi_tilde_conserved_along_ambient_flow(self, side):
        # the defining property of the conserving lift: psi~ = psi(x) +
        # anchor x_extra (psi side) or phi(p) + anchor p_extra (phi side) is
        # constant even off the submanifold
        spec = make_extended(side=side, anchor=1.0)
        if side == "psi":
            start = CanonicalPoint(np.array([0.3, 0.2]), np.array([0.9, 1.4]), 0.7)
        else:
            start = CanonicalPoint(np.array([0.9, 1.4]), np.array([0.3, 0.2]), 0.7)
        traj = integrate_lift(spec, start, 2.0)
        vals = traj.diagnostics["psi_tilde"]
        assert np.max(np.abs(vals - vals[0])) < 1e-9
        if side == "phi":
            # psi = x^2/2 is its own conjugate: phi(p) = p^2/2
            p, p_extra = traj.states[:, 2], traj.states[:, 3]
            assert np.allclose(vals, 0.5 * p ** 2 + p_extra, atol=1e-12)
            assert np.array_equal(traj.diagnostics["S"], p_extra)

    @pytest.mark.parametrize("side", ["psi", "phi"])
    def test_report_checks_conservation_on_both_sides(self, side):
        from contactflows.integrate import IntegratorConfig
        from contactflows.scenario import Scenario, build_invariant_report

        spec = make_extended(side=side, anchor=1.3)
        start = CanonicalPoint(np.array([0.4, 1.1]), np.array([0.2, 0.6]), 0.3)
        traj = integrate_lift(spec, start, 2.0)
        scenario = Scenario("custom", spec, start, 2.0, IntegratorConfig())
        checks = {c.name: c for c in build_invariant_report(scenario, traj).checks}
        assert checks["H_tot conserved"].passed

    def test_section3_lift_does_not_conserve_psi(self):
        # non-conservation witness: the plain lift moves psi(x) - is not
        # constant because dx/dt = F does not annihilate grad psi
        base = make_extended().base
        pt = CanonicalPoint(np.array([0.8]), np.array([0.5]), 0.9)
        v = lifted_field(base, pt)
        lie = float(base.potential.gradient_at(pt.x) @ v.dx)
        assert abs(lie) > 0.01

    def test_restricted_field_entropy_rate(self):
        # psi side: dx_extra/dt = -(grad psi . F)/anchor  [DERIVED]
        spec = make_extended(anchor=2.0, jac=-0.5)
        v = restricted_extended_field(spec, np.array([0.6]))
        psi = spec.base.potential
        expect = -float(psi.gradient_at(np.array([0.6])) @ (-0.5 * np.array([0.6]))) / 2.0
        assert v.dx[-1] == pytest.approx(expect, abs=1e-12)
        # z = psi~ on the graph stays constant: the extra coordinate
        # absorbs exactly what the base potential loses
        assert v.dp[-1] == 0.0 and v.dz == 0.0

    @pytest.mark.parametrize("side", ["psi", "phi"])
    def test_ambient_field_matches_restricted_on_graph(self, side):
        # on the phi side the restricted dz is p . Hess phi . F, not zero
        spec = make_extended(side=side, anchor=1.5, potential=spin_potential(1))
        u = np.array([0.4])
        pt = embed_extended(spec, u, 0.3)
        va = hamiltonian_vector_field(tilde_hamiltonian(spec), pt)
        vr = restricted_extended_field(spec, u)
        assert np.allclose(va.as_array(), vr.as_array(), rtol=0, atol=1e-10)


class TestExtendedDensity:
    def test_compressibility_is_n_plus_two(self):
        # the extended lift lives in n+1 dimensions: kappa = -(n+2) gamma0
        spec = make_extended(gamma0=1.1)
        h = tilde_hamiltonian(spec)
        pt = CanonicalPoint(np.array([0.1, 0.2]), np.array([0.3, 0.9]), -0.5)
        kappa = phase_compressibility(h, pt)
        assert kappa == pytest.approx(-3 * 1.1, abs=1e-6)

    def test_density_exponent(self):
        spec = make_extended()
        h = tilde_hamiltonian(spec)
        pt = CanonicalPoint(np.array([0.0, 0.0]), np.array([0.0, 1.0]), -1.0)
        hval = h(pt)
        assert hval > 0
        assert invariant_density(h, pt) == pytest.approx(hval ** -3)
