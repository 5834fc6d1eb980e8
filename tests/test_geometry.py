"""Contact geometry core: canonical field, identities, compressibility."""

import warnings

import numpy as np
import pytest

from contactflows.errors import DimensionMismatchError, EvaluationError
from contactflows.geometry import (
    CanonicalPoint,
    ContactHamiltonian,
    TangentVector,
    contact_form_pairing,
    hamiltonian_vector_field,
    phase_compressibility,
    reeb_field,
    verify_contact_identities,
)

RNG = np.random.default_rng(7)


def random_point(n, scale=1.0):
    return CanonicalPoint(
        scale * RNG.standard_normal(n),
        scale * RNG.standard_normal(n),
        float(scale * RNG.standard_normal()),
    )


def linear_h(n):
    """h = z (Reeb-conjugate): dx = 0, dp = p, dz = z."""
    return ContactHamiltonian(
        n=n,
        value=lambda x, p, z: z,
        grad_x=lambda x, p, z: np.zeros(n),
        grad_p=lambda x, p, z: np.zeros(n),
        dz_partial=lambda x, p, z: 1.0,
    )


class TestCanonicalPoint:
    def test_rejects_mismatched_lengths(self):
        with pytest.raises(DimensionMismatchError):
            CanonicalPoint(np.zeros(2), np.zeros(3), 0.0)

    def test_rejects_nonfinite(self):
        with pytest.raises(EvaluationError):
            CanonicalPoint(np.array([np.nan]), np.zeros(1), 0.0)

    def test_rejects_empty(self):
        with pytest.raises(DimensionMismatchError):
            CanonicalPoint(np.zeros(0), np.zeros(0), 0.0)


class TestContactForm:
    def test_reeb_pairing_is_one(self):
        # lambda(R) = 1 by definition of the Reeb field  [TRIVIAL]
        pt = random_point(3)
        assert contact_form_pairing(pt, reeb_field(3)) == 1.0

    def test_pairing_value(self):
        # lambda = dz - p.dx on v = (dx, dp, dz): 5 - 2*3 = -1  [DERIVED]
        pt = CanonicalPoint(np.array([1.0]), np.array([2.0]), 0.0)
        v = TangentVector(np.array([3.0]), np.array([0.0]), 5.0)
        assert contact_form_pairing(pt, v) == pytest.approx(-1.0)


class TestCanonicalField:
    def test_reeb_conjugate_components(self):
        # h = z gives dx = 0, dp = p, dz = z  [DERIVED: plug into the
        # canonical component formulas]
        pt = CanonicalPoint(np.array([0.3, -0.2]), np.array([1.5, 0.4]), 2.0)
        v = hamiltonian_vector_field(linear_h(2), pt)
        assert np.allclose(v.dx, 0.0)
        assert np.allclose(v.dp, pt.p)
        assert v.dz == pytest.approx(2.0)

    def test_quadratic_h_closed_form(self):
        # h = p^2/2: dx = -p, dp = 0, dz = p^2/2 - p.p = -p^2/2  [DERIVED]
        h = ContactHamiltonian(
            n=1,
            value=lambda x, p, z: 0.5 * float(p @ p),
            grad_x=lambda x, p, z: np.zeros(1),
            grad_p=lambda x, p, z: p,
            dz_partial=lambda x, p, z: 0.0,
        )
        pt = CanonicalPoint(np.array([0.0]), np.array([2.0]), 0.0)
        v = hamiltonian_vector_field(h, pt)
        assert v.dx[0] == pytest.approx(-2.0)
        assert v.dp[0] == pytest.approx(0.0)
        assert v.dz == pytest.approx(-2.0)

    def test_fd_partials_match_closed_form(self):
        closed = ContactHamiltonian(
            n=2,
            value=lambda x, p, z: float(x @ p) + np.sin(z),
            grad_x=lambda x, p, z: p,
            grad_p=lambda x, p, z: x,
            dz_partial=lambda x, p, z: np.cos(z),
        )
        fd = ContactHamiltonian(n=2, value=closed.value)
        assert fd.derivative_mode == "central_difference"
        for _ in range(20):
            pt = random_point(2)
            va = hamiltonian_vector_field(closed, pt)
            vb = hamiltonian_vector_field(fd, pt)
            assert np.allclose(va.as_array(), vb.as_array(), atol=1e-7)

    def test_partial_analytic_partials_rejected(self):
        with pytest.raises(ValueError):
            ContactHamiltonian(n=1, value=lambda x, p, z: z,
                               grad_x=lambda x, p, z: np.zeros(1))

    def test_nonfinite_partials_raise(self):
        # the value divides by zero at the point: a typed error, no warning
        h = ContactHamiltonian(n=1, value=lambda x, p, z: 1.0 / x[0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(EvaluationError):
                hamiltonian_vector_field(h, CanonicalPoint(np.array([0.0]),
                                                           np.array([1.0]), 0.0))

    def test_nonfinite_value_is_a_typed_error_not_a_warning(self):
        # inf - inf in the central differences is no warning of the library's
        h = ContactHamiltonian(n=2, value=lambda x, p, z: np.sum(x) + np.inf)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(EvaluationError):
                hamiltonian_vector_field(h, np.array([0.1, 0.2, 0.3, 0.4, 0.5]))


class TestIdentities:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_identities_hold_for_smooth_h(self, n):
        # lambda(X_h) = h exactly; X_h h = (Rh) h to fd accuracy  [TRIVIAL
        # for the first (algebraic), fd-residual for the second]
        h = ContactHamiltonian(
            n=n, value=lambda x, p, z: float(x @ p) + 0.5 * float(p @ p) + np.tanh(z)
        )
        for _ in range(10):
            rep = verify_contact_identities(h, random_point(n))
            assert rep.pairing_residual < 1e-8
            assert rep.derivation_residual < 1e-6


class TestCompressibility:
    def test_linear_restoring_rate(self):
        # h with dh/dz = -gamma0 has divergence -(n+1) gamma0  [DERIVED:
        # sum the canonical component partials; the x/p cross terms cancel]
        gamma0 = 0.7
        n = 2
        h = ContactHamiltonian(
            n=n,
            value=lambda x, p, z: float(x @ p) - gamma0 * z,
            grad_x=lambda x, p, z: p,
            grad_p=lambda x, p, z: x,
            dz_partial=lambda x, p, z: -gamma0,
        )
        kappa = phase_compressibility(h, random_point(n))
        assert kappa == pytest.approx(-(n + 1) * gamma0, abs=1e-6)

    def test_z_independent_h_incompressible(self):
        h = ContactHamiltonian(n=1, value=lambda x, p, z: float(x @ x + p @ p))
        assert phase_compressibility(h, random_point(1)) == pytest.approx(0.0, abs=1e-5)
