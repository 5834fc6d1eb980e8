"""Contact geometry core: canonical field, identities, compressibility."""

import re
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from contactflows.errors import CompressibilityMismatchError, DimensionMismatchError, EvaluationError
from contactflows.geometry import (
    CanonicalPoint,
    _all_finite,
    _as_vector,
    ContactHamiltonian,
    TangentVector,
    central_hessian,
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


def closed_form_h(n, value, grad_x, grad_p, dz_partial):
    """The Hamiltonian whose jet is assembled from hand-written partials."""

    def jet(x, p, z, diag=None):
        hz = dz_partial(x, p, z)
        return value(x, p, z), -grad_p(x, p, z), grad_x(x, p, z) + p * hz, hz

    return ContactHamiltonian(n=n, value=value, jet=jet)


def linear_h(n):
    """h = z (Reeb-conjugate): dx = 0, dp = p, dz = z."""
    return closed_form_h(n, lambda x, p, z: z, lambda x, p, z: np.zeros(n),
                         lambda x, p, z: np.zeros(n), lambda x, p, z: 1.0)


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


POINT_2 = CanonicalPoint(np.zeros(2), np.zeros(2), 0.0)
H_1 = ContactHamiltonian(n=1, value=lambda x, p, z: float(x @ p))


@pytest.mark.parametrize("call, fragment", [
    (lambda: _as_vector(np.zeros((2, 2)), "v"), "v must be a 1-d vector, got shape (2, 2)"),
    (lambda: TangentVector(np.zeros(2), np.zeros(1), 0.0), "dx and dp lengths differ"),
    (lambda: ContactHamiltonian(n=0, value=lambda x, p, z: 0.0), "dimension n must be >= 1"),
    (lambda: H_1.partials(POINT_2), "point dimension 2 != Hamiltonian dimension 1"),
    (lambda: contact_form_pairing(POINT_2, reeb_field(1)), "point dimension 2 != vector dimension 1"),
    (lambda: reeb_field(0), "dimension n must be >= 1"),
    (lambda: hamiltonian_vector_field(H_1, POINT_2), "point dimension 2 != Hamiltonian dimension 1"),
], ids=["as_vector-2d", "tangent-lengths", "hamiltonian-n0", "partials", "pairing", "reeb-n0",
        "vector-field-point"])
def test_input_checks_raise_a_dimension_mismatch(call, fragment):
    with pytest.raises(DimensionMismatchError, match=re.escape(fragment)):
        call()


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
        h = closed_form_h(1, lambda x, p, z: 0.5 * float(p @ p), lambda x, p, z: np.zeros(1),
                          lambda x, p, z: p, lambda x, p, z: 0.0)
        pt = CanonicalPoint(np.array([0.0]), np.array([2.0]), 0.0)
        v = hamiltonian_vector_field(h, pt)
        assert v.dx[0] == pytest.approx(-2.0)
        assert v.dp[0] == pytest.approx(0.0)
        assert v.dz == pytest.approx(-2.0)

    def test_fd_partials_match_closed_form(self):
        closed = closed_form_h(2, lambda x, p, z: float(x @ p) + np.sin(z),
                               lambda x, p, z: p, lambda x, p, z: x,
                               lambda x, p, z: np.cos(z))
        fd = ContactHamiltonian(n=2, value=closed.value)
        for _ in range(20):
            pt = random_point(2)
            va = hamiltonian_vector_field(closed, pt)
            vb = hamiltonian_vector_field(fd, pt)
            assert np.allclose(va.as_array(), vb.as_array(), atol=1e-7)
            for a, b in zip(closed.partials(pt), fd.partials(pt)):
                assert np.allclose(a, b, atol=1e-7)

    def test_hamiltonian_needs_a_value_or_a_jet(self):
        with pytest.raises(ValueError):
            ContactHamiltonian(n=1)

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


def constant_field_h(h, dx, dp):
    """n = 1, with the field (dx, dp, h + p dx) at every state (x, p, z)."""
    return ContactHamiltonian(
        n=1, jet=lambda x, p, z, diag=None: (h, np.array([dx]), np.array([dp]), 0.0))


class TestFinitenessGuard:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("slot", range(3))
    def test_a_nonfinite_component_raises(self, bad, slot):
        components = [0.5, -0.25, 2.0]
        components[slot] = bad
        dx, dp, h = components
        with warnings.catch_warnings():  # p = 1: p dx is inf for an infinite dx, not 0 * inf
            warnings.simplefilter("error")
            with pytest.raises(EvaluationError, match="non-finite contact Hamiltonian"):
                hamiltonian_vector_field(constant_field_h(h, dx, dp), np.array([0.0, 1.0, 0.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_a_nonfinite_field_written_into_out_raises(self, bad):
        with pytest.raises(EvaluationError, match="non-finite contact Hamiltonian"):
            hamiltonian_vector_field(constant_field_h(0.5, bad, 1.0), np.array([0.0, 1.0, 0.0]),
                                     None, np.empty(3))

    def test_a_finite_field_whose_sum_overflows_passes_without_a_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            dy = hamiltonian_vector_field(constant_field_h(3.0, 1e308, 1e308), np.zeros(3))
        assert dy.tolist() == [1e308, 1e308, 3.0]

    @given(st.lists(st.one_of(st.floats(),
                              st.sampled_from([np.nan, np.inf, -np.inf, 1.7976931348623157e308,
                                               -1.7976931348623157e308, 1e308, 5e-324])),
                    max_size=9))
    def test_agrees_with_isfinite(self, entries):
        v = np.array(entries, dtype=float)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _all_finite(v) is bool(np.isfinite(v).all())


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
        h = closed_form_h(n, lambda x, p, z: float(x @ p) - gamma0 * z,
                          lambda x, p, z: p, lambda x, p, z: x, lambda x, p, z: -gamma0)
        kappa = phase_compressibility(h, random_point(n))
        assert kappa == pytest.approx(-(n + 1) * gamma0, abs=1e-6)

    def test_z_independent_h_incompressible(self):
        h = ContactHamiltonian(n=1, value=lambda x, p, z: float(x @ x + p @ p))
        assert phase_compressibility(h, random_point(1)) == pytest.approx(0.0, abs=1e-5)

    def test_jet_with_wrong_dh_dz_raises(self):
        # the field of h = x.p - gamma0 z, whose jet reports dh/dz = 0: the
        # numeric divergence is -(n+1) gamma0, the analytic one 0
        gamma0, n = 0.7, 2

        def jet(x, p, z, diag=None):
            return float(x @ p) - gamma0 * z, -x, p - gamma0 * p, 0.0

        with pytest.raises(CompressibilityMismatchError, match="analytic 0 vs numeric -2.1"):
            phase_compressibility(ContactHamiltonian(n=n, jet=jet), random_point(n))


class TestCentralHessian:
    @pytest.mark.parametrize("u", [[0.3, -0.7, 1.1], [2.0, 0.5, -4.0], [-1e-3, 3.0, 0.2]])
    def test_matches_closed_form_with_mixed_terms(self, u):
        # f = e^u0 sin u1 + u0^2 u2^3 + u1 u2: every entry of its Hessian is nonzero
        def f(v):
            return np.exp(v[0]) * np.sin(v[1]) + v[0] ** 2 * v[2] ** 3 + v[1] * v[2]

        a, b, c = u
        exact = np.array([
            [np.exp(a) * np.sin(b) + 2 * c ** 3, np.exp(a) * np.cos(b), 6 * a * c ** 2],
            [np.exp(a) * np.cos(b), -np.exp(a) * np.sin(b), 1.0],
            [6 * a * c ** 2, 1.0, 6 * a ** 2 * c],
        ])
        H = central_hessian(f, u)
        assert np.array_equal(H, H.T)
        # truncation s^2 f''''/12 and rounding eps |f| / s^2 are both about eps^(1/2)
        scale = max(1.0, abs(f(np.array(u)))) * max(1.0, *np.abs(u)) ** 2
        assert np.allclose(H, exact, rtol=0, atol=1e-6 * scale)
        assert np.abs(H - exact).max() > 0  # a difference, not the closed form
