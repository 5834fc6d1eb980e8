"""The Legendre swap S(x, p, z) = (p, x, x.p - z) and the phi lifts built on it."""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from contactflows.geometry import (
    CanonicalPoint,
    ContactHamiltonian,
    TangentVector,
    central_jacobian,
    contact_form_pairing,
    hamiltonian_vector_field,
    invariant_density,
    legendre_swap,
    push_swap,
    swap_hamiltonian,
)
from contactflows.lifts import (
    LiftSpec,
    RestoringFunction,
    build_hamiltonian,
    dual_spec,
    linear_drift,
    linear_restoring,
)
from contactflows.models import CircuitParams, rl_spec, rlc_spec
from contactflows.potentials import spin_potential
from test_field import CASES
from test_geometry import closed_form_h

coord = st.floats(-2.0, 2.0)


def vectors(n, elements=coord):
    return st.lists(elements, min_size=n, max_size=n).map(np.array)


@st.composite
def points_and_tangents(draw):
    n = draw(st.integers(1, 3))
    pt = CanonicalPoint(draw(vectors(n)), draw(vectors(n)), draw(coord))
    v = TangentVector(draw(vectors(n)), draw(vectors(n)), draw(coord))
    return pt, v


@settings(max_examples=60, deadline=None)
@given(points_and_tangents())
def test_swap_is_an_involution(case):
    pt, _ = case
    back = legendre_swap(legendre_swap(pt))
    assert np.array_equal(back.x, pt.x) and np.array_equal(back.p, pt.p)
    assert abs(back.z - pt.z) <= 1e-14 * max(1.0, abs(float(pt.x @ pt.p)), abs(pt.z))


@settings(max_examples=60, deadline=None)
@given(points_and_tangents())
def test_swap_pulls_the_contact_form_back_to_its_negative(case):
    # S* lambda = -lambda: lambda(dS v) at S(pt) is -lambda(v) at pt
    pt, v = case
    lhs = contact_form_pairing(legendre_swap(pt), push_swap(pt, v))
    rhs = -contact_form_pairing(pt, v)
    scale = 1.0 + float(np.abs(pt.x) @ np.abs(v.dp) + np.abs(pt.p) @ np.abs(v.dx))
    assert abs(lhs - rhs) <= 1e-13 * scale


@settings(max_examples=40, deadline=None)
@given(points_and_tangents())
def test_swapped_hamiltonian_field_is_the_pushforward(case):
    pt, _ = case
    h = closed_form_h(pt.n, lambda x, p, z: float(np.sin(x) @ p + 0.5 * z ** 2 + (x @ x) * z),
                      lambda x, p, z: np.cos(x) * p + 2 * x * z,
                      lambda x, p, z: np.sin(x), lambda x, p, z: z + float(x @ x))
    swapped = legendre_swap(pt)
    va = hamiltonian_vector_field(swap_hamiltonian(h), swapped).as_array()
    vb = push_swap(pt, hamiltonian_vector_field(h, pt)).as_array()
    assert np.allclose(va, vb, rtol=1e-12, atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(points_and_tangents())
def test_swapped_difference_hamiltonian_field_is_the_pushforward(case):
    # no analytic partials: the swap relabels the central-difference jet
    pt, _ = case
    h = ContactHamiltonian(n=pt.n, value=lambda x, p, z: float(np.sin(x) @ p + z * (x @ x)))
    swapped = swap_hamiltonian(h)
    back = legendre_swap(pt)
    va = hamiltonian_vector_field(swapped, pt).as_array()
    vb = push_swap(back, hamiltonian_vector_field(h, back)).as_array()
    assert np.allclose(va, vb, rtol=1e-12, atol=1e-12)


# ---------------------------------------------------------------------------
# phi-side lifts against the paper's phi Hamiltonian, written out directly:
#   h = (x - x*(p)) . F(p) + Gamma(x.p - phi(p) - z)
# with the conjugate in closed form for each potential.

def _quadratic_conjugate(M):
    Minv = np.linalg.inv(M)
    return (lambda p: Minv @ p), (lambda p: 0.5 * float(p @ Minv @ p))


def _spin_x_star(p):
    return np.arctanh(p)


def _spin_phi(p):
    a = np.arctanh(p)
    return float(a @ p - np.sum(np.log(2 * np.cosh(a))))


@st.composite
def phi_cases(draw):
    model = draw(st.sampled_from(["rl", "rlc", "spin2"]))
    pos = st.floats(0.5, 2.0)
    gamma0 = draw(pos)
    if model == "rl":
        L = draw(pos)
        spec = rl_spec(CircuitParams(R=draw(pos), L=L, gamma0=gamma0))
        x_star, phi = _quadratic_conjugate(np.array([[1.0 / L]]))
        p_range = 2.0
    elif model == "rlc":
        C, L = draw(pos), draw(pos)
        spec = rlc_spec(CircuitParams(R=draw(pos), C=C, L=L, gamma0=gamma0))
        x_star, phi = _quadratic_conjugate(np.diag([1.0 / C, 1.0 / L]))
        p_range = 2.0
    else:
        spec = LiftSpec(side="phi", potential=spin_potential(2),
                        drift=linear_drift(-draw(pos), 2, offset=draw(vectors(2, st.floats(-0.5, 0.5)))),
                        restoring=linear_restoring(gamma0))
        x_star, phi = _spin_x_star, _spin_phi
        p_range = 0.9
    if draw(st.booleans()):
        # a restoring function that is neither linear nor odd, so that the
        # swap's Gamma~(d) = -Gamma(-d) differs from Gamma; its other root,
        # -gamma0 / c, lies beyond |d| = 2, the farthest point at which
        # RestoringFunction looks for one
        c = gamma0 * draw(st.floats(-0.45, 0.45))
        restoring = RestoringFunction(eval=lambda d: gamma0 * d + c * d * d,
                                      derivative=lambda d: gamma0 + 2 * c * d)
        spec = LiftSpec(side="phi", potential=spec.potential, drift=spec.drift,
                        restoring=restoring)
    n = spec.n
    pt = CanonicalPoint(draw(vectors(n, st.floats(-1.5, 1.5))),
                        draw(vectors(n, st.floats(-p_range, p_range))),
                        draw(st.floats(-1.5, 1.5)))
    return spec, x_star, phi, pt


@settings(max_examples=60, deadline=None)
@given(phi_cases())
def test_phi_lift_matches_paper_hamiltonian(case):
    spec, x_star, phi, pt = case
    F, Gam = spec.drift, spec.restoring

    def h(x, p, z):
        return float((x - x_star(p)) @ F.at(p)) + Gam.eval(float(x @ p) - phi(p) - z)

    reference = hamiltonian_vector_field(ContactHamiltonian(n=spec.n, value=h), pt).as_array()
    field = hamiltonian_vector_field(build_hamiltonian(spec), pt).as_array()
    assert np.allclose(field, reference, rtol=1e-7, atol=1e-7)


@settings(max_examples=40, deadline=None)
@given(phi_cases())
def test_phi_lift_is_the_swapped_psi_lift_of_the_conjugate(case):
    spec, _, _, pt = case
    swapped = legendre_swap(pt)
    pushed = push_swap(swapped, hamiltonian_vector_field(build_hamiltonian(dual_spec(spec)),
                                                         swapped)).as_array()
    field = hamiltonian_vector_field(build_hamiltonian(spec), pt).as_array()
    assert np.allclose(field, pushed, rtol=1e-12, atol=1e-12)


# psi-side lifts, two with a nonlinear restoring function, and every
# extended lift, whose canonical dimension m is n+1
PSI_AND_EXTENDED = [build_hamiltonian(s) for _, s in CASES
                    if s.anchor is not None or s.side == "psi"]


@st.composite
def psi_and_extended_cases(draw):
    h = draw(st.sampled_from(PSI_AND_EXTENDED))
    coords = vectors(h.n, st.floats(-0.9, 0.9))
    return h, CanonicalPoint(draw(coords), draw(coords), draw(st.floats(-0.9, 0.9)))


@settings(max_examples=80, deadline=None)
@given(st.one_of(phi_cases().map(lambda c: (build_hamiltonian(c[0]), c[3])),
                 psi_and_extended_cases()))
def test_invariant_measure_on_both_charts(case):
    # div(rho X_h) = 0 for rho = h^-(m+1) on h > 0, for any Gamma: rho div X_h
    # = (m+1) rho dh/dz and X_h rho = -(m+1) rho X_h h / h = -(m+1) rho dh/dz
    h, pt = case
    hz = h.partials(pt)[2]
    assume(h(pt) > 0.1 and abs(hz) >= 0.1)
    m = h.n

    def weighted_field(y):
        rho = invariant_density(h, CanonicalPoint(y[:m], y[m:2 * m], float(y[2 * m])))
        return rho * hamiltonian_vector_field(h, y)

    y = np.concatenate([pt.x, pt.p, [pt.z]])
    div = np.trace(central_jacobian(weighted_field, y))
    # relative to the size rho (m+1) |dh/dz| of each term; the difference
    # error grows like (|grad h| / h)^2, while an exponent off by one leaves
    # 1/(m+1)
    assert abs(div) <= 1e-4 * invariant_density(h, pt) * (m + 1) * abs(hz)
