"""Each lift's jet against central differences of an independent h.

Every Hamiltonian the lift builders return carries a hand-written jet
(h, dx, dp, dh/dz), with dx and dp the components of X_h, that evaluates
psi, its derivatives and the drift once, and ``ContactHamiltonian.field`` assembles the canonical field and
the h and kappa diagnostics from it.  The oracle reads no jet: it writes
h = D . F + Gamma(D0) from the lift's defect functions (``defects``) and
the drift of the lift's own chart, and takes its partials by central
differences.  The extended lift's jet is also checked against the base
lift on psi~ (``extension_spec``).  Over the same lifts, properties check
the contact identities, that the field on the submanifold is the
restricted field, that off it the defects move at ``delta_velocities``,
and that the conserving lifts keep psi~ level.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contactflows import integrate, potentials
from contactflows.errors import DimensionMismatchError, EvaluationError
from contactflows.geometry import (
    CanonicalPoint,
    ContactHamiltonian,
    central_jacobian,
    hamiltonian_vector_field,
    phase_compressibility,
    swap_hamiltonian,
    verify_contact_identities,
)
from contactflows.integrate import integrate_lift
from contactflows.lifts import (
    DriftField,
    LiftSpec,
    RestoringFunction,
    build_hamiltonian,
    defects,
    delta_velocities,
    dual_spec,
    embed,
    extension_spec,
    linear_drift,
    restricted_field,
)
from contactflows.models import (
    MODEL_BUILDERS,
    CircuitParams,
    OnsagerParams,
    SpinParams,
)
from contactflows.potentials import legendre_transform, quadratic_potential, spin_potential
from test_potentials import without_closed_form

RNG = np.random.default_rng(20151)
REL_TOL = 1e-13
FD_TOL = 1e-7  # central differences of h, relative to the field's magnitude

PARAMS = {
    "spin": SpinParams(theta=0.4, gamma0=2.0, lambda0=0.5),
    "onsager": OnsagerParams(L_matrix=np.array([[2.0, 0.3], [0.3, 1.0]])),
}
CIRCUIT = CircuitParams(R=1.3, C=0.7, L=0.9, T0=1.1, gamma0=0.8)

# non-odd, so the restoring function of the dual lift differs from it
QUADRATIC_GAMMA = RestoringFunction(eval=lambda d: d + 0.3 * d * d,
                                    derivative=lambda d: 1.0 + 0.6 * d)
# no analytic Jacobian: the lift falls back to central differences of F
NO_JACOBIAN = DriftField(n=2, eval=lambda u: np.array([np.sin(u[1]), -u[0] ** 3 - 0.5 * u[1]]))


def other(side):
    return "phi" if side == "psi" else "psi"


def on_side(spec: LiftSpec, side: str) -> LiftSpec:
    """The base lift (no anchor) of the spec's potential, drift and restoring on a side."""
    return LiftSpec(side=side, potential=spec.potential, drift=spec.drift,
                    restoring=spec.restoring)


def model_cases():
    """(id, spec) for every model on its own chart and its base lift on the other."""
    cases = []
    for name, build in MODEL_BUILDERS.items():
        spec = build(PARAMS.get(name, CIRCUIT))
        cases.append((name, spec))
        cases.append((f"{name}-base-{other(spec.side)}", on_side(spec, other(spec.side))))
    return cases


def custom_cases():
    cases = []
    for side in ("psi", "phi"):
        cases.append((f"spin2-quadratic-gamma-{side}",
                      LiftSpec(side=side, potential=spin_potential(2),
                               drift=linear_drift(-0.7, 2, offset=[0.2, -0.1]),
                               restoring=QUADRATIC_GAMMA)))
        cases.append((f"no-jacobian-{side}",
                      LiftSpec(side=side, potential=quadratic_potential([[2.0, 0.4], [0.4, 1.0]]),
                               drift=NO_JACOBIAN, restoring=QUADRATIC_GAMMA)))
        cases.append((f"extended-quadratic-gamma-{side}",
                      LiftSpec(side=side, potential=spin_potential(2), drift=NO_JACOBIAN,
                               restoring=QUADRATIC_GAMMA, anchor=1.3)))
    return cases


CASES = model_cases() + custom_cases()


def random_state(dim):
    # |coordinates| < 0.9 keeps every p inside the spin potential's dual chart
    return RNG.uniform(-0.9, 0.9, dim)


def conserved(spec):
    """psi~ of an anchored lift: psi(x) + anchor x_extra, or phi(p) + anchor p_extra."""
    def value(pt):
        if spec.side == "psi":
            return spec.potential.value_at(pt.x[:-1]) + spec.anchor * pt.x[-1]
        phi = legendre_transform(spec.potential, pt.p[:-1]).phi_value
        return phi + spec.anchor * pt.p[-1]

    return value


def independent_h(spec):
    """h = D . F + Gamma(D0), with F read at the chart coordinate of the base lift."""

    def value(x, p, z):
        pt = CanonicalPoint(x, p, z)
        d0, d = defects(spec, pt)
        u = (pt.x if spec.side == "psi" else pt.p)[:spec.n]
        return float(d @ spec.drift.at(u)) + spec.restoring.eval(d0)

    return value


@pytest.mark.parametrize("spec", [s for _, s in CASES], ids=[i for i, _ in CASES])
def test_fused_field_matches_generic_field(spec):
    # the field, partials and h, kappa diagnostics read from the lift's jet,
    # against the generic ones of the independent h given as a value alone
    h = build_hamiltonian(spec)
    m = h.n
    oracle = ContactHamiltonian(n=m, value=independent_h(spec))
    for _ in range(10):
        y = random_state(2 * m + 1)
        pt = CanonicalPoint(y[:m], y[m:2 * m], y[2 * m])
        diag = {}
        lifted, generic = h.field(y, diag), oracle.field(y)
        assert lifted.shape == generic.shape == y.shape
        scale = max(1.0, float(np.max(np.abs(generic))))
        assert np.max(np.abs(lifted - generic)) <= FD_TOL * scale
        expect = oracle.partials(pt)
        for got, want in zip(h.partials(pt), expect):
            assert np.max(np.abs(got - want)) <= FD_TOL * scale
        assert abs(diag["h"] - oracle(pt)) <= 1e-12 * scale
        assert abs(diag["kappa"] - (m + 1) * expect[2]) <= FD_TOL * scale


EXTENDED = [(i, s) for i, s in CASES if s.anchor is not None]


@pytest.mark.parametrize("spec", [s for _, s in EXTENDED], ids=[i for i, _ in EXTENDED])
def test_extended_field_is_the_base_field_on_psi_tilde(spec):
    # h~ is the base lift of psi~(x, x_extra) = psi(x) + anchor x_extra with
    # drift F~ = (F, -grad psi . F / anchor), whose gradient F~ keeps level
    psi_side = spec if spec.side == "psi" else dual_spec(spec)
    ext = extension_spec(psi_side)
    base = build_hamiltonian(ext)
    if spec.side == "phi":
        base = swap_hamiltonian(base)
    h = build_hamiltonian(spec)
    for _ in range(10):
        y = random_state(2 * h.n + 1)
        lifted, reference = h.field(y), base.field(y)
        scale = max(1.0, float(np.max(np.abs(reference))))
        assert np.max(np.abs(lifted - reference)) <= REL_TOL * scale
        X = y[:h.n]
        grad, f = ext.potential.gradient_at(X), ext.drift.at(X)
        assert abs(grad @ f) <= REL_TOL * max(1.0, float(np.abs(grad) @ np.abs(f)))


def test_point_and_flat_state_give_the_same_field():
    h = build_hamiltonian(MODEL_BUILDERS["rlc"](CIRCUIT))
    y = random_state(5)
    v = hamiltonian_vector_field(h, CanonicalPoint(y[:2], y[2:4], y[4]))
    assert np.array_equal(v.as_array(), hamiltonian_vector_field(h, y))


@pytest.mark.parametrize("spec", [s for _, s in CASES], ids=[i for i, _ in CASES])
def test_field_written_into_out_is_the_field(spec):
    # an integrator hands each stage its buffer row: the same bytes and diagnostics
    h = build_hamiltonian(spec)
    for _ in range(5):
        y = random_state(2 * h.n + 1)
        want_diag = {}
        want = hamiltonian_vector_field(h, y, want_diag)
        out, diag = np.full(len(y), np.nan), {}
        assert hamiltonian_vector_field(h, y, diag, out) is out
        assert out.tobytes() == want.tobytes() and diag == want_diag


def test_flat_state_of_wrong_length_rejected():
    h = build_hamiltonian(MODEL_BUILDERS["rlc"](CIRCUIT))
    with pytest.raises(DimensionMismatchError):
        hamiltonian_vector_field(h, np.zeros(4))


def test_nonfinite_field_raises_with_coordinates():
    blow = DriftField(n=1, eval=lambda x: np.array([np.inf if x[0] > 1.0 else x[0]]),
                      jacobian=lambda x: np.eye(1))
    spec = LiftSpec(side="psi", potential=quadratic_potential(np.eye(1)), drift=blow,
                    restoring=QUADRATIC_GAMMA)
    h = build_hamiltonian(spec)
    y = np.array([2.0, 0.5, 0.1])
    with pytest.raises(EvaluationError) as info:
        hamiltonian_vector_field(h, y)
    assert info.value.coords[0][0] == 2.0
    with pytest.raises(EvaluationError):
        hamiltonian_vector_field(h, CanonicalPoint(y[:1], y[1:2], y[2]))
    assert np.all(np.isfinite(hamiltonian_vector_field(h, np.array([0.5, 0.5, 0.1]))))


class TestInitialState:
    spec = MODEL_BUILDERS["rc"](CIRCUIT)

    def test_wrong_length_rejected(self):
        with pytest.raises(DimensionMismatchError):
            integrate_lift(self.spec, np.array([1.0, 0.5]), 1.0)

    def test_nonfinite_rejected(self):
        with pytest.raises(EvaluationError):
            integrate_lift(self.spec, np.array([1.0, np.nan, 0.5]), 1.0)

    def test_extended_length_rejected(self):
        thermal = MODEL_BUILDERS["rc_thermal"](CIRCUIT)
        with pytest.raises(DimensionMismatchError):
            integrate_lift(thermal, np.array([1.0, 0.5, 0.2]), 1.0)


# ---------------------------------------------------------------------------
# The diagnostics the step loop records against a per-state reference through points.

def reference_diagnostics(spec, states):
    extended = spec.anchor is not None
    m = spec.n + 1 if extended else spec.n
    value, restoring = independent_h(spec), spec.restoring
    psi_tilde = conserved(spec)
    rows = {k: [] for k in ("h", "delta0", "delta_norm", "kappa", "psi_tilde", "S")}
    for y in states:
        pt = CanonicalPoint(y[:m], y[m:2 * m], y[2 * m])
        d0, d = defects(spec, pt)
        rows["h"].append(value(pt.x, pt.p, pt.z))
        # every D0 is a function minus z, and D does not read z: dh/dz = -Gamma'(D0)
        rows["kappa"].append(-(m + 1) * restoring.derivative(d0))
        if extended:
            rows["psi_tilde"].append(psi_tilde(pt))
            rows["S"].append(pt.x[-1] if spec.side == "psi" else pt.p[-1])
        rows["delta0"].append(d0)
        rows["delta_norm"].append(float(np.linalg.norm(d)))
    return {k: np.array(v) for k, v in rows.items() if v}


@pytest.mark.parametrize("spec", [s for _, s in CASES], ids=[i for i, _ in CASES])
def test_diagnostics_match_per_state_reference(spec):
    dim = 2 * (spec.n + 1 if spec.anchor is not None else spec.n) + 1
    traj = integrate_lift(spec, random_state(dim), 0.3)
    expect = reference_diagnostics(spec, traj.states)
    got = traj.diagnostics
    assert set(got) == set(expect)
    for key, ref in expect.items():
        scale = max(1.0, float(np.max(np.abs(ref))))
        assert np.max(np.abs(got[key] - ref)) <= 1e-12 * scale, key


def test_phi_diagnostics_solve_only_the_final_state_again(monkeypatch):
    # every stage solves its own p once; the recorded states add no solve
    # except the final one, from which no step starts
    calls = {"field": 0, "legendre": 0}

    def counted(fn, key):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(integrate, "hamiltonian_vector_field",
                        counted(integrate.hamiltonian_vector_field, "field"))
    monkeypatch.setattr(potentials, "legendre_transform",
                        counted(potentials.legendre_transform, "legendre"))
    spec = MODEL_BUILDERS["rlc"](CIRCUIT)
    assert spec.side == "phi"
    # its quadratic knows its conjugate; the bare one goes through Newton
    spec = replace(spec, potential=without_closed_form(spec.potential))
    traj = integrate_lift(spec, random_state(5), 1.0)
    assert len(traj.times) > 2
    assert calls["legendre"] == calls["field"] + 1


# ---------------------------------------------------------------------------
# The contact identities as properties over the lifts of CASES.  lambda(X_h) = h
# holds by construction of the field's assembly from the jet (dz = h - p . dh/dp),
# so it is no evidence about a lift and is not asserted here.

HAMILTONIANS = [build_hamiltonian(s) for _, s in CASES]


@st.composite
def lift_states(draw):
    h = draw(st.sampled_from(HAMILTONIANS))
    coords = st.lists(st.floats(-0.9, 0.9), min_size=h.n, max_size=h.n).map(np.array)
    return h, CanonicalPoint(draw(coords), draw(coords), draw(st.floats(-0.9, 0.9)))


@settings(max_examples=60, deadline=None)
@given(lift_states())
def test_field_derives_h_along_the_reeb_rate(case):
    # X_h h = (Rh) h, with both derivatives by central differences of step 1e-4
    h, pt = case
    rep = verify_contact_identities(h, pt)
    v = hamiltonian_vector_field(h, pt)
    assert rep.derivation_residual <= 1e-6 * (1.0 + float(np.max(np.abs(v.as_array()))) ** 2)


@settings(max_examples=60, deadline=None)
@given(lift_states())
def test_recorded_kappa_is_the_phase_compressibility(case):
    # div X_h = (n+1) dh/dz: phase_compressibility raises unless the numeric
    # divergence agrees with (n+1) dh/dz, and the step loop records that as kappa
    h, pt = case
    diag = {}
    h.field(np.concatenate([pt.x, pt.p, [pt.z]]), diag)
    assert phase_compressibility(h, pt) == diag["kappa"]


# The invariant measure on the flow map.  Liouville's formula gives
# log det D(phi_T) = int_0^T kappa dt, which for a linear Gamma is
# -(N + 1) gamma0 T in canonical dimension N, whatever psi, F, the chart or
# the anchor; the RK4 map of the integrator and the jet together is held to it.
FLOW_T, FLOW_STEP, FLOW_DELTA = 0.25, 0.025, 1e-5


@pytest.mark.parametrize("side", ["psi", "phi"])
@pytest.mark.parametrize("name", MODEL_BUILDERS)
def test_rk4_flow_map_contracts_volume_at_the_restoring_rate(name, side):
    """log det of the central-difference Jacobian of the RK4 map against -(N + 1) gamma0 T.

    The bound has two parts, both at the unit scale of these starts and constants.
    RK4 maps y' = Ay by the polynomial R(hA) of its stability function, with
    log R(z) = z - z^5 / 120 + O(z^6), so over T / h steps its log det misses the
    exact one by about (T / h) sum |h lambda_i|^5 / 120, lambda_i the eigenvalues
    of the field's Jacobian at the start; twice that allows for the nonlinear
    terms.  A central difference of offset delta misses each column by delta^2
    in truncation and by about (T / h) eps / delta in the states' rounding, and
    the log det by at most |D(phi_T)^-1| times the sum of those column misses.
    """
    spec = replace(MODEL_BUILDERS[name](PARAMS.get(name, CIRCUIT)), side=side)
    N = spec.n + (spec.anchor is not None)
    dim = 2 * N + 1
    y0 = np.random.default_rng(1512).uniform(-0.9, 0.9, dim)
    config = integrate.IntegratorConfig("rk4", step=FLOW_STEP)

    def flow(y):
        return integrate_lift(spec, y, FLOW_T, config).final_state

    offsets = FLOW_DELTA * np.eye(dim)
    D = np.array([flow(y0 + e) - flow(y0 - e) for e in offsets]).T / (2 * FLOW_DELTA)
    sign, log_det = np.linalg.slogdet(D)
    steps = round(FLOW_T / FLOW_STEP)
    lam = np.linalg.eigvals(central_jacobian(build_hamiltonian(spec).field, y0))
    rk4 = steps * float(np.sum(np.abs(FLOW_STEP * lam) ** 5)) / 120
    column = FLOW_DELTA ** 2 + steps * np.finfo(float).eps / FLOW_DELTA
    bound = 2 * rk4 + dim * np.linalg.norm(np.linalg.inv(D), 2) * column
    assert sign == 1.0
    assert abs(log_det + (N + 1) * spec.restoring.gamma0 * FLOW_T) <= bound


# ---------------------------------------------------------------------------
# What the lift is built for, as properties over the lifts of CASES: on the
# submanifold it reproduces the restricted field, and off it the defects move
# by the triangular system of delta_velocities.

def vectors(n):
    return st.lists(st.floats(-0.9, 0.9), min_size=n, max_size=n).map(np.array)


@st.composite
def chart_starts(draw):
    spec = draw(st.sampled_from([s for _, s in CASES]))
    return spec, draw(vectors(spec.n)), draw(st.floats(-0.9, 0.9))


@settings(max_examples=40, deadline=None)
@given(chart_starts())
def test_lifted_field_is_the_restricted_field_on_the_submanifold(case):
    # base and extended lifts on both charts; on the phi side the restricted
    # dz is p . Hess phi . F, not zero
    spec, u, extra = case
    v = hamiltonian_vector_field(build_hamiltonian(spec), embed(spec, u, extra)).as_array()
    expect = restricted_field(spec, u).as_array()
    assert np.max(np.abs(v - expect)) <= 1e-12 * max(1.0, float(np.max(np.abs(expect))))


# every anchored lift of CASES, on both charts
ANCHORED = [replace(s, side=side) for _, s in CASES if s.anchor is not None
            for side in ("psi", "phi")]

# (lift whose defects move, its field): each base lift of CASES with its own
# field, and for each anchored lift the base lift extension_spec of its psi
# side with the extended field, which is that lift's field.  The extended
# jet's Gamma'(D0) (grad psi - p) term vanishes on the submanifold; here it
# is checked off it.
DEFECT_CASES = [(s, build_hamiltonian(s)) for _, s in CASES if s.anchor is None] + [
    (extension_spec(s), build_hamiltonian(s))
    for s in (a if a.side == "psi" else dual_spec(a) for a in ANCHORED)]


@st.composite
def base_lift_states(draw):
    spec, h = draw(st.sampled_from(DEFECT_CASES))
    return spec, h, CanonicalPoint(draw(vectors(spec.n)), draw(vectors(spec.n)),
                                   draw(st.floats(-0.9, 0.9)))


@settings(max_examples=60, deadline=None)
@given(base_lift_states())
def test_defects_move_along_the_field_at_their_velocities(case):
    # d/dt (D0, D) along X_h, by central differences of the defects,
    # is (-Gamma(D0), -J^T D - Gamma'(D0) D)
    spec, h, pt = case
    m = spec.n
    y = np.concatenate([pt.x, pt.p, [pt.z]])
    v = hamiltonian_vector_field(h, y)

    def along(t):
        s = y + t[0] * v
        d0, d = defects(spec, CanonicalPoint(s[:m], s[m:2 * m], s[2 * m]))
        return np.append(d0, d)

    rate = central_jacobian(along, np.zeros(1))[:, 0]
    expect = np.append(*delta_velocities(spec, pt))
    assert np.max(np.abs(rate - expect)) <= 1e-8 * (1.0 + float(np.max(np.abs(v)))) ** 2


# psi~ = psi(x) + anchor x_extra on the psi side, phi(p) + anchor p_extra on
# the phi side, is level along X_h on and off the submanifold: every lift of ANCHORED.
@st.composite
def anchored_states(draw):
    spec = draw(st.sampled_from(ANCHORED))
    m = spec.n + 1
    if draw(st.booleans()):
        return spec, embed(spec, draw(vectors(spec.n)), draw(st.floats(-0.9, 0.9)))
    return spec, CanonicalPoint(draw(vectors(m)), draw(vectors(m)), draw(st.floats(-0.9, 0.9)))


@settings(max_examples=40, deadline=None)
@given(anchored_states())
def test_conserving_lift_keeps_psi_tilde_level(case):
    spec, pt = case
    m = spec.n + 1
    y = np.concatenate([pt.x, pt.p, [pt.z]])
    v = hamiltonian_vector_field(build_hamiltonian(spec), y)
    value = conserved(spec)

    def along(t):
        s = y + t[0] * v
        return np.atleast_1d(value(CanonicalPoint(s[:m], s[m:2 * m], s[2 * m])))

    rate = central_jacobian(along, np.zeros(1))[0, 0]
    assert abs(rate) <= 1e-8 * (1.0 + float(np.max(np.abs(v)))) ** 2
