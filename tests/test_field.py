"""The fused canonical field of each lift against the generic field of its partials.

Every Hamiltonian the lift builders return carries a ``field`` that
evaluates psi, its derivatives and the drift once.  The oracle is a
Hamiltonian built from the same value and partials but no field, whose
field is assembled from the partials by the canonical formulas.
"""

import numpy as np
import pytest

from contactflows import integrate, potentials
from contactflows.errors import DimensionMismatchError, EvaluationError
from contactflows.extended import (
    ExtendedLiftSpec,
    ExtendedPoint,
    tilde_deltas,
    tilde_hamiltonian,
)
from contactflows.geometry import (
    CanonicalPoint,
    ContactHamiltonian,
    hamiltonian_vector_field,
)
from contactflows.integrate import integrate_lift
from contactflows.lifts import (
    DriftField,
    LiftSpec,
    RestoringFunction,
    build_hamiltonian,
    linear_drift,
)
from contactflows.models import (
    MODEL_BUILDERS,
    CircuitParams,
    OnsagerParams,
    SpinParams,
)
from contactflows.potentials import (
    delta_phi,
    delta_psi,
    quadratic_potential,
    spin_potential,
)

RNG = np.random.default_rng(20151)
REL_TOL = 1e-13

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


def on_side(base: LiftSpec, side: str) -> LiftSpec:
    return LiftSpec(side=side, potential=base.potential, drift=base.drift,
                    restoring=base.restoring)


def model_cases():
    """(id, spec) for every model on its own chart and its base lift on the other."""
    cases = []
    for name, build in MODEL_BUILDERS.items():
        spec = build(PARAMS.get(name, CIRCUIT))
        cases.append((name, spec))
        base = spec.base if isinstance(spec, ExtendedLiftSpec) else spec
        cases.append((f"{name}-base-{other(base.side)}", on_side(base, other(base.side))))
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
                      ExtendedLiftSpec(LiftSpec(side=side, potential=spin_potential(2),
                                                drift=NO_JACOBIAN, restoring=QUADRATIC_GAMMA),
                                       anchor=1.3)))
    return cases


CASES = model_cases() + custom_cases()


def hamiltonian(spec):
    return tilde_hamiltonian(spec) if isinstance(spec, ExtendedLiftSpec) else build_hamiltonian(spec)


def random_state(dim):
    # |coordinates| < 0.9 keeps every p inside the spin potential's dual chart
    return RNG.uniform(-0.9, 0.9, dim)


@pytest.mark.parametrize("spec", [s for _, s in CASES], ids=[i for i, _ in CASES])
def test_fused_field_matches_generic_field(spec):
    h = hamiltonian(spec)
    oracle = ContactHamiltonian(n=h.n, value=h.value, grad_x=h.grad_x,
                                grad_p=h.grad_p, dz_partial=h.dz_partial)
    assert oracle.derivative_mode == "closed_form"
    for _ in range(10):
        y = random_state(2 * h.n + 1)
        fused, generic = h.field(y), oracle.field(y)
        assert fused.shape == generic.shape == y.shape
        scale = max(1.0, float(np.max(np.abs(generic))))
        assert np.max(np.abs(fused - generic)) <= REL_TOL * scale


def test_point_and_flat_state_give_the_same_field():
    h = hamiltonian(MODEL_BUILDERS["rlc"](CIRCUIT))
    y = random_state(5)
    v = hamiltonian_vector_field(h, CanonicalPoint(y[:2], y[2:4], y[4]))
    assert np.array_equal(v.as_array(), hamiltonian_vector_field(h, y))


def test_flat_state_of_wrong_length_rejected():
    h = hamiltonian(MODEL_BUILDERS["rlc"](CIRCUIT))
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
    extended = isinstance(spec, ExtendedLiftSpec)
    h = hamiltonian(spec)
    m = h.n
    rows = {k: [] for k in ("h", "delta0", "delta_norm", "kappa", "psi_tilde", "S")}
    for y in states:
        pt = CanonicalPoint(y[:m], y[m:2 * m], y[2 * m])
        rows["h"].append(h(pt))
        rows["kappa"].append((m + 1) * h.partials(pt)[2])
        if extended:
            ept = ExtendedPoint(y[:m - 1], y[m - 1], y[m:2 * m - 1], y[2 * m - 1], y[2 * m])
            d0, d = tilde_deltas(spec, ept)
            x, p = ept.x, ept.p
            conserved = (spec.base.potential.value_at(x) + spec.anchor * ept.x_extra
                         if spec.side == "psi" else
                         spec.base.workspace.phi_value(p) + spec.anchor * ept.p_extra)
            rows["psi_tilde"].append(conserved)
            rows["S"].append(ept.x_extra if spec.side == "psi" else ept.p_extra)
        else:
            d0, d = (delta_psi if spec.side == "psi" else delta_phi)(spec.potential, pt)
        rows["delta0"].append(d0)
        rows["delta_norm"].append(float(np.linalg.norm(d)))
    return {k: np.array(v) for k, v in rows.items() if v}


@pytest.mark.parametrize("spec", [s for _, s in CASES], ids=[i for i, _ in CASES])
def test_diagnostics_match_per_state_reference(spec):
    extended = isinstance(spec, ExtendedLiftSpec)
    dim = 2 * (spec.n + 1 if extended else spec.n) + 1
    traj = integrate_lift(spec, random_state(dim), 0.3)
    expect = reference_diagnostics(spec, traj.states)
    got = traj.diagnostics
    for key, ref in expect.items():
        scale = max(1.0, float(np.max(np.abs(ref))))
        assert np.max(np.abs(got[key] - ref)) <= 1e-12 * scale, key
    if extended:
        assert np.array_equal(got["H_tot"], got["psi_tilde"])


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
    traj = integrate_lift(spec, random_state(5), 1.0)
    assert len(traj.times) > 2
    assert calls["legendre"] == calls["field"] + 1
