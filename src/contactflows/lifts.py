"""Lifting flows from a Legendre submanifold to the ambient contact manifold.

A lift is specified by a side (primal ``psi`` chart or dual ``phi`` chart),
a drift F on the submanifold, and a restoring function of the scalar defect.
The induced contact Hamiltonian is  h = Delta . F + Gamma(Delta_0); its
canonical vector field reproduces the drift on the submanifold and pulls
the defect coordinates back to zero off it.

Only the psi side is written out.  A phi-side lift of psi is the psi-side
lift of the conjugate phi (``dual_spec``) seen through the Legendre swap
S(x, p, z) = (p, x, x.p - z).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace
from typing import Callable, Optional

import numpy as np

from .errors import DimensionMismatchError
from .geometry import (
    CanonicalPoint,
    ContactHamiltonian,
    TangentVector,
    central_jacobian,
    hamiltonian_vector_field,
    legendre_swap,
    push_swap,
    swap_hamiltonian,
)
from .potentials import (
    ConvexPotential,
    DuallyFlatWorkspace,
    conjugate,
    delta_psi,
    embed_psi,
)


@dataclass(frozen=True)
class DriftField:
    """A vector field F on the submanifold chart (a function of x or of p).

    ``structure`` tags the recognized stability classes:
    ("linear", jac_const), ("rotational", omega), or
    ("onsager", L, U_hessian).  Untagged drifts get no certificate.
    ``workspace`` is the one a dual-chart drift reads; ``integrate_lift`` clears it.
    """

    n: int
    eval: Callable[[np.ndarray], np.ndarray]
    jacobian: Optional[Callable[[np.ndarray], np.ndarray]] = None
    structure: Optional[tuple] = None
    workspace: Optional[DuallyFlatWorkspace] = field(default=None, repr=False)

    def at(self, u) -> np.ndarray:
        return np.atleast_1d(np.asarray(self.eval(np.asarray(u, dtype=float)), dtype=float))

    def jacobian_at(self, u) -> np.ndarray:
        u = np.asarray(u, dtype=float)
        if self.jacobian is not None:
            return np.atleast_2d(np.asarray(self.jacobian(u), dtype=float))
        return central_jacobian(self.at, u)


def linear_drift(jac_const: float, n: int, offset=None) -> DriftField:
    """F(u) = jac_const * (u - offset): constant-multiple-of-identity Jacobian."""
    off = np.zeros(n) if offset is None else np.asarray(offset, dtype=float)
    return DriftField(
        n=n,
        eval=lambda u: jac_const * (u - off),
        jacobian=lambda u: jac_const * np.eye(n),
        structure=("linear", jac_const),
    )


def rotational_drift(omega: float) -> DriftField:
    """n=2 drift (omega u2, -omega u1): rotation of the chart coordinates."""
    return DriftField(
        n=2,
        eval=lambda u: np.array([omega * u[1], -omega * u[0]]),
        jacobian=lambda u: np.array([[0.0, omega], [-omega, 0.0]]),
        structure=("rotational", omega),
    )


def onsager_drift(L, u_gradient, u_hessian=None, n=None) -> DriftField:
    """F(x) = -L grad U(x) for an SPD coefficient matrix L."""
    L = np.atleast_2d(np.asarray(L, dtype=float))
    np.linalg.cholesky(L)  # SPD gate
    n = L.shape[0] if n is None else n
    return DriftField(
        n=n,
        eval=lambda x: -L @ np.atleast_1d(np.asarray(u_gradient(x), dtype=float)),
        jacobian=(
            (lambda x: -L @ np.atleast_2d(np.asarray(u_hessian(x), dtype=float)))
            if u_hessian is not None
            else None
        ),
        structure=("onsager", L, u_hessian),
    )


@dataclass(frozen=True)
class RestoringFunction:
    """Scalar restoring term Gamma with Gamma(0) = 0.

    kind is "linear" (with rate gamma0) or "custom"; stability certificates
    only reason about the linear case.
    """

    eval: Callable[[float], float]
    derivative: Callable[[float], float]
    kind: str = "custom"
    gamma0: Optional[float] = None

    def __post_init__(self):
        if abs(self.eval(0.0)) > 1e-14:
            raise ValueError("restoring function must vanish at zero defect")
        for d in (0.5, -0.5, 2.0, -2.0):
            if self.eval(d) == 0.0:
                warnings.warn(
                    f"restoring function vanishes at nonzero defect {d}", stacklevel=2
                )
                break


def linear_restoring(gamma0: float) -> RestoringFunction:
    return RestoringFunction(
        eval=lambda d: gamma0 * d,
        derivative=lambda d: gamma0,
        kind="linear",
        gamma0=float(gamma0),
    )


@dataclass(frozen=True)
class LiftSpec:
    """Recipe for a lifted flow: chart side, potential, drift, restoring."""

    side: str  # "psi" | "phi"
    potential: ConvexPotential
    drift: DriftField
    restoring: RestoringFunction
    workspace: DuallyFlatWorkspace = field(default=None, repr=False)

    def __post_init__(self):
        if self.side not in ("psi", "phi"):
            raise ValueError(f"side must be 'psi' or 'phi', got {self.side!r}")
        if self.potential.n != self.drift.n:
            raise DimensionMismatchError(
                f"potential dimension {self.potential.n} != drift dimension {self.drift.n}"
            )
        if self.workspace is None:
            object.__setattr__(self, "workspace", DuallyFlatWorkspace(self.potential))

    @property
    def n(self) -> int:
        return self.potential.n


def dual_spec(spec: LiftSpec) -> LiftSpec:
    """The psi-side lift of the conjugate that a phi-side lift becomes under the swap.

    The drift carries over; the restoring function becomes
    Gamma~(d) = -Gamma(-d), which is Gamma itself when Gamma is linear.
    Every transform goes through ``spec.workspace``, so its latest solve is shared.
    """
    if spec.side != "phi":
        raise ValueError("dual_spec needs a phi-side lift")
    gam = spec.restoring
    if gam.kind != "linear":
        gam = RestoringFunction(eval=lambda d: -spec.restoring.eval(-d),
                                derivative=lambda d: spec.restoring.derivative(-d))
    return LiftSpec(side="psi", potential=conjugate(spec.workspace),
                    drift=spec.drift, restoring=gam)


# ---------------------------------------------------------------------------
# Hamiltonian assembly.

def build_hamiltonian(spec: LiftSpec) -> ContactHamiltonian:
    """h = Delta . F + Gamma(Delta_0) on the chosen side, with analytic partials.

    Its field evaluates psi, its gradient and Hessian (one ``jet_at``), F
    and its Jacobian once: dx = F, dp = Hess psi . F + J^T Delta + Gamma'(Delta_0) Delta,
    dz = grad psi . F + Gamma(Delta_0).  Asked for diagnostics, it also
    stores h, delta0, delta_norm = |Delta| and the compressibility
    kappa = (n + 1) dh/dz = -(n + 1) Gamma'(Delta_0).
    """
    if spec.side == "phi":
        return swap_hamiltonian(build_hamiltonian(dual_spec(spec)))
    psi = spec.potential
    F = spec.drift
    Gam = spec.restoring
    n = spec.n

    def value(x, p, z):
        d0 = psi.value_at(x) - z
        d = psi.gradient_at(x) - p
        return float(d @ F.at(x)) + Gam.eval(d0)

    def grad_x(x, p, z):
        d0 = psi.value_at(x) - z
        d = psi.gradient_at(x) - p
        H = psi.hessian_at(x, check_spd=False)
        return H @ F.at(x) + F.jacobian_at(x).T @ d + Gam.derivative(d0) * psi.gradient_at(x)

    def grad_p(x, p, z):
        return -F.at(x)

    def dz_partial(x, p, z):
        return -Gam.derivative(psi.value_at(x) - z)

    def field(y, diag=None):
        x = y[:n]
        value, g, H = psi.jet_at(x)
        d0 = value - y[2 * n]
        d = g - y[n:2 * n]
        f = F.at(x)
        rate, restoring = Gam.derivative(d0), Gam.eval(d0)
        out = np.empty(2 * n + 1)
        out[:n] = f
        out[n:2 * n] = H @ f + F.jacobian_at(x).T @ d + rate * d
        out[2 * n] = g @ f + restoring
        if diag is not None:
            diag.update(h=np.einsum("i,i->", d, f) + restoring, delta0=d0,
                        delta_norm=np.sqrt(np.einsum("i,i->", d, d)), kappa=-(n + 1) * rate)
        return out

    return ContactHamiltonian(
        n=n, value=value, grad_x=grad_x, grad_p=grad_p, dz_partial=dz_partial,
        field=field,
    )


# ---------------------------------------------------------------------------
# Restricted (on-submanifold) fields; closed form, no Hamiltonian needed.

def restricted_field_psi(spec: LiftSpec, x):
    """On the psi-graph: dx = F, dp = Hess psi . F, dz = grad psi . F."""
    if spec.side != "psi":
        raise ValueError("spec is not a psi-side lift")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    f = spec.drift.at(x)
    dp = spec.potential.hessian_at(x) @ f
    dz = float(spec.potential.gradient_at(x) @ f)
    return f, dp, dz


def restricted_field_phi(spec: LiftSpec, p):
    """On the phi-graph: dp = F, dx = Hess phi . F, dz = p . Hess phi . F."""
    dual = dual_spec(spec)
    v = push_swap(embed_psi(dual.potential, p), TangentVector(*restricted_field_psi(dual, p)))
    return v.dx, v.dp, v.dz


def lifted_field(spec: LiftSpec, pt: CanonicalPoint) -> TangentVector:
    """Ambient canonical field of the built Hamiltonian at any point."""
    return hamiltonian_vector_field(build_hamiltonian(spec), pt)


def delta_velocities(spec: LiftSpec, pt: CanonicalPoint):
    """Rates of the defect coordinates along the lifted flow.

    Returns (dDelta_0/dt, dDelta/dt) from the triangular system
    dDelta_a = -(dF/du)^T Delta - Gamma' Delta_a,  dDelta_0 = -Gamma(Delta_0).
    """
    if spec.side == "phi":  # the swap flips the sign of every defect
        return tuple(-r for r in delta_velocities(dual_spec(spec), legendre_swap(pt)))
    d0, d = delta_psi(spec.potential, pt)
    J = spec.drift.jacobian_at(pt.x)
    gp = spec.restoring.derivative(d0)
    return -spec.restoring.eval(d0), -J.T @ d - gp * d


# ---------------------------------------------------------------------------
# Geodesic and gradient drifts.

def geodesic_drift_psi(ws: DuallyFlatWorkspace, p_from, p_to) -> DriftField:
    """Drift whose flow moves p at the constant rate p_to - p_from."""
    dp = np.atleast_1d(np.asarray(p_to, dtype=float)) - np.atleast_1d(
        np.asarray(p_from, dtype=float)
    )
    return DriftField(
        n=ws.n,
        eval=lambda x: np.linalg.solve(ws.psi.hessian_at(x), dp),
    )


def geodesic_drift_phi(ws: DuallyFlatWorkspace, x_from, x_to) -> DriftField:
    """Dual-chart drift whose flow moves x at the constant rate x_to - x_from.

    The psi-side geodesic drift of the conjugate: F(p) = Hess psi(x*(p)) . dx.
    """
    drift = geodesic_drift_psi(DuallyFlatWorkspace(conjugate(ws)), x_from, x_to)
    return replace(drift, workspace=ws)


def gradient_drift_psi(ws: DuallyFlatWorkspace, target_x) -> DriftField:
    """Divergence-gradient descent toward the point with x-coordinates target_x.

    Along the flow p(t) - p' = (p(0) - p') e^{-t}.
    """
    target_x = np.atleast_1d(np.asarray(target_x, dtype=float))
    p_prime = ws.psi.gradient_at(target_x)
    return DriftField(
        n=ws.n,
        eval=lambda x: -np.linalg.solve(
            ws.psi.hessian_at(x), ws.psi.gradient_at(x) - p_prime
        ),
    )


def gradient_drift_phi(ws: DuallyFlatWorkspace, target_p) -> DriftField:
    """Dual-chart mirror: along the flow x(t) - x' = (x(0) - x') e^{-t}.

    The psi-side gradient drift of the conjugate toward target_p.
    """
    drift = gradient_drift_psi(DuallyFlatWorkspace(conjugate(ws)), target_p)
    return replace(drift, workspace=ws)


# ---------------------------------------------------------------------------
# Stability certificates.

APPROACHES_SUBMANIFOLD = "asymptotically-approaches-submanifold"
APPROACHES_FIXED_POINT = "approaches-fixed-point"
INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class StabilityVerdict:
    verdict: str
    checks: dict

    def __bool__(self):
        return self.verdict != INCONCLUSIVE


def stability_certificate(spec: LiftSpec, sample_points=None) -> StabilityVerdict:
    """Classify the lift against the recognized decay classes.

    Linear restoring is required throughout; anything unrecognized is
    reported inconclusive, never guessed.  For the gradient class the
    positive-definiteness condition is sampled on the caller grid (plus
    the origin) and the minimum eigenvalue found is reported.
    """
    if spec.restoring.kind != "linear":
        return StabilityVerdict(INCONCLUSIVE, {"reason": "nonlinear restoring term"})
    gamma0 = spec.restoring.gamma0
    s = spec.drift.structure
    if s is None:
        return StabilityVerdict(INCONCLUSIVE, {"reason": "unrecognized drift class"})

    if s[0] == "linear":
        lam = s[1]
        checks = {"gamma0 > 0": gamma0 > 0, "jacobian + gamma0 > 0": lam + gamma0 > 0,
                  "gamma0": gamma0, "jacobian": lam}
        ok = checks["gamma0 > 0"] and checks["jacobian + gamma0 > 0"]
        return StabilityVerdict(APPROACHES_SUBMANIFOLD if ok else INCONCLUSIVE, checks)

    if s[0] == "rotational":
        checks = {"gamma0 > 0": gamma0 > 0, "gamma0": gamma0, "omega": s[1]}
        return StabilityVerdict(
            APPROACHES_SUBMANIFOLD if gamma0 > 0 else INCONCLUSIVE, checks
        )

    if s[0] == "onsager":
        L, u_hess = s[1], s[2]
        if u_hess is None:
            return StabilityVerdict(INCONCLUSIVE, {"reason": "no Hessian for the potential"})
        pts = [np.zeros(spec.n)] if sample_points is None else [
            np.atleast_1d(np.asarray(q, dtype=float)) for q in sample_points
        ]
        min_eig = np.inf
        for q in pts:
            M = gamma0 * L - L @ np.atleast_2d(np.asarray(u_hess(q), dtype=float)) @ L
            min_eig = min(min_eig, float(np.min(np.linalg.eigvalsh(0.5 * (M + M.T)))))
        checks = {"gamma0 > 0": gamma0 > 0, "min eigenvalue": min_eig,
                  "sampled points": len(pts)}
        ok = gamma0 > 0 and min_eig > 0
        return StabilityVerdict(APPROACHES_FIXED_POINT if ok else INCONCLUSIVE, checks)

    return StabilityVerdict(INCONCLUSIVE, {"reason": f"unknown structure {s[0]!r}"})

