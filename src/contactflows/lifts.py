"""Lifting flows from a Legendre submanifold to the ambient contact manifold.

A lift is specified by a side (primal ``psi`` chart or dual ``phi`` chart),
a drift F on the submanifold, and a restoring function of the scalar defect.
The induced contact Hamiltonian is  h = Delta . F + Gamma(Delta_0); its
canonical vector field reproduces the drift on the submanifold and pulls
the defect coordinates back to zero off it.

A lift with an anchor is the conserving lift on the (2n+3)-dimensional
manifold.  The potential is extended by a linear term in one extra
coordinate, psi~(x, x_extra) = psi(x) + anchor * x_extra, and psi~ is
exactly conserved along the ambient flow: whatever the base potential
loses, the extra coordinate absorbs (entropy production in the thermal
circuit models).  That manifold is the contact manifold of dimension
2(n+1)+1, so a point is a ``CanonicalPoint`` with X = (x, x_extra) and
P = (p, p_extra), and the lift is the base lift of psi~ in dimension n+1
with drift F~ = (F, -grad psi . F / anchor) (``extension_spec``).

Only the psi side is written out.  A phi-side lift of psi is the psi-side
lift of the conjugate phi (``dual_spec``, which keeps the anchor) seen
through the Legendre swap S(x, p, z) = (p, x, x.p - z); with an anchor its
conserved quantity is phi(p) + anchor * p_extra.  A lift's submanifold is
reached through ``embed``, ``defects`` and ``restricted_field``.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace
from typing import Callable, Optional

import numpy as np

from .errors import DimensionMismatchError
from .geometry import (
    CanonicalPoint,
    ContactHamiltonian,
    TangentVector,
    _float_array,
    central_jacobian,
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

    ``jacobian`` is a callable of u, or a read-only matrix, the tag of a
    constant Jacobian, which ``affine_drift`` declares: every
    ``jacobian_at`` returns that matrix, a Hamiltonian reads it once, and
    with a linear Gamma the stability certificate reads the defect-rate
    matrix it makes (``defect_rate_matrix``).  ``structure`` is
    ("onsager", L) on Onsager gradient flows, which the certificate samples.
    ``workspace`` is the Legendre solver a dual-chart drift keeps of its
    own (``geodesic_drift_phi``); both integrate functions empty it before
    they run.
    ``at`` and ``jacobian_at`` return a float64 array of one or two
    dimensions as the callable gave it and convert any other result;
    ``at`` raises ``DimensionMismatchError`` for a result not of shape (n,).
    """

    n: int
    eval: Callable[[np.ndarray], np.ndarray]
    jacobian: Callable[[np.ndarray], np.ndarray] | np.ndarray | None = None
    structure: Optional[tuple] = None
    workspace: Optional[DuallyFlatWorkspace] = field(default=None, repr=False)

    def at(self, u) -> np.ndarray:
        f = _float_array(self.eval(np.asarray(u, dtype=float)), 1)
        if f.shape != (self.n,):
            raise DimensionMismatchError(f"drift has shape {f.shape}, expected ({self.n},)")
        return f

    def jacobian_at(self, u) -> np.ndarray:
        if isinstance(self.jacobian, np.ndarray):
            return self.jacobian
        u = np.asarray(u, dtype=float)
        if self.jacobian is not None:
            return _float_array(self.jacobian(u), 2)
        return central_jacobian(self.at, u)


def affine_drift(A, offset=None) -> DriftField:
    """F(u) = A (u - offset), the drift of constant Jacobian A.

    A is copied once into a read-only float64 matrix, which F multiplies by
    (``ndarray.dot``) and which is the drift's ``jacobian``: the matrix the
    integrator runs is the one the certificate reads.
    """
    A = np.array(A, dtype=float, ndmin=2)
    if A.shape[0] != A.shape[1]:
        raise DimensionMismatchError(f"drift matrix has shape {A.shape}, expected square")
    A.flags.writeable = False
    if offset is None:
        return DriftField(n=A.shape[0], eval=A.dot, jacobian=A)
    off = np.array(offset, dtype=float)
    return DriftField(n=A.shape[0], eval=lambda u: A.dot(u - off), jacobian=A)


def linear_drift(jac_const: float, n: int, offset=None) -> DriftField:
    """F(u) = jac_const * (u - offset): constant-multiple-of-identity Jacobian."""
    return affine_drift(jac_const * np.eye(n), offset)


def rotational_drift(omega: float) -> DriftField:
    """n=2 drift (omega u2, -omega u1): rotation of the chart coordinates."""
    return affine_drift([[0.0, omega], [-omega, 0.0]])


def onsager_coefficients(L) -> np.ndarray:
    """L as a float matrix; ``ValueError`` unless it is finite, symmetric and positive definite."""
    L = np.atleast_2d(np.asarray(L, dtype=float))
    if not np.isfinite(L).all():
        raise ValueError("L must have finite entries")
    if not np.allclose(L, L.T):
        raise ValueError("L must be symmetric")
    try:
        np.linalg.cholesky(L)
    except np.linalg.LinAlgError as exc:
        raise ValueError("L must be positive definite") from exc
    return L


def onsager_drift(L, u_gradient, u_hessian=None) -> DriftField:
    """F(x) = -L grad U(x) for an SPD coefficient matrix L (``onsager_coefficients``)."""
    L = onsager_coefficients(L)
    return DriftField(
        n=L.shape[0],
        eval=lambda x: -L.dot(_float_array(u_gradient(x), 1)),
        jacobian=None if u_hessian is None else lambda x: -L.dot(_float_array(u_hessian(x), 2)),
        structure=("onsager", L),
    )


@dataclass(frozen=True)
class RestoringFunction:
    """Scalar restoring term Gamma with Gamma(0) = 0.

    ``gamma0`` is set only for a linear Gamma(d) = gamma0 d
    (``linear_restoring``); stability certificates only reason about that case.
    """

    eval: Callable[[float], float]
    derivative: Callable[[float], float]
    gamma0: Optional[float] = None

    def __post_init__(self):
        if abs(self.eval(0.0)) > 1e-14:
            raise ValueError("restoring function must vanish at zero defect")
        if self.gamma0 is not None:  # a linear Gamma vanishes at 0 alone; no probe
            return
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
        gamma0=float(gamma0),
    )


@dataclass(frozen=True)
class LiftSpec:
    """Recipe for a lifted flow: chart side, potential, drift, restoring.

    A nonzero, finite ``anchor`` makes it the conserving lift on the
    (2n+3)-dimensional manifold: on the psi side the anchor is the pinned
    value of p_extra; on the phi side, of x_extra.
    """

    side: str  # "psi" | "phi"
    potential: ConvexPotential
    drift: DriftField
    restoring: RestoringFunction
    anchor: Optional[float] = None

    def __post_init__(self):
        if self.side not in ("psi", "phi"):
            raise ValueError(f"side must be 'psi' or 'phi', got {self.side!r}")
        if self.anchor is not None:
            object.__setattr__(self, "anchor", float(self.anchor))
            if not np.isfinite(self.anchor) or self.anchor == 0.0:
                raise ValueError("anchor must be nonzero and finite")
        if self.potential.n != self.drift.n:
            raise DimensionMismatchError(
                f"potential dimension {self.potential.n} != drift dimension {self.drift.n}"
            )

    @property
    def n(self) -> int:
        return self.potential.n


def _conjugate_with_solver(psi: ConvexPotential):
    """(conjugate of psi, the Legendre solver it reads, or None for a closed form)."""
    if psi.closed_conjugate is not None:
        return psi.closed_conjugate(), None
    ws = DuallyFlatWorkspace(psi)
    return conjugate(ws), ws


def dual_spec(spec: LiftSpec) -> LiftSpec:
    """The psi-side lift of the conjugate that a phi-side lift becomes under the swap.

    The drift and the anchor carry over; the restoring function becomes
    Gamma~(d) = -Gamma(-d), which is Gamma itself when Gamma is linear.
    Without a closed-form conjugate the new spec's potential reads a
    Legendre solver of its own, which starts cold.
    """
    if spec.side != "phi":
        raise ValueError("dual_spec needs a phi-side lift")
    gam = spec.restoring
    if gam.gamma0 is None:
        gam = RestoringFunction(eval=lambda d: -spec.restoring.eval(-d),
                                derivative=lambda d: spec.restoring.derivative(-d))
    return LiftSpec(side="psi", potential=_conjugate_with_solver(spec.potential)[0],
                    drift=spec.drift, restoring=gam, anchor=spec.anchor)


# ---------------------------------------------------------------------------
# Hamiltonian assembly.

def defect_rate_matrix(spec: LiftSpec) -> Optional[np.ndarray]:
    """The read-only R = J + gamma0 I of a base lift, or None where R is not constant.

    Off the submanifold the base lift's defects move as dDelta/dt =
    -R^T Delta with R = J + Gamma'(Delta_0) I (``delta_velocities``).  R is
    constant when the drift declares its Jacobian J (``affine_drift``) and
    Gamma is linear; then Delta(t) = exp(-R^T t) Delta(0).  The two charts
    share it, since ``dual_spec`` keeps the drift and a linear Gamma.
    """
    J, gamma0 = spec.drift.jacobian, spec.restoring.gamma0
    if not isinstance(J, np.ndarray) or gamma0 is None:
        return None
    R = J + gamma0 * np.eye(spec.n)
    R.flags.writeable = False
    return R


def build_hamiltonian(spec: LiftSpec) -> ContactHamiltonian:
    """h = Delta . F + Gamma(Delta_0) on the chosen side, by its jet.

    The jet evaluates psi, its gradient and Hessian (one jet of psi), F
    and its Jacobian once: dx = F, dp = Eh = Hess psi . F + Delta . R with
    the defect-rate matrix R = J + Gamma'(Delta_0) I, and dh/dz =
    -Gamma'(Delta_0).  Asked for diagnostics, it stores delta0 and
    delta_norm = |Delta|.  The jet of psi, Gamma, Gamma' and a declared
    constant J are looked up once, and R is built once when it is constant
    (``defect_rate_matrix``); otherwise it is formed per evaluation by the
    same arithmetic, so both give the same bits.

    With an anchor, h~ = D . F + Gamma(D0) in dimension n+1, with
    coordinates X = (x, x_extra), P = (p, p_extra) and
    D = (p_extra / anchor) grad psi - p.  h~ is the base lift of
    ``extension_spec``; its jet, written out for the extension, is
    dx = (F, -grad psi . F / anchor),
    dp = ((p_extra / anchor) Hess psi . F + J^T D + Gamma'(D0) (grad psi - p),
          Gamma'(D0) (anchor - p_extra))
    and dh/dz = -Gamma'(D0).  It stores what the base jet does (in
    dimension n+1), the conserved psi_tilde and the entropy S = x_extra.
    Its dx and dp are lists of Python floats: Hess psi . F and J^T D go
    through ``ndarray.dot``, and the rest (D, grad psi . F, D . F, |D| and
    the Gamma' term) is Python-float work linear in n.  A declared and a
    callable J take the same arithmetic, so they give the same bits; the
    three sums are taken left to right, which may differ from
    ``ndarray.dot`` in the last bit.

    A phi-side lift is the swap of the Hamiltonian of ``dual_spec``, whose
    Legendre solver, new and cold, is the only one its partials read.
    """
    if spec.side == "phi":
        return swap_hamiltonian(build_hamiltonian(dual_spec(spec)))
    psi_jet = spec.potential.jet or spec.potential.jet_at
    F = spec.drift
    J = F.jacobian
    jacobian = (lambda x: J) if isinstance(J, np.ndarray) else F.jacobian_at
    gam, gam_rate = spec.restoring.eval, spec.restoring.derivative
    n = spec.n
    anchor = spec.anchor
    R, eye = defect_rate_matrix(spec), np.eye(n)

    def jet(x, p, z, diag=None):
        value, g, H = psi_jet(x)
        d0 = value - z
        d = g - p
        f = F.at(x)
        rate = gam_rate(d0)
        if diag is not None:
            diag.update(delta0=d0, delta_norm=math.sqrt(d.dot(d)))
        rates = R if R is not None else jacobian(x) + rate * eye
        return d.dot(f) + gam(d0), f, H.dot(f) + d.dot(rates), -rate

    def extended_jet(X, P, z, diag=None):
        x, xe, pl = X[:n], X.item(n), P.tolist()
        value, g, H = psi_jet(x)
        f = F.at(x)
        pe = pl[n]
        psi_tilde = value + anchor * xe
        d0 = psi_tilde - z
        ratio = pe / anchor
        rate = gam_rate(d0)
        gl, dx = g.tolist(), f.tolist()
        d = [ratio * gi - pi for gi, pi in zip(gl, pl)]
        gf = df = dd = 0.0
        for gi, di, fi in zip(gl, d, dx):
            gf += gi * fi
            df += di * fi
            dd += di * di
        dp = [ratio * hf + jd + rate * (gi - pi) for hf, jd, gi, pi in
              zip(H.dot(f).tolist(), np.array(d).dot(jacobian(x)).tolist(), gl, pl)]
        dp.append(rate * (anchor - pe))
        dx.append(-gf / anchor)
        if diag is not None:  # the extra component of the defect vanishes
            diag.update(delta0=d0, delta_norm=math.sqrt(dd), psi_tilde=psi_tilde, S=xe)
        return df + gam(d0), dx, dp, -rate

    if anchor is None:
        return ContactHamiltonian(n=n, jet=jet)
    return ContactHamiltonian(n=n + 1, jet=extended_jet)


# ---------------------------------------------------------------------------
# The lift's Legendre submanifold: the graph of psi, or with an anchor of
# psi~; on the phi side, that of the conjugate seen through the swap.

def embed(spec: LiftSpec, u, extra: float = 0.0) -> CanonicalPoint:
    """The point of the lift's submanifold over chart coordinate u.

    u is x on the psi side and p on the phi side.  With an anchor,
    ``extra`` is the free extra coordinate (x_extra on the psi side,
    p_extra on the phi side) and the psi-side point is the graph of psi~
    over X = (u, extra); a base lift has no extra coordinate and ignores it.
    """
    if spec.side == "phi":
        return legendre_swap(embed(dual_spec(spec), u, extra))
    if spec.anchor is None:
        return embed_psi(spec.potential, u)
    return embed_psi(extension_spec(spec).potential, np.append(u, extra))


def defects(spec: LiftSpec, pt: CanonicalPoint):
    """(D0, D) of the lift's submanifold at pt; both vanish exactly on it.

    Base lift, psi side:  D0 = psi(x) - z,  D = grad psi(x) - p.
    With an anchor, at a point of dimension n+1:
        D0 = psi(x) + anchor x_extra - z,  D = (p_extra / anchor) grad psi(x) - p,
    whose norm the jet stores as delta_norm.  The phi side's defects are
    those of ``dual_spec`` at the swapped point, negated: the swap flips
    the sign of both.
    """
    if spec.side == "phi":
        return tuple(-d for d in defects(dual_spec(spec), legendre_swap(pt)))
    if spec.anchor is None:
        return delta_psi(spec.potential, pt)
    if pt.n != spec.n + 1:
        raise DimensionMismatchError(f"point dimension {pt.n} != {spec.n + 1}")
    x = pt.x[:-1]
    d0 = spec.potential.value_at(x) + spec.anchor * pt.x[-1] - pt.z
    return d0, (pt.p[-1] / spec.anchor) * spec.potential.gradient_at(x) - pt.p[:-1]


def restricted_field(spec: LiftSpec, u) -> TangentVector:
    """The lifted field on the submanifold over chart coordinate u, in closed form.

    On the psi side dx = F, dp = Hess psi . F and dz = grad psi . F.  With
    an anchor the extra coordinate absorbs the potential's drift,
    anchor * dx_extra = -grad psi . F, and z and p_extra stay exactly
    constant.  The phi side is the push of the dual's field through the
    swap: dp = F, dx = Hess phi . F and dz = p . Hess phi . F; with an
    anchor p_extra absorbs the drift of phi and x_extra stays pinned.
    """
    if spec.side == "phi":
        dual = dual_spec(spec)
        return push_swap(embed(dual, u), restricted_field(dual, u))
    u = np.atleast_1d(np.asarray(u, dtype=float))
    f = spec.drift.at(u)
    dp = spec.potential.hessian_at(u) @ f
    dz = float(spec.potential.gradient_at(u) @ f)
    if spec.anchor is None:
        return TangentVector(f, dp, dz)
    return TangentVector(np.append(f, -dz / spec.anchor), np.append(dp, 0.0), 0.0)


def extension_spec(spec: LiftSpec) -> LiftSpec:
    """The base lift in dimension n+1 whose Hamiltonian is that of ``spec``.

    Its potential is psi~(X) = psi(x) + anchor * x_extra, with gradient
    (grad psi, anchor) and Hess psi padded with zeros (singular, so only
    unchecked); its drift is F~ = (F, -grad psi . F / anchor), whose
    Jacobian has the rows (J, 0) and (-(Hess psi . F + J^T grad psi) / anchor, 0);
    the restoring function is the same.
    """
    if spec.side != "psi" or spec.anchor is None:
        raise ValueError("extension_spec needs a psi-side lift with an anchor")
    psi, F, n, anchor = spec.potential, spec.drift, spec.n, spec.anchor

    def drift(X):
        f = F.at(X[:n])
        return np.append(f, -(psi.gradient_at(X[:n]) @ f) / anchor)

    def jacobian(X):
        x = X[:n]
        f, J = F.at(x), F.jacobian_at(x)
        row = -(psi.hessian_at(x, check_spd=False) @ f + J.T @ psi.gradient_at(x)) / anchor
        return np.pad(np.vstack([J, row]), ((0, 0), (0, 1)))

    potential = ConvexPotential(
        n=n + 1, value=lambda X: psi.value_at(X[:n]) + anchor * X[n],
        gradient=lambda X: np.append(psi.gradient_at(X[:n]), anchor),
        hessian=lambda X: np.pad(psi.hessian_at(X[:n], check_spd=False), (0, 1)),
    )
    return LiftSpec(side="psi", potential=potential,
                    drift=DriftField(n=n + 1, eval=drift, jacobian=jacobian,
                                     workspace=F.workspace),
                    restoring=spec.restoring)


def delta_velocities(spec: LiftSpec, pt: CanonicalPoint):
    """Rates of the defect coordinates along the lifted flow.

    Returns (dDelta_0/dt, dDelta/dt) from the triangular system
    dDelta_a = -(dF/du)^T Delta - Gamma' Delta_a,  dDelta_0 = -Gamma(Delta_0).
    Only a base lift is covered; one with an anchor raises ``ValueError``.
    """
    if spec.anchor is not None:
        raise ValueError("delta_velocities needs a base lift, without an anchor")
    d0, d = defects(spec, pt)
    J = spec.drift.jacobian_at(pt.x if spec.side == "psi" else pt.p)
    gp = spec.restoring.derivative(d0)
    return -spec.restoring.eval(d0), -J.T @ d - gp * d


# ---------------------------------------------------------------------------
# Geodesic and gradient drifts.

def geodesic_drift_psi(psi: ConvexPotential, p_from, p_to) -> DriftField:
    """Drift whose flow moves p at the constant rate p_to - p_from."""
    dp = _float_array(p_to, 1) - _float_array(p_from, 1)
    return DriftField(n=psi.n, eval=lambda x: np.linalg.solve(psi.hessian_at(x), dp))


def geodesic_drift_phi(psi: ConvexPotential, x_from, x_to) -> DriftField:
    """Dual-chart drift whose flow moves x at the constant rate x_to - x_from.

    The psi-side geodesic drift of the conjugate: F(p) = Hess psi(x*(p)) . dx.
    Without a closed-form conjugate it keeps its Legendre solver as ``workspace``.
    """
    phi, ws = _conjugate_with_solver(psi)
    return replace(geodesic_drift_psi(phi, x_from, x_to), workspace=ws)


def gradient_drift_psi(psi: ConvexPotential, target_x) -> DriftField:
    """Divergence-gradient descent toward the point with x-coordinates target_x.

    Along the flow p(t) - p' = (p(0) - p') e^{-t}.
    """
    p_prime = psi.gradient_at(_float_array(target_x, 1))
    return DriftField(
        n=psi.n, eval=lambda x: -np.linalg.solve(psi.hessian_at(x), psi.gradient_at(x) - p_prime))


def gradient_drift_phi(psi: ConvexPotential, target_p) -> DriftField:
    """Dual-chart mirror: along the flow x(t) - x' = (x(0) - x') e^{-t}.

    The psi-side gradient drift of the conjugate toward target_p, whose
    solver it keeps as ``geodesic_drift_phi`` does.
    """
    phi, ws = _conjugate_with_solver(psi)
    return replace(gradient_drift_psi(phi, target_p), workspace=ws)


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
    reported inconclusive, never guessed.  An Onsager drift F = -L grad U
    approaches a fixed point where sym(R(q) L) = gamma0 L - L Hess U(q) L
    is positive definite, R(q) = J(q) + gamma0 I; that is sampled on the
    caller's grid (default: the origin) and the least eigenvalue reported.
    Any other lift with a constant defect-rate matrix R
    (``defect_rate_matrix``) has Delta(t) = exp(-R^T t) Delta(0) and
    Delta_0(t) = Delta_0(0) exp(-gamma0 t), on both charts and with an
    anchor: it approaches the submanifold iff gamma0 > 0 and the decay
    rate min Re eig R > 0.
    """
    gamma0 = spec.restoring.gamma0
    if gamma0 is None:
        return StabilityVerdict(INCONCLUSIVE, {"reason": "nonlinear restoring term"})
    drift, s = spec.drift, spec.drift.structure
    if s is not None and s[0] == "onsager":
        if drift.jacobian is None:
            return StabilityVerdict(INCONCLUSIVE, {"reason": "no Hessian for the potential"})
        L = s[1]
        pts = [np.zeros(spec.n)] if sample_points is None else [
            np.atleast_1d(np.asarray(q, dtype=float)) for q in sample_points
        ]
        min_eig = np.inf
        for q in pts:
            M = drift.jacobian_at(q).dot(L) + gamma0 * L
            min_eig = min(min_eig, float(np.min(np.linalg.eigvalsh(0.5 * (M + M.T)))))
        checks = {"gamma0 > 0": gamma0 > 0, "min eigenvalue": min_eig,
                  "sampled points": len(pts)}
        ok = gamma0 > 0 and min_eig > 0
        return StabilityVerdict(APPROACHES_FIXED_POINT if ok else INCONCLUSIVE, checks)

    R = defect_rate_matrix(spec)
    if R is None:
        reason = "unrecognized drift class" if s is None else f"unknown structure {s[0]!r}"
        return StabilityVerdict(INCONCLUSIVE, {"reason": reason})
    rate = float(np.min(np.linalg.eigvals(R).real))
    ok = gamma0 > 0 and rate > 0
    return StabilityVerdict(APPROACHES_SUBMANIFOLD if ok else INCONCLUSIVE,
                            {"gamma0": gamma0, "decay rate": rate})
