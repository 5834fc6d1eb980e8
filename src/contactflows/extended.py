"""Conserving lift on a (2n+3)-dimensional contact manifold.

The base potential is extended by a linear term in one extra coordinate,
psi~(x, x_extra) = psi(x) + anchor * x_extra, and the lift is arranged so
that psi~ is exactly conserved along the ambient flow: whatever the base
potential loses, the extra coordinate absorbs (entropy production in the
thermal circuit models).

Only the psi side is written out; a phi-side extended lift is the psi-side
one of the conjugate (``dual_extended_spec``) seen through the Legendre
swap of the flattened (n+1)-dimensional point.  Its conserved quantity is
therefore phi(p) + anchor * p_extra.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, OutsideInvariantChartError
from .geometry import (
    CanonicalPoint,
    ContactHamiltonian,
    TangentVector,
    hamiltonian_vector_field,
    legendre_swap,
    push_swap,
    swap_hamiltonian,
)
from .lifts import LiftSpec, dual_spec


@dataclass(frozen=True)
class ExtendedPoint:
    """A point (x, x_extra, p, p_extra, z) of the extended contact manifold."""

    x: np.ndarray
    x_extra: float
    p: np.ndarray
    p_extra: float
    z: float

    def __post_init__(self):
        object.__setattr__(self, "x", np.atleast_1d(np.asarray(self.x, dtype=float)))
        object.__setattr__(self, "p", np.atleast_1d(np.asarray(self.p, dtype=float)))
        object.__setattr__(self, "x_extra", float(self.x_extra))
        object.__setattr__(self, "p_extra", float(self.p_extra))
        object.__setattr__(self, "z", float(self.z))
        if self.x.shape != self.p.shape:
            raise DimensionMismatchError("x and p lengths differ")
        vals = np.concatenate([self.x, self.p, [self.x_extra, self.p_extra, self.z]])
        if not np.all(np.isfinite(vals)):
            raise ValueError("extended point has non-finite entries")

    @property
    def n(self) -> int:
        return len(self.x)

    def flatten(self) -> CanonicalPoint:
        """Reinterpret as a canonical point of dimension n+1."""
        return CanonicalPoint(
            np.append(self.x, self.x_extra), np.append(self.p, self.p_extra), self.z
        )


def unflatten(pt: CanonicalPoint) -> ExtendedPoint:
    return ExtendedPoint(pt.x[:-1], pt.x[-1], pt.p[:-1], pt.p[-1], pt.z)


def _swap(pt: ExtendedPoint) -> ExtendedPoint:
    return unflatten(legendre_swap(pt.flatten()))


@dataclass(frozen=True)
class ExtendedTangent:
    dx: np.ndarray
    dx_extra: float
    dp: np.ndarray
    dp_extra: float
    dz: float

    def flatten(self) -> TangentVector:
        return TangentVector(
            np.append(self.dx, self.dx_extra), np.append(self.dp, self.dp_extra), self.dz
        )


def _unflatten_tangent(v: TangentVector) -> ExtendedTangent:
    return ExtendedTangent(v.dx[:-1], v.dx[-1], v.dp[:-1], v.dp[-1], v.dz)


@dataclass(frozen=True)
class ExtendedLiftSpec:
    """A base lift plus the nonzero anchor constant of the extension.

    On the psi side the anchor is the pinned value of p_extra; on the phi
    side, of x_extra.
    """

    base: LiftSpec
    anchor: float

    def __post_init__(self):
        if float(self.anchor) == 0.0:
            raise ValueError("anchor must be nonzero")
        object.__setattr__(self, "anchor", float(self.anchor))

    @property
    def n(self) -> int:
        return self.base.n

    @property
    def side(self) -> str:
        return self.base.side


def dual_extended_spec(spec: ExtendedLiftSpec) -> ExtendedLiftSpec:
    """The psi-side extension of ``dual_spec(spec.base)`` with the same anchor."""
    return ExtendedLiftSpec(base=dual_spec(spec.base), anchor=spec.anchor)


def tilde_potential_value(spec: ExtendedLiftSpec, x, x_extra) -> float:
    """psi~(x, x_extra) = psi(x) + anchor * x_extra of the base potential."""
    return spec.base.potential.value_at(x) + spec.anchor * float(x_extra)


def tilde_deltas(spec: ExtendedLiftSpec, pt: ExtendedPoint):
    """Defect functions of the extended Legendre submanifold.

    psi side:  D0 = psi(x) + anchor x_extra - z,
               Da = (p_extra / anchor) dpsi/dx_a - p_a.
    phi side:  D0 = x.p + (x_extra - anchor) p_extra - phi(p) - z,
               Da = x_a - (x_extra / anchor) dphi/dp_a.
    """
    if pt.n != spec.n:
        raise DimensionMismatchError("point dimension mismatch")
    if spec.side == "phi":  # the swap flips the sign of both defects
        return tuple(-d for d in tilde_deltas(dual_extended_spec(spec), _swap(pt)))
    d0 = tilde_potential_value(spec, pt.x, pt.x_extra) - pt.z
    d = (pt.p_extra / spec.anchor) * spec.base.potential.gradient_at(pt.x) - pt.p
    return d0, d


def tilde_hamiltonian(spec: ExtendedLiftSpec) -> ContactHamiltonian:
    """h~ = D~ . F + Gamma(D~0) as a canonical Hamiltonian in dimension n+1.

    Coordinates are flattened as X = (x, x_extra), P = (p, p_extra); the
    partials are assembled in closed form.  The field evaluates psi, its
    gradient and Hessian, F and its Jacobian once:
    dX = (F, -grad psi . F / anchor),
    dP = ((p_extra / anchor) Hess psi . F + J^T D + Gamma'(D0) (grad psi - p),
          Gamma'(D0) (anchor - p_extra)),
    dz = Gamma(D0).  Asked for diagnostics, it stores what the base lift's
    field does (in dimension n + 1) and the conserved psi_tilde and the
    entropy S = x_extra.
    """
    if spec.side == "phi":
        return swap_hamiltonian(tilde_hamiltonian(dual_extended_spec(spec)))
    base = spec.base
    psi = base.potential
    F = base.drift
    Gam = base.restoring
    n = spec.n
    anchor = spec.anchor

    def split(X, P):
        return X[:n], X[n], P[:n], P[n]

    def deltas(x, xe, p, pe, z):
        d0 = psi.value_at(x) + anchor * xe - z
        d = (pe / anchor) * psi.gradient_at(x) - p
        return d0, d

    def value(X, P, z):
        x, xe, p, pe = split(X, P)
        d0, d = deltas(x, xe, p, pe, z)
        return float(d @ F.at(x)) + Gam.eval(d0)

    def grad_x(X, P, z):
        x, xe, p, pe = split(X, P)
        d0, d = deltas(x, xe, p, pe, z)
        H = psi.hessian_at(x, check_spd=False)
        gx = (pe / anchor) * (H @ F.at(x)) + F.jacobian_at(x).T @ d \
            + Gam.derivative(d0) * psi.gradient_at(x)
        return np.append(gx, Gam.derivative(d0) * anchor)

    def grad_p(X, P, z):
        x, xe, p, pe = split(X, P)
        return np.append(-F.at(x), float(psi.gradient_at(x) @ F.at(x)) / anchor)

    def dz_partial(X, P, z):
        x, xe, p, pe = split(X, P)
        d0, _ = deltas(x, xe, p, pe, z)
        return -Gam.derivative(d0)

    def field(y, diag=None):
        x, xe, p, pe = y[:n], y[n], y[n + 1:2 * n + 1], y[2 * n + 1]
        g = psi.gradient_at(x)
        psi_tilde = psi.value_at(x) + anchor * xe
        d0 = psi_tilde - y[2 * n + 2]
        d = (pe / anchor) * g - p
        f = F.at(x)
        rate, restoring = Gam.derivative(d0), Gam.eval(d0)
        out = np.empty(2 * n + 3)
        out[:n] = f
        out[n] = -(g @ f) / anchor
        out[n + 1:2 * n + 1] = ((pe / anchor) * (psi.hessian_at(x, check_spd=False) @ f)
                                + F.jacobian_at(x).T @ d + rate * (g - p))
        out[2 * n + 1] = rate * (anchor - pe)
        out[2 * n + 2] = restoring
        if diag is not None:  # the extra component of the defect vanishes
            diag.update(h=np.einsum("i,i->", d, f) + restoring, delta0=d0,
                        delta_norm=np.sqrt(np.einsum("i,i->", d, d)), kappa=-(n + 2) * rate,
                        psi_tilde=psi_tilde, S=xe)
        return out

    return ContactHamiltonian(
        n=n + 1, value=value, grad_x=grad_x, grad_p=grad_p, dz_partial=dz_partial,
        field=field,
    )


def extended_lifted_field(spec: ExtendedLiftSpec, pt: ExtendedPoint) -> ExtendedTangent:
    """Ambient canonical field of h~ at any extended point."""
    return _unflatten_tangent(hamiltonian_vector_field(tilde_hamiltonian(spec), pt.flatten()))


def restricted_extended_field(spec: ExtendedLiftSpec, u) -> ExtendedTangent:
    """Field restricted to the extended submanifold, driven by the chart
    coordinate u (x on the psi side, p on the phi side).

    The extra fiber coordinate absorbs the potential's drift:
    anchor * (dx_extra/dt) = -d psi / dt on the psi side, and the pinned
    coordinates z and p_extra stay exactly constant.  On the phi side
    p_extra absorbs the drift of phi, x_extra stays pinned, and z moves
    at p . Hess phi . F.
    """
    if spec.side == "phi":
        dual = dual_extended_spec(spec)
        pt = embed_extended(dual, u, 0.0).flatten()
        return _unflatten_tangent(push_swap(pt, restricted_extended_field(dual, u).flatten()))
    base = spec.base
    u = np.atleast_1d(np.asarray(u, dtype=float))
    f = base.drift.at(u)
    dp = base.potential.hessian_at(u) @ f
    dxe = -float(base.potential.gradient_at(u) @ f) / spec.anchor
    return ExtendedTangent(f, dxe, dp, 0.0, 0.0)


def embed_extended(spec: ExtendedLiftSpec, u, extra: float) -> ExtendedPoint:
    """A point of the extended submanifold over chart coordinate u.

    ``extra`` is the free coordinate (x_extra on the psi side, p_extra on
    the phi side); the rest are pinned by the generating function.
    """
    if spec.side == "phi":
        return _swap(embed_extended(dual_extended_spec(spec), u, extra))
    u = np.atleast_1d(np.asarray(u, dtype=float))
    p = spec.base.potential.gradient_at(u)
    z = tilde_potential_value(spec, u, extra)
    return ExtendedPoint(u, float(extra), p, spec.anchor, z)


def extended_invariant_density(
    spec: ExtendedLiftSpec, pt: ExtendedPoint, Z: float = 1.0
) -> float:
    """Density h~^-(n+2) / Z on the invariant chart h~ > 0."""
    if spec.base.restoring.kind != "linear" or spec.base.restoring.gamma0 == 0:
        raise ValueError("invariant density requires linear restoring with nonzero rate")
    if Z <= 0:
        raise ValueError("normalization constant must be positive")
    hval = tilde_hamiltonian(spec)(pt.flatten())
    if hval <= 0:
        raise OutsideInvariantChartError(
            f"h~ = {hval:.6g} <= 0: point is outside the invariant chart"
        )
    return hval ** (-(spec.n + 2)) / Z
