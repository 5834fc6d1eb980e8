"""Geometry of the conserving lift on a (2n+3)-dimensional contact manifold.

A ``LiftSpec`` with an ``anchor`` is the conserving lift.  The base
potential is extended by a linear term in one extra coordinate,
psi~(x, x_extra) = psi(x) + anchor * x_extra, and the lift is arranged so
that psi~ is exactly conserved along the ambient flow: whatever the base
potential loses, the extra coordinate absorbs (entropy production in the
thermal circuit models).

The extended manifold is the contact manifold of dimension 2(n+1)+1: a
point is a ``CanonicalPoint`` in Darboux coordinates X = (x, x_extra),
P = (p, p_extra) and z, so x_extra = X[-1] and p_extra = P[-1], and a
tangent vector is a ``TangentVector`` of the same dimension.  The lift is
the base lift of psi~ in dimension n+1, with drift
F~ = (F, -grad psi . F / anchor), which keeps psi~ level
(``extension_spec``); ``lifts.build_hamiltonian`` writes that lift's jet
out for the extension.  This module holds the extended submanifold's
geometry, each function taking an anchored ``LiftSpec``: the defects, the
embedding, the restricted field and ``extension_spec``.

Only the psi side is written out; a phi-side extended lift is the psi-side
one of the conjugate (``dual_spec``, which keeps the anchor) seen through
the Legendre swap in dimension n+1.  Its conserved quantity is therefore
phi(p) + anchor * p_extra.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatchError
from .geometry import CanonicalPoint, TangentVector, legendre_swap, push_swap
from .lifts import DriftField, LiftSpec, dual_spec
from .potentials import ConvexPotential, embed_psi


def tilde_potential_value(spec: LiftSpec, x, x_extra) -> float:
    """psi~(x, x_extra) = psi(x) + anchor * x_extra of the base potential."""
    return spec.potential.value_at(x) + spec.anchor * float(x_extra)


def tilde_deltas(spec: LiftSpec, pt: CanonicalPoint):
    """Defect functions of the extended Legendre submanifold at an
    (n+1)-dimensional point.

    psi side:  D0 = psi(x) + anchor x_extra - z,
               Da = (p_extra / anchor) dpsi/dx_a - p_a.
    phi side:  D0 = x.p + (x_extra - anchor) p_extra - phi(p) - z,
               Da = x_a - (x_extra / anchor) dphi/dp_a.
    """
    if pt.n != spec.n + 1:
        raise DimensionMismatchError(f"point dimension {pt.n} != {spec.n + 1}")
    if spec.side == "phi":  # the swap flips the sign of both defects
        return tuple(-d for d in tilde_deltas(dual_spec(spec), legendre_swap(pt)))
    x = pt.x[:-1]
    d0 = tilde_potential_value(spec, x, pt.x[-1]) - pt.z
    d = (pt.p[-1] / spec.anchor) * spec.potential.gradient_at(x) - pt.p[:-1]
    return d0, d


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
        name=f"extension of {psi.name}",
    )
    return LiftSpec(side="psi", potential=potential,
                    drift=DriftField(n=n + 1, eval=drift, jacobian=jacobian,
                                     workspace=F.workspace),
                    restoring=spec.restoring)


def restricted_extended_field(spec: LiftSpec, u) -> TangentVector:
    """Field restricted to the extended submanifold, driven by the chart
    coordinate u (x on the psi side, p on the phi side).

    The extra fiber coordinate absorbs the potential's drift:
    anchor * (dx_extra/dt) = -d psi / dt on the psi side, and the pinned
    coordinates z and p_extra stay exactly constant.  On the phi side
    p_extra absorbs the drift of phi, x_extra stays pinned, and z moves
    at p . Hess phi . F.
    """
    if spec.side == "phi":
        dual = dual_spec(spec)
        return push_swap(embed_extended(dual, u, 0.0), restricted_extended_field(dual, u))
    u = np.atleast_1d(np.asarray(u, dtype=float))
    f = spec.drift.at(u)
    dp = spec.potential.hessian_at(u) @ f
    dxe = -float(spec.potential.gradient_at(u) @ f) / spec.anchor
    return TangentVector(np.append(f, dxe), np.append(dp, 0.0), 0.0)


def embed_extended(spec: LiftSpec, u, extra: float) -> CanonicalPoint:
    """A point of the extended submanifold over chart coordinate u.

    ``extra`` is the free coordinate (x_extra on the psi side, p_extra on
    the phi side); the rest are pinned by the generating function: on the
    psi side the point is the graph of psi~ over X = (u, extra).
    """
    if spec.side == "phi":
        return legendre_swap(embed_extended(dual_spec(spec), u, extra))
    return embed_psi(extension_spec(spec).potential, np.append(u, extra))

