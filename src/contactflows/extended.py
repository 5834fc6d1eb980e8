"""Conserving lift on a (2n+3)-dimensional contact manifold.

The base potential is extended by a linear term in one extra coordinate,
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
(``extension_spec``); its Hamiltonian writes that lift's jet out for
the extension.

Only the psi side is written out; a phi-side extended lift is the psi-side
one of the conjugate (``dual_extended_spec``) seen through the Legendre
swap in dimension n+1.  Its conserved quantity is therefore
phi(p) + anchor * p_extra.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError
from .geometry import (
    CanonicalPoint,
    ContactHamiltonian,
    TangentVector,
    legendre_swap,
    push_swap,
    swap_hamiltonian,
)
from .lifts import DriftField, LiftSpec, dual_spec
from .potentials import ConvexPotential, embed_psi


@dataclass(frozen=True)
class ExtendedLiftSpec:
    """A base lift plus the nonzero, finite anchor constant of the extension.

    On the psi side the anchor is the pinned value of p_extra; on the phi
    side, of x_extra.
    """

    base: LiftSpec
    anchor: float

    def __post_init__(self):
        object.__setattr__(self, "anchor", float(self.anchor))
        if not np.isfinite(self.anchor) or self.anchor == 0.0:
            raise ValueError("anchor must be nonzero and finite")

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


def tilde_deltas(spec: ExtendedLiftSpec, pt: CanonicalPoint):
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
        return tuple(-d for d in tilde_deltas(dual_extended_spec(spec), legendre_swap(pt)))
    x = pt.x[:-1]
    d0 = tilde_potential_value(spec, x, pt.x[-1]) - pt.z
    d = (pt.p[-1] / spec.anchor) * spec.base.potential.gradient_at(x) - pt.p[:-1]
    return d0, d


def extension_spec(spec: ExtendedLiftSpec) -> LiftSpec:
    """The base lift in dimension n+1 whose Hamiltonian is h~.

    Its potential is psi~(X) = psi(x) + anchor * x_extra, with gradient
    (grad psi, anchor) and Hess psi padded with zeros (singular, so only
    unchecked); its drift is F~ = (F, -grad psi . F / anchor), whose
    Jacobian has the rows (J, 0) and (-(Hess psi . F + J^T grad psi) / anchor, 0);
    the restoring function is the same.
    """
    if spec.side != "psi":
        raise ValueError("extension_spec needs a psi-side extended lift")
    psi, F, n, anchor = spec.base.potential, spec.base.drift, spec.n, spec.anchor

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
                    restoring=spec.base.restoring)


def tilde_hamiltonian(spec: ExtendedLiftSpec) -> ContactHamiltonian:
    """h~ = D . F + Gamma(D0) as a canonical Hamiltonian in dimension n+1.

    Coordinates are X = (x, x_extra), P = (p, p_extra), and
    D = (p_extra / anchor) grad psi - p.  h~ is the base lift of
    ``extension_spec``; its jet, written out for the extension, evaluates
    psi, its gradient and Hessian (one ``jet_at``), F and its Jacobian once:
    Eh = ((p_extra / anchor) Hess psi . F + J^T D + Gamma'(D0) (grad psi - p),
          Gamma'(D0) (anchor - p_extra)),
    dh/dP = (-F, grad psi . F / anchor) and dh/dz = -Gamma'(D0).  Asked for
    diagnostics, it stores what the base lift's jet does (in dimension
    n + 1), the conserved psi_tilde and the entropy S = x_extra.
    """
    if spec.side == "phi":
        return swap_hamiltonian(tilde_hamiltonian(dual_extended_spec(spec)))
    base = spec.base
    psi, F, Gam, n, anchor = base.potential, base.drift, base.restoring, spec.n, spec.anchor

    def jet(y, diag=None):
        x, xe, p, pe = y[:n], y[n], y[n + 1:2 * n + 1], y[2 * n + 1]
        value, g, H = psi.jet_at(x)
        psi_tilde = value + anchor * xe
        d0 = psi_tilde - y[2 * n + 2]
        d = (pe / anchor) * g - p
        f = F.at(x)
        rate = Gam.derivative(d0)
        eh, hp = np.empty(n + 1), np.empty(n + 1)
        eh[:n] = (pe / anchor) * (H @ f) + F.jacobian_at(x).T @ d + rate * (g - p)
        eh[n] = rate * (anchor - pe)
        hp[:n] = -f
        hp[n] = (g @ f) / anchor
        if diag is not None:  # the extra component of the defect vanishes
            diag.update(delta0=d0, delta_norm=np.sqrt(d @ d), psi_tilde=psi_tilde, S=xe)
        return d @ f + Gam.eval(d0), eh, hp, -rate

    return ContactHamiltonian(n=n + 1, jet=jet)


def restricted_extended_field(spec: ExtendedLiftSpec, u) -> TangentVector:
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
        return push_swap(embed_extended(dual, u, 0.0), restricted_extended_field(dual, u))
    base = spec.base
    u = np.atleast_1d(np.asarray(u, dtype=float))
    f = base.drift.at(u)
    dp = base.potential.hessian_at(u) @ f
    dxe = -float(base.potential.gradient_at(u) @ f) / spec.anchor
    return TangentVector(np.append(f, dxe), np.append(dp, 0.0), 0.0)


def embed_extended(spec: ExtendedLiftSpec, u, extra: float) -> CanonicalPoint:
    """A point of the extended submanifold over chart coordinate u.

    ``extra`` is the free coordinate (x_extra on the psi side, p_extra on
    the phi side); the rest are pinned by the generating function: on the
    psi side the point is the graph of psi~ over X = (u, extra).
    """
    if spec.side == "phi":
        return legendre_swap(embed_extended(dual_extended_spec(spec), u, extra))
    return embed_psi(extension_spec(spec).potential, np.append(u, extra))

