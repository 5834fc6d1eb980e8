"""Canonical-coordinate contact geometry.

Everything lives on R^(2n+1) with Darboux coordinates (x, p, z) and the
contact one-form  lambda = dz - p_a dx^a  (the minus convention is fixed;
it is not configurable).  The standard volume form lambda ^ (d lambda)^n is
a constant multiple of the coordinate volume in these coordinates, so the
phase compressibility of a field equals the plain Euclidean divergence of
its components.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import DimensionMismatchError, EvaluationError, CompressibilityMismatchError

_CBRT_EPS = float(np.finfo(float).eps) ** (1.0 / 3.0)


def _as_vector(v, name):
    a = np.atleast_1d(np.asarray(v, dtype=float))
    if a.ndim != 1:
        raise DimensionMismatchError(f"{name} must be a 1-d vector, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise EvaluationError(f"{name} has non-finite entries", coords=a)
    return a


def fd_step(value: float) -> float:
    """Central-difference step scaled to the coordinate magnitude."""
    return _CBRT_EPS * max(1.0, abs(value))


@dataclass(frozen=True)
class CanonicalPoint:
    """A point (x, p, z) of a (2n+1)-dimensional contact manifold."""

    x: np.ndarray
    p: np.ndarray
    z: float

    def __post_init__(self):
        object.__setattr__(self, "x", _as_vector(self.x, "x"))
        object.__setattr__(self, "p", _as_vector(self.p, "p"))
        object.__setattr__(self, "z", float(self.z))
        if self.x.shape != self.p.shape:
            raise DimensionMismatchError(
                f"x and p lengths differ: {len(self.x)} vs {len(self.p)}"
            )
        if len(self.x) < 1:
            raise DimensionMismatchError("dimension n must be >= 1")
        if not np.isfinite(self.z):
            raise EvaluationError("z is not finite")

    @property
    def n(self) -> int:
        return len(self.x)


@dataclass(frozen=True)
class TangentVector:
    """Components (dx, dp, dz) of a tangent vector in canonical coordinates."""

    dx: np.ndarray
    dp: np.ndarray
    dz: float

    def __post_init__(self):
        object.__setattr__(self, "dx", _as_vector(self.dx, "dx"))
        object.__setattr__(self, "dp", _as_vector(self.dp, "dp"))
        object.__setattr__(self, "dz", float(self.dz))
        if self.dx.shape != self.dp.shape:
            raise DimensionMismatchError("dx and dp lengths differ")

    @property
    def n(self) -> int:
        return len(self.dx)

    def as_array(self) -> np.ndarray:
        return np.concatenate([self.dx, self.dp, [self.dz]])


@dataclass(frozen=True)
class ContactHamiltonian:
    """A scalar field h(x, p, z) together with its first partial derivatives.

    When the analytic partials are omitted they are replaced by central
    differences of ``value``; ``derivative_mode`` records which route is
    in effect.

    ``field(y, diag=None)`` maps a flat state y = (x, p, z) to the
    components of the contact vector field X_h at y.  A builder that knows
    the structure of h supplies one that evaluates every shared quantity
    once, and that on request also stores the state's diagnostics in the
    dict ``diag``; otherwise the field is assembled from the partials (see
    ``hamiltonian_vector_field``) and stores none.
    """

    n: int
    value: Callable[[np.ndarray, np.ndarray, float], float]
    grad_x: Optional[Callable[[np.ndarray, np.ndarray, float], np.ndarray]] = None
    grad_p: Optional[Callable[[np.ndarray, np.ndarray, float], np.ndarray]] = None
    dz_partial: Optional[Callable[[np.ndarray, np.ndarray, float], float]] = None
    field: Optional[Callable[[np.ndarray], np.ndarray]] = None
    derivative_mode: str = dataclasses.field(init=False)

    def __post_init__(self):
        if self.n < 1:
            raise DimensionMismatchError("dimension n must be >= 1")
        closed = all(f is not None for f in (self.grad_x, self.grad_p, self.dz_partial))
        if not closed and any(
            f is not None for f in (self.grad_x, self.grad_p, self.dz_partial)
        ):
            raise ValueError("supply all three analytic partials or none")
        object.__setattr__(
            self, "derivative_mode", "closed_form" if closed else "central_difference"
        )
        if self.field is None:
            object.__setattr__(self, "field", self._generic_field)

    def __call__(self, pt: CanonicalPoint) -> float:
        return float(self.value(pt.x, pt.p, pt.z))

    def partials(self, pt: CanonicalPoint):
        """Return (dh/dx, dh/dp, dh/dz) at the point."""
        if pt.n != self.n:
            raise DimensionMismatchError(
                f"point dimension {pt.n} != Hamiltonian dimension {self.n}"
            )
        return self._partials(pt.x, pt.p, pt.z)

    def _partials(self, x, p, z):
        if self.derivative_mode == "closed_form":
            hx = np.asarray(self.grad_x(x, p, z), dtype=float)
            hp = np.asarray(self.grad_p(x, p, z), dtype=float)
            hz = float(self.dz_partial(x, p, z))
            return hx, hp, hz
        hx = np.empty(self.n)
        hp = np.empty(self.n)
        for a in range(self.n):
            s = fd_step(x[a])
            e = np.zeros(self.n)
            e[a] = s
            hx[a] = (self.value(x + e, p, z) - self.value(x - e, p, z)) / (2 * s)
            s = fd_step(p[a])
            e = np.zeros(self.n)
            e[a] = s
            hp[a] = (self.value(x, p + e, z) - self.value(x, p - e, z)) / (2 * s)
        s = fd_step(z)
        hz = (self.value(x, p, z + s) - self.value(x, p, z - s)) / (2 * s)
        return hx, hp, hz

    def _generic_field(self, y, diag=None):
        """dx = -dh/dp,  dp = dh/dx + p dh/dz,  dz = h - p . dh/dp."""
        n = self.n
        x, p, z = y[:n], y[n:2 * n], float(y[2 * n])
        hx, hp, hz = self._partials(x, p, z)
        hval = float(self.value(x, p, z))
        return np.concatenate([-hp, hx + p * hz, [hval - p @ hp]])


def contact_form_pairing(pt: CanonicalPoint, v: TangentVector) -> float:
    """Pair the contact form with a tangent vector: dz - p.dx applied to v."""
    if pt.n != v.n:
        raise DimensionMismatchError(
            f"point dimension {pt.n} != vector dimension {v.n}"
        )
    return float(v.dz - pt.p @ v.dx)


def legendre_swap(pt: CanonicalPoint) -> CanonicalPoint:
    """S(x, p, z) = (p, x, x.p - z): the involution exchanging the two charts.

    S pulls the contact form back to its negative, S*lambda = -lambda, so it
    maps the graph of a potential onto the graph of its conjugate.
    """
    return CanonicalPoint(pt.p, pt.x, float(pt.x @ pt.p) - pt.z)


def push_swap(pt: CanonicalPoint, v: TangentVector) -> TangentVector:
    """Pushforward of a tangent vector at ``pt`` under the swap.

    (dx, dp, dz) -> (dp, dx, p.dx + x.dp - dz).
    """
    return TangentVector(v.dp, v.dx, float(pt.p @ v.dx + pt.x @ v.dp) - v.dz)


def swap_hamiltonian(h: ContactHamiltonian) -> ContactHamiltonian:
    """-h o S, whose contact field is the pushforward of X_h under the swap.

    Closed-form partials follow by the chain rule through S; the field is
    ``h.field`` evaluated at S(y) and pushed forward, and its diagnostics
    are those of h at S(y) with h and the scalar defect negated.
    """
    n = h.n

    def value(x, p, z):
        return -h.value(p, x, float(x @ p) - z)

    def field(y, diag=None):
        x, p = y[:n], y[n:2 * n]
        v = h.field(np.concatenate([p, x, [x @ p - y[2 * n]]]), diag)
        if diag:  # empty when h's field records no diagnostics
            diag["h"], diag["delta0"] = -diag["h"], -diag["delta0"]
        dx, dp = v[:n], v[n:2 * n]
        return np.concatenate([dp, dx, [x @ dx + p @ dp - v[2 * n]]])

    if h.derivative_mode != "closed_form":
        return ContactHamiltonian(n=n, value=value, field=field)

    def grad_x(x, p, z):
        zs = float(x @ p) - z
        return -(h.grad_p(p, x, zs) + h.dz_partial(p, x, zs) * p)

    def grad_p(x, p, z):
        zs = float(x @ p) - z
        return -(h.grad_x(p, x, zs) + h.dz_partial(p, x, zs) * x)

    def dz_partial(x, p, z):
        return h.dz_partial(p, x, float(x @ p) - z)

    return ContactHamiltonian(n=n, value=value, grad_x=grad_x, grad_p=grad_p,
                              dz_partial=dz_partial, field=field)


def reeb_field(n: int) -> TangentVector:
    """The Reeb field: unit dz component, independent of the base point."""
    if n < 1:
        raise DimensionMismatchError("dimension n must be >= 1")
    return TangentVector(np.zeros(n), np.zeros(n), 1.0)


def hamiltonian_vector_field(h: ContactHamiltonian, pt, diag=None):
    """Canonical components of the contact Hamiltonian vector field.

    dx = -dh/dp,  dp = dh/dx + p dh/dz,  dz = h - p . dh/dp, evaluated by
    ``h.field``, which also fills ``diag`` when it is given.  Given a flat
    state (x, p, z) it returns the flat components; given a
    ``CanonicalPoint``, a ``TangentVector``.
    """
    n = h.n
    point = isinstance(pt, CanonicalPoint)
    if point:
        if pt.n != n:
            raise DimensionMismatchError(
                f"point dimension {pt.n} != Hamiltonian dimension {n}"
            )
        y = np.concatenate([pt.x, pt.p, [pt.z]])
    elif len(pt) != 2 * n + 1:
        raise DimensionMismatchError(f"state length {len(pt)} != {2 * n + 1}")
    else:
        y = pt
    dy = h.field(y, diag)
    if not np.isfinite(dy).all():
        raise EvaluationError(
            "non-finite contact Hamiltonian vector field",
            coords=(y[:n], y[n:2 * n], y[2 * n]),
        )
    return TangentVector(dy[:n], dy[n:2 * n], dy[2 * n]) if point else dy


@dataclass(frozen=True)
class ContactIdentityReport:
    """Residuals of the two defining identities of the canonical field."""

    pairing_residual: float       # | lambda(X_h) - h |
    derivation_residual: float    # | X_h h - (Rh) h |
    step: float


def verify_contact_identities(
    h: ContactHamiltonian, pt: CanonicalPoint, step: float = 1e-4
) -> ContactIdentityReport:
    """Check lambda(X_h) = h and X_h h = (Rh) h at a point.

    The directional derivative X_h h and the Reeb derivative Rh are taken
    with central differences of the given step; residuals are reported
    as-is, never raised.
    """
    if step <= 0:
        raise ValueError("step must be positive")
    v = hamiltonian_vector_field(h, pt)
    hval = h(pt)
    pairing_res = abs(contact_form_pairing(pt, v) - hval)

    def h_along(t):
        return h.value(pt.x + t * v.dx, pt.p + t * v.dp, pt.z + t * v.dz)

    xh_h = (h_along(step) - h_along(-step)) / (2 * step)
    rh = (h.value(pt.x, pt.p, pt.z + step) - h.value(pt.x, pt.p, pt.z - step)) / (2 * step)
    return ContactIdentityReport(pairing_res, abs(xh_h - rh * hval), step)


def _numeric_divergence(h: ContactHamiltonian, pt: CanonicalPoint) -> float:
    """Euclidean divergence of the field components by central differences."""
    n = pt.n
    div = 0.0
    for a in range(n):
        s = fd_step(pt.x[a])
        e = np.zeros(n)
        e[a] = s
        plus = hamiltonian_vector_field(h, CanonicalPoint(pt.x + e, pt.p, pt.z))
        minus = hamiltonian_vector_field(h, CanonicalPoint(pt.x - e, pt.p, pt.z))
        div += (plus.dx[a] - minus.dx[a]) / (2 * s)
        s = fd_step(pt.p[a])
        e = np.zeros(n)
        e[a] = s
        plus = hamiltonian_vector_field(h, CanonicalPoint(pt.x, pt.p + e, pt.z))
        minus = hamiltonian_vector_field(h, CanonicalPoint(pt.x, pt.p - e, pt.z))
        div += (plus.dp[a] - minus.dp[a]) / (2 * s)
    s = fd_step(pt.z)
    plus = hamiltonian_vector_field(h, CanonicalPoint(pt.x, pt.p, pt.z + s))
    minus = hamiltonian_vector_field(h, CanonicalPoint(pt.x, pt.p, pt.z - s))
    div += (plus.dz - minus.dz) / (2 * s)
    return div


def phase_compressibility(
    h: ContactHamiltonian, pt: CanonicalPoint, tol: float = 1e-4
) -> float:
    """Compressibility of X_h against the standard contact volume.

    In Darboux coordinates this is the Euclidean divergence of the field
    components, which collapses to (n+1) dh/dz.  Both routes are computed
    and must agree within ``tol`` (relative to the analytic magnitude);
    the analytic value is returned.
    """
    _, _, hz = h.partials(pt)
    analytic = (h.n + 1) * hz
    numeric = _numeric_divergence(h, pt)
    if abs(numeric - analytic) > tol * max(1.0, abs(analytic)):
        raise CompressibilityMismatchError(
            f"analytic {analytic:.6g} vs numeric {numeric:.6g} divergence"
        )
    return float(analytic)
