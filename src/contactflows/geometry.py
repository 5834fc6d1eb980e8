"""Canonical-coordinate contact geometry.

Everything lives on R^(2n+1) with Darboux coordinates (x, p, z) and the
contact one-form  lambda = dz - p_a dx^a  (the minus convention is fixed;
it is not configurable).  The standard volume form lambda ^ (d lambda)^n is
a constant multiple of the coordinate volume in these coordinates, so the
phase compressibility of a field equals the plain Euclidean divergence of
its components.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import (CompressibilityMismatchError, DimensionMismatchError, EvaluationError,
                     OutsideInvariantChartError)

_CBRT_EPS = float(np.finfo(float).eps) ** (1.0 / 3.0)
_QRT_EPS = float(np.finfo(float).eps) ** 0.25
CONTACT_IDENTITY_STEP = 1e-4  # central-difference step of verify_contact_identities
COMPRESSIBILITY_TOL = 1e-4  # relative miss allowed phase_compressibility's numeric divergence


def _as_vector(v, name):
    a = np.atleast_1d(np.asarray(v, dtype=float))
    if a.ndim != 1:
        raise DimensionMismatchError(f"{name} must be a 1-d vector, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise EvaluationError(f"{name} has non-finite entries", coords=a)
    return a


def _all_finite(v: np.ndarray) -> bool:
    """Whether every entry of the float vector v is finite.

    A finite sum of the entries means every entry is finite.  A non-finite
    sum comes from a non-finite entry or from an overflow, and then the
    entries are tested one by one, so a finite vector whose sum overflows
    still passes.  A sum of Python floats warns on no overflow, where
    ``v.dot(v)`` and ``np.add.reduce`` do.  The guard is chosen for states
    of a few entries, as every shipped model has: ``tolist`` and ``sum`` are
    Python work linear in the length, so on long vectors
    ``np.isfinite(v).all()`` alone is cheaper.
    """
    return math.isfinite(sum(v.tolist())) or bool(np.isfinite(v).all())


_FLOAT64 = np.dtype(float)


def _float_array(a, ndim: int) -> np.ndarray:
    """``a`` as a float64 array of at least ``ndim`` (1 or 2) dimensions.

    A float64 ndarray of exactly ``ndim`` dimensions is returned as it is,
    so a callable's result on an evaluation path is not wrapped again.
    """
    if type(a) is np.ndarray and a.dtype is _FLOAT64 and a.ndim == ndim:
        return a
    a = np.asarray(a, dtype=float)
    return np.atleast_1d(a) if ndim == 1 else np.atleast_2d(a)


def fd_step(value: float) -> float:
    """Central-difference step scaled to the coordinate magnitude."""
    return _CBRT_EPS * max(1.0, abs(value))


def central_jacobian(f, u) -> np.ndarray:
    """Central differences of f at u, one column per coordinate.

    Column a is (f(u + s e_a) - f(u - s e_a)) / 2s with s = fd_step(u_a);
    a scalar f gives its gradient.
    """
    u = np.asarray(u, dtype=float)
    cols = []
    for a in range(len(u)):
        s = fd_step(u[a])
        e = np.zeros(len(u))
        e[a] = s
        cols.append((np.asarray(f(u + e)) - np.asarray(f(u - e))) / (2 * s))
    return np.stack(cols, axis=-1)


def central_hessian(f, u) -> np.ndarray:
    """Second central differences of a scalar f at u, exactly symmetric.

    With s_a = eps^(1/4) max(1, |u_a|), entry (a, a) is
    (f(u + s_a e_a) - 2 f(u) + f(u - s_a e_a)) / s_a^2 and entry (a, b) is
    the 4-point (f(u + s_a e_a + s_b e_b) - f(u + s_a e_a - s_b e_b)
    - f(u - s_a e_a + s_b e_b) + f(u - s_a e_a - s_b e_b)) / (4 s_a s_b).
    """
    u = np.asarray(u, dtype=float)
    s = _QRT_EPS * np.maximum(1.0, np.abs(u))
    E = np.diag(s)
    f0 = float(f(u))
    H = np.empty((len(u), len(u)))
    for a in range(len(u)):
        H[a, a] = (float(f(u + E[a])) - 2 * f0 + float(f(u - E[a]))) / (s[a] * s[a])
        for b in range(a):
            H[a, b] = H[b, a] = (float(f(u + E[a] + E[b])) - float(f(u + E[a] - E[b]))
                                 - float(f(u - E[a] + E[b]))
                                 + float(f(u - E[a] - E[b]))) / (4 * s[a] * s[b])
    return H


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
    """A scalar field h(x, p, z) given by its jet in the frame E, d/dp, R.

    E_a = d/dx^a + p_a d/dz, d/dp_a and the Reeb field R = d/dz span the
    tangent space; ``jet(x, p, z, diag=None)`` returns h, the components of
    X_h there, dx = -dh/dp along E and dp = Eh = dh/dx + p dh/dz along d/dp,
    and Rh = dh/dz.  A builder that knows the structure of h writes the jet
    once, evaluating every shared quantity once, and on request stores the
    state's defect diagnostics in the dict ``diag``.  Given a value alone,
    the jet is taken by central differences; given a jet alone, the value
    is read from it.
    """

    n: int
    value: Optional[Callable[[np.ndarray, np.ndarray, float], float]] = None
    jet: Optional[Callable[..., tuple]] = None

    def __post_init__(self):
        if self.n < 1:
            raise DimensionMismatchError("dimension n must be >= 1")
        if self.jet is None:
            if self.value is None:
                raise ValueError("supply a value, a jet or both")
            object.__setattr__(self, "jet", self._numeric_jet)
        elif self.value is None:
            jet = self.jet
            object.__setattr__(self, "value", lambda x, p, z: jet(x, p, z)[0])

    def __call__(self, pt: CanonicalPoint) -> float:
        return float(self.value(pt.x, pt.p, pt.z))

    def partials(self, pt: CanonicalPoint):
        """Return (dh/dx, dh/dp, dh/dz) at the point."""
        if pt.n != self.n:
            raise DimensionMismatchError(
                f"point dimension {pt.n} != Hamiltonian dimension {self.n}"
            )
        _, dx, dp, hz = self.jet(pt.x, pt.p, pt.z)
        return dp - pt.p * hz, -dx, hz

    def field(self, y, diag=None):
        """X_h = dx . E + dp . d/dp + h R at the flat state y, as a flat array.

        In canonical components dz = h + p . dx, from lambda(X_h) = h.
        Asked for diagnostics, it stores h and the compressibility
        kappa = (n + 1) dh/dz with those of the jet.
        """
        n = self.n
        p = y[n:2 * n]
        h, dx, dp, hz = self.jet(y[:n], p, y.item(2 * n), diag)
        out = np.empty(2 * n + 1)
        out[:n] = dx
        out[n:2 * n] = dp
        out[2 * n] = h + p.dot(dx)
        if diag is not None:
            diag["h"], diag["kappa"] = h, (n + 1) * hz
        return out

    def _numeric_jet(self, x, p, z, diag=None):
        n = self.n
        # a non-finite value's partials are non-finite: EvaluationError, no warning
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            g = central_jacobian(lambda u: self.value(u[:n], u[n:2 * n], u[2 * n]),
                                 np.concatenate([x, p, [z]]))
            h = float(self.value(x, p, z))
            hz = float(g[2 * n])
            return h, -g[n:2 * n], g[:n] + p * hz, hz


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

    S exchanges E and d/dp and negates the contact form, so the jet of
    -h o S at (x, p, z) is (-h, dp, dx, dh/dz) of h at S(x, p, z): a
    relabelling, with no chain rule.  Its diagnostics are those of h at
    S(x, p, z) with the scalar defect negated.
    """

    def jet(x, p, z, diag=None):
        hv, dx, dp, hz = h.jet(p, x, float(x.dot(p)) - z, diag)
        if diag is not None and "delta0" in diag:  # absent when h stores no defects
            diag["delta0"] = -diag["delta0"]
        return -hv, dp, dx, hz

    return ContactHamiltonian(n=h.n, jet=jet)


def reeb_field(n: int) -> TangentVector:
    """The Reeb field: unit dz component, independent of the base point."""
    if n < 1:
        raise DimensionMismatchError("dimension n must be >= 1")
    return TangentVector(np.zeros(n), np.zeros(n), 1.0)


def hamiltonian_vector_field(h: ContactHamiltonian, pt, diag=None):
    """Canonical components of the contact Hamiltonian vector field.

    dx = -dh/dp,  dp = Eh = dh/dx + p dh/dz,  dz = h + p . dx, assembled
    from the jet by ``h.field``, which also fills ``diag`` when it is given.
    Given a flat state (x, p, z) it returns the flat components; given a
    ``CanonicalPoint``, a ``TangentVector``.
    """
    n = h.n
    flat = isinstance(pt, np.ndarray)
    if flat:
        if len(pt) != 2 * n + 1:
            raise DimensionMismatchError(f"state length {len(pt)} != {2 * n + 1}")
        y = pt
    elif pt.n != n:
        raise DimensionMismatchError(f"point dimension {pt.n} != Hamiltonian dimension {n}")
    else:
        y = np.concatenate([pt.x, pt.p, [pt.z]])
    dy = h.field(y, diag)
    if not _all_finite(dy):
        raise EvaluationError(
            "non-finite contact Hamiltonian vector field",
            coords=(y[:n], y[n:2 * n], y[2 * n]),
        )
    return dy if flat else TangentVector(dy[:n], dy[n:2 * n], dy[2 * n])


@dataclass(frozen=True)
class ContactIdentityReport:
    """Residuals of the two defining identities of the canonical field."""

    pairing_residual: float       # | lambda(X_h) - h |
    derivation_residual: float    # | X_h h - (Rh) h |


def verify_contact_identities(h: ContactHamiltonian,
                              pt: CanonicalPoint) -> ContactIdentityReport:
    """Check lambda(X_h) = h and X_h h = (Rh) h at a point.

    The directional derivative X_h h and the Reeb derivative Rh are taken
    with central differences of step ``CONTACT_IDENTITY_STEP``; residuals
    are reported as-is, never raised.
    """
    step = CONTACT_IDENTITY_STEP
    v = hamiltonian_vector_field(h, pt)
    hval = h(pt)
    pairing_res = abs(contact_form_pairing(pt, v) - hval)

    def h_along(t):
        return h.value(pt.x + t * v.dx, pt.p + t * v.dp, pt.z + t * v.dz)

    xh_h = (h_along(step) - h_along(-step)) / (2 * step)
    rh = (h.value(pt.x, pt.p, pt.z + step) - h.value(pt.x, pt.p, pt.z - step)) / (2 * step)
    return ContactIdentityReport(pairing_res, abs(xh_h - rh * hval))


def _numeric_divergence(h: ContactHamiltonian, pt: CanonicalPoint) -> float:
    """Euclidean divergence of the field components by central differences."""
    y = np.concatenate([pt.x, pt.p, [pt.z]])
    return float(np.trace(central_jacobian(lambda u: hamiltonian_vector_field(h, u), y)))


def phase_compressibility(h: ContactHamiltonian, pt: CanonicalPoint) -> float:
    """Compressibility of X_h against the standard contact volume.

    In Darboux coordinates this is the Euclidean divergence of the field
    components, which collapses to (n+1) dh/dz.  Both routes are computed
    and must agree within ``COMPRESSIBILITY_TOL`` (relative to the analytic
    magnitude); the analytic value is returned.
    """
    _, _, hz = h.partials(pt)
    analytic = (h.n + 1) * hz
    numeric = _numeric_divergence(h, pt)
    if abs(numeric - analytic) > COMPRESSIBILITY_TOL * max(1.0, abs(analytic)):
        raise CompressibilityMismatchError(
            f"analytic {analytic:.6g} vs numeric {numeric:.6g} divergence"
        )
    return float(analytic)


def invariant_density(h: ContactHamiltonian, pt: CanonicalPoint, Z: float = 1.0) -> float:
    """Density h^-(n+1) / Z of an invariant measure of X_h, on the chart h > 0.

    Every contact Hamiltonian has X_h h = h dh/dz and div X_h = (n+1) dh/dz,
    so div(h^-(n+1) X_h) = 0 wherever h > 0, whatever the restoring
    function; n is the Hamiltonian's canonical dimension (n+1 for an
    extended lift).
    """
    if not np.isfinite(Z) or Z <= 0:
        raise ValueError("normalization constant must be positive and finite")
    hval = h(pt)
    if hval <= 0:
        raise OutsideInvariantChartError(
            f"h = {hval:.6g} <= 0: point is outside the invariant chart"
        )
    return hval ** (-(h.n + 1)) / Z
