"""Strictly convex potentials, the numeric total Legendre transform, and
the dually flat machinery built on top of them.

The conjugate potential is never stored in closed form: every quantity on
the dual side goes through the unique solution x*(p) of grad psi(x) = p,
obtained by damped Newton.  ``conjugate`` packages that solve as a
potential of p, so the dual side reuses every psi-side construction through
the Legendre swap.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import (
    NUMERICAL_ERRORS,
    DimensionMismatchError,
    EvaluationError,
    NewtonConvergenceError,
    PythagoreanConfigError,
    StrictConvexityError,
)
from .geometry import CanonicalPoint, _as_vector, central_jacobian, legendre_swap

NEWTON_TOL = 1e-12
NEWTON_MAX_ITER = 100
_EPS = float(np.finfo(float).eps)
PYTHAGOREAN_ORTHO_TOL = 1e-6  # relative right-angle tolerance of a Pythagorean triple
GEODESIC_ENDPOINT_TOL = 1e-6  # sup-norm miss allowed where a unit-time geodesic lands


def _cholesky_or_raise(H, where=""):
    try:
        return np.linalg.cholesky(H)
    except np.linalg.LinAlgError as exc:
        raise StrictConvexityError(
            f"Hessian not positive definite{' at ' + where if where else ''}"
        ) from exc


@dataclass(frozen=True)
class ConvexPotential:
    """A strictly convex scalar function with value/gradient/Hessian access.

    Gradient and Hessian default to central differences of ``value``.
    A checked ``hessian_at`` remembers the last Hessian it found positive
    definite and skips the factorisation only for a Hessian with exactly
    the same shape and bytes, so a constant Hessian is factored once.
    ``jet_at`` calls the optional ``jet``, (psi, grad psi, unchecked Hess psi) in one call.
    """

    n: int
    value: Callable[[np.ndarray], float]
    gradient: Optional[Callable[[np.ndarray], np.ndarray]] = None
    hessian: Optional[Callable[[np.ndarray], np.ndarray]] = None
    name: str = "user"
    jet: Optional[Callable[[np.ndarray], tuple]] = None
    _spd_checked: Optional[tuple] = field(default=None, init=False, repr=False,
                                          compare=False)

    def __post_init__(self):
        if self.n < 1:
            raise DimensionMismatchError("dimension n must be >= 1")

    def value_at(self, x) -> float:
        return float(self.value(np.asarray(x, dtype=float)))

    def gradient_at(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if self.gradient is not None:
            return np.atleast_1d(np.asarray(self.gradient(x), dtype=float))
        return central_jacobian(self.value, x)

    def hessian_at(self, x, check_spd: bool = True) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if self.hessian is not None:
            H = np.atleast_2d(np.asarray(self.hessian(x), dtype=float))
        else:
            H = central_jacobian(self.gradient_at, x)
            H = 0.5 * (H + H.T)
        if check_spd:
            self._check_spd(H, x)
        return H

    def jet_at(self, x):
        """(psi(x), grad psi(x), unchecked Hess psi(x))."""
        if self.jet is not None:
            return self.jet(np.asarray(x, dtype=float))
        return self.value_at(x), self.gradient_at(x), self.hessian_at(x, check_spd=False)

    def _check_spd(self, H, x):
        key = (H.shape, H.tobytes())
        if key != self._spd_checked:
            _cholesky_or_raise(H, where=np.array2string(x, precision=4))
            object.__setattr__(self, "_spd_checked", key)


# ---------------------------------------------------------------------------
# Built-in potentials with closed-form derivatives.

def quadratic_potential(M) -> ConvexPotential:
    """psi(x) = x.M.x / 2 for an SPD matrix M."""
    M = np.atleast_2d(np.asarray(M, dtype=float))
    _cholesky_or_raise(M, where="quadratic coefficient matrix")
    n = M.shape[0]
    return ConvexPotential(
        n=n,
        value=lambda x: 0.5 * float(x @ M @ x),
        gradient=lambda x: M @ x,
        hessian=lambda x: M,
        name="quadratic",
    )


def spin_potential(n: int = 1) -> ConvexPotential:
    """psi(x) = sum_a ln cosh x_a + n ln 2: the two-state partition log."""

    def value(x):
        # log(2 cosh t) written stably for large |t|
        return float(np.sum(np.abs(x) + np.log1p(np.exp(-2 * np.abs(x)))))

    return ConvexPotential(
        n=n,
        value=value,
        gradient=lambda x: np.tanh(x),
        hessian=lambda x: np.diag(1.0 / np.cosh(x) ** 2),
        name="spin",
    )


def separable_potential(pieces) -> ConvexPotential:
    """Sum of independent scalar potentials, one per coordinate.

    ``pieces`` is a list of (f, df, d2f) scalar-callable triples.
    """
    n = len(pieces)
    return ConvexPotential(
        n=n,
        value=lambda x: float(sum(f(x[a]) for a, (f, _, _) in enumerate(pieces))),
        gradient=lambda x: np.array([df(x[a]) for a, (_, df, _) in enumerate(pieces)]),
        hessian=lambda x: np.diag([d2f(x[a]) for a, (_, _, d2f) in enumerate(pieces)]),
        name="separable",
    )


BUILTIN_POTENTIALS = {
    "quadratic": lambda n=1: quadratic_potential(np.eye(int(n))),
    "spin": lambda n=1: spin_potential(int(n)),
}


# ---------------------------------------------------------------------------
# Total Legendre transform.

@dataclass(frozen=True)
class LegendreTransformResult:
    phi_value: float
    x_star: np.ndarray
    iterations: int
    residual: float


def legendre_transform(
    psi: ConvexPotential,
    p,
    x0=None,
    tol: float = NEWTON_TOL,
    max_iter: int = NEWTON_MAX_ITER,
) -> LegendreTransformResult:
    """phi(p) = sup_x [x.p - psi(x)], solved via grad psi(x) = p.

    Damped Newton with Armijo backtracking on the squared gradient residual,
    started from a copy of ``x0`` (default: the origin); x* comes back
    read-only, so a memo can hand it out.  Overflow past the dual chart ends
    in ``NewtonConvergenceError``, not a warning; its message names the
    cause and the iterations run.
    """
    p = np.atleast_1d(np.asarray(p, dtype=float))
    if len(p) != psi.n:
        raise DimensionMismatchError(f"p has length {len(p)}, expected {psi.n}")
    if not np.isfinite(p).all():
        raise EvaluationError("p has non-finite entries", coords=p)
    x = np.array(x0, dtype=float, ndmin=1) if x0 is not None else np.zeros(psi.n)

    with np.errstate(all="ignore"):
        r = psi.gradient_at(x) - p
        norm = float(np.abs(r).max())
        best_x, best_norm = x, norm
        for it in range(max_iter):
            if norm < best_norm:
                best_x, best_norm = x, norm
            if norm <= tol:
                # one undamped polish step unless the residual is at rounding level,
                # <= 4 eps max(1, |p|_inf), already: Newton is quadratic near the root
                # (matters where the dual chart is ill-conditioned, e.g. saturated spin)
                if norm > 4 * _EPS and norm > 4 * _EPS * float(np.abs(p).max()):
                    try:
                        x_p = x - np.linalg.solve(psi.hessian_at(x), r)
                        norm_p = float(np.abs(psi.gradient_at(x_p) - p).max())
                        if norm_p < norm:
                            x, norm = x_p, norm_p
                    except (StrictConvexityError, np.linalg.LinAlgError):
                        pass
                phi = float(x @ p) - psi.value_at(x)
                x.flags.writeable = False
                return LegendreTransformResult(phi, x, it, norm)
            try:
                H = psi.hessian_at(x)
                step = np.linalg.solve(H, r)
            except (StrictConvexityError, np.linalg.LinAlgError):
                # iterate escaped into a flat region (e.g. p outside the dual
                # chart drives x to infinity): report non-convergence
                cause = "Hessian not positive definite"
                break
            # Armijo backtracking on ||grad psi - p||^2
            f0 = float(r @ r)
            t = 1.0
            while t > 1e-14:
                x_new = x - t * step
                r_new = psi.gradient_at(x_new) - p
                if float(r_new @ r_new) <= f0 * (1 - 1e-4 * t):
                    break
                t *= 0.5
            else:
                cause = "line search stalled"
                break
            x, r = x_new, r_new
            norm = float(np.abs(r).max())
        else:
            it, cause = max_iter, "iteration budget exhausted"
    raise NewtonConvergenceError(
        f"Newton did not reach tolerance {tol:g}: {cause} after {it} iterations "
        f"(best residual {best_norm:g})",
        best_x=best_x,
        residual=best_norm,
        iterations=it,
    )


def involution_check(psi: ConvexPotential, x) -> float:
    """Transform forward then back: sup-norm of x*(grad psi(x)) - x."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    res = legendre_transform(psi, psi.gradient_at(x))
    return float(np.max(np.abs(res.x_star - x)))


def dual_metric(psi: ConvexPotential, p) -> np.ndarray:
    """Hessian of the conjugate at p: the inverse Hessian of psi at x*(p)."""
    return conjugate(DuallyFlatWorkspace(psi)).hessian_at(p)


# ---------------------------------------------------------------------------
# Legendre-submanifold embeddings and defect functions.  The phi-side ones
# are the psi-side ones of the conjugate, seen through the Legendre swap.

def embed_psi(psi: ConvexPotential, x) -> CanonicalPoint:
    """(x, grad psi(x), psi(x)): the graph of psi in canonical coordinates."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    return CanonicalPoint(x, psi.gradient_at(x), psi.value_at(x))


def embed_phi(psi: ConvexPotential, p) -> CanonicalPoint:
    """(x*(p), p, p.x*(p) - phi(p)): the dual-side graph."""
    return legendre_swap(embed_psi(conjugate(DuallyFlatWorkspace(psi)), p))


def delta_psi(psi: ConvexPotential, pt: CanonicalPoint):
    """(Delta_0, Delta) = (psi(x) - z, grad psi(x) - p); zero exactly on the graph."""
    if pt.n != psi.n:
        raise DimensionMismatchError("point dimension mismatch")
    return psi.value_at(pt.x) - pt.z, psi.gradient_at(pt.x) - pt.p


def delta_phi(psi: ConvexPotential, pt: CanonicalPoint):
    """Dual defects (Delta^0, Delta^a) = (x.p - phi(p) - z, x - grad phi(p)).

    The swap flips the sign of both defects.
    """
    d0, d = delta_psi(conjugate(DuallyFlatWorkspace(psi)), legendre_swap(pt))
    return -d0, -d


# ---------------------------------------------------------------------------
# Dually flat workspace: psi plus memoised, warm-started access to the conjugate side.

class DuallyFlatWorkspace:
    """A strictly convex potential together with its numerically-derived dual.

    Keeps only its latest solve, keyed by the exact bytes of p, so memory
    stays bounded however long a run is; repeated lookups at one p solve
    once, and ``jet`` reads the conjugate's value, gradient and Hessian
    with one lookup.  A new p starts Newton at the first-order predictor
    x*_prev + (Hess psi(x*_prev))^-1 (p - p_prev), reusing the inverse
    Hessian if the conjugate's Hessian was asked for at p_prev; if the
    warm solve fails, it is retried cold from the origin.  Warm and cold
    solves agree to rounding level, so a result may depend at that level
    on the solve before it; ``clear`` forgets that solve.  A Hessian with
    the bytes of the last one inverted reuses its inverse, so a constant
    one is inverted once.  Not safe for concurrent use.
    """

    def __init__(self, psi: ConvexPotential):
        self.psi = psi
        self.clear()

    def clear(self):
        """Forget the latest solve and inverse: the next solve starts cold."""
        self._key = self._p = self._res = self._inv_hessian = None
        self._inverted = self._last_inverse = None  # bytes of a Hessian, and its inverse

    @property
    def n(self) -> int:
        return self.psi.n

    def transform(self, p) -> LegendreTransformResult:
        p = np.atleast_1d(np.asarray(p, dtype=float))
        key = p.tobytes()
        if key == self._key:
            return self._res
        res = None
        if self._res is not None and p.shape == self._p.shape:
            # a warm attempt that overflows or stalls is retried cold, silently
            try:
                with np.errstate(all="ignore"):
                    x0 = self._res.x_star + self._inverse() @ (p - self._p)
                if np.isfinite(x0).all():
                    res = legendre_transform(self.psi, p, x0=x0)
            except NUMERICAL_ERRORS:
                pass
        if res is None:
            res = legendre_transform(self.psi, p)
        self._key, self._p, self._res, self._inv_hessian = key, p.copy(), res, None
        return res

    def phi_value(self, p) -> float:
        return self.transform(p).phi_value

    def x_star(self, p) -> np.ndarray:
        return self.transform(p).x_star

    def inverse_hessian(self, p) -> np.ndarray:
        """(Hess psi(x*(p)))^-1, the Hessian of the conjugate at p.

        Inverted from the unchecked Hessian of psi and kept with the solve
        at p, where the next warm start reads it; read-only, because every
        caller at p and that warm start share the one array.
        """
        return self.jet(p)[2]

    def jet(self, p):
        """(phi(p), x*(p), (Hess psi(x*(p)))^-1) from one lookup."""
        res = self.transform(p)
        return res.phi_value, res.x_star, self._inverse()

    def _inverse(self) -> np.ndarray:
        """The inverse Hessian of psi at the latest solve."""
        if self._inv_hessian is None:
            H = self.psi.hessian_at(self._res.x_star, check_spd=False)
            if H.tobytes() != self._inverted:
                self._inverted, self._last_inverse = H.tobytes(), np.linalg.inv(H)
                self._last_inverse.flags.writeable = False
            self._inv_hessian = self._last_inverse
        return self._inv_hessian


def conjugate(ws: DuallyFlatWorkspace) -> ConvexPotential:
    """The conjugate phi as a potential of p, read through the workspace.

    Value phi(p), gradient x*(p), Hessian (Hess psi(x*))^-1, and all three
    from one lookup as its jet.  Hess psi is inverted unchecked, so an
    unchecked ``hessian_at`` costs no factorisation; a checked one tests the inverse itself.
    """
    return ConvexPotential(
        n=ws.n,
        value=ws.phi_value,
        gradient=ws.x_star,
        hessian=ws.inverse_hessian,
        name=f"conjugate of {ws.psi.name}",
        jet=ws.jet,
    )


def canonical_divergence(ws: DuallyFlatWorkspace, x, x_prime) -> float:
    """D(xi || xi') = psi(x) + phi(p') - x.p' with p' = grad psi(x').

    Both arguments are x-coordinates of points on the psi-graph.
    Nonnegative, zero exactly on the diagonal.
    """
    x, x_prime = _as_vector(x, "x"), _as_vector(x_prime, "x_prime")
    p_prime = ws.psi.gradient_at(x_prime)
    # phi(p') = x'.p' - psi(x') exactly, no solve needed on-graph
    phi_p = float(x_prime @ p_prime) - ws.psi.value_at(x_prime)
    return ws.psi.value_at(x) + phi_p - float(x @ p_prime)


def pythagorean_residual(ws: DuallyFlatWorkspace, x1, x2, x3) -> float:
    """Three-term divergence identity residual for a right-angled triple.

    ``x1``/``x2``/``x3`` are x-coordinates of the endpoints and the corner:
    the corner x2 joins x1 by a dual-side geodesic and x3 by a primal-side
    geodesic.  The right angle requires (x3 - x2).(p2 - p1) = 0; violating
    it raises.  Unless x1 = x2, the two geodesic drifts are integrated for
    unit time and checked to land on the supplied points.
    """
    x1 = np.atleast_1d(np.asarray(x1, dtype=float))
    x2 = np.atleast_1d(np.asarray(x2, dtype=float))
    x3 = np.atleast_1d(np.asarray(x3, dtype=float))
    p1 = ws.psi.gradient_at(x1)
    p2 = ws.psi.gradient_at(x2)
    ortho = float((x3 - x2) @ (p2 - p1))
    scale = max(1.0, float(np.linalg.norm(x3 - x2) * np.linalg.norm(p2 - p1)))
    if abs(ortho) > PYTHAGOREAN_ORTHO_TOL * scale:
        raise PythagoreanConfigError(
            f"not a Pythagorean configuration: inner product {ortho:.3g}"
        )
    if not np.allclose(x1, x2):
        _verify_geodesic_endpoints(ws, x1, x2, x3)
    d31 = canonical_divergence(ws, x3, x1)
    d32 = canonical_divergence(ws, x3, x2)
    d21 = canonical_divergence(ws, x2, x1)
    return abs(d31 - d32 - d21)


def _verify_geodesic_endpoints(ws, x1, x2, x3):
    """Integrate the two unit-time geodesic flows and confirm the corners."""
    from .integrate import integrate_on_submanifold
    from .lifts import geodesic_drift_phi, geodesic_drift_psi

    p1 = ws.psi.gradient_at(x1)
    p2 = ws.psi.gradient_at(x2)
    drift_dual = geodesic_drift_psi(ws, p1, p2)
    x_end = integrate_on_submanifold(drift_dual, x1, 1.0)
    if float(np.max(np.abs(ws.psi.gradient_at(x_end) - p2))) > GEODESIC_ENDPOINT_TOL:
        raise PythagoreanConfigError("dual geodesic does not reach the corner")
    drift_primal = geodesic_drift_phi(ws, x2, x3)
    p_end = integrate_on_submanifold(drift_primal, p2, 1.0)
    if float(np.max(np.abs(ws.x_star(p_end) - x3))) > GEODESIC_ENDPOINT_TOL:
        raise PythagoreanConfigError("primal geodesic does not reach the endpoint")
