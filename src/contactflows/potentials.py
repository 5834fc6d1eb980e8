"""Strictly convex potentials, the numeric total Legendre transform, and
the dually flat machinery built on top of them.

A potential may carry its conjugate in closed form (``closed_conjugate``;
the quadratic potential does).  For every other potential each quantity on
the dual side goes through the unique solution x*(p) of grad psi(x) = p,
obtained by damped Newton.  ``conjugate`` returns the closed form, or
packages that solve as a potential of p, so the dual side reuses every
psi-side construction through the Legendre swap.  What reads only psi
takes psi, and makes any solver it needs; ``conjugate`` is the one public
call that takes a solver.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import (
    NUMERICAL_ERRORS,
    DimensionMismatchError,
    EvaluationError,
    NewtonConvergenceError,
    StrictConvexityError,
)
from .geometry import (CanonicalPoint, _as_vector, _float_array, central_hessian,
                       central_jacobian)

NEWTON_TOL = 1e-12
NEWTON_MAX_ITER = 100
# a full Newton step that cuts the squared residual by less than this factor
# is not yet converging quadratically, and is tried at 2x, 4x, ... up to the cap
NEWTON_EXPANSION_CUT = 100.0
NEWTON_EXPANSION_CAP = 1024.0
_EPS = float(np.finfo(float).eps)
# a central-difference gradient's rounding noise over |psi|: eps |psi| over the
# step eps^(1/3), seen up to 1.5 eps^(2/3) on the quartic of the tests
_FD_GRADIENT_NOISE = 4 * _EPS ** (2 / 3)


def _cholesky_or_raise(H, where=""):
    try:
        if not np.isfinite(H).all():  # cholesky lets NaN through without raising
            raise np.linalg.LinAlgError("Hessian has non-finite entries")
        return np.linalg.cholesky(H)
    except np.linalg.LinAlgError as exc:
        raise StrictConvexityError(
            f"Hessian not positive definite{' at ' + where if where else ''}"
        ) from exc


@dataclass(frozen=True)
class ConvexPotential:
    """A strictly convex scalar function with value/gradient/Hessian access.

    Given a ``jet``, (psi, grad psi, unchecked Hess psi) in one call, the
    constructor reads from it whichever of value, gradient and Hessian was
    not given; without one, ``value`` is required, and gradient and Hessian
    default to central differences: the Hessian to second differences of
    the value, or given a gradient alone to central differences of that.
    A matrix ``hessian`` declares a constant Hessian: it is kept read-only
    (copied unless it is a read-only float64 array), its shape is checked
    and it is factored once, here, and ``hessian_at`` returns it.  A checked
    ``hessian_at`` factors every Hessian a callable returns.
    ``value_at``, ``gradient_at`` and ``hessian_at`` raise
    ``DimensionMismatchError`` for an x not of shape (n,).
    ``jet_at`` checks no shape of its own, as it is on the per-stage path:
    it calls the optional ``jet`` and returns its result as it is; ``gradient_at``
    and ``hessian_at`` return a float64 array of the right dimension as the
    callable gave it.
    The optional ``closed_conjugate`` returns the conjugate potential of p,
    which ``conjugate`` then reads in place of the Legendre solve.
    """

    n: int
    value: Optional[Callable[[np.ndarray], float]] = None
    gradient: Optional[Callable[[np.ndarray], np.ndarray]] = None
    hessian: Callable[[np.ndarray], np.ndarray] | np.ndarray | None = None
    jet: Optional[Callable[[np.ndarray], tuple]] = None
    closed_conjugate: Optional[Callable[[], "ConvexPotential"]] = None

    def __post_init__(self):
        if self.n < 1:
            raise DimensionMismatchError("dimension n must be >= 1")
        jet = self.jet
        if jet is None and self.value is None:
            raise ValueError("supply a value, a jet or both")
        for i, name in enumerate(("value", "gradient", "hessian")):
            if jet is not None and getattr(self, name) is None:
                object.__setattr__(self, name, lambda x, i=i: jet(x)[i])
        H = self.hessian
        if isinstance(H, np.ndarray):
            if H.flags.writeable or H.dtype != np.float64:  # a copy no caller can change
                H = np.array(H, dtype=float)
                H.flags.writeable = False
                object.__setattr__(self, "hessian", H)
            if H.shape != (self.n, self.n):
                raise DimensionMismatchError(
                    f"Hessian has shape {H.shape}, expected ({self.n}, {self.n})")
            _cholesky_or_raise(H, where="every x (a declared constant matrix)")

    def _vector(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.n,):
            raise DimensionMismatchError(f"x has shape {x.shape}, expected ({self.n},)")
        return x

    def value_at(self, x) -> float:
        return float(self.value(self._vector(x)))

    def gradient_at(self, x) -> np.ndarray:
        x = self._vector(x)
        if self.gradient is not None:
            return _float_array(self.gradient(x), 1)
        return central_jacobian(self.value, x)

    def hessian_at(self, x, check_spd: bool = True) -> np.ndarray:
        x = self._vector(x)
        if isinstance(self.hessian, np.ndarray):
            return self.hessian
        if self.hessian is not None:
            H = _float_array(self.hessian(x), 2)
        elif self.gradient is None:
            H = central_hessian(self.value, x)
        else:
            H = central_jacobian(self.gradient_at, x)
            H = 0.5 * (H + H.T)
        if check_spd:
            _cholesky_or_raise(H, where=np.array2string(x, precision=4))
        return H

    def jet_at(self, x):
        """(psi(x), grad psi(x), unchecked Hess psi(x))."""
        if self.jet is not None:
            return self.jet(np.asarray(x, dtype=float))
        return self.value_at(x), self.gradient_at(x), self.hessian_at(x, check_spd=False)


# ---------------------------------------------------------------------------
# Built-in potentials with closed-form derivatives.

def quadratic_potential(M) -> ConvexPotential:
    """psi(x) = x.M.x / 2 for an SPD matrix M, its declared Hessian.

    Its closed-form conjugate is x.M^-1.x / 2, built on first use, and
    the conjugate of that is psi itself.
    """
    return _quadratic(np.array(M, dtype=float, ndmin=2), None)


def _quadratic(M, dual) -> ConvexPotential:
    M.flags.writeable = False

    def jet(x):
        g = M.dot(x)
        return 0.5 * float(x.dot(g)), g, M

    @functools.cache
    def closed_conjugate():
        return dual if dual is not None else _quadratic(np.linalg.inv(M), psi)

    psi = ConvexPotential(n=M.shape[0], gradient=M.dot, hessian=M, jet=jet,
                          closed_conjugate=closed_conjugate)
    return psi


def spin_potential(n: int = 1) -> ConvexPotential:
    """psi(x) = sum_a ln cosh x_a + n ln 2: the two-state partition log."""

    def value(x):
        # log(2 cosh t) written stably for large |t|; |t| clipped at 1e300, where
        # the log1p term is 0 already, so that doubling it cannot overflow
        a = np.abs(x)
        return float(np.sum(a + np.log1p(np.exp(-2 * np.minimum(a, 1e300)))))

    @np.errstate(over="ignore")  # cosh^2 overflows past |x| ~ 355, where 1 / cosh^2 is 0
    def hessian(x):
        return np.diag(1.0 / np.cosh(x) ** 2)

    return ConvexPotential(
        n=n,
        value=value,
        gradient=np.tanh,
        hessian=hessian,
        jet=lambda x: (value(x), np.tanh(x), hessian(x)),
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
    )


BUILTIN_POTENTIALS = {
    "quadratic": lambda n=1: quadratic_potential(np.eye(int(n))),
    "spin": lambda n=1: spin_potential(int(n)),
}


# ---------------------------------------------------------------------------
# Total Legendre transform.

@dataclass(frozen=True)
class LegendreTransformResult:
    """The conjugate's value phi(p) and the solution x* of grad psi(x) = p."""

    phi_value: float
    x_star: np.ndarray
    iterations: int
    residual: float


def legendre_transform(
    psi: ConvexPotential,
    p,
    x0=None,
) -> LegendreTransformResult:
    """phi(p) = sup_x [x.p - psi(x)], solved via grad psi(x) = p.

    Damped Newton with Armijo backtracking on the squared gradient residual,
    started from a copy of ``x0`` (default: the origin).  A full step that
    leaves the residual above tolerance and cuts its square by less than
    ``NEWTON_EXPANSION_CUT`` is tried again at 2, 4, ... up to
    ``NEWTON_EXPANSION_CAP`` times its length, one gradient each, keeping
    each trial while the squared residual falls: far from the root of a
    saturating gradient (spin, where a full step moves x by about 1/2) that
    replaces many short iterations, each with a checked Hessian.  x* comes back
    read-only, so a memo can hand it out.  The residual tolerance is
    ``NEWTON_TOL``, or without a ``gradient`` callable at least the central
    difference's rounding noise.  psi is read by ``gradient_at`` for each
    residual, the checked ``hessian_at`` for each Newton and polish step and
    ``value_at`` for psi(x*).  A p or a start that is not finite, or
    overflow past the dual chart, ends in a typed error, not a warning:
    ``EvaluationError`` for p, else ``NewtonConvergenceError``, whose message
    names the cause and the iterations run.
    """
    p = _float_array(p, 1)
    if len(p) != psi.n:
        raise DimensionMismatchError(f"p has length {len(p)}, expected {psi.n}")
    if not np.isfinite(p).all():
        raise EvaluationError("p has non-finite entries", coords=p)
    x = np.array(x0, dtype=float, ndmin=1) if x0 is not None else np.zeros(psi.n)

    with np.errstate(all="ignore"):
        r = psi.gradient_at(x) - p
        norm = float(np.abs(r).max())
        tol = NEWTON_TOL
        value = None  # psi(x), read where the tolerance or phi needs it
        best_x, best_norm = x, norm
        for it in range(NEWTON_MAX_ITER):
            if norm < best_norm:
                best_x, best_norm = x, norm
            if psi.gradient is None:  # a central-difference gradient: its noise at x
                value = psi.value_at(x) if value is None else value
                tol = max(NEWTON_TOL, _FD_GRADIENT_NOISE * abs(value))
            if norm <= tol:
                # one undamped polish step unless the residual is at rounding level,
                # <= 4 eps max(1, |p|_inf), already: Newton is quadratic near the root
                # (matters where the dual chart is ill-conditioned, e.g. saturated spin)
                if norm > 4 * _EPS and norm > 4 * _EPS * float(np.abs(p).max()):
                    try:
                        x_p = x - np.linalg.solve(psi.hessian_at(x), r)
                        norm_p = float(np.abs(psi.gradient_at(x_p) - p).max())
                        if norm_p < norm:
                            x, norm, value = x_p, norm_p, None
                    except (StrictConvexityError, np.linalg.LinAlgError):
                        pass
                phi = float(x @ p) - (psi.value_at(x) if value is None else value)
                if not math.isfinite(phi):  # as it is whenever x or psi(x) is not
                    cause = "x or psi(x) not finite"
                    break
                x.flags.writeable = False
                return LegendreTransformResult(phi, x, it, norm)
            try:
                step = np.linalg.solve(psi.hessian_at(x), r)
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
                f_new = float(r_new @ r_new)
                if f_new <= f0 * (1 - 1e-4 * t):
                    break
                t *= 0.5
            else:
                cause = "line search stalled"
                break
            norm = float(np.abs(r_new).max())
            if t == 1.0 and norm > tol and f_new * NEWTON_EXPANSION_CUT > f0:
                # expansion phase: the full step fell short of the root
                s = 2.0
                while s <= NEWTON_EXPANSION_CAP:
                    x_try = x - s * step
                    r_try = psi.gradient_at(x_try) - p
                    f_try = float(r_try @ r_try)
                    if not f_try < f_new:
                        break
                    x_new, r_new, f_new = x_try, r_try, f_try
                    s *= 2
                norm = float(np.abs(r_new).max())
            x, r, value = x_new, r_new, None
        else:
            it, cause = NEWTON_MAX_ITER, "iteration budget exhausted"
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
# The graph of a potential and its defect functions.  A lift's submanifold
# on either chart, with or without an anchor, is ``lifts.embed`` and
# ``lifts.defects``, which call these.

def embed_psi(psi: ConvexPotential, x) -> CanonicalPoint:
    """(x, grad psi(x), psi(x)): the graph of psi in canonical coordinates."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    return CanonicalPoint(x, psi.gradient_at(x), psi.value_at(x))


def delta_psi(psi: ConvexPotential, pt: CanonicalPoint):
    """(Delta_0, Delta) = (psi(x) - z, grad psi(x) - p); zero exactly on the graph."""
    if pt.n != psi.n:
        raise DimensionMismatchError("point dimension mismatch")
    return psi.value_at(pt.x) - pt.z, psi.gradient_at(pt.x) - pt.p


# ---------------------------------------------------------------------------
# The Legendre solver of a potential: memoised, warm-started access to x*(p).

class DuallyFlatWorkspace:
    """The Legendre solver of a strictly convex potential, which ``conjugate`` reads.

    Keeps only its latest solve, keyed by the exact bytes of p, so memory
    stays bounded however long a run is; repeated lookups at one p solve
    once, and ``jet`` reads the conjugate's value, gradient and Hessian
    with one lookup.  Each new p is solved together with the inverse
    (Hess psi(x*))^-1, of the unchecked ``hessian_at(x*)``.  A new p starts
    Newton at the first-order predictor x*_prev + (Hess psi(x*_prev))^-1
    (p - p_prev); if the warm solve fails, it is retried cold from the
    origin.  Warm and cold solves agree to rounding level, so a result may
    depend at that level on the solve before it; ``clear`` forgets that
    solve.  Not safe for concurrent use.
    """

    def __init__(self, psi: ConvexPotential):
        self.psi = psi
        self.clear()

    def clear(self):
        """Forget the latest solve and inverse: the next solve starts cold."""
        self._key = self._p = self._res = self._inv_hessian = None

    def transform(self, p) -> LegendreTransformResult:
        p = _float_array(p, 1)
        key = p.tobytes()
        if key == self._key:
            return self._res
        res = None
        if self._res is not None and p.shape == self._p.shape:
            # a warm attempt that overflows or stalls, or starts from a
            # predictor that is not finite, is retried cold, silently
            try:
                with np.errstate(all="ignore"):
                    x0 = self._res.x_star + self._inv_hessian @ (p - self._p)
                res = legendre_transform(self.psi, p, x0=x0)
            except NUMERICAL_ERRORS:
                pass
        if res is None:
            res = legendre_transform(self.psi, p)
        # read-only: every caller at p and the next warm start share it
        inv_hessian = np.linalg.inv(self.psi.hessian_at(res.x_star, check_spd=False))
        inv_hessian.flags.writeable = False
        self._key, self._p, self._res, self._inv_hessian = key, p.copy(), res, inv_hessian
        return res

    def jet(self, p):
        """(phi(p), x*(p), (Hess psi(x*(p)))^-1) from one lookup."""
        res = self.transform(p)
        return res.phi_value, res.x_star, self._inv_hessian


def conjugate(ws: DuallyFlatWorkspace) -> ConvexPotential:
    """The conjugate phi as a potential of p: ``ws.psi.closed_conjugate()`` if it has one.

    Otherwise the potential of the solver's ``jet``, from which value phi(p),
    gradient x*(p) and Hessian (Hess psi(x*))^-1 are each read.  Hess psi
    is inverted unchecked, so an unchecked ``hessian_at`` costs no
    factorisation; a checked one tests the inverse itself.
    """
    if ws.psi.closed_conjugate is not None:
        return ws.psi.closed_conjugate()
    return ConvexPotential(ws.psi.n, jet=ws.jet)


def canonical_divergence(psi: ConvexPotential, x, x_prime) -> float:
    """D(xi || xi') = psi(x) + phi(p') - x.p' with p' = grad psi(x').

    Both arguments are x-coordinates of points on the psi-graph.
    Nonnegative, zero exactly on the diagonal.
    """
    x, x_prime = _as_vector(x, "x"), _as_vector(x_prime, "x_prime")
    p_prime = psi.gradient_at(x_prime)
    # phi(p') = x'.p' - psi(x') exactly, no solve needed on-graph
    phi_p = float(x_prime @ p_prime) - psi.value_at(x_prime)
    return psi.value_at(x) + phi_p - float(x @ p_prime)
