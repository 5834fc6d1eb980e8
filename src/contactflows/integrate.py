"""Fixed-step RK4 and adaptive RKF45 integration of lifted flows.

States are flat arrays: (x, p, z) for a base lift, (x, x_extra, p, p_extra, z)
for an extended one.  Diagnostics (h, defect norms, compressibility,
conserved quantities) are recorded at every accepted state by the field
evaluation the step from it starts with (RK4's k1, RKF45's first stage);
only the final state is evaluated once more.  A state whose diagnostics
could not be evaluated (a numerical error in its field evaluation) keeps
its row with NaN diagnostics.

A non-finite state, a numerical error (``errors.NUMERICAL_ERRORS``) raised
during an RK4 step, the RKF45 step floor and its step budget all stop a
run the same way: the states accepted so far are returned with
``abort_reason`` "<cause> at t = ..., h = ...".  RKF45 treats a numerical
error in a stage as a rejected step and shrinks it, so such an error stops
it only at the step floor; a ``DimensionMismatchError``, which no smaller
step mends, stops it at once.  Any other exception propagates.

Each solve keeps one stacked buffer G = [y; k1; ...; ks] and weights W(h) =
[1 | h A], set once per step size, whose rows (the tableau's stages, update
and, for RKF45, error b5 - b4, 0 on y) each make one ``ndarray.dot`` with
G[:i + 1].  A right-hand side ``f(t, y, out)`` writes dy/dt into its row of G.
Scaling A by h first keeps a stage input finite where A . K alone overflows.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import NUMERICAL_ERRORS, DimensionMismatchError, EvaluationError, IntegrationAbort
from .geometry import _all_finite, hamiltonian_vector_field
from .lifts import build_hamiltonian

DEFAULT_REL_TOL = 1e-10
DEFAULT_ABS_TOL = 1e-12
MAX_STEP_ATTEMPTS = 2_000_000  # RK4 steps, or RKF45 step attempts accepted or rejected

_RK4 = np.array([[1, 1 / 2, 0, 0, 0], [1, 0, 1 / 2, 0, 0], [1, 0, 0, 1, 0],
                 [1, 1 / 6, 1 / 3, 1 / 3, 1 / 6]])
_RK4_C = (1 / 2, 1 / 2, 1.0)  # stage i + 1 is at t + c_i h, c_i written exactly
_RKF45 = np.array([
    [1, 1 / 4, 0, 0, 0, 0, 0],
    [1, 3 / 32, 9 / 32, 0, 0, 0, 0],
    [1, 1932 / 2197, -7200 / 2197, 7296 / 2197, 0, 0, 0],
    [1, 439 / 216, -8, 3680 / 513, -845 / 4104, 0, 0],
    [1, -8 / 27, 2, -3544 / 2565, 1859 / 4104, -11 / 40, 0],
    [1, 16 / 135, 0, 6656 / 12825, 28561 / 56430, -9 / 50, 2 / 55],
    [0, 1 / 360, 0, -128 / 4275, -2197 / 75240, 1 / 50, 2 / 55],
])
_RKF45_C = (1 / 4, 3 / 8, 12 / 13, 1.0, 1 / 2)


@dataclass
class IntegratorConfig:
    method: str = "rkf45"  # "rk4" | "rkf45"
    step: float = 1e-3
    rel_tol: float = DEFAULT_REL_TOL
    abs_tol: float = DEFAULT_ABS_TOL

    def __post_init__(self):
        if self.method not in ("rk4", "rkf45"):
            raise ValueError(f"unknown integrator {self.method!r}")
        if not all(np.isfinite(v) and v > 0 for v in (self.step, self.rel_tol, self.abs_tol)):
            raise ValueError("step and tolerances must be positive and finite")


@dataclass
class Trajectory:
    times: np.ndarray
    states: np.ndarray  # (len(times), dim)
    diagnostics: dict = field(default_factory=dict)
    abort_reason: Optional[str] = None  # why the run stopped before t_end, and where

    @property
    def truncated(self) -> bool:
        return self.abort_reason is not None

    @property
    def final_state(self) -> np.ndarray:
        return self.states[-1]


def _stage_buffers(tableau, c, y):
    """(G, W, stages) from y; stage i >= 1 is (c_i, W[i - 1, :i + 1], G[:i + 1], G[i + 1])."""
    G, W = np.empty((tableau.shape[1], len(y))), tableau.copy()
    G[0] = y
    return G, W, tuple((ci, W[i - 1, :i + 1], G[:i + 1], G[i + 1]) for i, ci in enumerate(c, 1))


def _stages(f, t, h, f0, G, stages):
    """Fill G[1:] from G[0]: k1 by f0 there, each later stage by f at its row of W . G[:i + 1]."""
    f0(t, G[0], G[1])
    for c, w, Gi, row in stages:
        f(t + c * h, w.dot(Gi), row)


def _rk4_step(f, t, h, f0, G, W, stages):
    """The RK4 step from G[0]: its stages fill G[1:], and the new state is W[3] . G."""
    _stages(f, t, h, f0, G, stages)
    return W[3].dot(G)


def _rkf45_step(f, t, h, f0, G, W, stages):
    """(y5, max |y5 - y4|) from G[0]: its stages fill G[1:], y5 = W[5] . G, y5 - y4 = W[6] . G."""
    _stages(f, t, h, f0, G, stages)
    return W[5].dot(G), _max_abs(W[6].dot(G))


def _max_abs(v) -> float:
    """``np.abs(v).max()`` as a Python float; on a non-finite sum by numpy, keeping a NaN."""
    a = v.tolist()
    return max(map(abs, a)) if math.isfinite(sum(a)) else float(np.abs(v).max())


def _stop(ts, ys, cause: str, t: float, h: float) -> Trajectory:
    """The states accepted so far, ended by ``cause`` in the step from t of size h."""
    return Trajectory(np.array(ts), np.array(ys),
                      abort_reason=f"{cause} at t = {t:.12g}, h = {h:.12g}")


def _rk4_steps(t_end, step) -> int:
    """The steps ``solve_fixed`` takes; more than ``MAX_STEP_ATTEMPTS`` raise ``ValueError``."""
    ratio = t_end / step * (1 - 1e-9)  # a remainder under 1e-9 t_end is rounding, not a step
    if ratio > MAX_STEP_ATTEMPTS:
        raise ValueError(f"t_end / step = {t_end / step:.3g} exceeds the step budget "
                         f"{MAX_STEP_ATTEMPTS}")
    return max(1, math.ceil(ratio))


def solve_fixed(f, y0, t_end, step, f0=None) -> Trajectory:
    """RK4 with a fixed step; the last step ends on t_end, and step = t_end / k takes k steps.

    ``f0``, if given, replaces ``f`` at each step's first stage, the one
    evaluated at the accepted state the step starts from.  A run of more
    than ``MAX_STEP_ATTEMPTS`` steps raises ``ValueError`` before it starts.
    """
    steps = _rk4_steps(t_end, step)
    f0 = f0 or f
    ts, ys = [0.0], [np.asarray(y0, dtype=float)]
    G, W, stages = _stage_buffers(_RK4, _RK4_C, ys[0])
    t = 0.0
    for left in range(steps, 0, -1):
        h = step if left > 1 else t_end - t
        if left in (steps, 1):  # W(h) for the first step, and for the last, which may be shorter
            np.multiply(_RK4[:, 1:], h, out=W[:, 1:])
        try:
            y = _rk4_step(f, t, h, f0, G, W, stages)
        except NUMERICAL_ERRORS as exc:
            return _stop(ts, ys, f"{type(exc).__name__}: {exc}", t, h)
        if not _all_finite(y):
            return _stop(ts, ys, "non-finite state", t, h)
        t = t + h if left > 1 else t_end
        G[0] = y
        ts.append(t)
        ys.append(y)
    return Trajectory(np.array(ts), np.array(ys))


def solve_adaptive(f, y0, t_end, rel_tol=DEFAULT_REL_TOL,
                   abs_tol=DEFAULT_ABS_TOL, f0=None) -> Trajectory:
    """RKF45 with standard step control; accepted steps only are recorded.

    ``f0`` is as in ``solve_fixed``; a rejected step calls it again at the
    same state.  A stage that raises a numerical error rejects the step
    with the smallest shrink factor; if that ends at the step floor, the
    reason names the last such error.
    """
    f0 = f0 or f
    y = np.asarray(y0, dtype=float)
    y_max = _max_abs(y)  # of the state each attempt starts from, for its tolerance
    G, W, stages = _stage_buffers(_RKF45, _RKF45_C, y)
    ts, ys = [0.0], [y]
    t = 0.0
    h = min(1e-2, t_end)
    h_min = max(t_end * 1e-14, 5e-324)  # a step that rounds to 0 never moves t
    steps = 0
    failure = ""  # the stage error that rejected a step since the last accepted one
    while t < t_end:
        h = min(h, t_end - t)
        np.multiply(_RKF45[:, 1:], h, out=W[:, 1:])
        try:
            y_new, err = _rkf45_step(f, t, h, f0, G, W, stages)
        except DimensionMismatchError as exc:
            return _stop(ts, ys, f"{type(exc).__name__}: {exc}", t, h)
        except NUMERICAL_ERRORS as exc:
            failure, factor = f" after {type(exc).__name__}: {exc}", 0.1
        else:
            if not _all_finite(y_new):
                return _stop(ts, ys, "non-finite state", t, h)
            tol = abs_tol + rel_tol * max(1.0, y_max)
            if err <= tol:
                t += h
                y = G[0] = y_new
                y_max = _max_abs(y)
                ts.append(t)
                ys.append(y)
                failure = ""
            factor = 0.9 * (tol / err) ** 0.2 if err > 0 else 2.0
        h *= min(4.0, max(0.1, factor))
        if h < h_min:
            return _stop(ts, ys, f"step floor {h_min:.3g} reached{failure}", t, h)
        steps += 1
        if steps > MAX_STEP_ATTEMPTS:
            return _stop(ts, ys, f"step budget {MAX_STEP_ATTEMPTS} exhausted", t, h)
    return Trajectory(np.array(ts), np.array(ys))


# ---------------------------------------------------------------------------
# Lift-aware integration with per-step diagnostics.

def _run(f, y0, t_end, config: IntegratorConfig, f0=None):
    if config.method == "rk4":
        return solve_fixed(f, y0, t_end, config.step, f0)
    return solve_adaptive(f, y0, t_end, config.rel_tol, config.abs_tol, f0)


def _clear_solver(drift) -> None:
    """Empty the drift's Legendre solver, if it keeps one, so a run is a function of its inputs.

    A warm-started solve depends on the one before it at rounding level.
    """
    if drift.workspace is not None:
        drift.workspace.clear()


def _check_shapes(spec, y0) -> None:
    """Raise ``DimensionMismatchError`` where F, its Jacobian or psi's jet has the wrong shape.

    Checked once, at the start's chart coordinate, so the per-stage path
    pays nothing; psi's jet only on the psi side, where the lift's jet reads it.
    """
    n, J = spec.n, spec.drift.jacobian
    u = y0[:n] if spec.side == "psi" else y0[len(y0) // 2:][:n]
    spec.drift.at(u)  # which checks its own shape
    found = {"drift Jacobian": (J if isinstance(J, np.ndarray) else spec.drift.jacobian_at(u),
                                (n, n))}
    if spec.side == "psi":
        _, g, H = spec.potential.jet_at(u)
        found.update({"gradient of psi": (g, (n,)), "Hessian of psi": (H, (n, n))})
    for name, (value, shape) in found.items():
        if np.shape(value) != shape:
            raise DimensionMismatchError(f"{name} has shape {np.shape(value)} at the start, "
                                         f"expected {shape}")


def integrate_lift(spec, initial, t_end: float,
                   config: IntegratorConfig = None) -> Trajectory:
    """Integrate a lift, base or (with an anchor) extended, to t_end with diagnostics.

    A numerical failure in a step truncates the returned trajectory (see
    the module docstring); a start it rejects raises, as does one where F,
    its Jacobian or psi's jet has the wrong shape or fails.  NumPy's
    floating-point warnings are off: a non-finite value stops the run.
    """
    if not np.isfinite(t_end) or t_end <= 0:
        raise ValueError("t_end must be positive and finite")
    y0 = np.asarray(initial, dtype=float) if isinstance(initial, np.ndarray) \
        else np.concatenate([initial.x, initial.p, [initial.z]])
    dim = 2 * (spec.n + (spec.anchor is not None)) + 1
    if y0.shape != (dim,):
        raise DimensionMismatchError(f"initial state has shape {y0.shape}, expected ({dim},)")
    if not np.isfinite(y0).all():
        raise EvaluationError("initial state has non-finite entries", coords=y0)
    with np.errstate(all="ignore"):
        _check_shapes(spec, y0)
        _clear_solver(spec.drift)  # the Hamiltonian's solver is new
        h = build_hamiltonian(spec)
        diags = {}  # time of an accepted state -> the diagnostics its field evaluation stored

        def f(t, y, out):
            hamiltonian_vector_field(h, y, None, out)

        def f0(t, y, out):
            hamiltonian_vector_field(h, y, diags.setdefault(t, {}), out)

        traj = _run(f, y0, t_end, config or IntegratorConfig(), f0)
        if traj.times[-1] not in diags:  # no step started from the final state
            with contextlib.suppress(*NUMERICAL_ERRORS):
                h.field(traj.final_state, diags.setdefault(traj.times[-1], {}))
    rows = [diags[t] for t in traj.times]
    names = ("h", "delta0", "delta_norm", "kappa") + (
        ("psi_tilde", "S") if spec.anchor is not None else ())
    traj.diagnostics = {k: np.array([r.get(k, np.nan) for r in rows], dtype=float) for k in names}
    return traj


def integrate_on_submanifold(drift, start, t_end: float,
                             config: IntegratorConfig = None) -> np.ndarray:
    """Integrate the chart ODE du/dt = F(u) and return the endpoint.

    u is the chart coordinate the drift is written in (x on the psi side,
    p on the phi side).  This is the integrator behind the flows of
    geodesic and gradient drifts; like ``integrate_lift`` it first empties
    the Legendre solver the drift keeps.
    """
    config = config or IntegratorConfig()
    _clear_solver(drift)

    def f(t, u, out):
        out[:] = drift.at(u)

    traj = _run(f, np.atleast_1d(np.asarray(start, dtype=float)), t_end, config)
    if traj.truncated:
        raise IntegrationAbort(f"submanifold flow truncated: {traj.abort_reason}",
                               trajectory=traj)
    return traj.final_state

