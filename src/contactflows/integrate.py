"""Fixed-step RK4 and adaptive RKF45 integration of lifted flows.

States are flat arrays: (x, p, z) for a base lift, (x, x_extra, p, p_extra, z)
for an extended one.  Diagnostics (h, defect norms, compressibility,
conserved quantities) are recorded at every accepted step; on the phi side
they are the psi-side diagnostics of the conjugate on the swapped states.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import IntegrationAbort
from .extended import (
    ExtendedLiftSpec,
    ExtendedPoint,
    dual_extended_spec,
    tilde_deltas,
    tilde_hamiltonian,
    tilde_potential_value,
    unflatten,
)
from .geometry import CanonicalPoint, hamiltonian_vector_field
from .lifts import build_hamiltonian, dual_spec
from .potentials import delta_psi

DEFAULT_REL_TOL = 1e-10
DEFAULT_ABS_TOL = 1e-12

# Fehlberg 4(5) tableau
_A = [
    [],
    [1 / 4],
    [3 / 32, 9 / 32],
    [1932 / 2197, -7200 / 2197, 7296 / 2197],
    [439 / 216, -8, 3680 / 513, -845 / 4104],
    [-8 / 27, 2, -3544 / 2565, 1859 / 4104, -11 / 40],
]
_B5 = [16 / 135, 0, 6656 / 12825, 28561 / 56430, -9 / 50, 2 / 55]
_B4 = [25 / 216, 0, 1408 / 2565, 2197 / 4104, -1 / 5, 0]


@dataclass
class IntegratorConfig:
    method: str = "rkf45"  # "rk4" | "rkf45"
    step: float = 1e-3
    rel_tol: float = DEFAULT_REL_TOL
    abs_tol: float = DEFAULT_ABS_TOL

    def __post_init__(self):
        if self.method not in ("rk4", "rkf45"):
            raise ValueError(f"unknown integrator {self.method!r}")
        if self.step <= 0 or self.rel_tol <= 0 or self.abs_tol <= 0:
            raise ValueError("step and tolerances must be positive")


@dataclass
class Trajectory:
    times: np.ndarray
    states: np.ndarray  # (len(times), dim)
    diagnostics: dict = field(default_factory=dict)
    truncated: bool = False
    abort_reason: Optional[str] = None

    @property
    def final_state(self) -> np.ndarray:
        return self.states[-1]


def _rk4_step(f, t, y, h):
    k1 = f(t, y)
    k2 = f(t + h / 2, y + h / 2 * k1)
    k3 = f(t + h / 2, y + h / 2 * k2)
    k4 = f(t + h, y + h * k3)
    return y + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)


def _rkf45_step(f, t, y, h):
    ks = []
    for i in range(6):
        yi = y + h * sum(a * k for a, k in zip(_A[i], ks)) if ks else y.copy()
        ks.append(f(t + h * sum(_A[i]) if i else t, yi))
    y5 = y + h * sum(b * k for b, k in zip(_B5, ks))
    y4 = y + h * sum(b * k for b, k in zip(_B4, ks))
    return y5, np.max(np.abs(y5 - y4))


def solve_fixed(f, y0, t_end, step):
    """RK4 with a fixed step; the last step is shortened to land on t_end."""
    ts = [0.0]
    ys = [np.asarray(y0, dtype=float)]
    t = 0.0
    while t < t_end - 1e-15:
        h = min(step, t_end - t)
        y = _rk4_step(f, t, ys[-1], h)
        if not np.all(np.isfinite(y)):
            raise IntegrationAbort(
                "NaN during RK4 step",
                trajectory=Trajectory(np.array(ts), np.array(ys), truncated=True,
                                      abort_reason="nan"),
            )
        t += h
        ts.append(t)
        ys.append(y)
    return np.array(ts), np.array(ys)


def solve_adaptive(f, y0, t_end, rel_tol=DEFAULT_REL_TOL, abs_tol=DEFAULT_ABS_TOL,
                   h0=None, max_steps=2_000_000):
    """RKF45 with standard step control; accepted steps only are recorded."""
    y = np.asarray(y0, dtype=float)
    ts, ys = [0.0], [y]
    t = 0.0
    h = h0 if h0 is not None else min(1e-2, t_end)
    h_min = t_end * 1e-14
    steps = 0
    while t < t_end - 1e-15:
        h = min(h, t_end - t)
        y_new, err = _rkf45_step(f, t, y, h)
        if not np.all(np.isfinite(y_new)):
            raise IntegrationAbort(
                "NaN during adaptive step",
                trajectory=Trajectory(np.array(ts), np.array(ys), truncated=True,
                                      abort_reason="nan"),
            )
        tol = abs_tol + rel_tol * max(1.0, float(np.max(np.abs(y))))
        if err <= tol:
            t += h
            y = y_new
            ts.append(t)
            ys.append(y)
        factor = 0.9 * (tol / err) ** 0.2 if err > 0 else 2.0
        h *= min(4.0, max(0.1, factor))
        if h < h_min:
            return Trajectory(np.array(ts), np.array(ys), truncated=True,
                              abort_reason="step floor reached")
        steps += 1
        if steps > max_steps:
            return Trajectory(np.array(ts), np.array(ys), truncated=True,
                              abort_reason="step budget exhausted")
    return np.array(ts), np.array(ys)


# ---------------------------------------------------------------------------
# Lift-aware integration with per-step diagnostics.

def _hamiltonian(spec, extended: bool):
    return tilde_hamiltonian(spec) if extended else build_hamiltonian(spec)


def _rhs(h):
    m = h.n

    def f(t, y):
        pt = CanonicalPoint(y[:m], y[m:2 * m], y[2 * m])
        return hamiltonian_vector_field(h, pt).as_array()

    return f


def pack_state(pt) -> np.ndarray:
    if isinstance(pt, ExtendedPoint):
        fp = pt.flatten()
        return np.concatenate([fp.x, fp.p, [fp.z]])
    return np.concatenate([pt.x, pt.p, [pt.z]])


def _run(f, y0, t_end, config: IntegratorConfig):
    if config.method == "rk4":
        out = solve_fixed(f, y0, t_end, config.step)
    else:
        out = solve_adaptive(f, y0, t_end, config.rel_tol, config.abs_tol)
    if isinstance(out, Trajectory):
        return out
    times, states = out
    return Trajectory(times, states)


def integrate_lift(spec, initial, t_end: float,
                   config: IntegratorConfig = None) -> Trajectory:
    """Integrate a base or extended lift to t_end with diagnostics."""
    if t_end <= 0:
        raise ValueError("t_end must be positive")
    config = config or IntegratorConfig()
    extended = isinstance(spec, ExtendedLiftSpec)
    f = _rhs(_hamiltonian(spec, extended))
    y0 = initial if isinstance(initial, np.ndarray) else pack_state(initial)
    try:
        traj = _run(f, y0, t_end, config)
    except IntegrationAbort as exc:
        traj = exc.trajectory
        traj.abort_reason = str(exc)
    traj.diagnostics = _diagnostics(spec, traj.states, extended)
    return traj


def _swap_states(states: np.ndarray, m: int) -> np.ndarray:
    """The Legendre swap (x, p, z) -> (p, x, x.p - z) applied to every row."""
    x, p, z = states[:, :m], states[:, m:2 * m], states[:, 2 * m]
    return np.column_stack([p, x, np.einsum("ij,ij->i", x, p) - z])


def _diagnostics(spec, states, extended: bool) -> dict:
    n = spec.n
    m = n + 1 if extended else n
    if spec.side == "phi":  # h and the defects change sign under the swap
        dual = dual_extended_spec(spec) if extended else dual_spec(spec)
        out = _diagnostics(dual, _swap_states(states, m), extended)
        return {**out, "h": -out["h"], "delta0": -out["delta0"]}
    ham = _hamiltonian(spec, extended)
    hs, d0s, dnorms = [], [], []
    psit, entropy = [], []
    gamma_rate = (
        spec.base.restoring.derivative if extended else spec.restoring.derivative
    )
    kappas = []
    for y in states:
        pt = CanonicalPoint(y[:m], y[m:2 * m], y[2 * m])
        hs.append(ham(pt))
        if extended:
            ept = unflatten(pt)
            d0, d = tilde_deltas(spec, ept)
            psit.append(tilde_potential_value(spec, ept.x, ept.x_extra))
            entropy.append(ept.x_extra)
            kappas.append(-(n + 2) * gamma_rate(d0))
        else:
            d0, d = delta_psi(spec.potential, pt)
            kappas.append(-(n + 1) * gamma_rate(d0))
        d0s.append(d0)
        dnorms.append(float(np.linalg.norm(d)))
    out = {
        "h": np.array(hs),
        "delta0": np.array(d0s),
        "delta_norm": np.array(dnorms),
        "kappa": np.array(kappas),
    }
    if extended:
        out["psi_tilde"] = np.array(psit)
        out["H_tot"] = np.array(psit)
        out["S"] = np.array(entropy)
    return out


def integrate_on_submanifold(ws, drift, side: str, start, t_end: float,
                             config: IntegratorConfig = None) -> np.ndarray:
    """Integrate the chart ODE du/dt = F(u) and return the endpoint.

    side "psi": u = x and F is a drift in x; side "phi": u = p.
    This is the integrator behind the flows of geodesic and gradient
    drifts.
    """
    config = config or IntegratorConfig()

    def f(t, u):
        return drift.at(u)

    traj = _run(f, np.atleast_1d(np.asarray(start, dtype=float)), t_end, config)
    if traj.truncated:
        raise IntegrationAbort(f"submanifold flow truncated: {traj.abort_reason}",
                               trajectory=traj)
    return traj.final_state


def fit_decay_rate(times, values) -> float:
    """Least-squares slope of log |values| over the second half of the data.

    The second half avoids transient pollution; values crossing zero are
    masked out.
    """
    times = np.asarray(times, dtype=float)
    values = np.abs(np.asarray(values, dtype=float))
    half = len(times) // 2
    t, v = times[half:], values[half:]
    mask = v > 0
    if mask.sum() < 2:
        raise ValueError("not enough nonzero samples to fit a rate")
    slope, _ = np.polyfit(t[mask], np.log(v[mask]), 1)
    return float(slope)
