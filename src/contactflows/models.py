"""Prebuilt lift specifications: series circuits, spin relaxation, Onsager flows.

All quantities are dimensionless after the usual normalizations (the spin
field is theta = H/(k_B T_abs), temperatures divide entropy-conjugate
pairs); there is no unit system.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .extended import ExtendedLiftSpec
from .lifts import (
    DriftField,
    LiftSpec,
    linear_drift,
    linear_restoring,
    onsager_drift,
)
from .potentials import ConvexPotential, quadratic_potential, spin_potential


@dataclass(frozen=True)
class CircuitParams:
    """Series-circuit constants; T0 = 0 selects the plain (non-thermal) model.

    ``potential`` optionally replaces the quadratic stored-energy function
    (nonlinear capacitor); only the RC constructors accept it.
    """

    R: float
    C: Optional[float] = None
    L: Optional[float] = None
    T0: float = 0.0
    gamma0: float = 1.0
    potential: Optional[ConvexPotential] = None

    def __post_init__(self):
        for name in ("R", "C", "L", "gamma0"):
            value = getattr(self, name)
            if value is not None and (not np.isfinite(value) or value <= 0):
                raise ValueError(f"{name} must be positive and finite")
        if not np.isfinite(self.T0) or self.T0 < 0:
            raise ValueError("T0 must be nonnegative and finite")

    def require(self, *names):
        for name in names:
            if getattr(self, name) is None:
                raise ValueError(f"this circuit model requires parameter {name}")


@dataclass(frozen=True)
class SpinParams:
    """Controlled spin relaxation toward dimensionless field theta.

    Guaranteed relaxation needs gamma0 > lambda0; the constructor does not
    enforce it (the stability certificate reports instead).
    """

    theta: float
    gamma0: float
    lambda0: float = 0.0

    def __post_init__(self):
        if not np.isfinite(self.theta):
            raise ValueError("theta must be finite")
        if not np.isfinite(self.gamma0) or self.gamma0 <= 0:
            raise ValueError("gamma0 must be positive and finite")
        if not np.isfinite(self.lambda0) or self.lambda0 < 0:
            raise ValueError("lambda0 must be nonnegative and finite")


@dataclass(frozen=True)
class OnsagerParams:
    """Phenomenological gradient flow dx/dt = -L grad U with SPD coefficients.

    When ``U`` is omitted the dually flat special case is used: U = psi
    quadratic with matrix M = L^{-1}, for which p(t) = p(0) e^{-t}.
    """

    L_matrix: np.ndarray
    U: Optional[ConvexPotential] = None
    gamma0: float = 1.0

    def __post_init__(self):
        L = np.atleast_2d(np.asarray(self.L_matrix, dtype=float))
        if not np.isfinite(L).all():
            raise ValueError("L must have finite entries")
        if not np.allclose(L, L.T):
            raise ValueError("L must be symmetric")
        try:
            np.linalg.cholesky(L)
        except np.linalg.LinAlgError as exc:
            raise ValueError("L must be positive definite") from exc
        object.__setattr__(self, "L_matrix", L)
        if not np.isfinite(self.gamma0) or self.gamma0 <= 0:
            raise ValueError("gamma0 must be positive and finite")

    @property
    def M_matrix(self) -> np.ndarray:
        return np.linalg.inv(self.L_matrix)


def _thermal(params: CircuitParams, base: LiftSpec) -> ExtendedLiftSpec:
    """The conserving lift of a circuit's psi-side lift, anchored at T0."""
    if params.T0 <= 0:
        raise ValueError("thermal model requires T0 > 0")
    return ExtendedLiftSpec(base=base, anchor=params.T0)


# ---------------------------------------------------------------------------
# RC circuit: psi(Q) = Q^2/(2C), dQ/dt = -Q/(RC).

def _rc_base(params: CircuitParams) -> LiftSpec:
    params.require("C")
    if params.potential is not None:
        psi = params.potential
        if psi.n != 1:
            raise ValueError("RC potential must be one-dimensional")
        R = params.R
        drift = DriftField(
            n=1,
            eval=lambda q: -psi.gradient_at(q) / R,
            jacobian=lambda q: -psi.hessian_at(q) / R,
        )
    else:
        psi = quadratic_potential([[1.0 / params.C]])
        drift = linear_drift(-1.0 / (params.R * params.C), 1)
    return LiftSpec(side="psi", potential=psi, drift=drift,
                    restoring=linear_restoring(params.gamma0))


def rc_spec(params: CircuitParams) -> LiftSpec:
    return _rc_base(params)


def rc_thermal_spec(params: CircuitParams) -> ExtendedLiftSpec:
    return _thermal(params, _rc_base(params))


# ---------------------------------------------------------------------------
# RL circuit.  Plain model lives on the phi side in the current I with
# dual potential H_L*(I) = L I^2/2; the thermal model is the same lift on
# the psi side, in the flux N with H_L(N) = N^2/(2L).

def _rl_potential(params: CircuitParams) -> ConvexPotential:
    params.require("L")
    if params.potential is not None:
        raise ValueError("custom potentials are supported for the RC model only")
    return quadratic_potential([[1.0 / params.L]])


def rl_spec(params: CircuitParams) -> LiftSpec:
    psi = _rl_potential(params)
    drift = linear_drift(-params.R / params.L, 1)
    return LiftSpec(side="phi", potential=psi, drift=drift,
                    restoring=linear_restoring(params.gamma0))


def rl_thermal_spec(params: CircuitParams) -> ExtendedLiftSpec:
    return _thermal(params, replace(rl_spec(params), side="psi"))


# ---------------------------------------------------------------------------
# RLC circuit (n = 2).  Plain: phi side in (V, I) with
# H*(V, I) = C V^2/2 + L I^2/2; thermal: psi side in (Q, N) with
# H(Q, N) = Q^2/(2C) + N^2/(2L).

def _rlc_potential(params: CircuitParams) -> ConvexPotential:
    params.require("C", "L")
    if params.potential is not None:
        raise ValueError("custom potentials are supported for the RC model only")
    return quadratic_potential(np.diag([1.0 / params.C, 1.0 / params.L]))


def rlc_spec(params: CircuitParams) -> LiftSpec:
    psi = _rlc_potential(params)
    C, L, R = params.C, params.L, params.R
    drift = DriftField(
        n=2,
        eval=lambda p: np.array([p[1] / C, -p[0] / L - R * p[1] / L]),
        jacobian=lambda p: np.array([[0.0, 1.0 / C], [-1.0 / L, -R / L]]),
    )
    return LiftSpec(side="phi", potential=psi, drift=drift,
                    restoring=linear_restoring(params.gamma0))


def rlc_thermal_spec(params: CircuitParams) -> ExtendedLiftSpec:
    psi = _rlc_potential(params)
    C, L, R = params.C, params.L, params.R
    drift = DriftField(
        n=2,
        eval=lambda x: np.array([x[1] / L, -x[0] / C - R * x[1] / L]),
        jacobian=lambda x: np.array([[0.0, 1.0 / L], [-1.0 / C, -R / L]]),
    )
    return _thermal(params, LiftSpec(side="psi", potential=psi, drift=drift,
                                     restoring=linear_restoring(params.gamma0)))


# ---------------------------------------------------------------------------
# Spin relaxation under a controlled field: x(t) -> theta exponentially,
# psi(x) = ln cosh x + ln 2.

def spin_spec(params: SpinParams) -> LiftSpec:
    psi = spin_potential(1)
    drift = linear_drift(-params.lambda0, 1, offset=[params.theta])
    return LiftSpec(side="psi", potential=psi, drift=drift,
                    restoring=linear_restoring(params.gamma0))


# ---------------------------------------------------------------------------
# Onsager phenomenological flow: dx/dt = -L grad U.

def onsager_spec(params: OnsagerParams) -> LiftSpec:
    if params.U is not None:
        psi = params.U
    else:
        psi = quadratic_potential(params.M_matrix)
    drift = onsager_drift(params.L_matrix, psi.gradient_at, psi.hessian_at)
    return LiftSpec(side="psi", potential=psi, drift=drift,
                    restoring=linear_restoring(params.gamma0))


MODEL_BUILDERS = {
    "rc": rc_spec,
    "rc_thermal": rc_thermal_spec,
    "rl": rl_spec,
    "rl_thermal": rl_thermal_spec,
    "rlc": rlc_spec,
    "rlc_thermal": rlc_thermal_spec,
    "spin": spin_spec,
    "onsager": onsager_spec,
}
