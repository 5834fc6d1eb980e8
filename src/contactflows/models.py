"""Prebuilt lift specifications: series circuits, spin relaxation, Onsager flows.

All quantities are dimensionless after the usual normalizations (the spin
field is theta = H/(k_B T_abs), temperatures divide entropy-conjugate
pairs); there is no unit system.  A nonlinear circuit element, such as a
capacitor with a quartic stored energy, is a ``LiftSpec`` of its own
potential and drift; ``CircuitParams`` holds the linear circuits' constants.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .lifts import (
    LiftSpec,
    affine_drift,
    linear_drift,
    linear_restoring,
    onsager_coefficients,
    onsager_drift,
)
from .potentials import ConvexPotential, quadratic_potential, spin_potential


@dataclass(frozen=True)
class CircuitParams:
    """Series-circuit constants, shared by the plain and the thermal builders.

    The builder's name selects the model, not T0: a plain builder (``rc_spec``)
    ignores T0, and a thermal one (``rc_thermal_spec``) rejects T0 = 0.
    """

    R: float
    C: Optional[float] = None
    L: Optional[float] = None
    T0: float = 0.0
    gamma0: float = 1.0

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
        object.__setattr__(self, "L_matrix", onsager_coefficients(self.L_matrix))
        if not np.isfinite(self.gamma0) or self.gamma0 <= 0:
            raise ValueError("gamma0 must be positive and finite")

    @property
    def M_matrix(self) -> np.ndarray:
        return np.linalg.inv(self.L_matrix)


def _thermal(params: CircuitParams, base: LiftSpec) -> LiftSpec:
    """The conserving lift of a circuit's psi-side lift, anchored at T0."""
    if params.T0 <= 0:
        raise ValueError("thermal model requires T0 > 0")
    return replace(base, anchor=params.T0)


# ---------------------------------------------------------------------------
# RC circuit: psi(Q) = Q^2/(2C), dQ/dt = -Q/(RC).

def rc_spec(params: CircuitParams) -> LiftSpec:
    params.require("C")
    return LiftSpec(side="psi", potential=quadratic_potential([[1.0 / params.C]]),
                    drift=linear_drift(-1.0 / (params.R * params.C), 1),
                    restoring=linear_restoring(params.gamma0))


def rc_thermal_spec(params: CircuitParams) -> LiftSpec:
    return _thermal(params, rc_spec(params))


# ---------------------------------------------------------------------------
# RL circuit.  Plain model lives on the phi side in the current I with
# dual potential H_L*(I) = L I^2/2, the closed-form conjugate of the
# quadratic H_L, so no Legendre solve runs; the thermal model is the same
# lift on the psi side, in the flux N with H_L(N) = N^2/(2L).

def rl_spec(params: CircuitParams) -> LiftSpec:
    params.require("L")
    return LiftSpec(side="phi", potential=quadratic_potential([[1.0 / params.L]]),
                    drift=linear_drift(-params.R / params.L, 1),
                    restoring=linear_restoring(params.gamma0))


def rl_thermal_spec(params: CircuitParams) -> LiftSpec:
    return _thermal(params, replace(rl_spec(params), side="psi"))


# ---------------------------------------------------------------------------
# RLC circuit (n = 2).  Plain: phi side in (V, I) with
# H*(V, I) = C V^2/2 + L I^2/2, the closed-form conjugate of the quadratic
# H; thermal: psi side in (Q, N) with H(Q, N) = Q^2/(2C) + N^2/(2L).

def _rlc_potential(params: CircuitParams) -> ConvexPotential:
    params.require("C", "L")
    return quadratic_potential(np.diag([1.0 / params.C, 1.0 / params.L]))


def rlc_spec(params: CircuitParams) -> LiftSpec:
    psi = _rlc_potential(params)
    C, L, R = params.C, params.L, params.R
    drift = affine_drift([[0.0, 1.0 / C], [-1.0 / L, -R / L]])
    return LiftSpec(side="phi", potential=psi, drift=drift,
                    restoring=linear_restoring(params.gamma0))


def rlc_thermal_spec(params: CircuitParams) -> LiftSpec:
    psi = _rlc_potential(params)
    C, L, R = params.C, params.L, params.R
    drift = affine_drift([[0.0, 1.0 / L], [-1.0 / C, -R / L]])
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
    L, psi = params.L_matrix, params.U
    if psi is None:  # U = psi quadratic with M = L^{-1}: F(x) = -L M x
        M = params.M_matrix
        psi = quadratic_potential(M)
        drift = replace(affine_drift(-L.dot(M)), structure=("onsager", L))
    else:
        drift = onsager_drift(L, psi.gradient_at, lambda x: psi.hessian_at(x, check_spd=False))
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
