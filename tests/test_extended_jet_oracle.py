"""The anchored lift's jet against a verbatim copy of the previous numpy one.

The copy did the vector algebra of the extended jet with numpy on 2- and
3-vectors.  The library's jet does it on Python floats from ``tolist()``
and keeps only Hess psi . F and J^T D on ``ndarray.dot``.  The elementwise
arithmetic is the same IEEE operations in the same order, so F, dp, dh/dz,
D0, psi~ and S keep their bits.  The three sums grad psi . F, D . F and
|D|^2 are taken left to right, where numpy's ``dot`` may accumulate in
another order, so x_extra's velocity, h, |D| and the field's dz may move
by a few ulps of the sum of the magnitudes of their terms, and by nothing
more.  Every other entry of the field and of the diagnostics is compared
bit for bit.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contactflows.geometry import ContactHamiltonian, swap_hamiltonian
from contactflows.lifts import build_hamiltonian, dual_spec
from contactflows.models import MODEL_BUILDERS, CircuitParams
from test_lifts import nonlinear_gamma_callable_jacobian_lift

EPS = float(np.finfo(float).eps)
ULPS = 4 * EPS


# --- the oracle: verbatim from the previous lifts.build_hamiltonian ---------

def previous_extended_hamiltonian(spec):
    """The previous Hamiltonian of an anchored psi-side spec."""
    psi_jet = spec.potential.jet or spec.potential.jet_at
    F = spec.drift
    J = F.jacobian
    jacobian = (lambda x: J) if isinstance(J, np.ndarray) else F.jacobian_at
    gam, gam_rate = spec.restoring.eval, spec.restoring.derivative
    n = spec.n
    anchor = spec.anchor

    def extended_jet(X, P, z, diag=None):
        x, xe, p, pe = X[:n], X.item(n), P[:n], P.item(n)
        value, g, H = psi_jet(x)
        psi_tilde = value + anchor * xe
        d0 = psi_tilde - z
        ratio = pe / anchor
        d = ratio * g - p
        f = F.at(x)
        rate = gam_rate(d0)
        dx, dp = np.empty(n + 1), np.empty(n + 1)
        dx[:n] = f
        dx[n] = -g.dot(f) / anchor
        dp[:n] = ratio * H.dot(f) + d.dot(jacobian(x)) + rate * (g - p)
        dp[n] = rate * (anchor - pe)
        if diag is not None:  # the extra component of the defect vanishes
            diag.update(delta0=d0, delta_norm=math.sqrt(d.dot(d)), psi_tilde=psi_tilde, S=xe)
        return d.dot(f) + gam(d0), dx, dp, -rate

    return ContactHamiltonian(n=n + 1, jet=extended_jet)


# --- the cases ---------------------------------------------------------------

CIRCUIT = CircuitParams(R=1.3, C=0.7, L=0.9, T0=1.1, gamma0=0.8)
CASES = [(f"{name}-{side}", replace(MODEL_BUILDERS[name](CIRCUIT), side=side))
         for name in ("rc_thermal", "rl_thermal", "rlc_thermal") for side in ("psi", "phi")] + [
    (f"callable-jacobian-nonlinear-gamma-{side}",
     replace(nonlinear_gamma_callable_jacobian_lift(side), anchor=1.3)) for side in ("psi", "phi")]


def previous_hamiltonian(spec):
    if spec.side == "phi":
        return swap_hamiltonian(previous_extended_hamiltonian(dual_spec(spec)))
    return previous_extended_hamiltonian(spec)


def psi_side_arguments(spec, y, m):
    """(psi-side spec, X, P, z) at which the Hamiltonian of ``spec`` evaluates its jet."""
    x, p, z = y[:m], y[m:2 * m], y.item(2 * m)
    if spec.side == "phi":
        return dual_spec(spec), p, x, float(x.dot(p)) - z
    return spec, x, p, z


def sum_scales(s, X, P, z):
    """The sums of |terms| of grad psi . F / anchor, h = D . F + Gamma(D0), and |D|."""
    n, anchor = s.n, s.anchor
    x = X[:n]
    g, f = s.potential.gradient_at(x), s.drift.at(x)
    d = P[n] / anchor * g - P[:n]
    d0 = s.potential.value_at(x) + anchor * X[n] - z
    return (float(np.abs(g).dot(np.abs(f))) / abs(anchor),
            float(np.abs(d).dot(np.abs(f))) + abs(s.restoring.eval(d0)),
            float(np.sqrt(d.dot(d))))


def field_tolerances(spec, y, m, expect):
    """(entries of the field at y read from a sum, their bound on |new - previous|,
    the same bound for the diagnostics read from a sum)."""
    s, X, P, z = psi_side_arguments(spec, y, m)
    gf, h, norm = sum_scales(s, X, P, z)
    summed, tol = np.zeros(2 * m + 1, dtype=bool), np.zeros(2 * m + 1)
    # x_extra's velocity sits in dx on the psi side, in dp once the swap relabels it
    extra = m - 1 if spec.side == "psi" else 2 * m - 1
    summed[[extra, 2 * m]] = True
    tol[extra] = ULPS * gf
    p = np.abs(y[m:2 * m])
    tol[2 * m] = ULPS * (h + p.dot(np.abs(expect[:m]))) + p.dot(tol[:m])
    return summed, tol, {"h": ULPS * h, "delta_norm": ULPS * norm}


def states(m):
    return st.lists(st.floats(-1.5, 1.5, allow_nan=False), min_size=2 * m + 1,
                    max_size=2 * m + 1).map(np.array)


@pytest.mark.parametrize("spec", [s for _, s in CASES], ids=[i for i, _ in CASES])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_field_and_diagnostics_are_the_previous_jets_within_ulps(spec, data):
    h, previous = build_hamiltonian(spec), previous_hamiltonian(spec)
    m = h.n
    y = data.draw(states(m))
    got_diag, want_diag = {}, {}
    got, want = h.field(y, got_diag), previous.field(y, want_diag)
    summed, tol, diag_tol = field_tolerances(spec, y, m, want)
    # a sum may differ in the sign of a zero, which the numeric comparison ignores
    assert np.all(np.abs(got - want) <= tol), (got - want, tol)
    assert got[~summed].tobytes() == want[~summed].tobytes()
    assert sorted(got_diag) == sorted(want_diag)
    for key, value in want_diag.items():
        if key in diag_tol:
            assert abs(got_diag[key] - value) <= diag_tol[key], key
        else:
            assert np.float64(got_diag[key]).tobytes() == np.float64(value).tobytes(), key

