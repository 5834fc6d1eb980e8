"""RKF45 against a verbatim copy of the previous ``solve_adaptive`` and ``_rkf45_step``.

The copy allocates its stage buffer per attempt, takes the error norm and
the tolerance's max |y| with numpy and recomputes max |y| every attempt.
The library reuses one buffer per solve and works those scalars in Python
floats; on every ODE the two must give the same times, states, abort
reason and sequence of right-hand-side calls, bit for bit.
"""

import sys
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contactflows import integrate
from contactflows.errors import NUMERICAL_ERRORS, EvaluationError
from contactflows.geometry import _all_finite
from contactflows.integrate import (_B4, _B5, _STAGES, DEFAULT_ABS_TOL, DEFAULT_REL_TOL,
                                    MAX_STEP_ATTEMPTS, _stop)


# --- the oracle: verbatim from the previous integrate.py -------------------

def _rkf45_step(f, t, y, h, f0):
    K = np.empty((6, len(y)))
    K[0] = f0(t, y)
    for i, (c, a) in enumerate(_STAGES, 1):
        K[i] = f(t + c * h, y + h * a.dot(K[:i]))
    y5 = y + h * _B5.dot(K)
    y4 = y + h * _B4.dot(K)
    return y5, np.abs(y5 - y4).max()


def solve_adaptive(f, y0, t_end, rel_tol=DEFAULT_REL_TOL,
                   abs_tol=DEFAULT_ABS_TOL, f0=None):
    f0 = f0 or f
    y = np.asarray(y0, dtype=float)
    ts, ys = [0.0], [y]
    t = 0.0
    h = min(1e-2, t_end)
    h_min = t_end * 1e-14
    steps = 0
    failure = ""  # the stage error that rejected a step since the last accepted one
    while t < t_end - 1e-15:
        h = min(h, t_end - t)
        try:
            y_new, err = _rkf45_step(f, t, y, h, f0)
        except NUMERICAL_ERRORS as exc:
            failure, factor = f" after {type(exc).__name__}: {exc}", 0.1
        else:
            if not _all_finite(y_new):
                return _stop(ts, ys, "non-finite state", t, h)
            tol = abs_tol + rel_tol * max(1.0, float(np.abs(y).max()))
            if err <= tol:
                t += h
                y = y_new
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
    return integrate.Trajectory(np.array(ts), np.array(ys))


# --- ODEs ------------------------------------------------------------------

def linear(A, b):
    """y' = A y + b."""
    A, b = np.array(A, dtype=float), np.array(b, dtype=float)
    return lambda t, y: A.dot(y) + b


def blow_up(k):
    """y' = k y^2 in every component: finite-time blow-up at t = 1 / (k y0)."""
    return lambda t, y: k * y * y


def walled(A, wall):
    """y' = A y, with an EvaluationError wherever max |y| passes ``wall``."""
    A = np.array(A, dtype=float)

    def f(t, y):
        if np.abs(y).max() > wall:
            raise EvaluationError("past the wall")
        return A.dot(y)

    return f


def run_both(f, y0, t_end, rel_tol=DEFAULT_REL_TOL, abs_tol=DEFAULT_ABS_TOL,
             separate_f0=False, budget=None, flaky=None):
    """(library, oracle): each a (trajectory, the times and states f saw).

    With ``flaky``, about one call in ``flaky`` to f (fixed by its t and y)
    raises ZeroDivisionError; with ``separate_f0`` too, a first stage never does.
    """
    results = []
    for solve in (integrate.solve_adaptive, solve_adaptive):
        seen = []

        def rhs(t, y):
            seen.append((t, y.tobytes()))
            if flaky and zlib.crc32(np.append(t, y).tobytes()) % flaky == 0:
                seen.append("raised")
                raise ZeroDivisionError("flaky stage")
            return f(t, y)

        def first(t, y):
            seen.append(("f0", t, y.tobytes()))
            return f(t, y)

        with pytest.MonkeyPatch.context() as mp:
            if budget is not None:
                mp.setattr(integrate, "MAX_STEP_ATTEMPTS", budget)
                mp.setattr(sys.modules[__name__], "MAX_STEP_ATTEMPTS", budget)
            with np.errstate(all="ignore"):
                traj = solve(rhs, np.array(y0, dtype=float), t_end, rel_tol, abs_tol,
                             first if separate_f0 else None)
        results.append((traj, seen))
    return results


def assert_same(results):
    (got, got_seen), (want, want_seen) = results
    assert got.times.tobytes() == want.times.tobytes()
    assert got.states.shape == want.states.shape
    assert got.states.tobytes() == want.states.tobytes()
    assert got.abort_reason == want.abort_reason
    assert got_seen == want_seen


# --- each branch, reached on purpose ---------------------------------------

def test_rejected_steps():
    # stiff: the first steps are rejected before the step settles
    results = run_both(linear([[-400.0, 1.0], [0.0, -0.5]], [1.0, 0.0]), [1.0, 2.0], 1.0,
                       separate_f0=True)
    assert_same(results)
    traj, seen = results[0]
    attempts = sum(1 for call in seen if call[0] == "f0")  # first stages, one per attempt
    assert attempts > len(traj.times) - 1 > 0 and traj.abort_reason is None


def test_stage_errors_shrink_the_step_and_the_run_goes_on():
    results = run_both(linear([[-1.0, 0.3], [0.0, -2.0]], [0.0, 0.0]), [1.0, -1.0], 2.0,
                       separate_f0=True, flaky=60)
    assert_same(results)
    traj, seen = results[0]
    assert traj.abort_reason is None and traj.times[-1] == pytest.approx(2.0)
    assert "raised" in seen


def test_stage_errors_end_at_the_step_floor():
    results = run_both(walled([[1.0]], 2.0), [1.0], 3.0)
    assert_same(results)
    assert results[0][0].abort_reason.startswith("step floor")
    assert "after EvaluationError: past the wall" in results[0][0].abort_reason


def test_blow_up_ends_in_the_step_floor_or_a_non_finite_state():
    results = run_both(blow_up(1.0), [1.0, 0.5], 2.0)
    assert_same(results)
    reason = results[0][0].abort_reason
    assert reason.startswith(("step floor", "non-finite state"))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_non_finite_start(bad):
    results = run_both(linear([[-1.0, 0.0], [0.0, -1.0]], [0.0, 0.0]), [0.5, bad], 1.0)
    assert_same(results)
    assert results[0][0].abort_reason.startswith("non-finite state")


def test_step_budget():
    results = run_both(linear([[-3.0]], [0.0]), [1.0], 5.0, budget=12)
    assert_same(results)
    assert results[0][0].abort_reason.startswith("step budget 12 exhausted")


# --- and over drawn ODEs ---------------------------------------------------

@st.composite
def odes(draw):
    dim = draw(st.integers(1, 5))
    entries = st.floats(-60.0, 60.0, allow_nan=False)
    A = draw(st.lists(st.lists(entries, min_size=dim, max_size=dim), min_size=dim, max_size=dim))
    b = draw(st.lists(st.floats(-5.0, 5.0), min_size=dim, max_size=dim))
    kind = draw(st.sampled_from(["linear", "blow_up", "walled"]))
    f = {"linear": lambda: linear(A, b),
         "blow_up": lambda: blow_up(draw(st.floats(0.1, 5.0))),
         "walled": lambda: walled(A, draw(st.floats(0.5, 20.0)))}[kind]()
    start = st.one_of(st.floats(-10.0, 10.0), st.sampled_from([np.nan, np.inf, -np.inf]))
    y0 = draw(st.lists(start, min_size=dim, max_size=dim))
    return dict(f=f, y0=y0, t_end=draw(st.floats(1e-3, 3.0)),
                rel_tol=draw(st.sampled_from([1e-10, 1e-6, 1e-3])),
                abs_tol=draw(st.sampled_from([1e-12, 1e-8, 1e-4])),
                separate_f0=draw(st.booleans()),
                budget=draw(st.one_of(st.none(), st.integers(0, 40))),
                flaky=draw(st.one_of(st.none(), st.integers(3, 50))))


@settings(max_examples=150, deadline=None)
@given(odes())
def test_same_run_as_the_oracle(ode):
    assert_same(run_both(**ode))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(st.floats(), st.floats(-1e308, 1e308)), min_size=1, max_size=8))
def test_max_abs_is_numpys_with_nan_and_overflow(entries):
    # the error norm and max |y| keep numpy's value, a NaN wherever it stands
    # included; a finite vector whose sum overflows is compared in Python
    v = np.array(entries)
    got = integrate._max_abs(v)
    assert type(got) is float
    assert np.float64(got).tobytes() == np.abs(v).max().tobytes()
