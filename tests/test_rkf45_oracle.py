"""RKF45 against an oracle: the previous ``solve_adaptive`` verbatim, around a naive step.

The oracle's step allocates fresh stage and weight buffers every attempt,
copies each stage's new field array into them, takes the error norm and
the tolerance's max |y| with numpy and recomputes max |y| every attempt.
The library reuses one buffer per solve, has each stage write its row
and works those scalars in Python floats; on every ODE the two must give
the same times, states, abort reason and sequence of right-hand-side
calls, bit for bit.  Both form a stage input, the new state and the
error vector as one dot of a weight row with the stacked buffer; one
step of either method is also held to the textbook stage times and to the
textbook sums in exact rational arithmetic, within a bound fixed by
float64's epsilon.
"""

import sys
import zlib
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from contactflows import integrate
from contactflows.errors import NUMERICAL_ERRORS, EvaluationError
from contactflows.geometry import _all_finite
from contactflows.integrate import DEFAULT_ABS_TOL, DEFAULT_REL_TOL, MAX_STEP_ATTEMPTS, _stop
from test_integrate import in_row

# --- the textbook tableaux, exact ------------------------------------------

RK4 = dict(a=[[F(1, 2)], [0, F(1, 2)], [0, 0, 1]], b=[F(1, 6), F(1, 3), F(1, 3), F(1, 6)])
FEHLBERG = dict(
    a=[[F(1, 4)], [F(3, 32), F(9, 32)], [F(1932, 2197), F(-7200, 2197), F(7296, 2197)],
       [F(439, 216), -8, F(3680, 513), F(-845, 4104)],
       [F(-8, 27), 2, F(-3544, 2565), F(1859, 4104), F(-11, 40)]],
    b=[F(16, 135), 0, F(6656, 12825), F(28561, 56430), F(-9, 50), F(2, 55)],
    b4=[F(25, 216), 0, F(1408, 2565), F(2197, 4104), F(-1, 5), 0])
_ERROR = [p - q for p, q in zip(FEHLBERG["b"], FEHLBERG["b4"])]  # b5 - b4

# --- the oracle: the previous integrate.py's loop, with a naive step -------
# (it loops while t < t_end, with a step floor of at least 5e-324, as the
# library has since it dropped the 1e-15 margin and the floor that rounds to 0)

# [1 | A] rows of k2 ... k6, of y5 and of y5 - y4, each entry rounded once;
# a stage's c is the exact sum of its row, rounded once
_ROWS = np.array([[1] + [float(w) for w in row] + [0] * (6 - len(row))
                  for row in FEHLBERG["a"] + [FEHLBERG["b"]]] + [[0] + [float(w) for w in _ERROR]])
_C = [float(sum(row)) for row in FEHLBERG["a"]]


def _rkf45_step(f, t, y, h, f0):
    W = np.empty((7, 7))
    W[:, 0] = _ROWS[:, 0]
    W[:, 1:] = h * _ROWS[:, 1:]
    G = np.empty((7, len(y)))
    G[0] = y
    G[1] = f0(t, y)
    for i, c in enumerate(_C, 1):
        G[i + 1] = f(t + c * h, W[i - 1, :i + 1].dot(G[:i + 1]))
    return W[5].dot(G), np.abs(W[6].dot(G)).max()


def solve_adaptive(f, y0, t_end, rel_tol=DEFAULT_REL_TOL,
                   abs_tol=DEFAULT_ABS_TOL, f0=None):
    f0 = f0 or f
    y = np.asarray(y0, dtype=float)
    ts, ys = [0.0], [y]
    t = 0.0
    h = min(1e-2, t_end)
    h_min = max(t_end * 1e-14, 5e-324)
    steps = 0
    failure = ""  # the stage error that rejected a step since the last accepted one
    while t < t_end:
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
    for solve, adapt in ((integrate.solve_adaptive, in_row), (solve_adaptive, lambda f: f)):
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
                traj = solve(adapt(rhs), np.array(y0, dtype=float), t_end, rel_tol, abs_tol,
                             adapt(first) if separate_f0 else None)
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


def test_step_that_lands_one_ulp_short_is_followed_by_the_last_one():
    # 0.21 + (t_end - 0.21) rounds to t_end - 1 ulp, so one step of 1 ulp ends the run on t_end
    t_end = 0.7661814713047405
    results = run_both(linear([[0.0]], [1.0]), [0.0], t_end, 1e-10, 1e-12)
    assert_same(results)
    times = results[0][0].times
    assert times[-1] == t_end and times[-2] == np.nextafter(t_end, 0.0)


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


# --- one step against the textbook sums ------------------------------------

# per entry: 8 eps of the row's scale w0 |y| + h sum_j |w_j| |k_j| covers the
# rounding of h w_j and of a dot product of at most 7 terms, and 8 of the
# smallest subnormals cover products that underflow
STEP_TOL = 8 * np.finfo(float).eps
UNDERFLOW = 8 * np.finfo(float).smallest_subnormal


def textbook(w0, weights, y, h, K):
    """Per entry, the exact w0 y + h sum_j w_j k_j and its scale, each rounded to float."""
    want, scale = [], []
    for e, ye in enumerate(y.tolist()):
        terms = [F(w) * F(k) for w, k in zip(weights, K[:, e].tolist())]
        want.append(float(w0 * F(ye) + F(h) * sum(terms)))
        scale.append(float(w0 * abs(F(ye)) + F(h) * sum(map(abs, terms))))
    return np.array(want), np.array(scale)


@st.composite
def one_steps(draw):
    dim = draw(st.integers(1, 5))
    entries = st.floats(-60.0, 60.0)
    A = draw(st.lists(st.lists(entries, min_size=dim, max_size=dim), min_size=dim, max_size=dim))
    b = draw(st.lists(st.floats(-5.0, 5.0), min_size=dim, max_size=dim))
    f = draw(st.sampled_from([linear(A, b), blow_up(draw(st.floats(0.1, 5.0)))]))
    y = np.array(draw(st.lists(st.floats(-10.0, 10.0), min_size=dim, max_size=dim)))
    return (draw(st.sampled_from(["rk4", "rkf45"])), f, y, draw(st.floats(0.0, 10.0)),
            draw(st.floats(1e-6, 0.5)))


@settings(max_examples=200, deadline=None)
@given(one_steps())
def test_one_step_is_the_textbook_step(case):
    # every stage's time t + c_i h with the textbook c_i, the sum of its row
    # of A; every stage input, the new state and (RKF45) max |y5 - y4|
    # against the exact sums over the stage rows the step wrote
    method, f, y, t, h = case
    tableau, c, step, exact = {
        "rk4": (integrate._RK4, integrate._RK4_C, integrate._rk4_step, RK4),
        "rkf45": (integrate._RKF45, integrate._RKF45_C, integrate._rkf45_step, FEHLBERG)}[method]
    times, inputs = [], []

    def rhs(t, u, out):
        times.append(t)
        inputs.append(u.copy())
        out[:] = f(t, u)

    G, W, stages = integrate._stage_buffers(tableau, c, y)
    np.multiply(tableau[:, 1:], h, out=W[:, 1:])
    with np.errstate(all="ignore"):
        y_new, err = (step(rhs, t, h, rhs, G, W, stages), None) if method == "rk4" \
            else step(rhs, t, h, rhs, G, W, stages)
    assert times == [t] + [t + float(sum(row)) * h for row in exact["a"]]
    assume(np.isfinite(G).all())
    K = G[1:]
    assert len(inputs) == len(K)
    for got, weights in zip(inputs[1:] + [y_new], exact["a"] + [exact["b"]]):
        want, scale = textbook(1, weights, y, h, K)
        assert np.all(np.abs(got - want) <= STEP_TOL * scale + UNDERFLOW)
    if err is not None:
        want, scale = textbook(0, _ERROR, y, h, K)
        assert abs(err - np.abs(want).max()) <= (STEP_TOL * scale + UNDERFLOW).max()
