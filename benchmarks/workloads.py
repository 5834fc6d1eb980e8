"""Seeded benchmark workloads: input generators, program calls and correctness gates.

Each workload makes its inputs from the seed alone: the integration
workloads write scenario files, and the program sees only those files; the
Legendre batch draws its dual points in memory.  A workload object offers
``execute(case)``, the timed call into the public API, ``check(case,
result)``, the untimed correctness gate, and ``setup_args()``, the arguments
of the set-up probe.  The gates compare
against closed forms that only this benchmark knows; the library never
stores them.  See WORKLOADS.md for why each workload exists.
"""

from __future__ import annotations

import hashlib
import math
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional

import numpy as np


@dataclass
class Case:
    name: str
    path: Optional[Path]  # the scenario file; None on the batch
    truth: dict  # generator-side values the correctness gate compares against


@dataclass
class Outcome:
    """What the gate concluded about one execution of one case."""

    items: int  # work units: accepted steps, or transforms
    steps: int  # accepted integrator steps (0 on the batch)
    attempted: int  # units the failure count is taken over
    failed: int
    reasons: List[str] = field(default_factory=list)
    digest: dict = field(default_factory=dict)
    item_seconds: List[float] = field(default_factory=list)  # per-item latency, batch only


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _stratified(rng, lo, hi, count):
    """One uniform draw in each of ``count`` equal slices of [lo, hi), shuffled.

    Every seed then covers the whole parameter range, so the cost of a case
    set (and hence every timing) varies little from seed to seed.
    """
    slots = (rng.permutation(count) + rng.uniform(0.0, 1.0, count)) / count
    return lo + (hi - lo) * slots


def _offset(rng, size=None):
    """A signed perturbation of magnitude 0.1 to 0.5 (moves a start off the submanifold)."""
    return rng.choice([-1.0, 1.0], size) * rng.uniform(0.1, 0.5, size)


def _num(v) -> str:
    return repr(float(v))


def _vec(v) -> str:
    return " ".join(_num(a) for a in v)


def _expm(A):
    """Matrix exponential by scaling and squaring of a Taylor series (small dense A)."""
    norm = float(np.max(np.sum(np.abs(A), axis=1)))
    squarings = max(0, int(math.ceil(math.log2(norm))) + 1) if norm > 0 else 0
    B = A / 2.0 ** squarings
    term = np.eye(len(A))
    total = term.copy()
    for k in range(1, 30):
        term = term @ B / k
        total = total + term
    for _ in range(squarings):
        total = total @ total
    return total


class ScenarioWorkload:
    """Seeded RLC circuits started off the submanifold, run through ``run_scenario``.

    On both charts the chart coordinate u obeys du/dt = A u exactly, also off
    the submanifold, so the final u must equal expm(A t_end) u0.
    """

    kind = "scenario"
    cases_per_pass = 8
    t_end: float
    flow_tol: float  # allowed sup-norm miss of the final chart coordinate
    write_outputs: bool

    def __init__(self, seed: int, work_dir: Path, size: int = None):
        """Write ``size`` scenario files (default ``cases_per_pass``) into ``work_dir``."""
        from contactflows import scenario

        self._scenario = scenario
        rng = np.random.default_rng([seed, self.stream])
        count = size or self.cases_per_pass
        params = {name: _stratified(rng, lo, hi, count) for name, (lo, hi) in self.ranges.items()}
        self.out_dir = work_dir / "out"
        self.cases = []
        for i in range(count):
            name = f"case{i:02d}"
            path = work_dir / f"{name}.scenario"
            text, truth = self.scenario_text(rng, {k: v[i] for k, v in params.items()})
            path.write_text(text)
            self.cases.append(Case(name, path, truth))

    def execute(self, case: Case):
        return self._scenario.run_scenario(case.path, out_dir=self.out_dir / case.name,
                                           write_outputs=self.write_outputs)

    def setup_args(self) -> list:
        return ["scenario", *(str(case.path) for case in self.cases)]

    def check(self, case: Case, result) -> Outcome:
        reasons = []
        if result.exit_code != 0:
            reasons.append(f"exit code {result.exit_code} {result.message}".strip())
        if result.report is not None and not result.report.passed:
            failed = [c.name for c in result.report.checks if not c.passed]
            reasons.append("invariant checks failed: " + ", ".join(failed))
        traj = result.trajectory
        steps, digest = 0, {}
        if traj is None:
            reasons.append("no trajectory")
        else:
            steps = len(traj.times) - 1
            truth = case.truth
            u_end = traj.final_state[self.chart]
            u_exact = _expm(truth["A"] * traj.times[-1]) @ truth["u0"]
            miss = float(np.max(np.abs(u_end - u_exact)))
            if abs(traj.times[-1] - self.t_end) > 1e-12 or not miss <= self.flow_tol:
                reasons.append(f"final chart coordinate misses its closed-form flow by "
                               f"{miss:.3g} at t={traj.times[-1]!r}")
            digest["final_state"] = _sha(traj.final_state.tobytes())
            for artifact in result.artifacts:
                if artifact.suffix == ".csv":
                    digest["csv"] = _sha(artifact.read_bytes())
            if self.write_outputs and "csv" not in digest:
                reasons.append("no trajectory CSV written")
        return Outcome(items=steps, steps=steps, attempted=1, failed=int(bool(reasons)),
                       reasons=reasons, digest=digest)

    def expected_counts(self) -> dict:
        """Per-layer counts that one traced pass must reproduce exactly."""
        return {}


class PsiThermalRK4(ScenarioWorkload):
    """rlc_thermal (n=2, extended psi lift, 7-dim state), fixed-step RK4, CSV and report written."""

    name = "psi_thermal_rk4"
    stream = 1
    t_end = 1.0
    # fine enough that the report's 1e-9 H_tot conservation check holds with
    # margin on the fastest circuits in range (h = 0.01 fails it there)
    step = 0.0025
    chart = slice(0, 2)  # x, inside (x, x_extra, p, p_extra, z)
    flow_tol = 1e-10
    write_outputs = True
    ranges = {"R": (0.5, 2.0), "C": (0.5, 2.0), "L": (0.5, 2.0), "T0": (0.5, 2.0),
              "gamma0": (0.5, 1.5)}

    def scenario_text(self, rng, k):
        R, C, L, T0, gamma0 = k["R"], k["C"], k["L"], k["T0"], k["gamma0"]
        x = rng.uniform(-1.0, 1.0, 2)
        x_extra = rng.uniform(0.0, 1.0)
        # on the extended submanifold p = grad psi(x), p_extra = T0, z = psi(x) + T0 x_extra
        p = x / np.array([C, L]) + _offset(rng, 2)
        p_extra = T0 + _offset(rng)
        z = 0.5 * (x[0] ** 2 / C + x[1] ** 2 / L) + T0 * x_extra + _offset(rng)
        text = (
            "; seeded thermal RLC circuit, started off the extended submanifold\n"
            f"[model]\nname = rlc_thermal\nR = {_num(R)}\nC = {_num(C)}\nL = {_num(L)}\n"
            f"T0 = {_num(T0)}\ngamma0 = {_num(gamma0)}\n\n"
            f"[initial]\nx = {_vec(x)}\nx_extra = {_num(x_extra)}\np = {_vec(p)}\n"
            f"p_extra = {_num(p_extra)}\nz = {_num(z)}\n\n"
            f"[integrator]\nmethod = rk4\nstep = {_num(self.step)}\nt_end = {_num(self.t_end)}\n\n"
            "[outputs]\ntrajectory_csv = traj.csv\ninvariant_report = report.txt\n"
        )
        A = np.array([[0.0, 1.0 / L], [-1.0 / C, -R / L]])
        return text, {"A": A, "u0": x}

    def expected_counts(self) -> dict:
        # the psi chart needs no Legendre solve; RK4 rejects no step
        return {"potentials.legendre.calls": 0, "integrate.rkf45_steps": 0,
                "integrate.steps.rejected": 0}


class PhiRlcRKF45(ScenarioWorkload):
    """Plain rlc (n=2, phi lift), adaptive RKF45 at default tolerances, check path, no outputs."""

    name = "phi_rlc_rkf45"
    stream = 2
    # step counts differ from case to case, so the median case moves by about
    # 4% from seed to seed with 16 cases and about 3% with 32
    cases_per_pass = 32
    t_end = 5.0
    chart = slice(2, 4)  # p, inside (x, p, z)
    # rel_tol 1e-10 per step over a few hundred steps; seen misses are about 1e-10
    flow_tol = 1e-7
    write_outputs = False
    ranges = {"R": (0.7, 1.4), "C": (0.7, 1.4), "L": (0.7, 1.4), "gamma0": (0.75, 1.25)}

    def scenario_text(self, rng, k):
        R, C, L, gamma0 = k["R"], k["C"], k["L"], k["gamma0"]
        p = rng.uniform(-1.0, 1.0, 2)
        # psi = Q^2/(2C) + N^2/(2L): x*(p) = (C p1, L p2), phi(p) = (C p1^2 + L p2^2)/2
        x_star = np.array([C * p[0], L * p[1]])
        phi = 0.5 * (C * p[0] ** 2 + L * p[1] ** 2)
        x = x_star + _offset(rng, 2)
        z = float(p @ x_star) - phi + _offset(rng)
        text = (
            "; seeded RLC circuit on the dual chart, started off the submanifold\n"
            f"[model]\nname = rlc\nR = {_num(R)}\nC = {_num(C)}\nL = {_num(L)}\n"
            f"gamma0 = {_num(gamma0)}\n\n"
            f"[initial]\nx = {_vec(x)}\np = {_vec(p)}\nz = {_num(z)}\n\n"
            f"[integrator]\nmethod = rkf45\nt_end = {_num(self.t_end)}\n"
        )
        A = np.array([[0.0, 1.0 / C], [-1.0 / L, -R / L]])
        return text, {"A": A, "u0": p}

    def expected_counts(self) -> dict:
        return {"integrate.rk4_steps": 0}


class SpinLegendreBatch:
    """Independent cold ``legendre_transform`` calls on the spin potential.

    One batch of 300 points per dimension n in {1, 2, 8}.  Each site's p
    is tanh(u) with u drawn stratified over [-7.5, 7.5], so |p| reaches
    1 - 6e-7 and every seed needs nearly the same Newton work.  The gate
    compares x* with artanh p and phi with the closed-form spin conjugate.
    """

    name = "spin_legendre_batch"
    kind = "batch"
    stream = 3
    dims = (1, 2, 8)
    per_batch = 300
    u_max = 7.5

    def __init__(self, seed: int, work_dir: Path, size: int = None):
        """Draw ``size`` dual points (default ``per_batch``) per dimension; ``work_dir`` is unused."""
        from contactflows import errors, potentials

        self._potentials = potentials
        self._newton_error = errors.NewtonConvergenceError
        rng = np.random.default_rng([seed, self.stream])
        count = size or self.per_batch
        self.cases = []
        self._inputs = {}
        for n in self.dims:
            name = f"spin_n{n}"
            u = np.column_stack([_stratified(rng, -self.u_max, self.u_max, count)
                                 for _ in range(n)])
            self.cases.append(Case(name, None, {}))
            self._inputs[name] = (potentials.BUILTIN_POTENTIALS["spin"](n), list(np.tanh(u)))

    def execute(self, case: Case):
        psi, points = self._inputs[case.name]
        potentials = self._potentials
        results, seconds = [], []
        for p in points:
            t0 = time.perf_counter()
            try:
                res = potentials.legendre_transform(psi, p)
            except self._newton_error as exc:
                res = exc
            seconds.append(time.perf_counter() - t0)
            results.append(res)
        return results, seconds

    def setup_args(self) -> list:
        return ["spin", *(str(n) for n in self.dims)]

    def check(self, case: Case, result) -> Outcome:
        results, seconds = result
        _, points = self._inputs[case.name]
        reasons, h = [], hashlib.sha256()
        failed = 0
        for p, res in zip(points, results):
            if isinstance(res, Exception):
                failed += 1
                reasons.append(f"p={_vec(p)}: {res}")
                continue
            a = np.arctanh(p)
            # phi(p) = x*.p - psi(x*) with psi(a) = sum log(2 cosh a), written stably
            phi = float(a @ p - np.sum(np.abs(a) + np.log1p(np.exp(-2 * np.abs(a)))))
            # |x* - artanh p| is bounded by the residual times the conditioning cosh^2
            x_tol = 1e-13 * np.cosh(a) ** 2
            phi_tol = 1e-12 * len(p) * max(1.0, float(np.max(np.abs(a))))
            if np.any(np.abs(res.x_star - a) > x_tol) or abs(res.phi_value - phi) > phi_tol:
                failed += 1
                reasons.append(f"p={_vec(p)}: x*/phi miss the closed-form spin conjugate")
            h.update(res.x_star.tobytes())
            h.update(np.float64(res.phi_value).tobytes())
        return Outcome(items=len(points), steps=0, attempted=len(points), failed=failed,
                       reasons=reasons, digest={"final_state": h.hexdigest()},
                       item_seconds=seconds)

    def expected_counts(self) -> dict:
        # one cold solve per point, and nothing integrated
        return {"potentials.legendre.calls": sum(len(pts) for _, pts in self._inputs.values()),
                "geometry.field.calls": 0, "integrate.steps.accepted": 0}


WORKLOADS = {cls.name: cls for cls in (PsiThermalRK4, PhiRlcRKF45, SpinLegendreBatch)}
