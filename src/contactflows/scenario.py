"""Scenario files: parse, build a model spec, integrate, report.

A scenario is flat key-value text (INI sections) with one section per
concern:

    [model]
    name = rc            ; rc | rc_thermal | rl | rl_thermal | rlc |
    R = 1.0              ; rlc_thermal | spin | onsager
    C = 1.0

    [initial]
    x = 1.0              ; chart coordinate(s) -> auto-embedded; or give
                         ; x, p, z (and x_extra, p_extra) in full

    [integrator]
    method = rkf45       ; rk4 needs step; rkf45 takes rel_tol/abs_tol
    t_end = 1.0

    [outputs]
    trajectory_csv = traj.csv
    invariant_report = report.txt

Numbers are decimal doubles (scientific notation allowed); vectors are
whitespace-separated; matrices separate rows with ';'.
"""

from __future__ import annotations

import configparser
import contextlib
import csv
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional

import numpy as np

from .errors import NUMERICAL_ERRORS, ContactFlowsError, EvaluationError, ScenarioError
from .extended import ExtendedLiftSpec, embed_extended
from .geometry import CanonicalPoint
from .integrate import IntegratorConfig, Trajectory, fit_decay_rate, integrate_lift
from .lifts import LiftSpec
from .models import MODEL_BUILDERS, CircuitParams, OnsagerParams, SpinParams
from .potentials import DuallyFlatWorkspace, embed_phi, embed_psi

EXIT_PASS = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_NUMERICAL = 3


def _floats(text: str) -> np.ndarray:
    try:
        return np.array([float(tok) for tok in text.replace(",", " ").split()])
    except ValueError as exc:
        raise ScenarioError(f"cannot parse number list {text!r}") from exc


def _matrix(text: str) -> np.ndarray:
    return np.array([_floats(row) for row in text.split(";")])


_CIRCUIT_KEYS = {"rc": {"r", "c"}, "rl": {"r", "l"}, "rlc": {"r", "c", "l"}}
# [model] keys per model name, lower-cased as configparser reads them
MODEL_KEYS = {
    **{name: keys | {"gamma0"} for name, keys in _CIRCUIT_KEYS.items()},
    **{f"{name}_thermal": keys | {"gamma0", "t0"} for name, keys in _CIRCUIT_KEYS.items()},
    "spin": {"theta", "gamma0", "lambda0"},
    "onsager": {"l", "gamma0"},
}


def _check_keys(section, allowed, where: str) -> None:
    """Reject every key of ``section`` that the parser would never read."""
    unknown = sorted(set(section) - set(allowed))
    if unknown:
        raise ScenarioError(f"unknown key(s) {', '.join(map(repr, unknown))}; this section "
                            f"takes {', '.join(sorted(allowed))}", location=where)


@dataclass
class Scenario:
    model_name: str
    spec: object  # LiftSpec | ExtendedLiftSpec
    initial: CanonicalPoint  # of dimension n+1 for an extended lift
    t_end: float
    config: IntegratorConfig
    outputs: dict = field(default_factory=dict)
    path: Optional[Path] = None


def _build_model(section) -> tuple:
    name = section.get("name")
    if name is None:
        raise ScenarioError("missing 'name'", location="[model]")
    name = name.strip().lower()
    if name not in MODEL_BUILDERS:
        raise ScenarioError(f"unknown model {name!r}", location="[model]")
    _check_keys(section, MODEL_KEYS[name] | {"name"}, "[model]")
    keys = {k for k in section if k != "name"}
    try:
        if name == "spin":
            params = SpinParams(**{k: float(section[k]) for k in keys})
        elif name == "onsager":
            kwargs = {}
            if "l" in keys:
                kwargs["L_matrix"] = _matrix(section["l"])
            if "gamma0" in keys:
                kwargs["gamma0"] = float(section["gamma0"])
            params = OnsagerParams(**kwargs)
        else:
            params = CircuitParams(**{k if k == "gamma0" else k.upper(): float(section[k])
                                      for k in keys})
        return name, MODEL_BUILDERS[name](params)
    except (TypeError, ValueError) as exc:
        raise ScenarioError(str(exc), location="[model]") from exc


def _build_initial(section, spec):
    extended = isinstance(spec, ExtendedLiftSpec)
    base = spec.base if extended else spec
    n = base.n
    keys = set(section)
    key = "x" if base.side == "psi" else "p"
    full = {"x", "p", "z"} | ({"x_extra", "p_extra"} if extended else set())
    # without z the start is embedded from the chart coordinate (and x_extra)
    on_graph = {key} | ({"x_extra"} if extended else set())
    _check_keys(section, full if "z" in keys else on_graph, "[initial]")
    try:
        if "z" not in keys:
            # on-submanifold start in the chart coordinate of the model's side
            if key not in keys:
                raise ScenarioError(f"{base.side}-side start needs {key!r}",
                                    location="[initial]")
            chart = _floats(section[key])
            if len(chart) != n:
                raise ScenarioError(
                    f"chart start has dimension {len(chart)}, model needs {n}",
                    location="[initial]")
            if extended:
                extra = float(section.get("x_extra", 0.0))
                return embed_extended(spec, chart, extra)
            embed = embed_psi if base.side == "psi" else embed_phi
            return embed(base.potential, chart)
        x = _floats(section["x"])
        p = _floats(section["p"])
        z = float(section["z"])
        if len(x) != n or len(p) != n:
            raise ScenarioError(
                f"state dimension mismatch (model needs n={n})", location="[initial]")
        if extended:
            x = np.append(x, float(section.get("x_extra", 0.0)))
            p = np.append(p, float(section.get("p_extra", 0.0)))
        return CanonicalPoint(x, p, z)
    except KeyError as exc:
        raise ScenarioError(f"missing field {exc}", location="[initial]") from exc
    except ScenarioError:
        raise
    except (ValueError, ContactFlowsError) as exc:  # e.g. a non-finite coordinate
        raise ScenarioError(str(exc), location="[initial]") from exc


def _read_config(path) -> configparser.ConfigParser:
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    try:
        with open(path) as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario: {exc}") from exc
    except configparser.Error as exc:
        raise ScenarioError(f"parse error: {exc}") from exc
    return parser


def parse_scenario(path) -> Scenario:
    return _scenario_from_config(_read_config(path), Path(path))


def _scenario_from_config(parser: configparser.ConfigParser, path: Path) -> Scenario:
    for required in ("model", "initial", "integrator"):
        if required not in parser:
            raise ScenarioError(f"missing section [{required}]")

    name, spec = _build_model(parser["model"])
    initial = _build_initial(parser["initial"], spec)

    integ = parser["integrator"]
    method = integ.get("method", "rkf45").strip().lower()
    _check_keys(integ, {"method", "t_end"} | ({"step"} if method == "rk4" else
                                              {"rel_tol", "abs_tol"}), "[integrator]")
    try:
        t_end = float(integ.get("t_end", ""))
    except ValueError as exc:
        raise ScenarioError("t_end must be a number", location="[integrator]") from exc
    if not np.isfinite(t_end) or t_end <= 0:
        raise ScenarioError("t_end must be positive and finite", location="[integrator]")
    try:
        config = IntegratorConfig(
            method=method,
            step=float(integ.get("step", 1e-3)),
            rel_tol=float(integ.get("rel_tol", 1e-10)),
            abs_tol=float(integ.get("abs_tol", 1e-12)),
        )
    except ValueError as exc:
        raise ScenarioError(str(exc), location="[integrator]") from exc

    outputs = dict(parser["outputs"]) if "outputs" in parser else {}
    _check_keys(outputs, {"trajectory_csv", "invariant_report", "divergence_table"},
                "[outputs]")
    return Scenario(model_name=name, spec=spec, initial=initial, t_end=t_end,
                    config=config, outputs=outputs, path=path)


# ---------------------------------------------------------------------------
# Artifacts.

def state_columns(spec) -> List[str]:
    extended = isinstance(spec, ExtendedLiftSpec)
    n = (spec.base if extended else spec).n
    cols = [f"x{a + 1}" for a in range(n)]
    if extended:
        cols.append("x_extra")
    cols += [f"p{a + 1}" for a in range(n)]
    if extended:
        cols.append("p_extra")
    cols.append("z")
    return cols


def write_trajectory_csv(traj: Trajectory, spec, path) -> None:
    diag_names = [k for k in ("h", "delta0", "delta_norm", "kappa",
                              "psi_tilde", "H_tot", "S") if k in traj.diagnostics]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t"] + state_columns(spec) + diag_names)
        for i, t in enumerate(traj.times):
            row = [repr(float(t))]
            row += [repr(float(v)) for v in traj.states[i]]
            row += [repr(float(traj.diagnostics[k][i])) for k in diag_names]
            writer.writerow(row)


@dataclass(frozen=True)
class InvariantCheck:
    name: str
    expected: str
    fitted: float
    residual: float
    passed: bool


@dataclass
class InvariantReport:
    checks: List[InvariantCheck]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def render(self) -> str:
        lines = ["invariant report", "================"]
        for c in self.checks:
            status = "PASS" if c.passed else "FAIL"
            lines.append(f"[{status}] {c.name}: expected {c.expected}, "
                         f"fitted {c.fitted:.12g}, residual {c.residual:.3e}")
        lines.append(f"overall: {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(lines) + "\n"


def build_invariant_report(scenario: Scenario, traj: Trajectory,
                           tol: float = 1e-8) -> InvariantReport:
    spec = scenario.spec
    extended = isinstance(spec, ExtendedLiftSpec)
    base = spec.base if extended else spec
    gamma0 = base.restoring.gamma0
    checks = []

    h = traj.diagnostics["h"]
    d0 = traj.diagnostics["delta0"]
    started_on = abs(h[0]) < 1e-12
    if started_on:
        resid = float(np.max(np.abs(h)))
        checks.append(InvariantCheck("h stays zero on submanifold", "|h| = 0",
                                     resid, resid, resid < max(tol, 1e-8)))
    elif gamma0 is not None:
        # off-submanifold: h and Delta_0 decay at the restoring rate until they
        # sink into the integration noise, taken as the integrator's step
        # tolerance at the largest state; the fit stops where they reach it
        cfg = scenario.config
        floor = cfg.abs_tol + cfg.rel_tol * max(1.0, float(np.max(np.abs(traj.states))))
        for name, series in (("h decay rate", h), ("delta0 decay rate", d0)):
            below = np.flatnonzero(np.abs(series) <= floor)
            end = below[0] if len(below) else len(series)
            expected = f"exponential, rate -{gamma0:g}"
            if end < len(series):
                expected += (f", fitted above the noise floor {floor:.3g} "
                             f"(reached at t = {traj.times[end]:.6g})")
            try:
                rate = fit_decay_rate(traj.times[:end], series[:end])
            except ValueError:
                continue
            resid = abs(rate + gamma0)
            checks.append(InvariantCheck(name, expected, rate, resid, resid < 1e-3))

    if extended:
        H = traj.diagnostics.get("H_tot")
        S = traj.diagnostics.get("S")
        if H is not None:
            resid = float(np.max(np.abs(H - H[0]))) / max(traj.times[-1], 1.0)
            checks.append(InvariantCheck("H_tot conserved", "dH_tot/dt = 0",
                                         resid, resid, resid < 1e-9))
        if S is not None and len(S) > 1:
            dS = np.diff(S)
            fitted = float(np.min(dS))
            ok = bool(np.all(dS >= -1e-13))
            checks.append(InvariantCheck("entropy nondecreasing", "dS/dt >= 0",
                                         fitted, max(0.0, -fitted), ok))

    if traj.truncated:
        checks.append(InvariantCheck("integration completed", "no abort",
                                     0.0, np.inf, False))
    return InvariantReport(checks)


@dataclass
class ScenarioResult:
    exit_code: int
    report: Optional[InvariantReport] = None
    trajectory: Optional[Trajectory] = None
    artifacts: List[Path] = field(default_factory=list)
    message: str = ""


def _run_pythagorean(parser, tol: float) -> ScenarioResult:
    """Special scenario kind: three-term divergence identity via flows.

    A malformed [model] or [points] raises ``ScenarioError`` (exit 2).
    """
    from .potentials import BUILTIN_POTENTIALS, DuallyFlatWorkspace, pythagorean_residual

    model = parser["model"]
    _check_keys(model, {"name", "potential", "n"}, "[model]")
    pot_name = model.get("potential", "quadratic").strip().lower()
    if pot_name not in BUILTIN_POTENTIALS:
        raise ScenarioError(f"unknown potential {pot_name!r}", location="[model]")
    try:
        n = int(model.get("n", "1"))
    except ValueError:
        n = 0
    if n < 1:
        raise ScenarioError(f"'n' must be a positive integer, got {model['n']!r}",
                            location="[model]")
    psi = BUILTIN_POTENTIALS[pot_name](n)
    if "points" not in parser:
        raise ScenarioError("missing section [points]")
    section = parser["points"]
    _check_keys(section, {"x1", "x2", "x3"}, "[points]")
    points = []
    for key in ("x1", "x2", "x3"):
        if key not in section:
            raise ScenarioError(f"missing {key!r}", location="[points]")
        try:
            points.append(_floats(section[key]))
        except ScenarioError as exc:
            raise ScenarioError(f"{key!r}: {exc}", location="[points]") from exc
        if points[-1].shape != (n,):
            raise ScenarioError(f"{key!r} has {len(points[-1])} entries, but n = {n}",
                                location="[points]")
    ws = DuallyFlatWorkspace(psi)
    try:
        resid = abs(pythagorean_residual(ws, *points))
    except ContactFlowsError as exc:
        return ScenarioResult(EXIT_USAGE, message=str(exc))
    check = InvariantCheck("pythagorean three-term identity", "residual = 0",
                           resid, resid, resid < tol)
    report = InvariantReport([check])
    code = EXIT_PASS if report.passed else EXIT_CHECK_FAILED
    return ScenarioResult(code, report=report)


def run_scenario(path, out_dir=None, tol: float = 1e-8,
                 write_outputs: bool = True) -> ScenarioResult:
    """Run one scenario file; exit semantics 0 pass / 1 fail / 2 parse / 3 abort."""
    try:
        raw = _read_config(path)
        if raw.has_section("model") and raw["model"].get("name", "").strip() == "pythagorean":
            return _run_pythagorean(raw, tol)
        scenario = _scenario_from_config(raw, Path(path))
    except ScenarioError as exc:
        return ScenarioResult(EXIT_USAGE, message=str(exc))

    try:
        traj = integrate_lift(scenario.spec, scenario.initial, scenario.t_end,
                              scenario.config)
    except NUMERICAL_ERRORS as exc:
        # integrate_lift truncates on a failure in the step loop or the
        # diagnostics and raises only for a start it rejects, which
        # _build_initial has ruled out.  Anything else is a bug
        return ScenarioResult(EXIT_NUMERICAL, message=f"integration aborted: {exc}")
    if traj.truncated:
        return ScenarioResult(EXIT_NUMERICAL, trajectory=traj,
                              message=f"integration truncated: {traj.abort_reason}")

    report = build_invariant_report(scenario, traj, tol=tol)
    artifacts = []
    if write_outputs and scenario.outputs:
        out_dir = Path(out_dir) if out_dir is not None else scenario.path.parent
        out_dir.mkdir(parents=True, exist_ok=True)
        if "trajectory_csv" in scenario.outputs:
            dest = out_dir / scenario.outputs["trajectory_csv"]
            write_trajectory_csv(traj, scenario.spec, dest)
            artifacts.append(dest)
        if "invariant_report" in scenario.outputs:
            dest = out_dir / scenario.outputs["invariant_report"]
            dest.write_text(report.render())
            artifacts.append(dest)
        if "divergence_table" in scenario.outputs:
            base = scenario.spec.base if isinstance(scenario.spec, ExtendedLiftSpec) else scenario.spec
            dest = out_dir / scenario.outputs["divergence_table"]
            grid = _trajectory_grid(traj, base)
            write_divergence_csv(divergence_table(base.workspace, grid), dest)
            artifacts.append(dest)
    code = EXIT_PASS if report.passed else EXIT_CHECK_FAILED
    return ScenarioResult(code, report=report, trajectory=traj, artifacts=artifacts)


def _trajectory_grid(traj: Trajectory, base: LiftSpec):
    """A small grid of x-points sampled along the trajectory."""
    n = base.n
    idx = np.linspace(0, len(traj.times) - 1, min(5, len(traj.times))).astype(int)
    pts = [traj.states[i][:n] for i in idx]
    return [(a, b) for a in pts for b in pts]


# ---------------------------------------------------------------------------
# Divergence tables.

def divergence_table(ws: DuallyFlatWorkspace, pairs) -> List[dict]:
    """Rows of D(x||x') and the asymmetry D(x||x') - D(x'||x) over point pairs.

    Numerical failures (``NUMERICAL_ERRORS``) are recorded per row in the
    error column; any other exception propagates.
    """
    from .potentials import canonical_divergence

    rows = []
    for x, x_prime in pairs:
        x = np.atleast_1d(np.asarray(x, dtype=float))
        x_prime = np.atleast_1d(np.asarray(x_prime, dtype=float))
        row = {"x": x, "x_prime": x_prime, "D": None, "D_reverse": None,
               "asymmetry": None, "error": ""}
        try:
            d = canonical_divergence(ws, x, x_prime)
            d_rev = canonical_divergence(ws, x_prime, x)
            if not (np.isfinite(d) and np.isfinite(d_rev)):
                raise EvaluationError("non-finite divergence", coords=(x, x_prime))
            row["D"], row["D_reverse"] = d, d_rev
            row["asymmetry"] = d - d_rev
        except NUMERICAL_ERRORS as exc:
            row["error"] = str(exc)
        rows.append(row)
    return rows


def write_divergence_csv(rows, dest) -> None:
    """Write the rows as CSV to a path, or to an already open text stream."""
    stream = hasattr(dest, "write")
    with contextlib.nullcontext(dest) if stream else open(dest, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x", "x_prime", "D", "D_reverse", "asymmetry", "error"])
        for row in rows:
            writer.writerow([
                " ".join(repr(float(v)) for v in row["x"]),
                " ".join(repr(float(v)) for v in row["x_prime"]),
                "" if row["D"] is None else repr(float(row["D"])),
                "" if row["D_reverse"] is None else repr(float(row["D_reverse"])),
                "" if row["asymmetry"] is None else repr(float(row["asymmetry"])),
                row["error"],
            ])
