"""Scenario files: parse, build a model spec, integrate, report.

A scenario is flat key-value text, one INI section per concern: [model],
[initial], [integrator] and [outputs], or [model] and [points] for the
``pythagorean`` kind.  Numbers are decimal doubles; vectors are
whitespace-separated; matrices separate rows with ';'.  README.md gives
the keys of each section with an example.
"""

from __future__ import annotations

import configparser
import contextlib
import csv
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional

import numpy as np

from .errors import (NUMERICAL_ERRORS, ContactFlowsError, EvaluationError,
                     PythagoreanConfigError, ScenarioError)
from .geometry import CanonicalPoint
from .integrate import IntegratorConfig, Trajectory, _rk4_steps, integrate_lift
from .lifts import LiftSpec, embed
from .models import MODEL_BUILDERS, CircuitParams, OnsagerParams, SpinParams
from .potentials import (BUILTIN_POTENTIALS, ConvexPotential, canonical_divergence,
                         pythagorean_residual)

EXIT_PASS = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_NUMERICAL = 3

INVARIANT_TOL = 1e-8  # |h| along a run started on the submanifold; the Pythagorean residual
# the miss allowed h and Delta_0 from their decay laws, in floors times max(1, gamma0);
# the worst seen is 1.6 under RKF45 and 10 under RK4 (step 0.0025, gamma0 = 10)
DECAY_LAW_FLOORS = 20
# under RK4, the miss allowed is also this many times the peak global truncation of
# s' = -gamma0 s, |s(0)| (gamma0 step)^4 / (120 e); 1.03-1.11 times it is seen at
# gamma0 step 0.025-0.1
RK4_TRUNCATION_FACTOR = 2


def _floats(text: str) -> np.ndarray:
    return np.array([float(tok) for tok in text.replace(",", " ").split()])


def _matrix(text: str) -> np.ndarray:
    return np.array([_floats(row) for row in text.split(";")])


def _number(section, key: str, default=None) -> float:
    """The number at ``key``, or ``default`` where the key is absent."""
    try:
        return float(section[key]) if key in section else default
    except ValueError:
        raise ScenarioError(f"{key!r} must be a number, got {section[key]!r}") from None


_CIRCUIT_KEYS = {"rc": {"r", "c"}, "rl": {"r", "l"}, "rlc": {"r", "c", "l"}}
# [model] keys per model name, lower-cased as configparser reads them
MODEL_KEYS = {
    **{name: keys | {"gamma0"} for name, keys in _CIRCUIT_KEYS.items()},
    **{f"{name}_thermal": keys | {"gamma0", "t0"} for name, keys in _CIRCUIT_KEYS.items()},
    "spin": {"theta", "gamma0", "lambda0"},
    "onsager": {"l", "gamma0"},
}
# [model] keys whose parameter has no default, as a scenario writes them
REQUIRED_KEYS = {**{name: ("R",) for name in MODEL_KEYS}, "spin": ("theta", "gamma0"),
                 "onsager": ("L",)}


@contextlib.contextmanager
def _section(name: str):
    """Read the section [name]: an input it rejects exits 2 with a message naming it.

    A ``ValueError`` or ``ContactFlowsError`` raised inside becomes a
    ``ScenarioError`` located at [name]; NumPy's floating-point warnings are
    off, so a non-finite value ends in a finiteness check.  Only parsing runs inside.
    """
    try:
        with np.errstate(all="ignore"):
            yield
    except (ValueError, ContactFlowsError) as exc:
        raise ScenarioError(str(exc), location=f"[{name}]") from exc


def _check_sections(parser, taken, required) -> None:
    """Reject a missing ``required`` section and every section this scenario kind does not take."""
    missing = [name for name in required if name not in parser]
    if missing:
        raise ScenarioError(f"missing section [{missing[0]}]")
    unknown = sorted(set(parser.sections()) - set(taken))
    if unknown:
        raise ScenarioError(f"unknown section; this scenario takes "
                            f"{', '.join(f'[{name}]' for name in taken)}",
                            location=f"[{unknown[0]}]")


def _check_keys(section, allowed, required=()) -> None:
    """Reject a missing ``required`` key and every key the parser would never read."""
    missing = [key for key in required if key.lower() not in section]
    if missing:
        raise ScenarioError(f"missing key(s) {', '.join(map(repr, missing))}")
    unknown = sorted(set(section) - set(allowed))
    if unknown:
        raise ScenarioError(f"unknown key(s) {', '.join(map(repr, unknown))}; this section "
                            f"takes {', '.join(sorted(allowed))}")


@dataclass
class Scenario:
    model_name: str
    spec: LiftSpec
    initial: CanonicalPoint  # of dimension n+1 for a lift with an anchor
    t_end: float
    config: IntegratorConfig
    outputs: dict = field(default_factory=dict)
    path: Optional[Path] = None


def _build_model(section) -> tuple:
    name = section.get("name", "").strip().lower()
    if name not in MODEL_BUILDERS:
        raise ScenarioError(f"unknown model {name!r}" if name else "missing key(s) 'name'")
    _check_keys(section, MODEL_KEYS[name] | {"name"}, REQUIRED_KEYS[name])
    keys = set(section) - {"name"}
    if name == "spin":
        params = SpinParams(**{k: _number(section, k) for k in keys})
    elif name == "onsager":
        params = OnsagerParams(_matrix(section["l"]), **{k: _number(section, k)
                                                         for k in keys - {"l"}})
    else:
        params = CircuitParams(**{k if k == "gamma0" else k.upper(): _number(section, k)
                                  for k in keys})
    return name, MODEL_BUILDERS[name](params)


def _build_initial(section, spec: LiftSpec):
    n, key = spec.n, "x" if spec.side == "psi" else "p"
    extras = ("x_extra", "p_extra") if spec.anchor is not None else ()
    if "z" not in section:
        # on-submanifold start in the chart coordinate of the model's side (and x_extra)
        _check_keys(section, {key, *extras[:1]}, (key,))
        chart = _floats(section[key])
        if len(chart) != n:
            raise ScenarioError(f"chart start has dimension {len(chart)}, model needs {n}")
        return embed(spec, chart, _number(section, "x_extra", 0.0))
    _check_keys(section, {"x", "p", "z", *extras}, ("x", "p", "z", *extras))
    x, p = _floats(section["x"]), _floats(section["p"])
    if len(x) != n or len(p) != n:
        raise ScenarioError(f"state dimension mismatch (model needs n={n})")
    if extras:
        x, p = np.append(x, _number(section, "x_extra")), np.append(p, _number(section, "p_extra"))
    return CanonicalPoint(x, p, _number(section, "z"))


def _build_integrator(section) -> tuple:
    """(t_end, config); an RK4 run is held to the step budget of ``solve_fixed``."""
    method = section.get("method", "rkf45").strip().lower()
    _check_keys(section, {"method", "t_end"} | ({"step"} if method == "rk4" else
                                                 {"rel_tol", "abs_tol"}), ("t_end",))
    t_end = _number(section, "t_end")
    if not np.isfinite(t_end) or t_end <= 0:
        raise ScenarioError("t_end must be positive and finite")
    config = IntegratorConfig(method, **{k: _number(section, k) for k in section
                                         if k not in ("method", "t_end")})
    if method == "rk4":
        _rk4_steps(t_end, config.step)
    return t_end, config


def _read_config(path) -> configparser.ConfigParser:
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    try:
        with open(path) as fh:
            parser.read_file(fh)
    except (OSError, configparser.Error) as exc:
        raise ScenarioError(f"cannot read scenario: {exc}") from exc
    return parser


def parse_scenario(path) -> Scenario:
    return _scenario_from_config(_read_config(path), Path(path))


def _scenario_from_config(parser: configparser.ConfigParser, path: Path) -> Scenario:
    _check_sections(parser, ("model", "initial", "integrator", "outputs"),
                    ("model", "initial", "integrator"))
    with _section("model"):
        name, spec = _build_model(parser["model"])
    with _section("initial"):
        initial = _build_initial(parser["initial"], spec)
    with _section("integrator"):
        t_end, config = _build_integrator(parser["integrator"])
    outputs = dict(parser["outputs"]) if "outputs" in parser else {}
    with _section("outputs"):
        _check_keys(outputs, {"trajectory_csv", "invariant_report", "divergence_table"})
        keys = {}  # file name -> the key that names it
        for key, file_name in outputs.items():  # written into the output directory itself
            if file_name in ("", "..") or Path(file_name).name != file_name:
                raise ScenarioError(f"{key!r} must be a bare file name, got {file_name!r}")
            if file_name in keys:
                raise ScenarioError(f"{keys[file_name]!r} and {key!r} both name {file_name!r}")
            keys[file_name] = key
    return Scenario(model_name=name, spec=spec, initial=initial, t_end=t_end,
                    config=config, outputs=outputs, path=path)


# ---------------------------------------------------------------------------
# Artifacts.

def state_columns(spec: LiftSpec) -> List[str]:
    extended = spec.anchor is not None
    cols = [f"x{a + 1}" for a in range(spec.n)]
    if extended:
        cols.append("x_extra")
    cols += [f"p{a + 1}" for a in range(spec.n)]
    if extended:
        cols.append("p_extra")
    cols.append("z")
    return cols


def write_trajectory_csv(traj: Trajectory, spec, path) -> None:
    # one float64 block, written as csv.writer writes it: a float by its
    # repr(), which never needs quoting, and "\r\n" after every row
    rows = np.column_stack([traj.times, traj.states, *traj.diagnostics.values()]).tolist()
    header = ",".join(["t"] + state_columns(spec) + list(traj.diagnostics))
    with open(path, "w", newline="") as fh:
        fh.write("\r\n".join([header, *(",".join(map(repr, row)) for row in rows)]) + "\r\n")


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


def build_invariant_report(scenario: Scenario, traj: Trajectory) -> InvariantReport:
    spec = scenario.spec
    gamma0 = spec.restoring.gamma0
    checks = []

    h = traj.diagnostics["h"]
    d0 = traj.diagnostics["delta0"]
    started_on = abs(h[0]) < 1e-12
    if started_on:
        resid = float(np.max(np.abs(h)))
        checks.append(InvariantCheck("h stays zero on submanifold", "|h| = 0",
                                     resid, resid, resid < INVARIANT_TOL))
    elif gamma0 is not None:
        # off the submanifold h and Delta_0 follow s(0) e^{-gamma0 t} exactly; the
        # floor is the step tolerance at the largest state, weighted by gamma0
        # because h = Delta.F + gamma0 Delta_0 carries the error in Delta_0 so;
        # RK4 reads no tolerance, and its truncation error grows with the step
        cfg = scenario.config
        floor = cfg.abs_tol + cfg.rel_tol * max(1.0, float(np.max(np.abs(traj.states))))
        decay = np.exp(-gamma0 * traj.times)
        for name, series in (("h", h), ("delta0", d0)):
            bound = DECAY_LAW_FLOORS * floor * max(1.0, gamma0)
            if cfg.method == "rk4":
                bound += (RK4_TRUNCATION_FACTOR * abs(float(series[0]))
                          * (gamma0 * cfg.step) ** 4 / (120 * np.e))
            miss = float(np.max(np.abs(series - series[0] * decay)))  # NaN if any row is
            checks.append(InvariantCheck(f"{name} decay law",
                                         f"{name}(0) e^(-{gamma0:g} t) within {bound:.3g}",
                                         miss, miss, miss <= bound))

    if spec.anchor is not None:
        H = traj.diagnostics["psi_tilde"]  # the total energy H_tot
        S = traj.diagnostics["S"]
        resid = float(np.max(np.abs(H - H[0]))) / max(traj.times[-1], 1.0)
        checks.append(InvariantCheck("H_tot conserved", "dH_tot/dt = 0",
                                     resid, resid, resid < 1e-9))
        if len(S) > 1:
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


def _run_pythagorean(parser) -> ScenarioResult:
    """Special scenario kind: three-term divergence identity via flows.

    A malformed [model] or [points], or a triple that is not right-angled,
    raises ``ScenarioError`` (exit 2); a numerical failure exits 3.
    """
    _check_sections(parser, ("model", "points"), ("points",))
    with _section("model"):
        model = parser["model"]
        _check_keys(model, {"name", "potential", "n"})
        pot_name = model.get("potential", "quadratic").strip().lower()
        if pot_name not in BUILTIN_POTENTIALS:
            raise ScenarioError(f"unknown potential {pot_name!r}")
        n = model.get("n", "1").strip()
        if not n.isdigit() or int(n) < 1:
            raise ScenarioError(f"'n' must be a positive integer, got {n!r}")
        psi = BUILTIN_POTENTIALS[pot_name](int(n))
    with _section("points"):
        section = parser["points"]
        keys = ("x1", "x2", "x3")
        _check_keys(section, keys, keys)
        points = [_floats(section[key]) for key in keys]
        for key, x in zip(keys, points):
            if x.shape != (psi.n,) or not np.isfinite(x).all():
                raise ScenarioError(f"{key!r} must be n = {psi.n} finite numbers, "
                                    f"got {section[key]!r}")
    try:
        with np.errstate(all="ignore"):  # a non-finite value fails a flow or the identity
            resid = abs(pythagorean_residual(psi, *points))
    except PythagoreanConfigError as exc:  # the points are no right-angled triple: bad [points]
        with _section("points"):
            raise exc
    except NUMERICAL_ERRORS as exc:
        return ScenarioResult(EXIT_NUMERICAL, message=str(exc))
    check = InvariantCheck("pythagorean three-term identity", "residual = 0",
                           resid, resid, resid < INVARIANT_TOL)
    report = InvariantReport([check])
    code = EXIT_PASS if report.passed else EXIT_CHECK_FAILED
    return ScenarioResult(code, report=report)


def run_scenario(path, out_dir=None, write_outputs: bool = True) -> ScenarioResult:
    """Run one scenario file; exit semantics 0 pass / 1 fail / 2 parse / 3 abort."""
    try:
        raw = _read_config(path)
        if raw.has_section("model") and raw["model"].get("name", "").strip() == "pythagorean":
            return _run_pythagorean(raw)
        scenario = _scenario_from_config(raw, Path(path))
    except ScenarioError as exc:
        return ScenarioResult(EXIT_USAGE, message=str(exc))

    try:
        traj = integrate_lift(scenario.spec, scenario.initial, scenario.t_end,
                              scenario.config)
    except NUMERICAL_ERRORS as exc:
        # integrate_lift truncates on a failure in the step loop or the
        # diagnostics, and raises for a start at which the lift cannot be
        # evaluated.  Anything else is a bug
        return ScenarioResult(EXIT_NUMERICAL, message=f"integration aborted: {exc}")
    if traj.truncated:
        return ScenarioResult(EXIT_NUMERICAL, trajectory=traj,
                              message=f"integration truncated: {traj.abort_reason}")

    report = build_invariant_report(scenario, traj)
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
            dest = out_dir / scenario.outputs["divergence_table"]
            grid = _trajectory_grid(traj, scenario.spec)
            write_divergence_csv(divergence_table(scenario.spec.potential, grid), dest)
            artifacts.append(dest)
    code = EXIT_PASS if report.passed else EXIT_CHECK_FAILED
    return ScenarioResult(code, report=report, trajectory=traj, artifacts=artifacts)


def _trajectory_grid(traj: Trajectory, spec: LiftSpec):
    """A small grid of x-points sampled along the trajectory."""
    n = spec.n
    idx = np.linspace(0, len(traj.times) - 1, min(5, len(traj.times))).astype(int)
    pts = [traj.states[i][:n] for i in idx]
    return [(a, b) for a in pts for b in pts]


# ---------------------------------------------------------------------------
# Divergence tables.

def divergence_table(psi: ConvexPotential, pairs) -> List[dict]:
    """Rows of D(x||x') and the asymmetry D(x||x') - D(x'||x) over point pairs.

    Numerical failures (``NUMERICAL_ERRORS``) are recorded per row in the
    error column; any other exception propagates.
    """
    rows = []
    for x, x_prime in pairs:
        x = np.atleast_1d(np.asarray(x, dtype=float))
        x_prime = np.atleast_1d(np.asarray(x_prime, dtype=float))
        row = {"x": x, "x_prime": x_prime, "D": None, "D_reverse": None,
               "asymmetry": None, "error": ""}
        try:
            d = canonical_divergence(psi, x, x_prime)
            d_rev = canonical_divergence(psi, x_prime, x)
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
