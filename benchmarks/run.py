"""Layered, seeded benchmark of contactflows.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout: the library is imported from
``src/``, and inputs and outputs go to a scratch directory under
``.bench_work/`` that is removed at the end.  One process runs the cases one
after another; the only other processes are short fresh interpreters that
time set-up (``setup_probe.py``).

Every time is rescaled by a machine-speed reference loop run right after
it (``calibrate.py``), because the host's speed drifts; the record keeps
the raw wall times.  With ``--trace 0`` the run is timed with no
instrumentation and reports the end-to-end metrics.  With ``--trace 1`` it
alternates untraced and traced passes over the workload's fixed case set
and reports per-layer metrics per pass (see ``tracing.py``), plus the
tracing overhead.  Either way every case
goes through a correctness gate, a record line (versions, failures, digests)
is printed, and the last line of standard output is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

WORKLOADS.md gives why each workload exists and which layer metric should
move which end-to-end metric.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

from calibrate import reference_seconds, rescale

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_work"
SETUP_PROBES = 5  # fresh interpreters per run; setup_s is their median

END_TO_END = {
    "setup_s": "s",
    "case_s_p50": "s",
    "items_per_s": "1/s",
    "item_us_p50": "us",
    "peak_rss_mb": "MB",
}

# Per pass over the workload's case set.  Every metric that is not a time
# must repeat exactly from pass to pass and from run to run of one seed.
PER_LAYER = {
    "potentials.legendre.calls": "count",
    "potentials.legendre.s": "s",
    "potentials.newton_iters.mean": "count",
    "potentials.newton.fail": "count",
    "potentials.workspace.hit_ratio": "ratio",
    "potentials.workspace.misses": "count",
    "potentials.hessian.calls": "count",
    "potentials.hessian.s": "s",
    "potentials.gradient.calls": "count",
    "geometry.field.calls": "count",
    "geometry.field.self_s": "s",
    "geometry.point.calls": "count",
    "lifts.hamiltonian.self_s": "s",
    "extended.hamiltonian.self_s": "s",
    "lifts.drift.calls": "count",
    "lifts.drift.s": "s",
    "integrate.solve.self_s": "s",
    "integrate.diagnostics.s": "s",
    "integrate.steps.accepted": "count",
    "integrate.steps.rejected": "count",
    "integrate.accept_ratio": "ratio",
    "integrate.evals_per_step": "ratio",
    "scenario.csv.s": "s",
    "scenario.csv.rows": "count",
    "scenario.csv.bytes": "B",
    "scenario.report.s": "s",
    "models.build.s": "s",
    "scenario.parse.s": "s",
    "cli.import.s": "s",
    "trace.pass_s": "s",
    "trace.overhead_s": "s",
}


def import_library():
    if not (SRC / "contactflows" / "__init__.py").is_file():
        raise SystemExit(f"error: no contactflows sources under {SRC}; "
                         "run from the root of a source checkout")
    sys.path.insert(0, str(SRC))
    import contactflows  # noqa: F401


def measure_setup(wl) -> dict:
    """Median of SETUP_PROBES fresh-interpreter set-ups, after one discarded warm-up.

    Phases are rescaled by each probe's own reference time; ``raw_setup_s``
    is the plain median.
    """
    cmd = [sys.executable, str(BENCH_DIR / "setup_probe.py"), *wl.setup_args()]
    runs = []
    for i in range(SETUP_PROBES + 1):
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=120, check=True)
        if i:
            runs.append(json.loads(done.stdout.splitlines()[-1]))
    setup = {key: statistics.median(run[key] * rescale(run["ref_s"]) for run in runs)
             for key in ("import_s", "parse_s", "build_s", "setup_s")}
    setup["raw_setup_s"] = statistics.median(run["setup_s"] for run in runs)
    return setup


class Tally:
    """Failures and digests over every case execution of a run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons = []
        self.digests = {}

    def add(self, case, outcome):
        first = self.digests.setdefault(case.name, outcome.digest)
        if outcome.digest != first:
            outcome.failed = outcome.attempted
            outcome.reasons.append("output digest differs from the first execution")
        self.attempted += outcome.attempted
        self.failed += outcome.failed
        self.reasons += [f"{case.name}: {r}" for r in outcome.reasons]


def run_pass(wl, tracer=None):
    """Execute every case once, timing each and the reference loop after it.

    Returns [(case, result, seconds, reference seconds)].
    """
    done = []
    with tracer if tracer is not None else contextlib.nullcontext():
        for case in wl.cases:
            t0 = time.perf_counter()
            result = wl.execute(case)
            dt = time.perf_counter() - t0
            done.append((case, result, dt, reference_seconds()))
    return done


def pass_scale(done):
    """Factor that rescales a pass's times (see ``calibrate.py``).

    The median over the pass damps the noise of single reference timings;
    the host's drift is slow next to one pass.
    """
    return rescale(statistics.median(ref for _, _, _, ref in done))


def timed_run(wl, seconds, tally):
    """Whole passes over the case set until ``seconds`` have gone (at least one).

    ``items_per_s`` is the median over passes of a pass's items per second.
    """
    wl.execute(wl.cases[0])  # warm-up: imports and lazy set-up inside the library
    case_s, item_us, raw_case_s, raw_item_us, refs, pass_rates = [], [], [], [], [], []
    items = 0
    deadline = time.perf_counter() + seconds
    while not case_s or time.perf_counter() < deadline:
        done = run_pass(wl)
        scale = pass_scale(done)
        pass_items = 0
        for case, result, dt, ref in done:
            outcome = wl.check(case, result)
            tally.add(case, outcome)
            case_s.append(dt * scale)
            raw_case_s.append(dt)
            refs.append(ref)
            pass_items += outcome.items
            if outcome.item_seconds:
                us = [s * 1e6 for s in outcome.item_seconds]
            else:
                us = [dt * 1e6 / outcome.items] if outcome.items else []
            raw_item_us += us
            item_us += [u * scale for u in us]
        items += pass_items
        pass_rates.append(pass_items / (scale * sum(dt for _, _, dt, _ in done)))
    metrics = {
        "case_s_p50": statistics.median(case_s),
        "items_per_s": statistics.median(pass_rates),
        "item_us_p50": float(np.percentile(item_us, 50)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    # tails go to the record only: too few samples per run on the
    # integration workloads to hold a bound
    extra = {"item_us_p90": float(np.percentile(item_us, 90)),
             "item_us_p99": float(np.percentile(item_us, 99)),
             "raw_case_s_p50": statistics.median(raw_case_s),
             "raw_item_us_p50": float(np.percentile(raw_item_us, 50)),
             "raw_items_per_s": items / sum(raw_case_s), "ref_s_p50": statistics.median(refs)}
    return metrics, {"cases": len(case_s), "items": len(item_us), "passes": len(pass_rates)}, extra


def layer_metrics(tr, steps, wall, scale=1.0):
    """Per-layer metrics of one traced pass; times are multiplied by ``scale``."""
    calls, counts = tr.calls, tr.counts
    total = defaultdict(float, {k: v * scale for k, v in tr.total.items()})
    self_time = defaultdict(float, {k: v * scale for k, v in tr.self_time.items()})
    under = defaultdict(float, {k: v * scale for k, v in tr.total_under.items()})
    attempted = counts["integrate.rk4_steps"] + counts["integrate.rkf45_steps"]
    hits = counts["potentials.workspace.hits"]
    misses = counts["potentials.workspace.misses"]
    solved = calls["potentials.legendre"] - counts["potentials.newton.fail"]
    return {
        "potentials.legendre.calls": calls["potentials.legendre"],
        "potentials.legendre.s": total["potentials.legendre"],
        "potentials.newton_iters.mean": counts["potentials.newton_iters"] / solved if solved else 0.0,
        "potentials.newton.fail": counts["potentials.newton.fail"],
        "potentials.workspace.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "potentials.workspace.misses": misses,
        "potentials.hessian.calls": calls["potentials.hessian"],
        "potentials.hessian.s": total["potentials.hessian"],
        "potentials.gradient.calls": calls["potentials.gradient"],
        "geometry.field.calls": calls["geometry.field"],
        # the canonical field's own work plus the points it is evaluated at:
        # those the integrator's right-hand side builds, and any built inside
        # the field itself (not those of the diagnostics or of parsing)
        "geometry.field.self_s": self_time["geometry.field"]
        + under[("geometry.point", "integrate.solve")]
        + under[("geometry.point", "geometry.field")],
        "geometry.point.calls": calls["geometry.point"],
        "lifts.hamiltonian.self_s": self_time["lifts.hamiltonian"],
        "extended.hamiltonian.self_s": self_time["extended.hamiltonian"],
        "lifts.drift.calls": calls["lifts.drift"],
        "lifts.drift.s": total["lifts.drift"],
        "integrate.solve.self_s": self_time["integrate.solve"],
        "integrate.diagnostics.s": total["integrate.lift"] - total["integrate.solve"],
        "integrate.steps.accepted": steps,
        "integrate.steps.rejected": attempted - steps,
        "integrate.accept_ratio": steps / attempted if attempted else 0.0,
        "integrate.evals_per_step": calls["geometry.field"] / steps if steps else 0.0,
        "scenario.csv.s": total["scenario.csv"],
        "scenario.csv.rows": counts["scenario.csv.rows"],
        "scenario.csv.bytes": counts["scenario.csv.bytes"],
        "scenario.report.s": total["scenario.report"],
        "trace.pass_s": wall * scale,
        "integrate.rk4_steps": counts["integrate.rk4_steps"],
        "integrate.rkf45_steps": counts["integrate.rkf45_steps"],
    }


def count_problems(wl, m):
    """Exact identities between counters; a wrapper that misses a call site breaks one."""
    problems = []
    evals = 4 * m["integrate.rk4_steps"] + 6 * m["integrate.rkf45_steps"]
    if m["geometry.field.calls"] != evals:
        problems.append(f"geometry.field.calls = {m['geometry.field.calls']}, but the RK "
                        f"steps taken need {evals} field evaluations")
    for name, expected in wl.expected_counts().items():
        if m[name] != expected:
            problems.append(f"{name} = {m[name]}, expected exactly {expected}")
    return problems


def traced_run(wl, seconds, tally):
    """Alternate untraced and traced passes until ``seconds`` have gone (one pair at least)."""
    from tracing import Tracer

    wl.execute(wl.cases[0])  # warm-up, as in the timed run
    untraced, passes, problems = [], [], []
    deadline = time.perf_counter() + seconds
    while not passes or time.perf_counter() < deadline:
        for tracer in (None, Tracer()):
            done = run_pass(wl, tracer)
            steps = 0
            for case, result, _, _ in done:
                outcome = wl.check(case, result)
                tally.add(case, outcome)
                steps += outcome.steps
            wall = sum(dt for _, _, dt, _ in done)
            scale = pass_scale(done)
            if tracer is None:
                untraced.append(wall * scale)
            else:
                passes.append(layer_metrics(tracer, steps, wall, scale))
    exact = {k: v for k, v in passes[0].items() if PER_LAYER.get(k, "count") != "s"}
    for m in passes[1:]:
        if any(m[k] != v for k, v in exact.items()):
            problems.append("a count differs between traced passes of one run")
            break
    problems += count_problems(wl, passes[0])
    metrics = {k: statistics.median(m[k] for m in passes) for k in passes[0]}
    metrics["trace.overhead_s"] = metrics["trace.pass_s"] - statistics.median(untraced)
    return metrics, {"passes": len(passes)}, exact, problems


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_library()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}; "
                         f"choose from {', '.join(WORKLOADS)}")
    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT))
    try:
        wl = WORKLOADS[args.workload](args.seed, work)
        setup = measure_setup(wl)
        tally = Tally()
        exact, problems = {}, []
        if args.trace:
            metrics, samples, exact, problems = traced_run(wl, args.seconds, tally)
            scenario_inputs = wl.kind == "scenario"
            metrics.update({
                "models.build.s": setup["build_s"] if scenario_inputs else 0.0,
                "scenario.parse.s": setup["parse_s"] if scenario_inputs else 0.0,
                "cli.import.s": setup["import_s"],
            })
            reported = PER_LAYER
        else:
            metrics, samples, extra = timed_run(wl, args.seconds, tally)
            metrics["setup_s"] = setup["setup_s"]
            metrics.update(extra)
            reported = END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_ROOT.rmdir()  # only when no other run is using it

    digest_all = hashlib.sha256(json.dumps(tally.digests, sort_keys=True).encode()).hexdigest()
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "numpy": np.__version__, "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "attempted": tally.attempted, "failed": tally.failed,
        "failed_frac": tally.failed / tally.attempted,
        "failures": tally.reasons[:20], "problems": problems,
        "samples": dict(samples, setup_probes=SETUP_PROBES), "setup": setup,
        "exact_counts": exact, "digests": tally.digests, "digest_all": digest_all,
        "metrics": metrics,
    }
    for line in tally.reasons[:20] + problems:
        print(f"check failed: {line}", file=sys.stderr)
    print(json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": tally.failed == 0 and not problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in reported.items()},
    }))


if __name__ == "__main__":
    main()
