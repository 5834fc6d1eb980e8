"""Fast self-test of the benchmark (a few seconds).

    python3 benchmarks/selftest.py

Checks BENCHMARK.json against the metric and workload lists of run.py, then
runs one tiny case set per workload through one timed pass and one
untraced/traced pass pair: every gate must pass, every exact counter
identity must hold, digests must repeat, every reported metric must be
present, and uninstalling the tracer must restore the library.  Last, it
hides one call site from the tracer and expects the counter identities to
catch it.  Exits 1 and lists the failures if anything is wrong.
"""

from __future__ import annotations

import contextlib
import json
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}$")


def schema_problems(workload_names):
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    problems = []

    def need(cond, message):
        if not cond:
            problems.append(f"BENCHMARK.json: {message}")

    need(set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"},
         f"keys are {sorted(spec)}")
    need(spec.get("command", [None])[1:2] == ["benchmarks/run.py"], "command does not run run.py")
    need(spec.get("paths") == ["benchmarks"], "paths is not ['benchmarks']")
    seconds = spec.get("run_seconds")
    need(isinstance(seconds, int) and 1 <= seconds <= 60, "run_seconds not a whole 1..60")
    workloads = spec.get("workloads", [])
    need([w.get("name") for w in workloads] == list(workload_names),
         "workloads differ from workloads.WORKLOADS")
    for w in workloads:
        need(set(w) == {"name", "why"} and 0 < len(w["why"]) <= 200 and "\n" not in w["why"],
             f"workload {w.get('name')} needs a one-line why")
    for key, declared in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        metrics = spec.get(key, [])
        need({m.get("name"): m.get("unit") for m in metrics} == declared,
             f"{key} names or units differ from run.py")
        need(len({m.get("name") for m in metrics}) == len(metrics), f"{key} repeats a name")
        for m in metrics:
            need(bool(NAME.match(m.get("name", ""))) and bool(UNIT.match(m.get("unit", ""))),
                 f"bad name or unit in {m}")
            need(m.get("better") in ("lower", "higher"), f"{m.get('name')}: better")
            if key == "end_to_end":
                need(set(m) == {"name", "unit", "better", "bound"}
                     and 0 < m["bound"] <= 0.25, f"{m.get('name')}: keys or bound")
            else:
                need(set(m) == {"name", "unit", "better"}, f"{m.get('name')}: keys")
    setup = [m for m in spec.get("end_to_end", []) if m.get("name") == "setup_s"]
    need(bool(setup) and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
         and setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"]),
         "setup_s must be in s, lower is better, with the largest bound")
    return problems


def workload_problems(name, cls, work):
    from tracing import Tracer

    tiny = cls(seed=7, work_dir=work, size=3 if cls.kind == "batch" else 1)
    problems = []
    tally = run.Tally()
    timed, _, _ = run.timed_run(tiny, 0, tally)
    traced, _, _, trace_problems = run.traced_run(tiny, 0, tally)
    problems += trace_problems + [f"gate: {r}" for r in tally.reasons]
    missing = (set(run.END_TO_END) - {"setup_s"} - set(timed)) | \
        (set(run.PER_LAYER) - {"models.build.s", "scenario.parse.s", "cli.import.s"} - set(traced))
    if missing:
        problems.append(f"metrics not computed: {sorted(missing)}")
    if tally.attempted == 0:
        problems.append("nothing attempted")

    from contactflows import geometry, integrate, potentials

    if any(hasattr(fn, "__wrapped__") for fn in (potentials.legendre_transform,
                                                 integrate.hamiltonian_vector_field,
                                                 potentials.ConvexPotential.hessian_at)):
        problems.append("tracer left a wrapper installed")

    probe = subprocess.run([sys.executable, str(run.BENCH_DIR / "setup_probe.py"),
                            *tiny.setup_args()],
                           cwd=run.ROOT, capture_output=True, text=True, timeout=120)
    if probe.returncode != 0 or "setup_s" not in probe.stdout:
        problems.append(f"setup probe failed: {probe.stderr.strip()[-300:]}")

    if cls.kind == "scenario":
        # a wrapper that misses a call site must break a counter identity
        tracer = Tracer()
        with tracer:
            integrate.hamiltonian_vector_field = geometry.hamiltonian_vector_field.__wrapped__
            done = run.run_pass(tiny)
        steps = sum(tiny.check(case, result).steps for case, result, _, _ in done)
        if not run.count_problems(tiny, run.layer_metrics(tracer, steps, 0.0)):
            problems.append("a missed call site went unnoticed")
    return [f"{name}: {p}" for p in problems]


def main():
    run.import_library()
    from workloads import WORKLOADS

    problems = schema_problems(WORKLOADS)
    run.WORK_ROOT.mkdir(exist_ok=True)
    try:
        for name, cls in WORKLOADS.items():
            work = Path(tempfile.mkdtemp(prefix=f"selftest-{name}-", dir=run.WORK_ROOT))
            try:
                problems += workload_problems(name, cls, work)
            finally:
                shutil.rmtree(work, ignore_errors=True)
    finally:
        with contextlib.suppress(OSError):
            run.WORK_ROOT.rmdir()  # only when no benchmark run is using it
    for p in problems:
        print(f"FAIL {p}")
    print("self-test", "failed" if problems else "passed")
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
