"""Per-layer tracing of contactflows from outside the library.

``Tracer.install()`` wraps the public functions and methods of the modules
``potentials``, ``geometry``, ``lifts``, ``extended``, ``integrate`` and
``scenario``; ``uninstall()`` puts the originals back.  Set-up (importing,
parsing, model building) is timed by ``setup_probe.py`` instead.  A function imported by name into several modules is
replaced at every site that holds it, because that is where it is looked
up; a method is replaced on its class.

Each wrapped call is a span.  Spans are aggregated in memory per layer name
(calls, total seconds, self seconds), where self time is the span minus the
time covered by its child spans, and per pair of layer and parent layer
(total seconds).  Counters record what spans cannot: Newton
iterations and failures, workspace memo hits and misses, RK steps
attempted, CSV rows and bytes.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from collections import defaultdict


class Tracer:
    """Spans and counters of one traced pass; install it with ``with``."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.total_under = defaultdict(float)  # (layer, parent layer or None) -> seconds
        self.counts = defaultdict(int)
        self._open = []  # [label, child seconds] of each open span, innermost last
        self._patches = []  # (setter, original) pairs, undone in reverse

    def span(self, fn, name, observe=None):
        """Wrap ``fn`` so that every call records a span.

        ``name`` is a layer name, or a callable that picks one from the
        call's first argument.  ``observe(args, result, exc)`` runs after the
        span closes.
        """
        open_spans = self._open

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = name(args[0]) if callable(name) else name
            open_spans.append([label, 0.0])
            result = exc = None
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as err:
                exc = err
                raise
            finally:
                dt = time.perf_counter() - t0
                child = open_spans.pop()[1]
                parent = open_spans[-1] if open_spans else [None, 0.0]
                parent[1] += dt
                self.calls[label] += 1
                self.total[label] += dt
                self.self_time[label] += dt - child
                self.total_under[label, parent[0]] += dt
                if observe is not None:
                    observe(args, result, exc)

        return wrapper

    def counter(self, fn, key):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- patching ---------------------------------------------------------

    def _replace_function(self, fn, wrapped):
        """Rebind every module-level name in the package that holds ``fn``."""
        sites = 0
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "contactflows" or mod_name.startswith("contactflows.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, attr, wrapped)
                    self._patches.append((functools.partial(setattr, mod, attr), fn))
                    sites += 1
        if not sites:
            raise RuntimeError(f"no call site holds {fn.__qualname__}")

    def _replace_method(self, cls, attr, wrapped):
        original = vars(cls)[attr]
        setattr(cls, attr, wrapped)
        self._patches.append((functools.partial(setattr, cls, attr), original))

    def uninstall(self):
        while self._patches:
            setter, original = self._patches.pop()
            setter(original)

    def install(self):
        from contactflows import geometry, integrate, potentials, scenario
        from contactflows.errors import NewtonConvergenceError
        from contactflows.geometry import CanonicalPoint, ContactHamiltonian
        from contactflows.lifts import DriftField
        from contactflows.potentials import ConvexPotential, DuallyFlatWorkspace
        from contactflows.scenario import InvariantReport

        counts = self.counts

        def newton(args, result, exc):
            if exc is None:
                counts["potentials.newton_iters"] += result.iterations
            elif isinstance(exc, NewtonConvergenceError):
                counts["potentials.newton.fail"] += 1

        def csv_written(args, result, exc):
            if exc is None:
                traj, _, path = args[:3]
                counts["scenario.csv.rows"] += len(traj.times)
                counts["scenario.csv.bytes"] += os.path.getsize(path)

        def hamiltonian_layer(h):
            # the Hamiltonian's closures were defined by its builder's module
            return "extended.hamiltonian" if h.value.__module__.endswith(".extended") \
                else "lifts.hamiltonian"

        for fn, name, observe in (
            (potentials.legendre_transform, "potentials.legendre", newton),
            (geometry.hamiltonian_vector_field, "geometry.field", None),
            (integrate.integrate_lift, "integrate.lift", None),
            (integrate.solve_fixed, "integrate.solve", None),
            (integrate.solve_adaptive, "integrate.solve", None),
            (scenario.write_trajectory_csv, "scenario.csv", csv_written),
            (scenario.build_invariant_report, "scenario.report", None),
        ):
            self._replace_function(fn, self.span(fn, name, observe))
        self._replace_function(integrate._rk4_step,
                               self.counter(integrate._rk4_step, "integrate.rk4_steps"))
        self._replace_function(integrate._rkf45_step,
                               self.counter(integrate._rkf45_step, "integrate.rkf45_steps"))

        for cls, attr, name in (
            # value_at is not reported; its span keeps psi evaluations out of
            # the Hamiltonians' self time
            (ConvexPotential, "value_at", "potentials.value"),
            (ConvexPotential, "gradient_at", "potentials.gradient"),
            (ConvexPotential, "hessian_at", "potentials.hessian"),
            (ContactHamiltonian, "partials", hamiltonian_layer),
            (ContactHamiltonian, "__call__", hamiltonian_layer),
            (DriftField, "at", "lifts.drift"),
            (DriftField, "jacobian_at", "lifts.drift"),
            (CanonicalPoint, "__post_init__", "geometry.point"),
            (InvariantReport, "render", "scenario.report"),
        ):
            self._replace_method(cls, attr, self.span(vars(cls)[attr], name))

        # a memo miss is a transform that had to call the Newton solver
        transform = self.span(DuallyFlatWorkspace.transform, "potentials.workspace")
        calls = self.calls

        @functools.wraps(DuallyFlatWorkspace.transform)
        def memo_transform(ws, p):
            before = calls["potentials.legendre"]
            result = transform(ws, p)
            missed = calls["potentials.legendre"] > before
            counts["potentials.workspace.misses" if missed else "potentials.workspace.hits"] += 1
            return result

        self._replace_method(DuallyFlatWorkspace, "transform", memo_transform)

    def __enter__(self):
        try:
            self.install()
        except BaseException:
            self.uninstall()
            raise
        return self

    def __exit__(self, *exc_info):
        self.uninstall()
        return False
