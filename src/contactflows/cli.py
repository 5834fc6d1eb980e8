"""Command-line entry point.

    contactflows simulate <scenario> [--out DIR]
    contactflows check <scenario>
    contactflows legendre --potential NAME [--n N] --p VALS
    contactflows divergence --potential NAME [--n N] --grid START:STOP:COUNT
                            [--out FILE]

Exit codes: 0 pass, 1 check failure, 2 usage/parse error, 3 numerical abort.
"""

from __future__ import annotations

import argparse
import itertools
import sys

import numpy as np

from .errors import ContactFlowsError, NewtonConvergenceError
from .potentials import BUILTIN_POTENTIALS, legendre_transform
from .scenario import (
    EXIT_NUMERICAL,
    EXIT_PASS,
    EXIT_USAGE,
    _floats,
    divergence_table,
    run_scenario,
    write_divergence_csv,
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="contactflows",
        description="Contact Hamiltonian flows on dually flat spaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run a scenario and write its artifacts")
    sim.add_argument("scenario")
    sim.add_argument("--out", default=None, help="output directory (default: scenario dir)")

    chk = sub.add_parser("check", help="run a scenario's invariant checks only")
    chk.add_argument("scenario")

    leg = sub.add_parser("legendre", help="total Legendre transform of a built-in potential")
    leg.add_argument("--potential", required=True, choices=sorted(BUILTIN_POTENTIALS))
    leg.add_argument("--n", type=int, default=1)
    leg.add_argument("--p", required=True, help="dual coordinates, comma/space separated")

    div = sub.add_parser("divergence", help="canonical divergence table over a grid")
    div.add_argument("--potential", required=True, choices=sorted(BUILTIN_POTENTIALS))
    div.add_argument("--n", type=int, default=1)
    div.add_argument("--grid", required=True,
                     help="per-axis grid START:STOP:COUNT, applied to every axis")
    div.add_argument("--out", default=None, help="CSV destination (default: stdout)")
    return parser


def _parse_grid(text: str) -> np.ndarray:
    try:
        start, stop, count = text.split(":")
        with np.errstate(all="ignore"):  # a span that overflows is rejected below
            axis = np.linspace(float(start), float(stop), int(count))
        if len(axis) < 1 or not np.isfinite(axis).all():
            raise ValueError
        return axis
    except ValueError:
        raise ValueError(f"grid must be START:STOP:COUNT, got {text!r}")


def _cmd_run(args) -> int:
    """simulate and check: run the scenario; only simulate writes artifacts."""
    simulate = args.command == "simulate"
    result = run_scenario(args.scenario, out_dir=args.out if simulate else None,
                          write_outputs=simulate)
    if result.message:
        print(result.message, file=sys.stderr)
    if result.report is not None:
        sys.stdout.write(result.report.render())
    for artifact in result.artifacts:
        print(f"wrote {artifact}")
    return result.exit_code


def _cmd_legendre(args) -> int:
    psi = BUILTIN_POTENTIALS[args.potential](args.n)
    p = _floats(args.p)
    try:
        res = legendre_transform(psi, p)
    except NewtonConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    print(f"phi({np.array2string(p)}) = {res.phi_value!r}")
    print(f"x*  = {np.array2string(res.x_star, separator=', ')}")
    print(f"iterations = {res.iterations}, residual = {res.residual:.3e}")
    return EXIT_PASS


def _cmd_divergence(args) -> int:
    psi = BUILTIN_POTENTIALS[args.potential](args.n)
    axis = _parse_grid(args.grid)
    points = [np.array(tup) for tup in itertools.product(axis, repeat=psi.n)]
    rows = divergence_table(psi, [(a, b) for a in points for b in points])
    write_divergence_csv(rows, args.out or sys.stdout)
    if args.out:
        print(f"wrote {args.out}")
    return EXIT_PASS


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    handlers = {
        "simulate": _cmd_run,
        "check": _cmd_run,
        "legendre": _cmd_legendre,
        "divergence": _cmd_divergence,
    }
    try:
        return handlers[args.command](args)
    except (ValueError, ContactFlowsError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
