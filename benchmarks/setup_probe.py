"""Set-up probe, run in a fresh interpreter by ``run.py``.

    python3 benchmarks/setup_probe.py scenario FILE...
    python3 benchmarks/setup_probe.py spin N...

Times the set-up phases, then the machine-speed reference loop
(``calibrate.py``, median of three), and prints them as one JSON object:

- ``import_s``: importing ``contactflows`` and its CLI module;
- ``parse_s``: ``parse_scenario`` on every scenario file (model building
  included), or building the spin potential for every dimension N;
- ``build_s``: the part of ``parse_s`` spent in the model builders, or all
  of it for the spin potentials.

``setup_s`` is their sum: what a user pays before the first step runs.
``ref_s`` is the reference time that ``run.py`` rescales them by.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def main(argv):
    kind, args = argv[0], argv[1:]
    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import contactflows.cli  # noqa: F401  (the CLI imports the whole package)
    from contactflows import models, potentials, scenario

    t1 = time.perf_counter()
    build_s = 0.0
    if kind == "scenario":
        builders = models.MODEL_BUILDERS
        originals = dict(builders)

        def timed(fn):
            def build(params):
                nonlocal build_s
                b0 = time.perf_counter()
                try:
                    return fn(params)
                finally:
                    build_s += time.perf_counter() - b0
            return build

        builders.update({name: timed(fn) for name, fn in originals.items()})
        for path in args:
            scenario.parse_scenario(path)
        builders.update(originals)
        t2 = time.perf_counter()
    elif kind == "spin":
        for n in args:
            potentials.BUILTIN_POTENTIALS["spin"](int(n))
        t2 = time.perf_counter()
        build_s = t2 - t1
    else:
        raise SystemExit(f"unknown input kind {kind!r}")
    from calibrate import reference_seconds

    ref_s = sorted(reference_seconds() for _ in range(3))[1]
    print(json.dumps({"import_s": t1 - t0, "parse_s": t2 - t1, "build_s": build_s,
                      "setup_s": t2 - t0, "ref_s": ref_s}))


if __name__ == "__main__":
    main(sys.argv[1:])
