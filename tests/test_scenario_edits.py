"""Edited shipped scenarios: each one runs, or exits 2 naming the section it rejects.

ROADMAP aim 3 as a property.  A shipped scenario is edited with extreme or
malformed values, dropped and unknown keys, dropped and renamed sections
and output file names with a directory part.  Its run
exits 0 to 3 and raises nothing, no warning either under the project's
``filterwarnings``, and every exit 2 names a section.  A valid edit may
exit 1: a report that fails on a valid input is a report defect, and it
is not filtered out of the draw.
"""

import configparser
import re
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from contactflows.integrate import MAX_STEP_ATTEMPTS
from contactflows.scenario import EXIT_USAGE, run_scenario

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
VALUES = ["nan", "inf", "-inf", "1e308", "-1e308", "5e-324", "text", ""]
T_END_CAP = 0.05  # a few steps of every shipped scenario
RK4_STEP_CAP = 20


def _sections(path):
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    parser.read(path)
    return {name: dict(parser[name]) for name in parser.sections()}


SHIPPED = {path.name: _sections(path) for path in sorted(SCENARIOS.glob("*.scenario"))}


# (kind, section, key, entry, value); the indices pick among what the scenario has
EDITS = st.lists(st.tuples(
    st.sampled_from(["value", "entry", "drop key", "add key", "drop section",
                     "rename section", "directory part"]),
    st.integers(0, 5), st.integers(0, 5), st.integers(0, 3), st.sampled_from(VALUES)),
    min_size=1, max_size=3)
ADDED_KEYS = ["unread", "x_extra", "step", "t0"]
DIRECTORIES = ["nodir/", "./", "a/b/"]  # none leads out of the output directory


def _edit(sections, kind, section_at, key_at, entry_at, value):
    """A value or one of its entries replaced, a key dropped or added, a section dropped
    or renamed ([outputs] to [output], [model] to [models]), or a directory put before an
    output file name."""
    outputs = sections.get("outputs")
    if kind == "directory part" and outputs:
        key = sorted(outputs)[key_at % len(outputs)]
        outputs[key] = DIRECTORIES[entry_at % len(DIRECTORIES)] + outputs[key]
    if not sections or kind == "directory part":
        return
    name = sorted(sections)[section_at % len(sections)]
    keys = sections[name]
    if kind == "drop section":
        del sections[name]
    elif kind == "rename section":
        sections[name[:-1] if name.endswith("s") else name + "s"] = sections.pop(name)
    elif kind == "add key":
        keys[ADDED_KEYS[key_at % len(ADDED_KEYS)]] = "1"
    elif keys:
        key = sorted(keys)[key_at % len(keys)]
        if kind == "drop key":
            del keys[key]
        elif kind == "value":
            keys[key] = value
        else:  # one entry of a vector or matrix; an empty one shortens it
            tokens = keys[key].split() or [""]
            tokens[entry_at % len(tokens)] = value
            keys[key] = " ".join(tokens)


def _number(text):
    try:
        return float(text)
    except ValueError:
        return None


def _capped(sections):
    """No long run: t_end at most T_END_CAP, and RK4 in its budget at most RK4_STEP_CAP steps."""
    integ = sections.get("integrator", {})
    t_end = _number(integ.get("t_end", ""))
    if t_end is not None and t_end > T_END_CAP:
        integ["t_end"] = t_end = T_END_CAP
    step = _number(integ.get("step", "1e-3")) if integ.get("method") == "rk4" else None
    if t_end is not None and step and RK4_STEP_CAP < t_end / step <= MAX_STEP_ATTEMPTS:
        integ["step"] = t_end / RK4_STEP_CAP


def _write(sections, path):
    path.write_text("".join(f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items())
                            for name, keys in sections.items()))


@settings(max_examples=200, deadline=None)
@given(name=st.sampled_from(sorted(SHIPPED)), edits=EDITS)
def test_an_edited_scenario_runs_or_names_the_section_it_rejects(tmp_path_factory, name, edits):
    sections = {section: dict(keys) for section, keys in SHIPPED[name].items()}
    for edit in edits:
        _edit(sections, *edit)
    _capped(sections)
    out = tmp_path_factory.getbasetemp() / "edited"
    out.mkdir(exist_ok=True)
    _write(sections, out / name)
    result = run_scenario(out / name, out_dir=out)
    assert result.exit_code in (0, 1, 2, 3)
    if result.exit_code == EXIT_USAGE:
        assert re.search(r"\[(model|initial|integrator|outputs|points)\]", result.message), \
            result.message
