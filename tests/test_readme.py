"""The README against the code: its library example runs, its claim table
names what exists, and its numerical conventions state the constants."""

import ast
import re
from pathlib import Path

import pytest

import contactflows
from contactflows import integrate, potentials, scenario

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


def section(title):
    """The text of the README section headed ``## title``."""
    return README.read_text().split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def test_library_example_runs(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
    spread, entropy = (float(line) for line in capsys.readouterr().out.split())
    assert spread < 1e-9 and entropy > 0


def report_check_patterns():
    """A pattern for the name of every ``InvariantCheck`` scenario.py builds.

    An f-string's replacement field, such as the series of ``f"{name} decay
    law"``, matches one word.
    """
    patterns = []
    for node in ast.walk(ast.parse(Path(scenario.__file__).read_text())):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "InvariantCheck":
            name = node.args[0]
            parts = name.values if isinstance(name, ast.JoinedStr) else [name]
            patterns.append("".join(re.escape(part.value) if isinstance(part, ast.Constant)
                                    else r"\w+" for part in parts))
    return patterns


def defines_test(node_id):
    """Whether ``tests/file.py::test`` or ``tests/file.py::Class::test`` is defined."""
    path, *scopes = node_id.split("::")
    if not (ROOT / path).is_file():
        return False
    body = ast.parse((ROOT / path).read_text()).body
    for scope in scopes[:-1]:
        body = next((node.body for node in body
                     if isinstance(node, ast.ClassDef) and node.name == scope), [])
    return any(isinstance(node, ast.FunctionDef) and node.name == scopes[-1] for node in body)


def test_claim_table_names_what_exists():
    lines = [line for line in section("From the paper to the code").splitlines()
             if line.startswith("|")]
    rows = [[cell.strip() for cell in line.strip("|").split("|")] for line in lines[2:]]
    assert len(rows) == 8  # one per claim of the paper's abstract
    patterns = report_check_patterns()
    missing = []
    for claim, functions, tests, checks in rows:
        names, node_ids, named = (re.findall(r"`([^`]+)`", cell)
                                  for cell in (functions, tests, checks))
        assert names and node_ids and (named or checks == "not in the report"), claim
        missing += [f"function {name}" for name in names if not hasattr(contactflows, name)]
        missing += [f"test {node_id}" for node_id in node_ids if not defines_test(node_id)]
        missing += [f"report check {check}" for check in named
                    if not any(re.fullmatch(p, check) for p in patterns)]
    assert not missing, missing


CONSTANTS = {
    "NEWTON_TOL": potentials,
    "NEWTON_EXPANSION_CUT": potentials,
    "NEWTON_EXPANSION_CAP": potentials,
    "INVARIANT_TOL": scenario,
    "DECAY_LAW_FLOORS": scenario,
    "RK4_TRUNCATION_FACTOR": scenario,
    "DEFAULT_REL_TOL": integrate,
    "DEFAULT_ABS_TOL": integrate,
    "MAX_STEP_ATTEMPTS": integrate,
}


@pytest.mark.parametrize("name", CONSTANTS)
def test_numerical_conventions_state_the_constant(name):
    stated = dict(re.findall(r"`([A-Z_0-9]+) = ([^`]+)`", section("Numerical conventions")))
    assert ast.literal_eval(stated[name]) == getattr(CONSTANTS[name], name)
