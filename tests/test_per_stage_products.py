"""Two AST scans of the per-stage path: no ``@``, and no ``np.isfinite`` guard.

No ``@``: the small products go through ``ndarray.dot``.

Every stage of a step evaluates the field once, and a field evaluation
multiplies vectors of 2-7 entries a few times (Delta . F, Hess psi . F,
J^T Delta, p . dx).  On such operands numpy's ``matmul`` gufunc costs more
to dispatch than the arithmetic: best of 9 on a 2-core Xeon, numpy 2.4.6,
Python 3.11, a 2-vector . 2-vector took 682 ns by ``@`` and 367 ns by
``.dot``, ``M @ a`` 753 against 376 ns and ``M.T @ a`` 847 ns against
``a.dot(M)``'s 373 ns.  On contiguous operands both give the same bits;
on a non-contiguous 2-d view they may not, so a rewrite keeps every
operand's layout.  The first scan keeps ``@`` out of the functions in
``PER_STAGE``, nested jets and lambdas included.

No ``np.isfinite``: the field's check of its result and the integrators'
checks of each new state (five per RK4 step) go through
``geometry._all_finite``, which sums the entries as Python floats and
calls ``np.isfinite(v).all()`` only when that sum is not finite.  On a
7-entry state ``np.isfinite(v).all()`` took 1.6-2.4 us and the helper
0.35-0.6 us on the same host.  The second scan keeps ``isfinite`` calls out of
the functions in ``GUARDS``.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "contactflows"
PER_STAGE = {
    "geometry.py": ("ContactHamiltonian.field", "swap_hamiltonian"),
    "lifts.py": ("build_hamiltonian", "onsager_drift"),
    "potentials.py": ("_quadratic",),
    "integrate.py": ("_stages", "_rk4_step", "_rkf45_step"),
}
GUARDS = {
    "geometry.py": ("hamiltonian_vector_field",),
    "integrate.py": ("solve_fixed", "solve_adaptive"),
}


def is_matmul(node) -> bool:
    return isinstance(getattr(node, "op", None), ast.MatMult)


def is_isfinite_call(node) -> bool:
    return isinstance(node, ast.Call) and "isfinite" in (
        getattr(node.func, "attr", None), getattr(node.func, "id", None))


def scan(source: str, names, hit):
    """(function, line) of every node inside each named function for which ``hit`` holds.

    Names are qualified by their class (``Class.method``); a name the source
    does not define raises ``LookupError``, so a rename cannot empty the scan.
    """
    found, hits = set(), []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if not isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                continue
            name = prefix + child.name
            if name in names:
                found.add(name)
                hits.extend((name, n.lineno) for n in ast.walk(child) if hit(n))
            else:
                visit(child, name + ".")

    visit(ast.parse(source), "")
    if set(names) - found:
        raise LookupError(f"not defined: {sorted(set(names) - found)}")
    return hits


def matmuls(source: str, names):
    """(function, line) of every ``@`` or ``@=`` inside each named function."""
    return scan(source, names, is_matmul)


def test_scan_finds_a_planted_matmul():
    source = (
        "class H:\n"
        "    def field(self, y):\n"
        "        return y.dot(y)\n"
        "def build(f):\n"
        "    def jet(x):\n"
        "        g = x\n"
        "        g @= x\n"
        "        return (lambda u: u @ x)(g)\n"
        "    return jet\n"
        "def elsewhere(x):\n"
        "    return x @ x\n"
    )
    assert matmuls(source, ("H.field",)) == []
    assert sorted(matmuls(source, ("H.field", "build"))) == [("build", 7), ("build", 8)]
    with pytest.raises(LookupError, match="field"):
        matmuls(source, ("field",))


def test_scan_finds_a_matmul_planted_in_the_field():
    source = (SRC / "geometry.py").read_text()
    planted = source.replace("h + p.dot(out[:n])", "h + p @ out[:n]")
    assert planted != source
    assert [name for name, _ in matmuls(planted, PER_STAGE["geometry.py"])] == [
        "ContactHamiltonian.field"]


@pytest.mark.parametrize("module", sorted(PER_STAGE))
def test_per_stage_path_has_no_matmul(module):
    assert matmuls((SRC / module).read_text(), PER_STAGE[module]) == []


def test_scan_finds_an_isfinite_guard_planted_in_the_field():
    source = (SRC / "geometry.py").read_text()
    planted = source.replace("if not _all_finite(dy):", "if not np.isfinite(dy).all():")
    assert planted != source
    assert scan(planted, GUARDS["geometry.py"], is_isfinite_call) == [
        ("hamiltonian_vector_field", planted[:planted.index("np.isfinite(dy)")].count("\n") + 1)]
    assert scan("def f(y):\n    return all(isfinite(a) for a in y)\n", ("f",),
                is_isfinite_call) == [("f", 2)]


@pytest.mark.parametrize("module", sorted(GUARDS))
def test_per_step_guards_call_no_isfinite(module):
    assert scan((SRC / module).read_text(), GUARDS[module], is_isfinite_call) == []
