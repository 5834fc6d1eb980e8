"""No ``@`` on the per-stage path: its small products go through ``ndarray.dot``.

Every stage of a step evaluates the field once, and a field evaluation
multiplies vectors of 2-7 entries a few times (Delta . F, Hess psi . F,
J^T Delta, p . dx).  On such operands numpy's ``matmul`` gufunc costs more
to dispatch than the arithmetic: best of 9 on a 2-core Xeon, numpy 2.4.6,
Python 3.11, a 2-vector . 2-vector took 682 ns by ``@`` and 367 ns by
``.dot``, ``M @ a`` 753 against 376 ns and ``M.T @ a`` 847 ns against
``a.dot(M)``'s 373 ns.  On contiguous operands both give the same bits;
on a non-contiguous 2-d view they may not, so a rewrite keeps every
operand's layout.  This AST scan keeps ``@`` out of the functions below,
nested jets and lambdas included.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "contactflows"
PER_STAGE = {
    "geometry.py": ("ContactHamiltonian.field", "swap_hamiltonian"),
    "lifts.py": ("build_hamiltonian", "onsager_drift"),
    "potentials.py": ("_quadratic",),
    "integrate.py": ("_rk4_step", "_rkf45_step"),
}


def matmuls(source: str, names):
    """(function, line) of every ``@`` or ``@=`` inside each named function.

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
                hits.extend((name, n.lineno) for n in ast.walk(child)
                            if isinstance(getattr(n, "op", None), ast.MatMult))
            else:
                visit(child, name + ".")

    visit(ast.parse(source), "")
    if set(names) - found:
        raise LookupError(f"not defined: {sorted(set(names) - found)}")
    return hits


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
    planted = source.replace("h + p.dot(dx)", "h + p @ dx")
    assert planted != source
    assert [name for name, _ in matmuls(planted, PER_STAGE["geometry.py"])] == [
        "ContactHamiltonian.field"]


@pytest.mark.parametrize("module", sorted(PER_STAGE))
def test_per_stage_path_has_no_matmul(module):
    assert matmuls((SRC / module).read_text(), PER_STAGE[module]) == []
