"""Every import in ``src/`` and ``tests/`` is used, and so is every private name in ``src/``.

CI runs no linter, so these AST scans are the check.  A package's
``__init__.py`` re-exports what it imports and is exempt from the import
scan.  A module-level name of ``src/`` that starts with one underscore is
private to the package: some module of ``src/`` must read it.  The modules
of ``src/`` import at module level only, each from the layers below it.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(path for top in ("src", "tests") for path in (ROOT / top).rglob("*.py")
               if path.name != "__init__.py")
SRC = sorted((ROOT / "src").rglob("*.py"))
LAYERS = ("errors", "geometry", "potentials", "lifts", "integrate", "models", "scenario", "cli")


def unused_imports(source: str):
    """(line, name) of every name the source imports and never reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def unused_private_names(sources):
    """(index of the source, name) of every module-level private name no source reads.

    A name is read where it is loaded, named as an attribute or imported by
    another module; dunders are exempt.
    """
    defined, read = [], set()
    for i, source in enumerate(sources):
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.append((i, node.name))
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined.extend((i, t.id) for target in targets for t in ast.walk(target)
                               if isinstance(t, ast.Name))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    return sorted((i, name) for i, name in defined
                  if name.startswith("_") and not name.startswith("__") and name not in read)


def function_level_imports(source: str):
    """Line of every ``import`` or ``from ... import`` inside a function body."""
    return sorted({node.lineno for func in ast.walk(ast.parse(source))
                   if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
                   for node in ast.walk(func) if isinstance(node, (ast.Import, ast.ImportFrom))})


def test_scan_finds_an_unused_import():
    source = "import os\nimport numpy as np\nfrom a.b import c, d as e\nprint(np.pi, e)\n"
    assert unused_imports(source) == [(1, "os"), (3, "c")]


def test_scan_finds_an_unused_private_name():
    a = "_A = 1\n_B, C = 2, 3\n__all__ = []\n\ndef _f():\n    return _A\n\nclass _K:\n    pass\n"
    b = "from a import _f\nimport a\n\ndef g(_z):\n    _local = a._K\n    return _local\n"
    assert unused_private_names([a, b]) == [(0, "_B")]


@pytest.mark.parametrize("path", FILES, ids=lambda path: str(path.relative_to(ROOT)))
def test_no_unused_import(path):
    assert unused_imports(path.read_text()) == []


def test_no_unused_private_name_in_src():
    unused = unused_private_names([path.read_text() for path in SRC])
    assert [(str(SRC[i].relative_to(ROOT)), name) for i, name in unused] == []


def test_scan_finds_an_import_in_a_function_body():
    source = ("import os\n\ndef f():\n    from . import a\n\n"
              "class K:\n    def g(self):\n        if os:\n            import b\n")
    assert function_level_imports(source) == [4, 9]


@pytest.mark.parametrize("path", SRC, ids=lambda path: str(path.relative_to(ROOT)))
def test_no_import_in_a_function_body_in_src(path):
    assert function_level_imports(path.read_text()) == []


@pytest.mark.parametrize("path", [path for path in SRC if path.name != "__init__.py"],
                         ids=lambda path: str(path.relative_to(ROOT)))
def test_a_module_imports_only_the_layers_below_it(path):
    imported = {node.module for node in ast.parse(path.read_text()).body
                if isinstance(node, ast.ImportFrom) and node.level == 1}
    assert imported <= set(LAYERS[:LAYERS.index(path.stem)])
