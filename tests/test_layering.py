"""model is the bottom of the engine: from hermform it imports only
linalg and scalars, at module level or inside a function, so the
Leibniz rule and the d^2 check living there cannot hide an import of
calculus, which imports model."""

import ast
import pathlib

MODEL = pathlib.Path(__file__).resolve().parents[1] / "src/hermform/model.py"


def _hermform_imports(tree):
    """The hermform modules (or the package itself) that the tree imports,
    by any import statement at any depth."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = (node.module or "").split(".")
            if node.level == 1:
                found |= ({module[0]} if module[0]
                          else {a.name for a in node.names})
            elif node.level > 1 or module[0] == "hermform":
                found |= ({module[1]} if len(module) > 1 and not node.level
                          else {"hermform"})
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "hermform":
                    found.add(parts[1] if len(parts) > 1 else "hermform")
    return found


def test_model_imports_only_linalg_and_scalars():
    tree = ast.parse(MODEL.read_text(encoding="utf-8"))
    assert _hermform_imports(tree) == {"linalg", "scalars"}


def test_the_guard_sees_a_function_local_import():
    tree = ast.parse("def f():\n    from . import calculus\n"
                     "def g():\n    from .calculus import x\n"
                     "import hermform.dsl\nfrom hermform import cli\n")
    assert _hermform_imports(tree) == {"calculus", "dsl", "hermform"}
