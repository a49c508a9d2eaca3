"""model is the bottom of the engine: from hermform it imports only
linalg and scalars, at module level or inside a function, so the
Leibniz rule and the d^2 check living there cannot hide an import of
calculus, which imports model.  Records are namedtuples: no class but
the scalar defines its own equality, hash or attribute guards."""

import ast
import pathlib

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src/hermform"
MODEL = PACKAGE / "model.py"

# The methods only a value type with its own arithmetic needs.
VALUE_METHODS = {"__eq__", "__hash__", "__setattr__", "__delattr__"}


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


def _value_method_owners(tree, module):
    """(module, class) of every class in the tree that defines or assigns
    one of VALUE_METHODS in its own body."""
    found = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        for item in node.body:
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names = {item.name}
            elif isinstance(item, ast.Assign):
                names = {t.id for t in item.targets
                         if isinstance(t, ast.Name)}
            else:
                continue
            if names & VALUE_METHODS:
                found.add((module, node.name))
    return found


def test_only_the_scalar_defines_equality_hash_and_attribute_guards():
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        found |= _value_method_owners(
            ast.parse(path.read_text(encoding="utf-8")), path.stem)
    assert found == {("scalars", "GaussianRational")}


def test_the_value_method_guard_sees_a_def_and_an_alias():
    tree = ast.parse("class A:\n    def __eq__(self, o):\n        pass\n"
                     "class B:\n    __hash__ = None\n"
                     "class C:\n    def __repr__(self):\n        pass\n"
                     "def f():\n    class D:\n        __delattr__ = 1\n")
    assert _value_method_owners(tree, "m") == {
        ("m", "A"), ("m", "B"), ("m", "D")}
