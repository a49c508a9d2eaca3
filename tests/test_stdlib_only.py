"""hermform depends on nothing outside the standard library: pyproject
declares no dependencies, and every import in every module under
src/hermform names a standard-library module or a hermform module."""

import ast
import os
import pathlib
import re
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_every_import_is_stdlib_or_hermform():
    modules = sorted((ROOT / "src" / "hermform").rglob("*.py"))
    assert modules
    outside = []
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue  # relative imports stay inside hermform
            outside += [(path.name, name) for name in names
                        if name.split(".")[0] != "hermform"
                        and name.split(".")[0] not in sys.stdlib_module_names]
    assert outside == []


def test_pyproject_declares_no_dependencies():
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    assert re.search(r"^dependencies = \[\]$", text, re.M)


def test_import_loads_no_dataclasses():
    """`import hermform` in a fresh interpreter leaves dataclasses out,
    and with it inspect (and ast, dis, tokenize, which it pulls in)."""
    probe = ("import sys, hermform; print(sorted({'dataclasses', 'inspect'}"
             " & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", probe], check=True,
                         capture_output=True, text=True,
                         env={**os.environ,
                              "PYTHONPATH": str(ROOT / "src")}).stdout
    assert out.split() == ["[]"]


def test_import_loads_dsl_and_obstructions_on_first_use():
    """`import hermform` in a fresh interpreter leaves dsl and
    obstructions out; every name of __all__ still resolves, `import *`
    binds them all, and an unknown name is an AttributeError."""
    probe = "\n".join((
        "import sys, hermform",
        "lazy = {'hermform.dsl', 'hermform.obstructions'}",
        "print(sorted(lazy & set(sys.modules)))",
        "names = {}",
        "exec('from hermform import *', names)",
        "print(sorted(set(hermform.__all__) - set(names)))",
        "print(all(getattr(hermform, name) is names[name]",
        "          for name in hermform.__all__))",
        "print(sorted(lazy & set(sys.modules)))",
        "print(hermform.parse is sys.modules['hermform.dsl'].parse)",
        "try:",
        "    hermform.no_such_name",
        "except AttributeError as e:",
        "    print(e)",
    ))
    out = subprocess.run([sys.executable, "-c", probe], check=True,
                         capture_output=True, text=True,
                         env={**os.environ,
                              "PYTHONPATH": str(ROOT / "src")}).stdout
    assert out.splitlines() == [
        "[]", "[]", "True", "['hermform.dsl', 'hermform.obstructions']",
        "True", "module 'hermform' has no attribute 'no_such_name'"]
