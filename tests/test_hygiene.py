"""Source hygiene: no module imports a name it never uses, and no ``__all__``
lists a name its module lacks.

A stdlib ``ast`` pass over the package, the tests and the scripts.  A name
counts as used when it is loaded anywhere in the module or listed in the
module's ``__all__``; ``from __future__`` imports are exempt.
"""

import ast
import importlib
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DIRS = ("src/rankwin", "tests", "scripts")


def python_files():
    for d in DIRS:
        for name in sorted(os.listdir(os.path.join(ROOT, d))):
            if name.endswith(".py"):
                yield os.path.join(d, name)


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return [f"line {line}: {name}" for name, line in sorted(imported.items(), key=lambda kv: kv[1])
            if name not in used]


def test_checker_flags_an_unused_import():
    assert unused_imports("import os\nimport sys\nprint(sys.argv)\n") == ["line 1: os"]
    assert unused_imports("from a import b\n__all__ = ['b']\n") == []


@pytest.mark.parametrize("path", list(python_files()))
def test_no_unused_imports(path):
    with open(os.path.join(ROOT, path)) as fh:
        assert unused_imports(fh.read()) == []


@pytest.mark.parametrize("module", ["rankwin"] + [
    "rankwin." + name[:-3] for name in sorted(os.listdir(os.path.join(ROOT, "src/rankwin")))
    if name.endswith(".py") and name != "__init__.py"])
def test_all_names_exist(module):
    mod = importlib.import_module(module)
    assert [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)] == []
