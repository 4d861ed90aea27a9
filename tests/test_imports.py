"""Every module-level import in the package's modules is used, every
module-level private function, class and constant is referenced somewhere
in the package, only ``ingest`` imports ``csv`` and only ``core`` sets an
array's ``writeable`` flag.

``__init__.py`` is left out of the first check: it imports names to
re-export them.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "ibnaming"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def imports(nodes):
    """(bound name, module, line) for each name bound by the imports among ``nodes``."""
    for node in nodes:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], alias.name, node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.module or "", node.lineno


def unused_imports(source: str) -> list[str]:
    """Names bound by the module's top-level imports that no Name node reads."""
    tree = ast.parse(source)
    imported = {name: line for name, _, line in imports(tree.body)}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def test_detects_an_unused_import():
    assert unused_imports("import os\nfrom json import dumps, loads\nloads('1')\n") == [
        "line 1: os", "line 2: dumps"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_imports_are_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def private_definitions(tree) -> dict[str, int]:
    """Name and line of each private (``_x``, not ``__x__``) function, class
    and constant that the module defines at its top level."""
    found = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found[node.name] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in getattr(node, "targets", [getattr(node, "target", None)]):
                if isinstance(target, ast.Name):
                    found[target.id] = node.lineno
    return {name: line for name, line in found.items()
            if name.startswith("_") and not name.endswith("__")}


def unreferenced_privates(sources: dict[str, str]) -> list[str]:
    """The private definitions of ``sources`` (name -> module text) that no
    module of them reads by name."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    read = {node.id for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [f"{module} line {line}: {name}" for module, tree in trees.items()
            for name, line in private_definitions(tree).items() if name not in read]


def test_detects_an_unreferenced_private():
    sources = {"a.py": "_USED = 1\n_SPARE = 2\ndef _helper(): pass\nclass _Kind: pass\n",
               "b.py": "from a import _USED, _Kind\nprint(_USED, _Kind, __name__)\n"}
    assert unreferenced_privates(sources) == ["a.py line 2: _SPARE", "a.py line 3: _helper"]


def test_private_definitions_are_referenced():
    sources = {p.name: p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))}
    assert unreferenced_privates(sources) == []


def test_only_ingest_imports_csv():
    # ingest alone knows the CSV dialect and numbers the lines of a table
    importers = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        if any(module.split(".")[0] == "csv" for _, module, _ in imports(ast.walk(tree))):
            importers.append(path.name)
    assert importers == ["ingest.py"]


def sets_writeable(source: str) -> bool:
    """Whether the module assigns to a ``.writeable`` attribute or calls ``setflags``."""
    return any(isinstance(node, ast.Attribute)
               and (node.attr == "writeable" and isinstance(node.ctx, ast.Store)
                    or node.attr == "setflags")
               for node in ast.walk(ast.parse(source)))


def test_detects_a_writeable_flag():
    assert sets_writeable("a.flags.writeable = False\n")
    assert sets_writeable("a.setflags(write=False)\n")
    assert not sets_writeable("ok = a.flags.writeable\n")


def test_only_core_sets_writeable():
    # core's _freeze is the one rule for which arrays are copied and frozen
    setters = [path.name for path in sorted(PACKAGE.glob("*.py"))
               if sets_writeable(path.read_text(encoding="utf-8"))]
    assert setters == ["core.py"]
