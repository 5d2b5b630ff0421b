"""Every public top-level function and class of the library has a caller in
the program: `src/`, `scripts/` or `perfbench/`. A name that only tests call
is not part of the library; its tests belong on what the program runs.

A reference is a name (`f(...)`), an attribute (`module.f`) or an imported
name (`from .wva import f`). References inside the name's own definition do
not count."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "wva_lab"
PROGRAM = ("src", "scripts", "perfbench")


def _public_definitions():
    """(module stem, name) -> defining file, for every public top-level
    function and class of the package."""
    defs = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                    and not node.name.startswith("_"):
                defs[path.stem, node.name] = path
    return defs


def _references():
    """name -> {(file, enclosing top-level definition or None)} over the program."""
    refs = {}
    for folder in PROGRAM:
        for path in sorted((ROOT / folder).rglob("*.py")):
            for top in ast.parse(path.read_text()).body:
                owner = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else None
                for node in ast.walk(top):
                    if isinstance(node, ast.Name):
                        names = [node.id]
                    elif isinstance(node, ast.Attribute):
                        names = [node.attr]
                    elif isinstance(node, (ast.Import, ast.ImportFrom)):
                        names = [alias.name.rsplit(".", 1)[-1] for alias in node.names]
                    else:
                        continue
                    for name in names:
                        refs.setdefault(name, set()).add((path, owner))
    return refs


def test_every_public_name_has_a_caller_in_the_program():
    refs = _references()
    unused = [f"{module}.{name}" for (module, name), path in _public_definitions().items()
              if not any((where, owner) != (path, name) for where, owner in refs.get(name, ()))]
    assert unused == []


def test_the_scan_sees_the_library():
    # the guard is empty-handed if it finds no definitions or no references
    defs = _public_definitions()
    assert ("wva", "postselect") in defs and ("experiments", "sweep") in defs
    assert len(defs) > 40
    assert any(path.parent.name == "scripts" for path, _ in _references()["sweep"])
