"""Leftover-code checks on the package, the scripts and the tests, with the
standard library's ``ast`` only: an import that its module never uses, and
a top-level function or class of the package that nothing else names."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "dvbn").glob("*.py"))
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))
TESTS = sorted((ROOT / "tests").glob("*.py"))
SEARCHED = [p for d in ("src", "tests", "scripts", "perfbench")
            for p in sorted((ROOT / d).rglob("*.py"))]


def _imported(tree: ast.Module) -> dict[str, int]:
    """The names a module binds by importing, with their line numbers."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                names[a.asname or a.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                names[a.asname or a.name] = node.lineno
    return names


def _used(tree: ast.Module) -> set[str]:
    """Every name the module reads, and the entries of its ``__all__``."""
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return used


def test_every_import_is_used():
    unused = []
    for path in PACKAGE + SCRIPTS + TESTS:
        tree = ast.parse(path.read_text(), str(path))
        used = _used(tree)
        unused += [f"{path.relative_to(ROOT)}:{line}: {name}"
                   for name, line in _imported(tree).items() if name not in used]
    assert not unused, unused


def test_every_package_definition_is_named_elsewhere():
    texts = {p: p.read_text() for p in SEARCHED}
    unnamed = []
    for path in PACKAGE:
        lines = texts[path].splitlines(keepends=True)
        for node in ast.parse(texts[path], str(path)).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            start = min([node.lineno, *(d.lineno for d in node.decorator_list)])
            # the module with the definition's own lines left out
            rest = "".join(lines[:start - 1] + lines[node.end_lineno:])
            word = re.compile(rf"\b{re.escape(node.name)}\b")
            if not any(word.search(rest if p == path else t) for p, t in texts.items()):
                unnamed.append(f"{path.relative_to(ROOT)}:{node.lineno}: {node.name}")
    assert not unnamed, unnamed
