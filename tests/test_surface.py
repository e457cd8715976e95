"""The public API carries no name that only tests call."""

import ast
from pathlib import Path

import sketchclust

ROOT = Path(__file__).resolve().parent.parent


def _names_used(paths) -> set[str]:
    """Every loaded name, attribute and import alias in the given files."""
    used: set[str] = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    return used


def test_every_exported_name_is_used_outside_tests():
    package = ROOT / "src" / "sketchclust"
    sources = [p for p in package.glob("*.py") if p.name != "__init__.py"]
    sources += (ROOT / "perfbench").glob("*.py")
    used = _names_used(sources)
    unused = sorted(set(sketchclust.__all__) - used)
    assert not unused, f"exported but used only by tests: {unused}"
