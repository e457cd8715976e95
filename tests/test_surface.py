"""The public API carries no name that only tests call, and no option
that a change did not mean to add."""

import argparse
import ast
import inspect
from pathlib import Path

import sketchclust
from sketchclust import cli

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


# ``__init__`` is left out: its re-exports would count every name as used
MODULES = [p for p in (ROOT / "src" / "sketchclust").glob("*.py") if p.name != "__init__.py"]


def _used_outside_tests() -> set[str]:
    return _names_used([*MODULES, *(ROOT / "perfbench").glob("*.py")])


def test_every_exported_name_is_used_outside_tests():
    unused = sorted(set(sketchclust.__all__) - _used_outside_tests())
    assert not unused, f"exported but used only by tests: {unused}"


def _public_definitions():
    """Each public module-level function and class, and each public method
    and property of a public class, as ``(qualified name, name)``."""
    for path in MODULES:
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                yield f"{path.stem}.{node.name}", node.name
                if isinstance(node, ast.ClassDef):
                    for member in node.body:
                        if isinstance(member, ast.FunctionDef) and not member.name.startswith("_"):
                            yield f"{path.stem}.{node.name}.{member.name}", member.name


def test_every_public_function_and_class_is_used_outside_tests():
    used = _used_outside_tests()
    unused = sorted(qualified for qualified, name in _public_definitions() if name not in used)
    assert not unused, f"defined but used only by tests: {unused}"


def _cli_options(parser: argparse.ArgumentParser) -> int:
    """The parser's options, its subcommands' included, but not ``--help``."""
    count = 0
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            count += sum(_cli_options(sub) for sub in action.choices.values())
        elif action.option_strings and not isinstance(action, argparse._HelpAction):
            count += 1
    return count


def _defaulted(fn) -> int:
    return sum(p.default is not p.empty for p in inspect.signature(fn).parameters.values())


def _api_options() -> int:
    """The defaulted parameters of every exported callable (a dataclass's
    defaulted fields among them) and of its public methods."""
    count = 0
    for name in sketchclust.__all__:
        obj = getattr(sketchclust, name)
        if not callable(obj):
            continue
        count += _defaulted(obj)
        if inspect.isclass(obj):
            for attr, member in vars(obj).items():
                member = getattr(member, "__func__", member)  # class and static methods
                if not attr.startswith("_") and inspect.isfunction(member):
                    count += _defaulted(member)
    return count


def test_settable_option_count_is_pinned():
    """Every settable option doubles what tests and benchmarks must cover;
    a change that adds or removes one moves this pin on purpose."""
    pinned = (27, 40)
    counts = (_cli_options(cli._build_parser()), _api_options())
    assert counts == pinned, f"{sum(counts)} options, not {sum(pinned)}: {counts}"
