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


def test_every_exported_name_is_used_outside_tests():
    package = ROOT / "src" / "sketchclust"
    sources = [p for p in package.glob("*.py") if p.name != "__init__.py"]
    sources += (ROOT / "perfbench").glob("*.py")
    used = _names_used(sources)
    unused = sorted(set(sketchclust.__all__) - used)
    assert not unused, f"exported but used only by tests: {unused}"


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
    counts = (_cli_options(cli._build_parser()), _api_options())
    assert counts == (48, 48), f"{sum(counts)} options, not 96: {counts}"
