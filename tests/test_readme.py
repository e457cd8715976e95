"""The README's stream example, library snippet and CLI quick start work
as written, and every CLI flag it names exists."""

import argparse
import json
import re
import shlex
from pathlib import Path

from sketchclust import cli, iter_stream, preprocess, read_header

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def _block(lang: str) -> str:
    """The README's one fenced block in ``lang``."""
    (block,) = re.findall(rf"^```{lang}\n(.*?)^```$", README, re.M | re.S)
    return block


def test_the_readme_stream_example_and_library_snippet_run(tmp_path, monkeypatch, capsys):
    stream = tmp_path / "example.jsonl"
    stream.write_text(_block("json"), encoding="utf-8")
    schema = read_header(str(stream))
    (g,) = iter_stream(str(stream))
    out = preprocess(g, schema)
    assert (out.id, out.label) == ("g000001", "k1")
    assert out.edges == [("a", "b", 2.0), ("b", "c", 1.0)]
    assert out.side == {"topics": {"topics:c1:v2": 1.0}}

    monkeypatch.chdir(tmp_path)
    namespace: dict = {}
    exec(compile(_block("python"), "README.md", "exec"), namespace)
    assert len(namespace["events"]) == len(namespace["labels"]) == 2000
    assert capsys.readouterr().out.strip()


def test_the_readme_quick_start_runs_and_gives_the_sizes_it_states(
    tmp_path, monkeypatch, capsys
):
    """Each ``sketchclust`` line of the CLI section's ``sh`` block exits 0,
    run in order in one directory, and ``eval`` prints the cluster sizes
    that the block's comment states."""
    cli_section = README.split("\n## CLI\n", 1)[1]
    (block,) = re.findall(r"^```sh\n(.*?)^```$", cli_section, re.M | re.S)[:1]
    lines = [line for line in block.splitlines() if line.startswith("sketchclust ")]
    commands = [shlex.split(line)[1:] for line in lines]
    assert commands[-1][0] == "eval"
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        capsys.readouterr()
        assert cli.main(argv) == 0, argv
    stated = json.loads(re.search(r"sizes (\[[\d, ]+\])", block).group(1))
    assert json.loads(capsys.readouterr().out)["cluster_sizes"] == stated


_FLAG = re.compile(r"(?<![\w-])--[a-z][a-z0-9-]*")


def _option_strings(parser: argparse.ArgumentParser) -> set[str]:
    """Every option of the parser and of its subcommands."""
    options: set[str] = set()
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                options |= _option_strings(sub)
        options.update(action.option_strings)
    return options


def _readme_flags() -> set[str]:
    """The ``--flags`` of the README's ``sh`` blocks and of its backticked
    text, but those of ``pip`` commands."""
    blocks = re.findall(r"^```sh\n(.*?)^```$", README, re.M | re.S)
    lines = [line for block in blocks for line in block.splitlines()]
    spans = re.findall(r"`([^`\n]+)`", re.sub(r"^```.*?^```$", "", README, flags=re.M | re.S))
    texts = [t for t in lines + spans if not t.lstrip().startswith("pip ")]
    return {flag for text in texts for flag in _FLAG.findall(text)}


def test_every_readme_flag_is_a_cli_option():
    flags = _readme_flags()
    assert {"--k", "--lenient", "--trace-weights", "--gamma"} <= flags
    unknown = sorted(flags - _option_strings(cli._build_parser()))
    assert not unknown, f"the README names flags the CLI does not have: {unknown}"
