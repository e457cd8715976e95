"""The README's stream example and library snippet work as written."""

import re
from pathlib import Path

from sketchclust import iter_stream, preprocess, read_header

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
