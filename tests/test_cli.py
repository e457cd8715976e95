"""End-to-end CLI runs in temp directories, plus exit code contract."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import sketchclust
from sketchclust import (
    AssignmentEvent,
    Engine,
    EngineConfig,
    SketchConfig,
    SynthConfig,
    cli,
    generate_stream,
    iter_stream,
    preprocess,
    purity_from_events,
    read_header,
)
from sketchclust.cli import EXIT_INPUT, EXIT_OK, EXIT_RUNTIME, EXIT_USAGE, main


def _synth(path, n_graphs=120, seed=0):
    """A small labeled stream: 3 classes of 8-node communities, 6 edges and
    4 attributes from a 5-token class vocabulary per graph."""
    cfg = SynthConfig(
        n_clusters=3,
        n_graphs=n_graphs,
        nodes_per_community=8,
        edges_per_graph=6,
        attrs_per_graph=4,
        class_vocab=5,
        seed=seed,
    )
    generate_stream(cfg, str(path))
    return str(path)


def _cluster(stream, out_dir, extra=()):
    argv = [
        "cluster",
        "--input", stream,
        "--k", "3",
        "--gamma", "40",
        "--out-dir", str(out_dir),
        "--sketch-cols", "512",
    ]
    argv.extend(extra)
    return main(argv)


def test_synth_writes_deterministic_stream(tmp_path):
    argv = ["synth", "--n-graphs", "120", "--n-clusters", "3", "--seed", "5"]
    for name in ("a.jsonl", "b.jsonl"):
        assert main([*argv, "--out", str(tmp_path / name)]) == EXIT_OK
    generate_stream(SynthConfig(n_clusters=3, n_graphs=120, seed=5), str(tmp_path / "lib.jsonl"))
    written = (tmp_path / "a.jsonl").read_bytes()
    assert written == (tmp_path / "b.jsonl").read_bytes() == (tmp_path / "lib.jsonl").read_bytes()
    assert written.count(b"\n") == 121  # header + one line per graph


def test_cluster_end_to_end(tmp_path):
    stream = _synth(tmp_path / "s.jsonl")
    out = tmp_path / "run"
    assert _cluster(stream, out) == EXIT_OK
    for name in (
        "events.jsonl",
        "weights.json",
        "checkpoint.bin",
        "manifest.json",
        "purity.csv",
        "throughput.csv",
    ):
        assert (out / name).exists(), name

    events = [json.loads(l) for l in (out / "events.jsonl").open()]
    assert len(events) == 120
    assert {e["action"] for e in events} <= {"initialized", "assigned", "replaced_stale"}

    weights = json.loads((out / "weights.json").read_text())
    assert weights["components"] == ["edges", "topics", "tags"]
    assert weights["graphs_processed"] == 120
    assert len(weights["weights"]) == 3

    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["backend"] == "sketch"
    assert manifest["config"]["k"] == 3

    purity_rows = (out / "purity.csv").read_text().strip().splitlines()
    assert purity_rows[0] == "graphs_processed,average_purity"
    last = purity_rows[-1].split(",")
    assert last[0] == "120"
    assert 0.0 <= float(last[1]) <= 1.0


def test_cluster_events_are_reproducible(tmp_path):
    stream = _synth(tmp_path / "s.jsonl")
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert _cluster(stream, out1) == EXIT_OK
    assert _cluster(stream, out2) == EXIT_OK
    assert (out1 / "events.jsonl").read_bytes() == (out2 / "events.jsonl").read_bytes()
    assert (out1 / "purity.csv").read_bytes() == (out2 / "purity.csv").read_bytes()
    assert (out1 / "weights.json").read_bytes() == (out2 / "weights.json").read_bytes()


def test_gamma_0_keeps_uniform_weights(tmp_path):
    stream = _synth(tmp_path / "s.jsonl")
    out = tmp_path / "run"
    assert _cluster(stream, out, extra=["--gamma", "0"]) == EXIT_OK
    weights = json.loads((out / "weights.json").read_text())
    assert weights["weights"] == [1.0, 1.0, 1.0]


def test_diagnostics_flag_records_distances(tmp_path):
    """``compare`` records per-cluster distances on every routed graph, and
    only there; ``cluster`` records none."""
    stream = _synth(tmp_path / "s.jsonl", n_graphs=20)
    out = tmp_path / "cmp"
    assert _compare(stream, out) == EXIT_OK
    for backend in ("sketch", "exact"):
        events = [json.loads(l) for l in (out / f"events_{backend}.jsonl").open()]
        decided = [e for e in events if e["action"] != "initialized"]
        assert decided
        assert all("distances" in e for e in decided)
        assert all("distances" not in e for e in events if e["action"] == "initialized")
    assert _cluster(stream, tmp_path / "run") == EXIT_OK
    events = [json.loads(l) for l in (tmp_path / "run" / "events.jsonl").open()]
    assert all("distances" not in e for e in events)


def test_compare_reports_agreement(tmp_path, capsys):
    stream = _synth(tmp_path / "s.jsonl", n_graphs=60)
    out = tmp_path / "cmp"
    argv = [
        "compare",
        "--input", stream,
        "--k", "3",
        "--gamma", "30",
        "--sketch-cols", "4096",
        "--out-dir", str(out),
    ]
    assert main(argv) == EXIT_OK
    stdout_report = json.loads(capsys.readouterr().out)
    report = json.loads((out / "compare.json").read_text())
    assert stdout_report == report
    assert report["graphs"] == 60
    assert 0.0 <= report["agreement"] <= 1.0
    assert report["distance_rel_error"]["median"] is not None
    assert (out / "events_sketch.jsonl").exists()
    assert (out / "events_exact.jsonl").exists()
    assert (out / "purity_sketch.csv").exists()


def test_eval_scores_existing_events(tmp_path, capsys):
    stream = _synth(tmp_path / "s.jsonl")
    run = tmp_path / "run"
    assert _cluster(stream, run) == EXIT_OK
    capsys.readouterr()
    argv = ["eval", "--events", str(run / "events.jsonl"), "--stream", stream]
    assert main(argv) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["events"] == 120
    # the final row of the run's purity.csv
    assert _last_purity_row(run / "purity.csv") == (120, f"{payload['average_purity']:.6f}")


def test_eval_reports_skipped_records_and_unlabeled_events(tmp_path, capsys):
    stream = _synth(tmp_path / "s.jsonl", n_graphs=30)
    run = tmp_path / "run"
    assert _cluster(stream, run) == EXIT_OK
    lines = open(stream, "r", encoding="utf-8").read().splitlines(keepends=True)
    bad_id = json.loads(lines[10])["id"]
    lines[10] = "{broken json\n"
    broken = tmp_path / "broken.jsonl"
    broken.write_text("".join(lines), encoding="utf-8")
    capsys.readouterr()

    argv = ["eval", "--events", str(run / "events.jsonl"), "--stream", str(broken)]
    assert main(argv) == EXIT_INPUT
    diags = [json.loads(l) for l in capsys.readouterr().err.strip().splitlines()]
    warnings = [(d["message"], d["line"]) for d in diags if d["level"] == "warning"]
    assert warnings == [("record skipped", 11)]
    assert diags[-1]["message"] == f"input: missing label for graph {bad_id!r}"


@pytest.mark.parametrize("fault", ["array", "string_index", "unknown_key"])
def test_eval_rejects_a_malformed_event_line(tmp_path, capsys, fault):
    stream = _synth(tmp_path / "s.jsonl", n_graphs=30)
    run = tmp_path / "run"
    assert _cluster(stream, run) == EXIT_OK
    lines = (run / "events.jsonl").read_text(encoding="utf-8").splitlines()
    if fault == "array":
        lines[4] = "[]"
    elif fault == "string_index":
        lines[4] = json.dumps({**json.loads(lines[4]), "cluster_index": "x"})
    else:
        lines[4] = json.dumps({**json.loads(lines[4]), "cluster_idx": 0})
    events = tmp_path / "events.jsonl"
    events.write_text("\n".join(lines) + "\n", encoding="utf-8")
    capsys.readouterr()

    argv = ["eval", "--events", str(events), "--stream", stream]
    assert main(argv) == EXIT_INPUT
    diag = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert diag["message"].startswith("input: line 5: bad event: ")


def test_eval_rejects_a_cluster_index_beyond_the_event_count(tmp_path, capsys, monkeypatch):
    # purity_from_events sizes its table by the largest index, so such an
    # event must be turned away before it gets there
    purity = cli.purity_from_events

    def purity_guard(events, labels, every):
        assert max(e.cluster_index for e in events) < len(events)
        return purity(events, labels, every=every)

    monkeypatch.setattr(cli, "purity_from_events", purity_guard)
    stream = _synth(tmp_path / "s.jsonl", n_graphs=30)
    run = tmp_path / "run"
    assert _cluster(stream, run) == EXIT_OK
    lines = (run / "events.jsonl").read_text(encoding="utf-8").splitlines()
    lines[4] = json.dumps({**json.loads(lines[4]), "cluster_index": 10**9})
    events = tmp_path / "events.jsonl"
    events.write_text("\n".join(lines) + "\n", encoding="utf-8")
    capsys.readouterr()

    start = time.perf_counter()
    assert main(["eval", "--events", str(events), "--stream", stream]) == EXIT_INPUT
    assert time.perf_counter() - start < 1.0
    diag = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert diag["message"].startswith("input: bad event ")


@pytest.mark.parametrize("where", ["edge", "side"])
def test_mass_beyond_float_range_is_a_bad_graph(tmp_path, capsys, where):
    stream = _synth(tmp_path / "s.jsonl", n_graphs=30)
    lines = open(stream, "r", encoding="utf-8").read().splitlines(keepends=True)
    record = json.loads(lines[5])
    if where == "edge":
        record["edges"].append(["a", "b", 10**400])
    else:
        record["side"]["topics"] = {"x": 10**400}
    lines[5] = json.dumps(record) + "\n"
    huge = tmp_path / "huge.jsonl"
    huge.write_text("".join(lines), encoding="utf-8")
    capsys.readouterr()

    assert _cluster(str(huge), tmp_path / "strict") == EXIT_INPUT
    error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert error["message"].startswith(f"input: graph {record['id']!r}: ")
    assert error["message"].endswith("must be finite")

    assert _cluster(str(huge), tmp_path / "lenient", extra=["--lenient"]) == EXIT_OK
    diags = [json.loads(l) for l in capsys.readouterr().err.strip().splitlines()]
    skipped = [(d["message"], d["graph"]) for d in diags if d["level"] == "warning"]
    assert skipped == [("graph skipped", record["id"])]


@pytest.mark.parametrize(
    "entry, reason",
    [
        (["x", 3], "list items of 'topics' must be strings"),
        (2, "side entry 'topics' must be an object, list or string"),
    ],
    ids=["list_item", "number"],
)
def test_a_misshapen_side_shorthand_is_a_bad_graph(tmp_path, capsys, entry, reason):
    """The reader passes side entries on as decoded, so a misshapen one
    fails its graph by id, and ``eval``, which reads only ids and labels,
    reads its label."""
    _check_a_bad_side(tmp_path, capsys, lambda record: {**record["side"], "topics": entry}, reason)


@pytest.mark.parametrize("side", [[1], 3], ids=repr)
def test_a_side_that_is_not_an_object_is_a_bad_graph(tmp_path, capsys, side):
    reason = "side must be an object keyed by type name"
    _check_a_bad_side(tmp_path, capsys, lambda record: side, reason)


def _check_a_bad_side(tmp_path, capsys, bad_side, reason):
    """Record 5 of a 30-graph stream with its side replaced by
    ``bad_side(record)`` fails with ``reason`` in strict mode, is skipped
    under ``--lenient``, and still scores in ``eval``."""
    stream = _synth(tmp_path / "s.jsonl", n_graphs=30)
    lines = open(stream, "r", encoding="utf-8").read().splitlines(keepends=True)
    record = json.loads(lines[5])
    record["side"] = bad_side(record)
    lines[5] = json.dumps(record) + "\n"
    bad = tmp_path / "bad.jsonl"
    bad.write_text("".join(lines), encoding="utf-8")
    capsys.readouterr()

    assert _cluster(str(bad), tmp_path / "strict") == EXIT_INPUT
    error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert error["message"] == f"input: graph {record['id']!r}: {reason}"

    assert _cluster(str(bad), tmp_path / "lenient", extra=["--lenient"]) == EXIT_OK
    diags = [json.loads(l) for l in capsys.readouterr().err.strip().splitlines()]
    warnings = [d for d in diags if d["level"] == "warning"]
    assert [(d["message"], d["graph"], d["reason"]) for d in warnings] == [
        ("graph skipped", record["id"], reason)
    ]

    run = tmp_path / "run"
    assert _cluster(stream, run) == EXIT_OK
    capsys.readouterr()
    assert main(["eval", "--events", str(run / "events.jsonl"), "--stream", str(bad)]) == EXIT_OK
    captured = capsys.readouterr()
    assert json.loads(captured.out)["events"] == 30
    assert captured.err == ""


_SQUARE_OVERFLOWS = {
    # an edge whose square is inf
    "one_1e200_edge": [[["a", "b", 1.0]], [["a", "b", 1e200]], [["c", "d", 2.0]]],
    # duplicates that merge to inf
    "duplicate_1e308_edges": [
        [["a", "b", 1.0]], [["a", "b", 1e308], ["b", "a", 1e308]], [["c", "d", 2.0]]
    ],
    # no graph left to cluster
    "three_1e200_graphs": [[["a", "b", 1e200]], [["c", "b", 1e200]], [["e", "d", 1e200]]],
}


@pytest.mark.parametrize(
    "edge_lists", list(_SQUARE_OVERFLOWS.values()), ids=list(_SQUARE_OVERFLOWS)
)
def test_mass_whose_square_overflows_is_a_bad_graph(tmp_path, capsys, edge_lists):
    stream = tmp_path / "s.jsonl"
    header = json.dumps({"schema": {"side_types": [{"name": "topics"}]}, "stream_version": 1})
    records = [json.dumps({"id": f"g{i}", "edges": e}) for i, e in enumerate(edge_lists)]
    stream.write_text("\n".join([header, *records]) + "\n", encoding="utf-8")
    bad = [f"g{i}" for i, e in enumerate(edge_lists) if max(f for *_, f in e) > 1e100]
    argv = ["cluster", "--input", str(stream), "--k", "2", "--out-dir"]
    capsys.readouterr()

    assert main([*argv, str(tmp_path / "strict")]) == EXIT_INPUT
    error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert error["message"] == (
        f"input: graph {bad[0]!r}: edge frequencies must have a finite sum of squares"
    )

    out = tmp_path / "lenient"
    assert main([*argv, str(out), "--lenient"]) == EXIT_OK
    diags = [json.loads(l) for l in capsys.readouterr().err.strip().splitlines()]
    assert [d["graph"] for d in diags if d["level"] == "warning"] == bad
    engine = Engine.from_bytes((out / "checkpoint.bin").read_bytes())
    assert engine.graph_count == len(edge_lists) - len(bad)


@pytest.mark.parametrize(
    "schema",
    [
        {"directed": "false"},
        {"directed": 0},
        {"side_types": [{"name": 5}]},
        {"directd": True},
        {"side_types": [{"name": "a", "knd": "binary"}]},
        # a categorical type's name is part of its keys, which are UTF-8
        {"side_types": [{"name": "\ud800", "kind": "categorical"}]},
    ],
    ids=[
        "string_directed",
        "int_directed",
        "int_name",
        "unknown_key",
        "unknown_side_type_key",
        "unencodable_name",
    ],
)
def test_mistyped_schema_header_exits_2(tmp_path, capsys, schema):
    stream = tmp_path / "s.jsonl"
    header = json.dumps({"schema": schema, "stream_version": 1})
    stream.write_text(header + '\n{"id": "g0", "edges": [["a", "b"]]}\n', encoding="utf-8")
    capsys.readouterr()
    rc = main(
        ["cluster", "--input", str(stream), "--k", "2", "--out-dir", str(tmp_path / "o")]
    )
    assert rc == EXIT_INPUT
    diag = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert diag["message"].startswith("input: line 1: ")


def test_non_string_node_label_exits_2_unless_lenient(tmp_path, capsys):
    stream = _synth(tmp_path / "s.jsonl", n_graphs=30)
    lines = open(stream, "r", encoding="utf-8").read().splitlines(keepends=True)
    lines[3] = json.dumps({"id": "bad", "edges": [[None, "b"], [True, 5]]}) + "\n"
    broken = tmp_path / "broken.jsonl"
    broken.write_text("".join(lines), encoding="utf-8")
    capsys.readouterr()

    assert _cluster(str(broken), tmp_path / "strict") == EXIT_INPUT
    diag = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    # the reader passes edges on as decoded; ``preprocess`` names the graph
    assert diag["message"].startswith("input: graph 'bad': ")

    assert _cluster(str(broken), tmp_path / "lenient", extra=["--lenient"]) == EXIT_OK
    diags = [json.loads(l) for l in capsys.readouterr().err.strip().splitlines()]
    assert [(d["message"], d["graph"]) for d in diags if d["level"] == "warning"] == [
        ("graph skipped", "bad")
    ]


def test_value_faults_are_reported_by_graph_and_a_null_frequency_reads_as_1(tmp_path, capsys):
    stream = _synth(tmp_path / "s.jsonl", n_graphs=30)
    lines = open(stream, "r", encoding="utf-8").read().splitlines(keepends=True)
    faults = {
        3: ("bad-endpoint", {"edges": [["a", 5]]}),
        6: ("string-mass", {"side": {"topics": {"x": "2"}}}),
        9: ("negative-ts", {"ts": -1}),  # no fault: the reader ignores ``ts``
        12: ("null-freq", {"edges": [["a", "b", None], ["b", "c"]]}),
    }
    for i, (graph_id, fields) in faults.items():
        label = json.loads(lines[i])["label"]  # every graph labeled: purity is scored
        lines[i] = json.dumps({"id": graph_id, "label": label, **fields}) + "\n"
    broken = tmp_path / "broken.jsonl"
    broken.write_text("".join(lines), encoding="utf-8")
    capsys.readouterr()

    assert _cluster(str(broken), tmp_path / "strict") == EXIT_INPUT
    error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert error["message"] == (
        "input: graph 'bad-endpoint': node/attribute labels must be nonempty strings"
    )

    lenient = tmp_path / "lenient"
    assert _cluster(str(broken), lenient, extra=["--lenient"]) == EXIT_OK
    diags = [json.loads(l) for l in capsys.readouterr().err.strip().splitlines()]
    assert [(d["message"], d["graph"]) for d in diags if d["level"] == "warning"] == [
        ("graph skipped", "bad-endpoint"),
        ("graph skipped", "string-mass"),
    ]
    assert diags[-1]["skipped"] == 2
    events = [json.loads(l) for l in (lenient / "events.jsonl").open()]
    assert len(events) == 28
    assert {"negative-ts", "null-freq"} <= {e["graph_id"] for e in events}


def test_lenient_mode_skips_malformed_records(tmp_path):
    stream = _synth(tmp_path / "s.jsonl", n_graphs=30)
    lines = open(stream, "r", encoding="utf-8").read().splitlines(keepends=True)
    lines[3] = "{not json\n"
    broken = tmp_path / "broken.jsonl"
    broken.write_text("".join(lines), encoding="utf-8")

    strict_out = tmp_path / "strict"
    assert _cluster(str(broken), strict_out) == EXIT_INPUT

    lenient_out = tmp_path / "lenient"
    assert _cluster(str(broken), lenient_out, extra=["--lenient"]) == EXIT_OK
    events = [json.loads(l) for l in (lenient_out / "events.jsonl").open()]
    assert len(events) == 29


def test_usage_errors_exit_1():
    assert main(["cluster", "--k", "3"]) == EXIT_USAGE  # missing required flags
    assert main(["frobnicate"]) == EXIT_USAGE
    assert main(["synth", "--out", "x.jsonl", "--n-clusters", "0"]) == EXIT_USAGE


def test_bad_engine_config_exits_1(tmp_path):
    stream = _synth(tmp_path / "s.jsonl", n_graphs=10)
    assert _cluster(stream, tmp_path / "o", extra=["--p", "-1.0"]) == EXIT_USAGE
    # an infinite p would make the first spread inf * 0 and its event unwritable
    assert _cluster(stream, tmp_path / "o", extra=["--p", "inf"]) == EXIT_USAGE
    assert _cluster(stream, tmp_path / "o", extra=["--sketch-cols", "1"]) == EXIT_USAGE
    # the optimizer's barrier weight, first step and step budget are constants
    for flag in ("--step-size", "--barrier-t", "--max-steps"):
        assert _cluster(stream, tmp_path / "o", extra=[flag, "1"]) == EXIT_USAGE
        assert _compare(stream, tmp_path / "o", extra=[flag, "1"]) == EXIT_USAGE
    assert not (tmp_path / "o").exists()


def test_removed_output_flags_exit_1(tmp_path, capsys):
    """``compare`` records the per-cluster distances, and ``cluster`` and
    ``compare`` write each purity series: ``cluster --diagnostics`` and
    ``eval --out-dir`` are unrecognised."""
    stream = _synth(tmp_path / "s.jsonl", n_graphs=10)
    assert _cluster(stream, tmp_path / "run") == EXIT_OK
    capsys.readouterr()
    assert _cluster(stream, tmp_path / "o", extra=["--diagnostics"]) == EXIT_USAGE
    events = str(tmp_path / "run" / "events.jsonl")
    argv = ["eval", "--events", events, "--stream", stream, "--out-dir", str(tmp_path / "o")]
    assert main(argv) == EXIT_USAGE
    messages = [json.loads(l)["message"] for l in capsys.readouterr().err.splitlines()]
    assert messages == [
        "usage: unrecognized arguments: --diagnostics",
        f"usage: unrecognized arguments: --out-dir {tmp_path / 'o'}",
    ]
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["cluster", "compare"])
def test_fixed_weights_flag_and_a_negative_gamma_exit_1(tmp_path, capsys, command):
    """Uniform weights are ``--gamma 0``: ``--fixed-weights`` is an
    unrecognised argument and ``--gamma -1`` a config error, and neither
    creates anything."""
    stream = _synth(tmp_path / "s.jsonl", n_graphs=10)
    capsys.readouterr()
    argv = [command, "--input", stream, "--k", "2", "--out-dir", str(tmp_path / "o")]
    assert main([*argv, "--fixed-weights"]) == EXIT_USAGE
    assert main([*argv, "--gamma", "-1"]) == EXIT_USAGE
    messages = [json.loads(l)["message"] for l in capsys.readouterr().err.splitlines()]
    assert messages == [
        "usage: unrecognized arguments: --fixed-weights",
        "usage: gamma must be >= 0",
    ]
    assert not (tmp_path / "o").exists()


def test_undecodable_input_exits_2(tmp_path, capsys):
    stream = tmp_path / "s.jsonl"
    stream.write_bytes(
        b'{"schema": {"side_types": []}, "stream_version": 1}\n'
        b'{"id": "g0", "edges": [["a", "\xff"]]}\n'
    )
    capsys.readouterr()
    rc = main(["cluster", "--input", str(stream), "--k", "2", "--out-dir", str(tmp_path / "o")])
    assert rc == EXIT_INPUT
    diag = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert diag["message"].startswith("input: 'utf-8' codec can't decode")


def test_value_error_while_processing_exits_3(tmp_path, capsys, monkeypatch):
    stream = _synth(tmp_path / "s.jsonl", n_graphs=10)

    def fail(self, g):
        raise ValueError("fault inside the run")

    monkeypatch.setattr(Engine, "process", fail)
    capsys.readouterr()
    assert _cluster(stream, tmp_path / "o") == EXIT_RUNTIME
    diag = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert diag["message"] == "runtime: ValueError: fault inside the run"


def test_unsupported_stream_version_exits_2(tmp_path, capsys):
    stream = tmp_path / "s.jsonl"
    header = json.dumps({"schema": {"side_types": []}, "stream_version": 2})
    stream.write_text(header + '\n{"id": "g0", "edges": [["a", "b"]]}\n', encoding="utf-8")
    capsys.readouterr()
    rc = main(["cluster", "--input", str(stream), "--k", "2", "--out-dir", str(tmp_path / "o")])
    assert rc == EXIT_INPUT
    diag = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert diag["message"] == "input: line 1: unsupported stream_version 2"


def test_missing_input_exits_2(tmp_path):
    rc = main(
        ["cluster", "--input", str(tmp_path / "nope.jsonl"), "--k", "2",
         "--out-dir", str(tmp_path / "o")]
    )
    assert rc == EXIT_INPUT


def test_headerless_stream_exits_2(tmp_path):
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"id": "g0", "edges": [["a", "b"]]}\n', encoding="utf-8")
    rc = main(
        ["cluster", "--input", str(bad), "--k", "2",
         "--out-dir", str(tmp_path / "o")]
    )
    assert rc == EXIT_INPUT


def test_console_script_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "sketchclust.cli", "--version"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "0.1.0"


def test_diagnostics_go_to_stderr_as_json(tmp_path, capsys):
    assert main(["synth", "--out", str(tmp_path / "s.jsonl"), "--n-graphs", "10"]) == EXIT_OK
    err_lines = capsys.readouterr().err.strip().splitlines()
    assert err_lines
    record = json.loads(err_lines[-1])
    assert record["level"] == "info"
    assert record["records"] == 10


def _with_undeclared_side_type(tmp_path, stream, index=5):
    """Copy of ``stream`` whose record ``index`` parses as JSON but fails
    preprocessing (an undeclared side type); returns (path, graph id)."""
    lines = open(stream, "r", encoding="utf-8").read().splitlines(keepends=True)
    record = json.loads(lines[index])
    record["side"]["undeclared"] = {"x": 1}
    lines[index] = json.dumps(record, sort_keys=True) + "\n"
    broken = tmp_path / "undeclared.jsonl"
    broken.write_text("".join(lines), encoding="utf-8")
    return str(broken), record["id"]


def _compare(stream, out_dir, extra=()):
    argv = [
        "compare",
        "--input", stream,
        "--k", "3",
        "--gamma", "40",
        "--out-dir", str(out_dir),
        "--sketch-cols", "512",
    ]
    argv.extend(extra)
    return main(argv)


@pytest.mark.parametrize("run", [_cluster, _compare])
def test_graph_failing_preprocess_is_fatal_unless_lenient(tmp_path, capsys, run):
    stream = _synth(tmp_path / "s.jsonl", n_graphs=30)
    broken, bad_id = _with_undeclared_side_type(tmp_path, stream)
    capsys.readouterr()

    assert run(broken, tmp_path / "strict") == EXIT_INPUT
    error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert error["level"] == "error"
    assert error["message"].startswith(f"input: graph {bad_id!r}: ")

    assert run(broken, tmp_path / "lenient", extra=["--lenient"]) == EXIT_OK
    diags = [json.loads(l) for l in capsys.readouterr().err.strip().splitlines()]
    skipped = [d for d in diags if d["level"] == "warning"]
    assert [(d["message"], d["graph"]) for d in skipped] == [("graph skipped", bad_id)]
    events_file = "events.jsonl" if run is _cluster else "events_sketch.jsonl"
    ids = [json.loads(l)["graph_id"] for l in (tmp_path / "lenient" / events_file).open()]
    assert len(ids) == 29 and bad_id not in ids


@pytest.mark.parametrize("lenient", [False, True])
def test_compare_events_match_cluster_diagnostics(tmp_path, lenient):
    """Each of ``compare``'s event files is, byte for byte, what a library
    engine of its backend writes with ``record_distances=True``."""
    stream = _synth(tmp_path / "s.jsonl", n_graphs=90)
    bad_id = None
    if lenient:
        stream, bad_id = _with_undeclared_side_type(tmp_path, stream)
    extra = ["--lenient"] if lenient else []
    assert _compare(stream, tmp_path / "cmp", extra=extra) == EXIT_OK
    schema = read_header(stream)
    config = EngineConfig(k=3, gamma=40, sketch=SketchConfig(cols=512))
    graphs = [preprocess(g, schema) for g in iter_stream(stream) if g.id != bad_id]
    assert len(graphs) == (89 if lenient else 90)
    for backend in ("sketch", "exact"):
        engine = Engine(config, schema, backend, record_distances=True)
        lines = "".join(engine.process(g).to_json() + "\n" for g in graphs)
        assert (tmp_path / "cmp" / f"events_{backend}.jsonl").read_text(encoding="utf-8") == lines


_NOTHING_TO_CLUSTER = {
    "header_only": ([], []),
    # a record that is not JSON and a graph that fails preprocessing
    "every_record_skipped": (
        ["{not json", json.dumps({"id": "g0", "edges": [], "side": {"undeclared": {}}})],
        ["--lenient"],
    ),
}


@pytest.mark.parametrize(
    "records, extra", list(_NOTHING_TO_CLUSTER.values()), ids=list(_NOTHING_TO_CLUSTER)
)
def test_compare_without_graphs_reports_null_agreement(tmp_path, capsys, records, extra):
    stream = tmp_path / "s.jsonl"
    header = json.dumps({"schema": {"side_types": []}, "stream_version": 1})
    stream.write_text("\n".join([header, *records]) + "\n", encoding="utf-8")
    capsys.readouterr()
    assert _compare(str(stream), tmp_path / "cmp", extra=extra) == EXIT_OK
    report = json.loads((tmp_path / "cmp" / "compare.json").read_text())
    assert json.loads(capsys.readouterr().out) == report
    assert report == {
        "graphs": 0,
        "agreement": None,
        "distance_rel_error": {"median": None, "p90": None, "p99": None, "max": None},
    }
    for backend in ("sketch", "exact"):
        assert (tmp_path / "cmp" / f"events_{backend}.jsonl").read_bytes() == b""
    # cluster exits 0 on the same streams
    assert _cluster(str(stream), tmp_path / "run", extra=extra) == EXIT_OK


def _last_purity_row(path):
    processed, value = path.read_text(encoding="utf-8").splitlines()[-1].split(",")
    return int(processed), value


def test_run_complete_counts_what_lenient_mode_kept(tmp_path, capsys):
    stream = _synth(tmp_path / "s.jsonl", n_graphs=30)
    broken, bad_id = _with_undeclared_side_type(tmp_path, stream)  # one bad graph
    lines = open(broken, "r", encoding="utf-8").read().splitlines(keepends=True)
    lines[3] = "{not json\n"  # one bad record
    both = tmp_path / "both.jsonl"
    both.write_text("".join(lines), encoding="utf-8")
    schema = read_header(str(both))
    records = iter_stream(str(both), lambda *_: None)
    kept = [preprocess(g, schema) for g in records if g.id != bad_id]
    capsys.readouterr()

    out = tmp_path / "run"
    assert _cluster(str(both), out, extra=["--lenient"]) == EXIT_OK
    summary = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert summary["message"] == "run complete"
    assert summary["graphs"] == len(kept) == 28
    assert summary["edges"] == sum(len(g.edges) for g in kept)
    assert summary["skipped"] == 2

    events = [AssignmentEvent.from_dict(json.loads(l)) for l in (out / "events.jsonl").open()]
    report, _ = purity_from_events(events, {g.id: g.label for g in kept}, every=100)
    scores = (
        "average_purity",
        "size_weighted_purity",
        "chance_purity",
        "adjusted_rand_index",
        "all_generations_purity",
    )
    for name in scores:
        assert summary[name] == round(getattr(report, name), 4), name
    assert _last_purity_row(out / "purity.csv") == (28, f"{report.average_purity:.6f}")


def test_compare_purities_are_the_last_rows_of_their_csvs(tmp_path, capsys):
    stream = _synth(tmp_path / "s.jsonl", n_graphs=250)
    capsys.readouterr()
    assert _compare(stream, tmp_path / "cmp") == EXIT_OK
    report = json.loads((tmp_path / "cmp" / "compare.json").read_text())
    for backend in ("sketch", "exact"):
        csv = tmp_path / "cmp" / f"purity_{backend}.csv"
        # a sample after every 100 events, then the final value
        processed = [row.split(",")[0] for row in csv.read_text().splitlines()[1:]]
        assert processed == ["100", "200", "250"]
        assert _last_purity_row(csv) == (250, f"{report[f'purity_{backend}']:.6f}")


@pytest.mark.parametrize("run", [_cluster, _compare], ids=["cluster", "compare"])
def test_purity_is_skipped_unless_every_clustered_graph_is_labeled(tmp_path, capsys, run):
    stream = _synth(tmp_path / "s.jsonl", n_graphs=60)
    lines = open(stream, "r", encoding="utf-8").read().splitlines(keepends=True)
    record = json.loads(lines[11])
    del record["label"]
    lines[11] = json.dumps(record) + "\n"
    partial = tmp_path / "partial.jsonl"
    partial.write_text("".join(lines), encoding="utf-8")
    assert run(stream, tmp_path / "full") == EXIT_OK
    capsys.readouterr()

    out = tmp_path / "partial"
    assert run(str(partial), out) == EXIT_OK
    captured = capsys.readouterr()
    diags = [json.loads(l) for l in captured.err.splitlines()]
    warnings = [d for d in diags if d["level"] == "warning"]
    assert warnings == [{"level": "warning", "message": "purity skipped", "unlabeled": 1}]
    assert not list(out.glob("purity*"))
    if run is _cluster:
        assert diags[-1]["message"] == "run complete"
        scores = [key for key in diags[-1] if "purity" in key or "rand" in key]
        assert scores == []
    else:
        report = json.loads((out / "compare.json").read_text())
        assert json.loads(captured.out) == report
        assert not [key for key in report if key.startswith("purity")]
    # labels route nothing: every event is the fully labeled run's
    for events in out.glob("events*.jsonl"):
        assert events.read_bytes() == (tmp_path / "full" / events.name).read_bytes()



def _relabeled_stream(tmp_path) -> str:
    """Four records, ``g1`` twice: first labeled x, then y."""
    records = [("g1", "x"), ("g2", "y"), ("g1", "y"), ("g4", "y")]
    lines = [json.dumps({"schema": {"side_types": []}, "stream_version": 1})]
    lines += [json.dumps({"id": i, "edges": [["a", "b"]], "label": label}) for i, label in records]
    stream = tmp_path / "relabeled.jsonl"
    stream.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(stream)


@pytest.mark.parametrize("command", ["cluster", "compare"])
def test_purity_is_skipped_when_a_graph_id_comes_back_with_another_label(
    tmp_path, capsys, command
):
    # purity looks labels up by id: both g1 records would count as y, and
    # cluster 0, which holds both, would read purity 1 instead of 0.5
    out = tmp_path / "run"
    argv = [command, "--input", _relabeled_stream(tmp_path), "--k", "2", "--gamma", "0",
            "--out-dir", str(out)]
    assert main(argv) == EXIT_OK
    captured = capsys.readouterr()
    warnings = [d for d in map(json.loads, captured.err.splitlines()) if d["level"] == "warning"]
    assert warnings == [{"level": "warning", "message": "purity skipped", "relabeled": 1}]
    assert not list(out.glob("purity*"))
    if command == "compare":
        assert not [key for key in json.loads(captured.out) if key.startswith("purity")]


def test_eval_rejects_a_graph_id_with_two_labels(tmp_path, capsys):
    stream = _relabeled_stream(tmp_path)
    run = tmp_path / "run"
    assert main(["cluster", "--input", stream, "--k", "2", "--out-dir", str(run)]) == EXIT_OK
    capsys.readouterr()
    assert main(["eval", "--events", str(run / "events.jsonl"), "--stream", stream]) == EXIT_INPUT
    error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert error["message"] == "input: graph 'g1' has two labels, 'x' and 'y'"

def test_label_not_encodable_as_utf8_is_a_bad_graph(tmp_path, capsys):
    # JSON can carry a lone surrogate, which has no UTF-8 encoding
    stream = tmp_path / "s.jsonl"
    header = json.dumps({"schema": {"side_types": []}, "stream_version": 1})
    edges = [[["a", "b"]], [["\ud800", "y"]], [["a", "c"]]]
    records = [json.dumps({"id": f"g{i}", "edges": e}) for i, e in enumerate(edges)]
    stream.write_text("\n".join([header, *records]) + "\n", encoding="utf-8")
    argv = ["cluster", "--input", str(stream), "--k", "2", "--out-dir"]
    capsys.readouterr()

    assert main([*argv, str(tmp_path / "strict")]) == EXIT_INPUT
    error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert error["message"] == "input: graph 'g1': label '\\ud800' is not encodable as UTF-8"

    out = tmp_path / "lenient"
    assert main([*argv, str(out), "--lenient"]) == EXIT_OK
    diags = [json.loads(l) for l in capsys.readouterr().err.strip().splitlines()]
    assert [(d["message"], d["graph"]) for d in diags if d["level"] == "warning"] == [
        ("graph skipped", "g1")
    ]
    assert [json.loads(l)["graph_id"] for l in (out / "events.jsonl").open()] == ["g0", "g2"]


def test_float_fault_exits_3_with_one_json_line(tmp_path):
    # each graph square-sums to 1e308, but c's cross term with a's cluster
    # (2 * 1e308) overflows in the compiled closed form, which numpy's error
    # state does not reach; a subprocess, so numpy warnings are not errors
    stream = tmp_path / "s.jsonl"
    header = json.dumps({"schema": {"side_types": []}, "stream_version": 1})
    edges = {"a": ["x", "y", 1e154], "b": ["p", "q", 1.0], "c": ["x", "y", 1e154],
             "d": ["x", "y", 1e154], "e": ["p", "q", 1.0]}
    records = [json.dumps({"id": i, "edges": [e]}) for i, e in edges.items()]
    stream.write_text("\n".join([header, *records]) + "\n", encoding="utf-8")
    out = tmp_path / "o"
    env = dict(os.environ, PYTHONPATH=str(Path(sketchclust.__file__).parent.parent))
    proc = subprocess.run(
        [sys.executable, "-m", "sketchclust.cli", "cluster", "--input", str(stream),
         "--k", "2", "--out-dir", str(out)],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == EXIT_RUNTIME
    (line,) = proc.stderr.splitlines()
    assert json.loads(line)["message"] == (
        "runtime: ValueError: a squared distance is not finite"
    )
    assert [json.loads(l)["graph_id"] for l in (out / "events.jsonl").open()] == ["a", "b"]
    assert not (out / "checkpoint.bin").exists()


@pytest.mark.parametrize("lenient", [False, True])
@pytest.mark.parametrize("backend", ["sketch", "exact"])
def test_cluster_writes_what_the_library_loop_gives(tmp_path, backend, lenient):
    stream = _synth(tmp_path / "s.jsonl", n_graphs=90)
    bad_id = None
    extra = ["--backend", backend]
    if lenient:
        stream, bad_id = _with_undeclared_side_type(tmp_path, stream)  # one bad graph
        lines = open(stream, "r", encoding="utf-8").read().splitlines(keepends=True)
        lines[3] = "{not json\n"  # one bad record
        Path(stream).write_text("".join(lines), encoding="utf-8")
        extra.append("--lenient")
    out = tmp_path / "run"
    assert _cluster(stream, out, extra=extra) == EXIT_OK

    schema = read_header(stream)
    config = EngineConfig(k=3, gamma=40, sketch=SketchConfig(cols=512))
    assert json.loads((out / "manifest.json").read_text())["config"] == config.to_dict()
    engine = Engine(config, schema, backend)
    records = iter_stream(stream, (lambda *_: None) if lenient else None)
    events = [engine.process(preprocess(g, schema)) for g in records if g.id != bad_id]
    assert len(events) == (88 if lenient else 90)
    lines = "".join(e.to_json() + "\n" for e in events)
    assert (out / "events.jsonl").read_text(encoding="utf-8") == lines
    assert (out / "checkpoint.bin").read_bytes() == engine.to_bytes()


def test_trace_weights_reports_each_step_and_changes_no_output(tmp_path, capsys):
    stream = _synth(tmp_path / "s.jsonl")  # 120 graphs: refreshes at 40, 80 and 120
    plain, traced = tmp_path / "plain", tmp_path / "traced"
    capsys.readouterr()
    assert _cluster(stream, plain) == EXIT_OK
    plain_diags = [json.loads(l) for l in capsys.readouterr().err.strip().splitlines()]
    assert [d["level"] for d in plain_diags] == ["info"]
    assert _cluster(stream, traced, extra=["--trace-weights"]) == EXIT_OK
    diags = [json.loads(l) for l in capsys.readouterr().err.strip().splitlines()]
    assert diags[-1]["message"] == "run complete"
    traces = diags[:-1]
    assert {(d["level"], d["message"]) for d in traces} == {("trace", "weight_opt")}

    # each refresh: its accepted steps numbered 0, 1, ..., then its final record
    refreshes, steps = [], []
    for d in traces:
        if "final_weights" in d:
            assert d.keys() == {"level", "message", "final_weights", "pairs", "dropped_pairs"}
            refreshes.append((steps, d))
            steps = []
        else:
            assert d.keys() == {"level", "message", "step", "objective", "step_size"}
            assert d["step"] == len(steps)
            steps.append(d)
    assert steps == [] and len(refreshes) == 3
    assert all(len(s) > 0 and final["pairs"] == 3 for s, final in refreshes)
    weights = json.loads((traced / "weights.json").read_text())["weights"]
    assert refreshes[-1][1]["final_weights"] == weights

    for name in ("events.jsonl", "weights.json", "checkpoint.bin", "manifest.json"):
        assert (traced / name).read_bytes() == (plain / name).read_bytes(), name


def test_trace_weights_reports_a_refresh_that_keeps_no_pair(tmp_path, capsys):
    # four identical graphs: at graphs 2 and 4 the two clusters coincide
    stream = tmp_path / "s.jsonl"
    record = {"id": "g", "edges": [["a", "b", 2]], "side": {"topics": {"x": 1}}}
    lines = [{"schema": {"side_types": [{"name": "topics"}]}, "stream_version": 1}]
    lines += [dict(record, id=f"g{i}") for i in range(4)]
    stream.write_text("".join(json.dumps(line) + "\n" for line in lines), encoding="utf-8")
    capsys.readouterr()
    argv = ["cluster", "--input", str(stream), "--k", "2", "--gamma", "2", "--trace-weights"]
    assert main([*argv, "--out-dir", str(tmp_path / "o")]) == EXIT_OK
    diags = [json.loads(l) for l in capsys.readouterr().err.strip().splitlines()]
    final = {"level": "trace", "message": "weight_opt", "final_weights": [1.0, 1.0],
             "pairs": 0, "dropped_pairs": 1}
    assert diags[:-1] == [final, final]
    assert diags[-1]["message"] == "run complete"
