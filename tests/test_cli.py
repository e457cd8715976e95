"""End-to-end CLI runs in temp directories, plus exit code contract."""

import json
import subprocess
import sys
import time

import pytest

from sketchclust import Engine, cli
from sketchclust.cli import EXIT_INPUT, EXIT_OK, EXIT_RUNTIME, EXIT_USAGE, main


def _synth(path, n_graphs=120, seed=0, extra=()):
    argv = [
        "synth",
        "--out", str(path),
        "--n-graphs", str(n_graphs),
        "--n-clusters", "3",
        "--nodes-per-community", "8",
        "--edges-per-graph", "6",
        "--attrs-per-graph", "4",
        "--class-vocab", "5",
        "--seed", str(seed),
    ]
    argv.extend(extra)
    assert main(argv) == EXIT_OK
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
    p1 = _synth(tmp_path / "a.jsonl", seed=5)
    p2 = _synth(tmp_path / "b.jsonl", seed=5)
    b1, b2 = open(p1, "rb").read(), open(p2, "rb").read()
    assert b1 == b2
    assert b1.count(b"\n") == 121  # header + one line per graph


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


def test_fixed_weights_flag_keeps_uniform_weights(tmp_path):
    stream = _synth(tmp_path / "s.jsonl")
    out = tmp_path / "run"
    assert _cluster(stream, out, extra=["--fixed-weights"]) == EXIT_OK
    weights = json.loads((out / "weights.json").read_text())
    assert weights["weights"] == [1.0, 1.0, 1.0]


def test_diagnostics_flag_records_distances(tmp_path):
    stream = _synth(tmp_path / "s.jsonl", n_graphs=20)
    out = tmp_path / "run"
    assert _cluster(stream, out, extra=["--diagnostics"]) == EXIT_OK
    events = [json.loads(l) for l in (out / "events.jsonl").open()]
    decided = [e for e in events if e["action"] != "initialized"]
    assert decided
    assert all("distances" in e for e in decided)
    assert all("distances" not in e for e in events if e["action"] == "initialized")


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
    out = tmp_path / "scored"
    argv = [
        "eval",
        "--events", str(run / "events.jsonl"),
        "--stream", stream,
        "--out-dir", str(out),
    ]
    assert main(argv) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["events"] == 120
    assert 0.0 <= payload["average_purity"] <= 1.0
    assert (out / "purity.csv").exists()


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
    engine = Engine.load(str(out / "checkpoint.bin"))
    assert engine.graph_count == len(edge_lists) - len(bad)


@pytest.mark.parametrize(
    "schema",
    [
        {"directed": "false"},
        {"directed": 0},
        {"side_types": [{"name": 5}]},
        {"directd": True},
        {"side_types": [{"name": "a", "knd": "binary"}]},
    ],
    ids=["string_directed", "int_directed", "int_name", "unknown_key", "unknown_side_type_key"],
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
    assert diag["message"].startswith("input: line 4: ")

    assert _cluster(str(broken), tmp_path / "lenient", extra=["--lenient"]) == EXIT_OK
    diags = [json.loads(l) for l in capsys.readouterr().err.strip().splitlines()]
    assert [(d["message"], d["line"]) for d in diags if d["level"] == "warning"] == [
        ("record skipped", 4)
    ]


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


@pytest.mark.parametrize(
    "flags", [["--throughput-window", "0"], ["--purity-every", "-1"]], ids=["window", "purity"]
)
def test_bad_run_flags_exit_1_before_the_run(tmp_path, capsys, flags):
    stream = _synth(tmp_path / "s.jsonl", n_graphs=10)
    capsys.readouterr()
    assert _cluster(stream, tmp_path / "o", extra=flags) == EXIT_USAGE
    assert not (tmp_path / "o").exists()
    diag = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert diag["message"].startswith(f"usage: argument {flags[0]}: ")


def test_bad_engine_config_exits_1(tmp_path):
    stream = _synth(tmp_path / "s.jsonl", n_graphs=10)
    assert _cluster(stream, tmp_path / "o", extra=["--p", "-1.0"]) == EXIT_USAGE
    # an infinite p would make the first spread inf * 0 and its event unwritable
    assert _cluster(stream, tmp_path / "o", extra=["--p", "inf"]) == EXIT_USAGE
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
    _synth(tmp_path / "s.jsonl", n_graphs=10)
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
    stream = _synth(tmp_path / "s.jsonl", n_graphs=90)
    if lenient:
        stream, _ = _with_undeclared_side_type(tmp_path, stream)
    extra = ["--lenient"] if lenient else []
    assert _compare(stream, tmp_path / "cmp", extra=extra) == EXIT_OK
    for backend in ("sketch", "exact"):
        out = tmp_path / backend
        flags = ["--diagnostics", "--backend", backend, *extra]
        assert _cluster(stream, out, extra=flags) == EXIT_OK
        assert (tmp_path / "cmp" / f"events_{backend}.jsonl").read_bytes() == (
            out / "events.jsonl"
        ).read_bytes()
