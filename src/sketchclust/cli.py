"""Command line front end.

Subcommands:

* ``synth``   - generate a labeled synthetic stream file;
* ``cluster`` - run the streaming clusterer over a stream file, writing
  events.jsonl, weights.json, checkpoint.bin, manifest.json and (when
  every graph it clustered is labeled) purity.csv, plus throughput.csv;
* ``compare`` - run the sketch and exact backends on the same stream and
  report agreement and distance error statistics;
* ``eval``    - score an existing events.jsonl against stream labels.

Exit codes: 0 success, 1 usage error, 2 malformed input, 3 runtime
failure (a numpy float overflow, invalid value or division by zero
included). Diagnostics go to stderr as one JSON object per line. Event and
purity outputs are byte-identical across reruns of the same manifest;
timing outputs (throughput.csv) necessarily are not.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from contextlib import ExitStack
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__
from .engine import BACKENDS, AssignmentEvent, Engine, EngineConfig
from .evaluate import (
    PurityReport,
    assignment_agreement,
    overall_rate,
    purity_from_events,
    throughput,
)
from .model import StreamSchema, preprocess
from .sketch import SketchConfig
from .stream_io import StreamFormatError, iter_stream, read_header
from .synth import SynthConfig, generate_stream

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INPUT = 2
EXIT_RUNTIME = 3

# each purity*.csv samples the average purity after every this many events
_PURITY_EVERY = 100

# the PurityReport scores that cluster's "run complete" line carries
_SUMMARY_SCORES = (
    "average_purity",
    "size_weighted_purity",
    "chance_purity",
    "adjusted_rand_index",
    "all_generations_purity",
)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; the contract reserves 2
    # for malformed input, so route usage problems through our own error.
    def error(self, message: str) -> None:  # type: ignore[override]
        raise _UsageError(message)


def _diag(level: str, message: str, **fields) -> None:
    record = {"level": level, "message": message}
    record.update(fields)
    sys.stderr.write(json.dumps(record, sort_keys=True) + "\n")


def _build_parser() -> _Parser:
    parser = _Parser(prog="sketchclust", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_synth = sub.add_parser("synth", help="generate a synthetic labeled stream")
    p_synth.add_argument("--out", required=True, help="output stream file")
    p_synth.add_argument("--n-graphs", type=int, default=SynthConfig.n_graphs)
    p_synth.add_argument("--n-clusters", type=int, default=SynthConfig.n_clusters)
    p_synth.add_argument("--seed", type=int, default=SynthConfig.seed)

    def add_run_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--input", required=True, help="stream file")
        p.add_argument("--k", type=int, required=True, help="cluster budget")
        p.add_argument("--gamma", type=int, default=EngineConfig.gamma,
                       help="graphs between weight refreshes (0: never, uniform weights)")
        p.add_argument("--p", type=float, default=EngineConfig.p, help="spread multiplier")
        p.add_argument("--sketch-rows", type=int, default=SketchConfig.rows)
        p.add_argument("--sketch-cols", type=int, default=SketchConfig.cols)
        p.add_argument("--seed", type=int, default=SketchConfig.seed)
        p.add_argument("--lenient", action="store_true",
                       help="skip malformed records instead of aborting")

    p_cluster = sub.add_parser("cluster", help="cluster a stream file")
    add_run_flags(p_cluster)
    p_cluster.add_argument("--backend", choices=BACKENDS, default=BACKENDS[0])
    p_cluster.add_argument("--out-dir", required=True)
    p_cluster.add_argument("--trace-weights", action="store_true",
                           help="emit weight optimizer trace to stderr")

    p_compare = sub.add_parser(
        "compare", help="run sketch and exact backends and compare them"
    )
    add_run_flags(p_compare)
    p_compare.add_argument("--out-dir", required=True)

    p_eval = sub.add_parser("eval", help="score an events file against labels")
    p_eval.add_argument("--events", required=True, help="events.jsonl from cluster")
    p_eval.add_argument("--stream", required=True, help="labeled stream file")

    return parser


def _engine_config(args: argparse.Namespace) -> EngineConfig:
    try:
        return EngineConfig(
            k=args.k,
            gamma=args.gamma,
            p=args.p,
            sketch=SketchConfig(rows=args.sketch_rows, cols=args.sketch_cols,
                                seed=args.seed),
            seed=args.seed,
        )
    except ValueError as exc:  # config invariants violated through flags
        raise _UsageError(str(exc)) from None


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _score(events: list[AssignmentEvent], labels: dict[str, str], csv_path: Path) -> PurityReport:
    """Purity of an event log; its series sampled every ``_PURITY_EVERY``
    events and its final value are written to ``csv_path``."""
    report, series = purity_from_events(events, labels, every=_PURITY_EVERY)
    rows = [*series, (len(events), report.average_purity)]
    csv_path.write_text(
        "graphs_processed,average_purity\n"
        + "".join(f"{processed},{value:.6f}\n" for processed, value in rows),
        encoding="utf-8",
    )
    return report


def _record_skipped(line_no: int, message: str) -> None:
    _diag("warning", "record skipped", line=line_no, reason=message)


def _run(args: argparse.Namespace, schema: StreamSchema, engines: dict[Path, Engine]):
    """Read ``args.input`` once, preprocess each graph, feed it to every
    engine and write each event to that engine's events file.

    Without ``--lenient`` the first malformed record or graph aborts with a
    StreamFormatError; with it, each is reported on stderr and left out.
    Returns each engine's events (in map order), the labels by graph id,
    the ``(elapsed_s, cumulative_edges)`` marks and the count of skipped
    records and graphs. Purity scores every clustered graph or none: when
    some but not all of them carry a label, or a graph id comes back with
    another label (purity looks labels up by id), the labels come back
    empty, after one ``purity skipped`` warning that counts both.
    """
    skipped = unlabeled = relabeled = 0

    def record_skipped(line_no: int, message: str) -> None:
        nonlocal skipped
        skipped += 1
        _record_skipped(line_no, message)

    records = iter_stream(args.input, on_error=record_skipped if args.lenient else None)
    runs: list[list[AssignmentEvent]] = [[] for _ in engines]
    labels: dict[str, str] = {}
    marks = [(0.0, 0)]
    edges = 0
    start = time.perf_counter()
    with ExitStack() as stack:
        sinks = [
            (engine, events, stack.enter_context(open(path, "w", encoding="utf-8")))
            for (path, engine), events in zip(engines.items(), runs)
        ]
        for record in records:
            try:
                g = preprocess(record, schema)
            except ValueError as exc:
                if not args.lenient:
                    raise StreamFormatError(f"graph {record.id!r}: {exc}") from None
                skipped += 1
                _diag("warning", "graph skipped", graph=record.id, reason=str(exc))
                continue
            if g.label is None:
                unlabeled += 1
            elif labels.setdefault(g.id, g.label) != g.label:
                relabeled += 1
            edges += len(g.edges)
            for engine, events, out in sinks:
                event = engine.process(g)
                events.append(event)
                out.write(event.to_json() + "\n")
            marks.append((time.perf_counter() - start, edges))
    if labels and (unlabeled or relabeled):
        counts = {"unlabeled": unlabeled, "relabeled": relabeled}
        _diag("warning", "purity skipped", **{k: v for k, v in counts.items() if v})
        labels = {}
    return runs, labels, marks, skipped


def cmd_synth(args: argparse.Namespace) -> int:
    try:
        cfg = SynthConfig(n_clusters=args.n_clusters, n_graphs=args.n_graphs, seed=args.seed)
    except ValueError as exc:  # config invariants violated through flags
        raise _UsageError(str(exc)) from None
    count = generate_stream(cfg, args.out)
    _diag("info", "stream written", path=args.out, records=count)
    return EXIT_OK


def cmd_cluster(args: argparse.Namespace) -> int:
    out_dir = Path(args.out_dir)
    config = _engine_config(args)
    out_dir.mkdir(parents=True, exist_ok=True)
    schema = read_header(args.input)

    trace = None
    if args.trace_weights:
        trace = lambda record: _diag("trace", "weight_opt", **record)

    engine = Engine(config, schema, backend=args.backend, trace=trace)
    manifest = {
        "artifact_version": __version__,
        "command": "cluster",
        "input": args.input,
        "backend": args.backend,
        "strict": not args.lenient,
        "config": config.to_dict(),
    }
    _write_json(out_dir / "manifest.json", manifest)

    (events,), labels, marks, skipped = _run(args, schema, {out_dir / "events.jsonl": engine})

    (out_dir / "checkpoint.bin").write_bytes(engine.to_bytes())
    weights = {
        "weights": engine.weights.tolist(),
        "components": ["edges"] + [t.name for t in schema.side_types],
        "graphs_processed": engine.graph_count,
    }
    _write_json(out_dir / "weights.json", weights)

    windows = throughput(marks)
    (out_dir / "throughput.csv").write_text(
        "elapsed_s,edges_per_s\n" + "".join(f"{t:.3f},{r:.1f}\n" for t, r in windows),
        encoding="utf-8",
    )

    rate = overall_rate(marks)
    summary = {
        "graphs": engine.graph_count,
        "edges": marks[-1][1],
        "skipped": skipped,
        "edges_per_s": None if rate is None else round(rate, 1),
    }
    if labels:
        report = _score(events, labels, out_dir / "purity.csv")
        for name in _SUMMARY_SCORES:
            summary[name] = round(getattr(report, name), 4)
    _diag("info", "run complete", **summary)
    return EXIT_OK


def cmd_compare(args: argparse.Namespace) -> int:
    out_dir = Path(args.out_dir)
    config = _engine_config(args)
    out_dir.mkdir(parents=True, exist_ok=True)
    schema = read_header(args.input)
    # Both backends see each graph in turn, so the stream is read once.
    engines = {
        out_dir / f"events_{b}.jsonl": Engine(config, schema, backend=b, record_distances=True)
        for b in BACKENDS
    }
    (sketch, exact), labels, _, _ = _run(args, schema, engines)

    # every routed graph's distances, (graphs, k, d+1): the backends route the same graphs
    est, true = (np.array([e.distances for e in run if e.distances]) for run in (sketch, exact))
    errors = np.sort(np.abs(est - true) / np.maximum(np.abs(true), 1e-12), axis=None)

    def quantile(q: float) -> float | None:
        n = errors.size
        return float(errors[min(int(q * n), n - 1)]) if n else None

    report = {
        "graphs": len(sketch),
        # null, like the quantiles, when no graph was clustered
        "agreement": assignment_agreement(sketch, exact) if sketch else None,
        "distance_rel_error": {
            "median": quantile(0.5),
            "p90": quantile(0.9),
            "p99": quantile(0.99),
            "max": quantile(1.0),
        },
    }
    if labels:
        for backend, events in zip(BACKENDS, (sketch, exact)):
            csv_path = out_dir / f"purity_{backend}.csv"
            rep = _score(events, labels, csv_path)
            report[f"purity_{backend}"] = rep.average_purity
    _write_json(out_dir / "compare.json", report)
    sys.stdout.write(json.dumps(report, sort_keys=True) + "\n")
    return EXIT_OK


def cmd_eval(args: argparse.Namespace) -> int:
    events = []
    with open(args.events, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                events.append(AssignmentEvent.from_dict(json.loads(line)))
            except ValueError as exc:  # bad JSON, or not an event
                raise StreamFormatError(f"bad event: {exc}", line_no) from None
    for event in events:
        # a run's event never names a slot beyond its own position in the log
        if event.cluster_index >= len(events):
            raise StreamFormatError(
                f"bad event {event.graph_id!r}: cluster_index {event.cluster_index}"
                f" is not below the event count {len(events)}"
            )
    labels: dict[str, str] = {}
    for g in iter_stream(args.stream, on_error=_record_skipped):
        if g.label is not None and labels.setdefault(g.id, g.label) != g.label:
            first = labels[g.id]
            raise StreamFormatError(f"graph {g.id!r} has two labels, {first!r} and {g.label!r}")
    if not labels:
        raise StreamFormatError("stream carries no labels to evaluate against")
    try:
        report, _ = purity_from_events(events, labels)
    except ValueError as exc:  # events that the labeled stream cannot score
        raise StreamFormatError(str(exc)) from None
    payload = asdict(report)
    payload["events"] = len(events)
    sys.stdout.write(json.dumps(payload, sort_keys=True) + "\n")
    return EXIT_OK


_COMMANDS = {
    "synth": cmd_synth,
    "cluster": cmd_cluster,
    "compare": cmd_compare,
    "eval": cmd_eval,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        _diag("error", f"usage: {exc}")
        return EXIT_USAGE
    try:
        # a float fault fails the run (exit 3) instead of writing inf or NaN
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            return _COMMANDS[args.command](args)
    except _UsageError as exc:
        _diag("error", f"usage: {exc}")
        return EXIT_USAGE
    except (StreamFormatError, FileNotFoundError, IsADirectoryError, UnicodeDecodeError) as exc:
        _diag("error", f"input: {exc}")
        return EXIT_INPUT
    except Exception as exc:  # noqa: BLE001 - contract maps any failure to 3
        _diag("error", f"runtime: {type(exc).__name__}: {exc}")
        return EXIT_RUNTIME


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
