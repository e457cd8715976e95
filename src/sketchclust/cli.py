"""Command line front end.

Subcommands:

* ``synth``   - generate a labeled synthetic stream file;
* ``cluster`` - run the streaming clusterer over a stream file, writing
  events.jsonl, weights.json, checkpoint.bin, manifest.json and (when the
  stream is labeled) purity.csv, plus throughput.csv;
* ``compare`` - run the sketch and exact backends on the same stream and
  report agreement and distance error statistics;
* ``eval``    - score an existing events.jsonl against stream labels.

Exit codes: 0 success, 1 usage error, 2 malformed input, 3 runtime
failure. Diagnostics go to stderr as one JSON object per line. Event and
purity outputs are byte-identical across reruns of the same manifest;
timing outputs (throughput.csv) necessarily are not.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from contextlib import ExitStack
from pathlib import Path

from . import __version__
from .engine import AssignmentEvent, Engine, EngineConfig
from .evaluate import (
    assignment_agreement,
    overall_rate,
    purity_from_events,
    throughput,
)
from .model import StreamSchema, canonical_graphs
from .sketch import SketchConfig
from .stream_io import StreamFormatError, iter_stream, read_header
from .synth import SynthConfig, generate_stream
from .weight_opt import BarrierConfig

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INPUT = 2
EXIT_RUNTIME = 3


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


def _positive_float(text: str) -> float:
    value = float(text)
    if not value > 0:
        raise argparse.ArgumentTypeError(f"must be positive, not {text}")
    return value


def _nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, not {text}")
    return value


def _build_parser() -> _Parser:
    parser = _Parser(prog="sketchclust", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_synth = sub.add_parser("synth", help="generate a synthetic labeled stream")
    p_synth.add_argument("--out", required=True, help="output stream file")
    p_synth.add_argument("--n-graphs", type=int, default=2000)
    p_synth.add_argument("--n-clusters", type=int, default=4)
    p_synth.add_argument("--nodes-per-community", type=int, default=30)
    p_synth.add_argument("--edges-per-graph", type=int, default=8)
    p_synth.add_argument("--attrs-per-graph", type=int, default=5)
    p_synth.add_argument("--class-vocab", type=int, default=12)
    p_synth.add_argument("--cross-edge-rate", type=float, default=0.3)
    p_synth.add_argument("--fidelity", type=float, default=0.9)
    p_synth.add_argument("--noise-vocab", type=int, default=150)
    p_synth.add_argument("--seed", type=int, default=0)

    def add_run_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--input", required=True, help="stream file")
        p.add_argument("--k", type=int, required=True, help="cluster budget")
        p.add_argument("--gamma", type=int, default=250,
                       help="graphs between weight refreshes")
        p.add_argument("--p", type=float, default=3.0, help="spread multiplier")
        p.add_argument("--sketch-rows", type=int, default=10)
        p.add_argument("--sketch-cols", type=int, default=500)
        p.add_argument("--barrier-t", type=float, default=1.0)
        p.add_argument("--step-size", type=float, default=0.1)
        p.add_argument("--max-steps", type=int, default=25)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--fixed-weights", action="store_true",
                       help="skip weight optimization (uniform weights)")
        p.add_argument("--lenient", action="store_true",
                       help="skip malformed records instead of aborting")
        p.add_argument("--purity-every", type=_nonnegative_int, default=100,
                       help="events between purity samples (0 disables)")

    p_cluster = sub.add_parser("cluster", help="cluster a stream file")
    add_run_flags(p_cluster)
    p_cluster.add_argument("--backend", choices=("sketch", "exact"), default="sketch")
    p_cluster.add_argument("--out-dir", required=True)
    p_cluster.add_argument("--diagnostics", action="store_true",
                           help="record per-cluster distances in events")
    p_cluster.add_argument("--trace-weights", action="store_true",
                           help="emit weight optimizer trace to stderr")
    p_cluster.add_argument("--throughput-window", type=_positive_float, default=0.5)

    p_compare = sub.add_parser(
        "compare", help="run sketch and exact backends and compare them"
    )
    add_run_flags(p_compare)
    p_compare.add_argument("--out-dir", required=True)

    p_eval = sub.add_parser("eval", help="score an events file against labels")
    p_eval.add_argument("--events", required=True, help="events.jsonl from cluster")
    p_eval.add_argument("--stream", required=True, help="labeled stream file")
    p_eval.add_argument("--out-dir", default=None)
    p_eval.add_argument("--purity-every", type=_nonnegative_int, default=100)

    return parser


def _engine_config(args: argparse.Namespace) -> EngineConfig:
    try:
        return EngineConfig(
            k=args.k,
            gamma=args.gamma,
            p=args.p,
            sketch=SketchConfig(rows=args.sketch_rows, cols=args.sketch_cols,
                                seed=args.seed),
            barrier=BarrierConfig(t=args.barrier_t, step_size=args.step_size,
                                  max_steps=args.max_steps),
            seed=args.seed,
            optimize_weights=not args.fixed_weights,
        )
    except ValueError as exc:  # config invariants violated through flags
        raise _UsageError(str(exc)) from None


def _write_purity_csv(path: Path, series, final) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("graphs_processed,average_purity\n")
        for processed, value in series:
            fh.write(f"{processed},{value:.6f}\n")
        if final is not None:
            fh.write(f"{final[0]},{final[1]:.6f}\n")


def _record_skipped(line_no: int, message: str) -> None:
    _diag("warning", "record skipped", line=line_no, reason=message)


def _canonical_input(args: argparse.Namespace, schema: StreamSchema, skipped: list):
    """Canonical graphs of ``args.input``, read and preprocessed one at a time.

    Without ``--lenient`` the first malformed record or graph aborts with a
    StreamFormatError; with it, each is reported on stderr, appended to
    ``skipped`` and left out.
    """

    def record_skipped(line_no: int, message: str) -> None:
        skipped.append(message)
        _record_skipped(line_no, message)

    def graph_rejected(graph_id: str, message: str) -> None:
        if not args.lenient:
            raise StreamFormatError(f"graph {graph_id!r}: {message}")
        skipped.append(message)
        _diag("warning", "graph skipped", graph=graph_id, reason=message)

    records = iter_stream(args.input, on_error=record_skipped if args.lenient else None)
    return canonical_graphs(records, schema, on_error=graph_rejected)


def cmd_synth(args: argparse.Namespace) -> int:
    try:
        cfg = SynthConfig(
            n_clusters=args.n_clusters,
            n_graphs=args.n_graphs,
            nodes_per_community=args.nodes_per_community,
            edges_per_graph=args.edges_per_graph,
            informative_types=(("topics", args.fidelity),),
            noise_types=(("tags", args.noise_vocab),),
            cross_edge_rate=args.cross_edge_rate,
            attrs_per_graph=args.attrs_per_graph,
            class_vocab=args.class_vocab,
            seed=args.seed,
        )
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

    engine = Engine(
        config,
        schema,
        backend=args.backend,
        record_distances=args.diagnostics,
        trace=trace,
    )

    manifest = {
        "artifact_version": __version__,
        "command": "cluster",
        "input": args.input,
        "backend": args.backend,
        "strict": not args.lenient,
        "config": config.to_dict(),
    }
    (out_dir / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )

    skipped: list[str] = []
    events: list[AssignmentEvent] = []
    labels: dict[str, str] = {}
    marks: list[tuple[float, int]] = []
    edge_total = 0
    start = time.perf_counter()
    marks.append((0.0, 0))
    with open(out_dir / "events.jsonl", "w", encoding="utf-8") as ev_out:
        for canonical in _canonical_input(args, schema, skipped):
            if canonical.label is not None:
                labels[canonical.id] = canonical.label
            edge_total += len(canonical.edges)
            event = engine.process(canonical)
            events.append(event)
            ev_out.write(event.to_json() + "\n")
            marks.append((time.perf_counter() - start, edge_total))

    engine.save(str(out_dir / "checkpoint.bin"))
    (out_dir / "weights.json").write_text(
        json.dumps(
            {
                "weights": engine.weights.tolist(),
                "components": ["edges"] + [t.name for t in schema.side_types],
                "graphs_processed": engine.graph_count,
            },
            indent=2,
            sort_keys=True,
        )
        + "\n",
        encoding="utf-8",
    )

    rate = overall_rate(marks)
    windows = throughput(marks, window_s=args.throughput_window)
    with open(out_dir / "throughput.csv", "w", encoding="utf-8") as fh:
        fh.write("elapsed_s,edges_per_s\n")
        for t_end, window_rate in windows:
            fh.write(f"{t_end:.3f},{window_rate:.1f}\n")

    summary = {
        "graphs": engine.graph_count,
        "edges": edge_total,
        "skipped": len(skipped),
        "edges_per_s": None if rate is None else round(rate, 1),
    }
    if labels and events:
        report, series = purity_from_events(events, labels, every=args.purity_every)
        _write_purity_csv(
            out_dir / "purity.csv", series, (len(events), report.average_purity)
        )
        summary["average_purity"] = round(report.average_purity, 4)
    _diag("info", "run complete", **summary)
    return EXIT_OK


def cmd_compare(args: argparse.Namespace) -> int:
    out_dir = Path(args.out_dir)
    config = _engine_config(args)
    out_dir.mkdir(parents=True, exist_ok=True)
    schema = read_header(args.input)
    engines = {
        backend: Engine(config, schema, backend=backend, record_distances=True)
        for backend in ("sketch", "exact")
    }
    runs: dict[str, list[AssignmentEvent]] = {backend: [] for backend in engines}
    labels: dict[str, str] = {}
    # Both backends see each graph in turn, so the stream is read once.
    with ExitStack() as stack:
        outs = {
            backend: stack.enter_context(
                open(out_dir / f"events_{backend}.jsonl", "w", encoding="utf-8")
            )
            for backend in engines
        }
        for g in _canonical_input(args, schema, []):
            if g.label is not None:
                labels[g.id] = g.label
            for backend, engine in engines.items():
                event = engine.process(g)
                runs[backend].append(event)
                outs[backend].write(event.to_json() + "\n")

    agreement = assignment_agreement(runs["sketch"], runs["exact"])

    rel_errors: list[float] = []
    for ev_s, ev_x in zip(runs["sketch"], runs["exact"]):
        if ev_s.distances is None or ev_x.distances is None:
            continue
        for row_s, row_x in zip(ev_s.distances, ev_x.distances):
            for v_s, v_x in zip(row_s, row_x):
                scale = max(abs(v_x), 1e-12)
                rel_errors.append(abs(v_s - v_x) / scale)
    rel_errors.sort()

    def quantile(q: float) -> float | None:
        if not rel_errors:
            return None
        return rel_errors[min(int(q * len(rel_errors)), len(rel_errors) - 1)]

    report = {
        "graphs": len(runs["sketch"]),
        "agreement": agreement,
        "distance_rel_error": {
            "median": quantile(0.5),
            "p90": quantile(0.9),
            "p99": quantile(0.99),
            "max": rel_errors[-1] if rel_errors else None,
        },
    }
    if labels:
        for backend, events in runs.items():
            rep, series = purity_from_events(events, labels, every=args.purity_every)
            report[f"purity_{backend}"] = rep.average_purity
            _write_purity_csv(
                out_dir / f"purity_{backend}.csv",
                series,
                (len(events), rep.average_purity),
            )
    (out_dir / "compare.json").write_text(
        json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
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
    records = iter_stream(args.stream, on_error=_record_skipped)
    labels = {g.id: g.label for g in records if g.label is not None}
    if not labels:
        raise StreamFormatError("stream carries no labels to evaluate against")
    try:
        report, series = purity_from_events(events, labels, every=args.purity_every)
    except ValueError as exc:  # events that the labeled stream cannot score
        raise StreamFormatError(str(exc)) from None
    payload = report.to_dict()
    payload["events"] = len(events)
    sys.stdout.write(json.dumps(payload, sort_keys=True) + "\n")
    if args.out_dir:
        out_dir = Path(args.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        _write_purity_csv(
            out_dir / "purity.csv", series, (len(events), report.average_purity)
        )
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
