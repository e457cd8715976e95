"""sketchclust benchmark: one closed-loop client streaming a workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from its
``src/`` directory. The seed generates the workload's stream file, one
pass of ``PASS_GRAPHS`` graphs. A pass streams that file through the public
path ``stream_io.iter_stream`` -> ``model.preprocess`` -> ``Engine.process``
-> event JSON line written, on a fresh engine, one graph at a time: the
next record is requested only after the previous event line is written.

With ``--trace 0`` the pass is replayed ``REPLAYS`` times, and more if
``--seconds`` have not passed yet; those extra replays are checked but not
measured. Between blocks of ``BLOCK`` graphs the reference loop of
``speed.py`` samples the host's speed, and every time is scaled to a host
where that loop takes ``speed.REFERENCE_S``: on a shared VM the same work
ran up to 1.9x slower in spells of seconds to minutes. A graph's latency is
the least of its scaled replay timings, which drops stalls that hit only
one replay. Throughput is one pass's edges over the sum of those per-graph
latencies. The raw figures are printed on the line before the result.

With ``--trace 1`` the last line holds the per-layer metrics of a traced
run (spans.py), in which blocks of graphs alternate between traced and
untraced. Its times are raw.

Both modes check the outputs outside the timed region, print a line with
provenance and workload properties before the result, and exit 1 when a
check fails. Intermediate files and one result file per run go to
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from array import array
from collections import Counter
from fractions import Fraction
from itertools import islice
from pathlib import Path
from time import perf_counter

from arith import MIN_BEYOND, min_samples

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

P50 = Fraction(1, 2)
P999 = Fraction(999, 1000)
# One pass leaves ten graphs above its p99.9 latency.
PASS_GRAPHS = min_samples(P999, MIN_BEYOND)
REPLAYS = 2
MIN_SETUP_SAMPLES = 5
# The CLI check runs on this prefix of the stream.
CLI_GRAPHS = 1000
# Live-cluster purity sampled every PURITY_EVERY events must average at
# least PURITY_FLOOR. Across seeds it ranges 0.44-0.88 on these workloads,
# so the floor only catches routing that has stopped following the classes.
PURITY_EVERY = 100
PURITY_FLOOR = 0.3
# Replays stop early only to keep a run inside its time budget.
MAX_TIMED_S = 100.0
# A pass is cut into blocks of this many graphs. The timed run samples the
# host's speed between blocks; the traced run alternates traced and untraced
# blocks. Every workload's refresh and checkpoint interval divides it.
BLOCK = 250


def _fail(message: str) -> int:
    sys.stderr.write(f"perfbench: {message}\n")
    return 2


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "sketchclust" / "__init__.py").is_file():
        return _fail(f"no library source under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import sketchclust

    if Path(sketchclust.__file__).resolve().parent != SRC / "sketchclust":
        return _fail(f"imported sketchclust from {sketchclust.__file__}, not {SRC}")

    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        return _fail(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    bench = Bench(WORKLOADS[args.workload], args.seed, args.seconds)
    result = bench.run_traced() if args.trace else bench.run_timed()
    record = dict(bench.report, result=result)
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(json.dumps(bench.report, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


class Stages:
    """The library calls one loop iteration makes; a recorder wraps each."""

    def __init__(self, recorder=None):
        from sketchclust import Engine, preprocess

        wrap = recorder.wrap if recorder else (lambda name, fn: fn)
        self.next = wrap("stream_io.next", next)
        self.preprocess = wrap("model.preprocess", preprocess)
        self.emit = wrap("engine.emit", _emit)
        self.checkpoint = wrap("engine.checkpoint", Engine.to_bytes)
        self.resume = wrap("engine.resume", Engine.from_bytes)
        if recorder:
            graph_span = recorder.name_id("loop.graph")

            def begin(graph_no: int) -> int:
                recorder.graph_id = graph_no
                return recorder.open(graph_span)

            self.begin, self.finish = begin, recorder.close
        else:
            self.begin, self.finish = _no_span, _no_span


def _no_span(_: int) -> int:
    return -1


def _emit(out, event) -> None:
    out.write(event.to_json() + "\n")


class Pass:
    """Outcome of one pass over the stream."""

    def __init__(self, events_path: str) -> None:
        self.events_path = events_path
        self.wall_s = 0.0
        self.graphs = 0
        self.edges = 0
        self.failed = 0
        self.actions: Counter = Counter()
        self.latencies = array("d")
        self.speed = array("d")  # reference loop seconds around each block
        self.events_sha256 = ""
        self.checkpoint_bytes = 0
        self.errors: list[str] = []


class Bench:
    def __init__(self, workload, seed: int, seconds: float):
        from sketchclust.stream_io import read_header
        from workloads import write_workload

        self.w = workload
        self.seed = seed
        self.seconds = seconds
        self.config = workload.engine_config(seed)
        OUT.mkdir(exist_ok=True)
        # Large intermediates are named by workload only, so each run overwrites them.
        self.prefix = str(OUT / workload.name)
        self.stream = self.prefix + "-stream.jsonl"
        self.report = {"provenance": provenance(workload.name, seed, seconds)}
        write_workload(workload, seed, self.stream, PASS_GRAPHS)
        self.schema = read_header(self.stream)
        self.checks: dict[str, bool] = {}
        self.passes: list[Pass] = []
        # lru cache -> [cache_fn, info when tracing began, hits, misses]
        self.caches: dict[str, list] = {}

    def check(self, name: str, ok: bool) -> None:
        self.checks[name] = self.checks.get(name, True) and bool(ok)

    # -- the closed loop ------------------------------------------------------

    def one_pass(self, recorder=None, parity: int = 0, hook=None, calibrate=False) -> Pass:
        """Stream the file once on a fresh engine. With a recorder, blocks of
        BLOCK graphs whose index has the given parity are traced. With
        ``calibrate``, the reference loop runs before the first block and
        after each block, outside every graph's latency."""
        from sketchclust import Engine
        from sketchclust.stream_io import iter_stream
        from speed import reference_seconds

        plain = st = Stages()
        traced = Stages(recorder) if recorder else None
        every = self.w.checkpoint_every
        res = Pass(f"{self.prefix}-events-{min(len(self.passes), 1)}.jsonl")
        latencies = res.latencies
        if calibrate:
            res.speed.append(reference_seconds())
        t_start = perf_counter()
        engine = Engine(self.config, self.schema, trace=hook)
        records = iter_stream(self.stream)
        with open(res.events_path, "w", encoding="utf-8") as out:
            while True:
                if recorder and res.graphs % BLOCK == 0:
                    on = (res.graphs // BLOCK) % 2 == parity
                    self.trace_blocks(recorder, on)
                    st = traced if on else plain
                t0 = perf_counter()
                span = st.begin(res.graphs)
                g = st.next(records, None)
                if g is None:
                    st.finish(span)
                    break
                res.graphs += 1
                try:
                    canonical = st.preprocess(g, self.schema)
                    event = engine.process(canonical)
                    st.emit(out, event)
                except Exception:  # noqa: BLE001 - a failed graph is counted, not fatal
                    res.failed += 1
                    res.errors.append(traceback.format_exc(limit=3))
                else:
                    res.edges += len(canonical.edges)
                    res.actions[event.action] += 1
                if every and res.graphs % every == 0:
                    engine = st.resume(st.checkpoint(engine), trace=hook)
                latencies.append(perf_counter() - t0)
                st.finish(span)
                if calibrate and res.graphs % BLOCK == 0:
                    res.speed.append(reference_seconds())
        res.wall_s = perf_counter() - t_start
        if calibrate and res.graphs % BLOCK:
            res.speed.append(reference_seconds())
        # Outside the timed region: the end-of-pass checkpoint must round-trip,
        # and every pass must write the same events as the first. A traced
        # pair of passes traces one end-of-pass checkpoint, as one pass has.
        if recorder:
            self.trace_blocks(recorder, parity == 0)
            st = traced if parity == 0 else plain
        blob = st.checkpoint(engine)
        res.checkpoint_bytes = len(blob)
        self.check("checkpoint_roundtrip", st.resume(blob).to_bytes() == blob)
        if recorder:
            self.trace_blocks(recorder, False)
        res.events_sha256 = _sha256(res.events_path)
        if self.passes:
            self.check("repeat_identical", res.events_sha256 == self.passes[0].events_sha256)
        self.passes.append(res)
        return res

    # -- end-to-end run -------------------------------------------------------

    def run_timed(self) -> dict:
        from arith import percentile, samples_beyond, scale_by_blocks
        from speed import REFERENCE_S

        # One set-up sample after each replay spreads them over the run, so one
        # slow spell of a shared machine does not move all of them.
        setup = [self.setup_time()]
        timed_s = 0.0
        while len(self.passes) < REPLAYS or (
            timed_s < self.seconds and timed_s < MAX_TIMED_S
        ):
            timed_s += self.one_pass(calibrate=True).wall_s
            setup.append(self.setup_time())
        measured = self.passes[:REPLAYS]
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        while len(setup) < MIN_SETUP_SAMPLES:
            setup.append(self.setup_time())

        self.check_outputs()
        scaled = [scale_by_blocks(p.latencies, p.speed, BLOCK, REFERENCE_S) for p in measured]
        best = list(map(min, zip(*scaled)))
        lat = sorted(best)
        raw = sorted(map(min, zip(*(p.latencies for p in measured))))
        speed = sorted(x for p in measured for x in p.speed)
        attempted = sum(p.graphs for p in self.passes)
        failed = sum(p.failed for p in self.passes)
        edges = self.passes[0].edges
        self.report.update(
            samples=len(lat),
            samples_beyond_p999=samples_beyond(len(lat), P999),
            replays=len(self.passes),
            timed_s=timed_s,
            reference_loop_s={"min": speed[0], "median": statistics.median(speed),
                              "max": speed[-1], "reference": REFERENCE_S},
            raw={
                "edges_per_s": edges / math.fsum(raw),
                "edges_per_s_wall": sum(p.edges for p in self.passes) / timed_s,
                "latency_p50_us": percentile(raw, P50) * 1e6,
                "latency_p999_us": percentile(raw, P999) * 1e6,
                "setup_s": statistics.median(s for s, _ in setup),
            },
            setup_samples_s=setup,
            errors=[e for p in self.passes for e in p.errors][:5],
        )
        metrics = {
            "edges_per_s": (edges / math.fsum(best), "edges/s"),
            "latency_p50_us": (percentile(lat, P50) * 1e6, "us"),
            "latency_p999_us": (percentile(lat, P999) * 1e6, "us"),
            "setup_s": (statistics.median(s for _, s in setup), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "checkpoint_bytes": (self.passes[-1].checkpoint_bytes, "bytes"),
            "completed_fraction": ((attempted - failed) / attempted, "fraction"),
        }
        return self.result(attempted, failed, metrics)

    def setup_time(self) -> tuple[float, float]:
        """Seconds a fresh interpreter takes to set up and process one graph,
        raw and scaled by the reference loop the probe runs afterwards."""
        from speed import REFERENCE_S

        done = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), str(SRC), self.stream,
             json.dumps(self.config.to_dict()), self.prefix + "-setup-event.jsonl"],
            capture_output=True, text=True, timeout=60, cwd=ROOT, check=True,
        )
        raw, loop_s = map(float, done.stdout.split())
        return raw, raw * REFERENCE_S / loop_s

    # -- traced run -----------------------------------------------------------

    def run_traced(self) -> dict:
        import arith
        from sketchclust import sketch
        from spans import SpanRecorder

        self.one_pass()  # untraced: warms caches, as in the timed run
        rec = SpanRecorder()
        for label in ("_digest64", "_index_matrix"):
            fn = getattr(sketch, label, None)
            if fn is None or not hasattr(fn, "cache_info"):
                rec.absent.append(f"sketch.{label}")
            else:
                self.caches[label] = [fn, fn.cache_info(), 0, 0]
        accepted = [0]

        def hook(record: dict) -> None:
            if rec.active and "step" in record:
                accepted[0] += 1

        # Each pair of passes traces every graph once, in alternating blocks,
        # and times the other blocks untraced. Blocks a fraction of a second
        # apart share the host's speed, so the overhead ratio compares like
        # with like.
        traced_s = untraced_s = 0.0
        n = 0
        t_start = perf_counter()
        while not n or perf_counter() - t_start < self.seconds:
            for parity in (0, 1):
                lat = self.one_pass(rec, parity, hook).latencies
                for block in range(0, len(lat), BLOCK):
                    block_s = math.fsum(lat[block : block + BLOCK])
                    if (block // BLOCK) % 2 == parity:
                        traced_s += block_s
                    else:
                        untraced_s += block_s
            n += 1

        purity_s = self.check_outputs()
        graphs = PASS_GRAPHS * n
        S = rec.summary()

        def get(name: str, key: str) -> float:
            return S.get(name, {}).get(key, 0.0)

        loop_s = get("loop.graph", "total_s")
        actions = self.passes[0].actions
        refreshes = get("weight_opt.refine_weights", "count")
        ingest_s = (
            get("stream_io.next", "self_s")
            + get("model.preprocess", "self_s")
            + get("model.graph_views", "total_s")
        )
        hit = {k: arith.hit_ratio(hits, misses) for k, (_, _, hits, misses) in self.caches.items()}
        us = 1e6 / graphs
        metrics = {
            "stream_io.parse_us_per_graph": (get("stream_io.next", "self_s") * us, "us"),
            "model.preprocess_us_per_graph": (get("model.preprocess", "self_s") * us, "us"),
            "model.graph_views_us_per_graph": (get("model.graph_views", "total_s") * us, "us"),
            "loop.ingest_share": (arith.share(ingest_s, loop_s), "ratio"),
            "sketch.digest_cache_hit_ratio": (hit.get("_digest64", 0.0), "ratio"),
            "sketch.index_cache_hit_ratio": (hit.get("_index_matrix", 0.0), "ratio"),
            "sketch.estimate_calls": (get("sketch.estimate_many", "count") / n, "count"),
            "sketch.estimate_s": (get("sketch.estimate_many", "total_s") / n, "s"),
            "distance.calls": (get("distance.component_distances_sq", "count") / n, "count"),
            "distance.self_s": (get("distance.component_distances_sq", "self_s") / n, "s"),
            "distance.share": (
                arith.share(get("distance.component_distances_sq", "total_s"), loop_s),
                "ratio",
            ),
            "stats.absorb_calls": (get("stats.absorb_views", "count") / n, "count"),
            "stats.absorb_s": (get("stats.absorb_views", "total_s") / n, "s"),
            "sketch.update_s": (get("sketch.update_many", "total_s") / n, "s"),
            "engine.initialized": (actions["initialized"], "count"),
            "engine.assigned": (actions["assigned"], "count"),
            "engine.replaced_stale": (actions["replaced_stale"], "count"),
            "engine.replaced_share": (actions["replaced_stale"] / PASS_GRAPHS, "ratio"),
            "weight_opt.refreshes": (refreshes / n, "count"),
            "weight_opt.refresh_s": (get("weight_opt.refine_weights", "total_s") / n, "s"),
            "weight_opt.refresh_max_ms": (get("weight_opt.refine_weights", "max_s") * 1e3, "ms"),
            "weight_opt.step_accept_ratio": (
                arith.step_accept_ratio(accepted[0], int(refreshes), self.config.barrier.max_steps),
                "ratio",
            ),
            "weight_opt.share": (
                arith.share(get("weight_opt.refine_weights", "total_s"), loop_s),
                "ratio",
            ),
            "engine.checkpoint_s": (get("engine.checkpoint", "total_s") / n, "s"),
            "engine.resume_s": (get("engine.resume", "total_s") / n, "s"),
            "engine.process_self_s": (get("engine.process", "self_s") / n, "s"),
            "engine.emit_us_per_graph": (get("engine.emit", "total_s") * us, "us"),
            "evaluate.purity_s": (purity_s, "s"),
            "cli.cluster_s": (self.report["cli_cluster_s"], "s"),
            "trace.overhead_ratio": (arith.overhead_ratio(traced_s, untraced_s), "ratio"),
        }
        spans_path = self.prefix + "-spans.csv"
        rec.write_csv(spans_path)
        self.report.update(
            traced_pass_pairs=n,
            spans=len(rec.start),
            spans_file=os.path.relpath(spans_path, ROOT),
            absent_boundaries=rec.absent,
            span_summary=S,
        )
        attempted = sum(p.graphs for p in self.passes)
        failed = sum(p.failed for p in self.passes)
        return self.result(attempted, failed, metrics)

    def trace_blocks(self, rec, on: bool) -> None:
        """Switch tracing on or off, counting cache use while it is on."""
        if on == rec.active:
            return
        for entry in self.caches.values():
            info = entry[0].cache_info()
            if on:
                entry[1] = info
            else:
                entry[2] += info.hits - entry[1].hits
                entry[3] += info.misses - entry[1].misses
        if on:
            rec.patch()
        else:
            rec.unpatch()

    # -- output checks (outside every timed region) ---------------------------

    def check_outputs(self) -> float:
        """Check the first pass's events; returns the seconds purity scoring took."""
        from sketchclust import AssignmentEvent, purity_from_events
        from workloads import measure_properties

        ref = self.passes[0]
        props, labels = measure_properties(self.w, self.stream, ref.actions)
        self.report["workload"] = props
        events = []
        finite = True
        with open(ref.events_path, encoding="utf-8") as fh:
            for line in fh:
                try:
                    obj = json.loads(line, parse_constant=_reject_constant)
                except ValueError:
                    finite = False
                    continue
                events.append(AssignmentEvent.from_dict(obj))
        t0 = perf_counter()
        report, series = purity_from_events(events, labels, every=PURITY_EVERY)
        purity_s = perf_counter() - t0
        series_mean = statistics.fmean(v for _, v in series)
        self.report["avg_purity"] = report.average_purity
        self.report["avg_purity_series_mean"] = series_mean
        self.check("events_finite", finite)
        self.check(
            "one_event_per_graph",
            all(p.failed == 0 and p.graphs == PASS_GRAPHS for p in self.passes)
            and len(events) == props["graphs_per_pass"] == PASS_GRAPHS,
        )
        self.check("purity_floor", series_mean >= PURITY_FLOOR)
        self.check("cli_identical", self.cli_events() == _head(ref.events_path, CLI_GRAPHS))
        return purity_s

    def cli_events(self) -> bytes | None:
        """Events of ``sketchclust cluster`` on the stream's first CLI_GRAPHS
        records, with the same config; a checkpointing workload thereby shows
        that resuming replays an uninterrupted run."""
        cli_input = self.prefix + "-cli-input.jsonl"
        with open(cli_input, "wb") as fh:
            fh.write(_head(self.stream, CLI_GRAPHS + 1))  # header + records
        out_dir = self.prefix + "-cli"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
        argv = [sys.executable, "-m", "sketchclust.cli", "cluster", "--input", cli_input,
                *self.w.cli_args(self.seed), "--out-dir", out_dir]
        t0 = perf_counter()
        done = subprocess.run(argv, capture_output=True, text=True, timeout=120, cwd=ROOT, env=env)
        self.report["cli_cluster_s"] = perf_counter() - t0
        if done.returncode != 0:
            self.report["cli_stderr"] = done.stderr[-2000:]
            return None
        with open(os.path.join(out_dir, "events.jsonl"), "rb") as fh:
            return fh.read()

    def result(self, attempted: int, failed: int, metrics: dict) -> dict:
        self.report["checks"] = self.checks
        return {
            "correct": bool(self.checks) and all(self.checks.values()) and failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }


def _reject_constant(name: str):
    raise ValueError(f"non-finite number {name} in events")


def _sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _head(path: str, lines: int) -> bytes:
    with open(path, "rb") as fh:
        return b"".join(islice(fh, lines))


def provenance(workload: str, seed: int, seconds: float) -> dict:
    import numpy
    import scipy

    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "loadavg_start": os.getloadavg(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
    }


def _git_commit() -> str | None:
    """HEAD of the checkout when it is a git work tree, else None."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest() -> str:
    """Digest of the library sources, which identifies code without git."""
    h = hashlib.sha256()
    for path in sorted((SRC / "sketchclust").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


if __name__ == "__main__":
    sys.exit(main())
