"""In-memory span recorder for the traced run.

Spans are opened around calls into the library's public functions: the
benchmark loop opens its own (one root span per graph, the ``next()`` on
``iter_stream``, ``preprocess``, event emission, checkpoint and resume),
and ``patch`` swaps in wrappers for the names ``engine`` calls until
``unpatch`` restores them. Each span
stores name, start, end, parent and graph id in flat arrays; ``summary``
turns them into per-name counts, totals, self times and maxima.

A boundary that no longer exists in the library is recorded in ``absent``
and skipped, so a refactor that removes it does not crash the run.
"""

from __future__ import annotations

import importlib
from array import array
from time import perf_counter

from arith import self_times

# (module, dotted attribute, span name): the names the engine calls.
BOUNDARIES = (
    ("sketchclust.engine", "Engine.process", "engine.process"),
    ("sketchclust.engine", "graph_views", "model.graph_views"),
    ("sketchclust.engine", "component_distances_sq", "distance.component_distances_sq"),
    ("sketchclust.engine", "intra_vector_sq", "distance.intra_vector_sq"),
    ("sketchclust.engine", "refine_weights", "weight_opt.refine_weights"),
    ("sketchclust.engine", "ClusterStats.absorb_views", "stats.absorb_views"),
    ("sketchclust.sketch", "CountMinSketch.estimate_many", "sketch.estimate_many"),
    ("sketchclust.sketch", "CountMinSketch.update_many", "sketch.update_many"),
    ("sketchclust.sketch", "CountMinSketch.self_inner_product", "sketch.self_inner_product"),
    ("sketchclust.sketch", "CountMinSketch.inner_product", "sketch.inner_product"),
)


class SpanRecorder:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.graph = array("i")
        self.graph_id = -1
        self.absent: list[str] = []
        self.active = False
        self._stack: list[int] = []
        self._undo: list = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name_id: int) -> int:
        idx = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.graph.append(self.graph_id)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn):
        name_id = self.name_id(name)
        open_, close = self.open, self.close

        def traced(*args, **kwargs):
            idx = open_(name_id)
            try:
                return fn(*args, **kwargs)
            finally:
                close(idx)

        return traced

    def patch(self, boundaries=BOUNDARIES) -> None:
        """Wrap each boundary until ``unpatch``; missing ones go to ``absent``."""
        for module_name, dotted, span_name in boundaries:
            owner, attr = _resolve(module_name, dotted)
            if owner is None:
                if span_name not in self.absent:
                    self.absent.append(span_name)
                continue
            original = vars(owner)[attr]
            setattr(owner, attr, self.wrap(span_name, original))
            self._undo.append((owner, attr, original))
        self.active = True

    def unpatch(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)
        self.active = False

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: count, total seconds, self seconds, max seconds."""
        own_self = self_times(self.start, self.end, self.parent)
        out = {n: {"count": 0, "total_s": 0.0, "self_s": 0.0, "max_s": 0.0} for n in self.names}
        for i, name_id in enumerate(self.name):
            row = out[self.names[name_id]]
            dur = self.end[i] - self.start[i]
            row["count"] += 1
            row["total_s"] += dur
            row["self_s"] += own_self[i]
            row["max_s"] = max(row["max_s"], dur)
        return out

    def write_csv(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span,name,start_s,end_s,parent,graph\n")
            t0 = self.start[0] if self.start else 0.0
            for i in range(len(self.start)):
                fh.write(
                    f"{i},{self.names[self.name[i]]},{self.start[i] - t0:.9f},"
                    f"{self.end[i] - t0:.9f},{self.parent[i]},{self.graph[i]}\n"
                )


def _resolve(module_name: str, dotted: str):
    """The object owning ``dotted``'s last attribute, or (None, None)."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None, None
    *path, attr = dotted.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None, None
    if attr not in vars(owner):
        return None, None
    return owner, attr
