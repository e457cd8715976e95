"""Single-pass clustering of graph streams with typed side attributes.

Cluster summaries are constant-size bundles of count-min sketches plus a
few exact scalars; graph-to-cluster, intra-cluster and inter-cluster
distances are estimated from sketch inner products, and the per-component
distance weights are re-tuned online with a log-barrier optimizer. An
exact map-based backend mirrors the sketch backend for differential
testing, a seeded generator produces labeled synthetic streams, and the
``sketchclust`` CLI ties it together.
"""

__version__ = "0.1.0"

from .engine import (
    ACTION_ASSIGNED,
    ACTION_INITIALIZED,
    ACTION_REPLACED,
    AssignmentEvent,
    Engine,
    EngineConfig,
)
from .evaluate import (
    PurityReport,
    assignment_agreement,
    overall_rate,
    purity_from_events,
    throughput,
)
from .model import (
    GraphObject,
    GraphView,
    SideType,
    StreamSchema,
    graph_views,
    preprocess,
)
from .sketch import SketchConfig
from .stream_io import (
    StreamFormatError,
    iter_stream,
    read_header,
    write_stream,
)
from .synth import SynthConfig, generate_stream, synth_schema
from .weight_opt import BarrierConfig, ClusterGeometry, ensure_weights, refine_weights

__all__ = [
    "ACTION_ASSIGNED",
    "ACTION_INITIALIZED",
    "ACTION_REPLACED",
    "AssignmentEvent",
    "BarrierConfig",
    "ClusterGeometry",
    "Engine",
    "EngineConfig",
    "GraphObject",
    "GraphView",
    "PurityReport",
    "SideType",
    "SketchConfig",
    "StreamFormatError",
    "StreamSchema",
    "SynthConfig",
    "assignment_agreement",
    "ensure_weights",
    "generate_stream",
    "graph_views",
    "iter_stream",
    "overall_rate",
    "preprocess",
    "purity_from_events",
    "read_header",
    "refine_weights",
    "synth_schema",
    "throughput",
    "write_stream",
]
