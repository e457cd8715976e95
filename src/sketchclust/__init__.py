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

from .distance import (
    component_distance_sq,
    component_distances_sq,
    ensure_weights,
    es_distance_sq,
    inter_distance_sq,
    inter_vector_sq,
    intra_distance_sq,
    intra_vector_sq,
    structural_spread,
)
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
    purity,
    purity_from_events,
    throughput,
)
from .exact import ExactClusterStats
from .model import (
    ComponentView,
    GraphObject,
    SideType,
    StreamSchema,
    aggregate_local_attrs,
    attr_key,
    canonical_graphs,
    canonicalize,
    edge_key,
    expand_categorical,
    graph_views,
    preprocess,
    total_edge_mass,
)
from .sketch import CountMinSketch, SketchConfig, separating_rows
from .stats import ClusterStats
from .stream_io import (
    StreamFormatError,
    iter_stream,
    read_header,
    write_stream,
)
from .synth import SynthConfig, generate_graphs, generate_stream, synth_schema
from .weight_opt import (
    BarrierConfig,
    ClusterGeometry,
    barrier_gradient,
    barrier_objective,
    cluster_geometry,
    refine_on_geometry,
    refine_weights,
)

__all__ = [
    "ACTION_ASSIGNED",
    "ACTION_INITIALIZED",
    "ACTION_REPLACED",
    "AssignmentEvent",
    "BarrierConfig",
    "ClusterGeometry",
    "ClusterStats",
    "ComponentView",
    "CountMinSketch",
    "Engine",
    "EngineConfig",
    "ExactClusterStats",
    "GraphObject",
    "PurityReport",
    "SideType",
    "SketchConfig",
    "StreamFormatError",
    "StreamSchema",
    "SynthConfig",
    "aggregate_local_attrs",
    "assignment_agreement",
    "attr_key",
    "barrier_gradient",
    "barrier_objective",
    "canonical_graphs",
    "canonicalize",
    "cluster_geometry",
    "component_distance_sq",
    "component_distances_sq",
    "edge_key",
    "ensure_weights",
    "es_distance_sq",
    "expand_categorical",
    "generate_graphs",
    "generate_stream",
    "graph_views",
    "inter_distance_sq",
    "inter_vector_sq",
    "intra_distance_sq",
    "intra_vector_sq",
    "iter_stream",
    "overall_rate",
    "preprocess",
    "purity",
    "purity_from_events",
    "read_header",
    "refine_on_geometry",
    "refine_weights",
    "separating_rows",
    "structural_spread",
    "synth_schema",
    "throughput",
    "total_edge_mass",
    "write_stream",
]
