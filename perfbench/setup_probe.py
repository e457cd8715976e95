"""Set-up time in a fresh interpreter: import sketchclust, read the stream
header, build the Engine and process the first graph.

    python3 setup_probe.py SRC_DIR STREAM ENGINE_CONFIG_JSON EVENT_OUT

Prints the elapsed seconds, then the median time of three runs of the
reference loop in ``speed.py`` taken right after, in the same process, so
run.py can scale the first by the host's speed; run.py starts it several
times per run.
"""

import sys
import time

t0 = time.perf_counter()
src, stream, config_json, event_out = sys.argv[1:5]
sys.path.insert(0, src)

import json  # noqa: E402

from sketchclust import Engine, EngineConfig, preprocess  # noqa: E402
from sketchclust.stream_io import iter_stream, read_header  # noqa: E402

schema = read_header(stream)
engine = Engine(EngineConfig.from_dict(json.loads(config_json)), schema)
records = iter_stream(stream)
event = engine.process(preprocess(next(records), schema))
records.close()
with open(event_out, "w", encoding="utf-8") as fh:
    fh.write(event.to_json() + "\n")
elapsed = time.perf_counter() - t0

from speed import reference_seconds  # noqa: E402

print(elapsed, sorted(reference_seconds() for _ in range(3))[1])
