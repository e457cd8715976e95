"""Host speed, measured with a fixed reference loop.

On a shared VM the same Python work runs up to 1.9x slower for spells of
one second to a minute or more, with no steal time recorded. A run sees a
random mix of those spells, so raw wall times moved 30-50% between runs.
The benchmark therefore samples this loop between blocks of graphs and
scales each timing by ``REFERENCE_S / loop time``, which is the time the
work would take on a host where the loop takes ``REFERENCE_S``.

The loop mixes the kinds of work the library does per graph: dict and
string operations, JSON, and small numpy gathers and dot products. It does
not call the library, so its time follows the host and not the code under
test.
"""

from __future__ import annotations

import json
from time import perf_counter

import numpy as np

# The loop's time on a 2-vCPU x86_64 VM (Python 3.11, numpy 2.4) in its
# fast spells; scaled timings are close to raw ones there.
REFERENCE_S = 2.0e-3

_VALUES = np.arange(5000, dtype=np.float64)
_INDEX = np.arange(0, 5000, 7)


def reference_seconds() -> float:
    """Wall time of one run of the reference loop (about 2-4 ms)."""
    t0 = perf_counter()
    counts: dict[str, int] = {}
    for i in range(4000):
        key = f"k{i % 701}"
        counts[key] = counts.get(key, 0) + i
    json.loads(json.dumps(counts, sort_keys=True))
    for _ in range(100):
        picked = _VALUES[_INDEX]
        float(picked.min())
        float(picked @ picked)
    return perf_counter() - t0
