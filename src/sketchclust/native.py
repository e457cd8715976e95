"""The compiled kernel ``_kernel.c``: built once, then loaded from a cache.

The ingest walk (``model.preprocess`` and every ``GraphView``'s
construction, its masses checked, its squares summed and its keys' BLAKE2b
digests made from their labels' UTF-8, with no object per key), the sketch
bank's per-key loops (``ClusterBank``'s cross-product gather and in-order
scatter, each bucketing the digests by the config's multiply-shift),
``stats.Bank``'s closed-form distances and spreads (with the routing's
weighted sums, and the refresh's geometry: its slot pairs walked and
spreads summed) and ``weight_opt``'s whole refresh (its rescale and
barrier descent, every sum in a stated order and its ``log`` the kernel's
own) run in a small C extension that uses only the CPython API and the
buffer protocol, and makes no array. The first import builds it with the
system C compiler (``cc``) against the running interpreter's headers into
``__pycache__/`` next to this file, under a name keyed by the sha256 of
the source, the compile flags and the interpreter's extension suffix;
later imports load that file. A build writes a temporary file and renames
it into place, so concurrent imports never load a partial one, then
deletes the directory's other kernels of the same suffix, built from other
sources or flags. So an import that read the source before it changed can
find its kernel deleted by the build of the new source before it loads it,
and fail: a process whose source changed mid-import may need to import
again. A failed build raises ImportError with the command and the
compiler's output. There is no fallback: the kernel is the only path for
these loops.
"""

from __future__ import annotations

import hashlib
import importlib.machinery
import importlib.util
import os
from pathlib import Path
from types import ModuleType

_SOURCE = Path(__file__).with_name("_kernel.c")
_FLAGS = ("cc", "-O2", "-shared", "-fPIC", "-ffp-contract=off")
_SUFFIX = importlib.machinery.EXTENSION_SUFFIXES[0]


def _build(target: Path) -> None:
    """Compile the source into ``target``; ImportError if the compiler fails."""
    import subprocess
    import sysconfig
    import tempfile

    try:
        target.parent.mkdir(exist_ok=True)
        fd, tmp = tempfile.mkstemp(prefix=target.name + ".", dir=target.parent)
    except OSError as err:
        raise ImportError(f"cannot write the sketch kernel's cache: {err}") from err
    os.close(fd)
    command = [*_FLAGS, "-I", sysconfig.get_paths()["include"], str(_SOURCE), "-o", tmp]
    try:
        done = subprocess.run(command, capture_output=True, text=True)
    except OSError as err:  # no compiler to run
        done = subprocess.CompletedProcess(command, -1, stderr=str(err))
    if done.returncode:
        os.unlink(tmp)
        raise ImportError(
            f"building the sketch kernel failed ({done.returncode}): {' '.join(command)}\n"
            + done.stderr
        )
    os.chmod(tmp, 0o644)  # mkstemp's 0600 would hide the cache from other users
    os.replace(tmp, target)
    for stale in target.parent.glob(f"_kernel.*{_SUFFIX}"):
        if stale != target:
            stale.unlink(missing_ok=True)  # another build may have removed it first


def _load() -> ModuleType:
    """The kernel built from the current source, built first if no cached
    file carries its key."""
    parts = (_SOURCE.read_bytes(), " ".join(_FLAGS).encode(), _SUFFIX.encode())
    key = hashlib.sha256(b"\0".join(parts))
    target = _SOURCE.parent / "__pycache__" / f"_kernel.{key.hexdigest()[:16]}{_SUFFIX}"
    if not target.exists():
        _build(target)
    spec = importlib.util.spec_from_file_location(f"{__package__}._kernel", target)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


kernel = _load()
