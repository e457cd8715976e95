"""The compiled kernel under AddressSanitizer and UndefinedBehaviorSanitizer.

A copy of the package builds its kernel with both sanitizers: the copy's
``native._FLAGS`` are edited, as the package itself takes no option for
it. The bank tests, the ingest walks' tests (``test_model.py`` and
``test_ingest_oracle.py``), the digests at the hash's block edges, and the
kernel's argument checks and fuzz properties then run on that copy in a
subprocess, with the ASan runtime preloaded, since the interpreter was not
built with it. A read or write outside a buffer, a use after free or
undefined behaviour (``-fno-sanitize-recover``) ends that run with an
error; every object is allocated by malloc (``PYTHONMALLOC=malloc``), so a
write past a small one is seen too. Leak detection is off: the interpreter
keeps memory until it exits. The build tests of ``test_native.py`` assert
the package's own flags and are left out. Without a C compiler or the ASan
runtime the test skips.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from test_native import _copy

TESTS = Path(__file__).resolve().parent
FLAGS = '_FLAGS = ("cc", "-O2", '
SANITIZED = (
    '_FLAGS = ("cc", "-O1", "-g", "-fno-omit-frame-pointer", "-fsanitize=address,undefined", '
    '"-fno-sanitize-recover=undefined", '
)


def _asan_runtime() -> str | None:
    if shutil.which("cc") is None:
        return None
    done = subprocess.run(["cc", "-print-file-name=libasan.so"], capture_output=True, text=True)
    path = done.stdout.strip()  # the bare name when the runtime is missing
    return path if os.path.isabs(path) and os.path.exists(path) else None


def test_the_bank_and_kernel_checks_pass_under_sanitizers(tmp_path):
    runtime = _asan_runtime()
    if runtime is None:
        pytest.skip("no C compiler or no ASan runtime")
    copy = _copy(tmp_path)
    native = copy / "native.py"
    source = native.read_text()
    assert source.count(FLAGS) == 1
    native.write_text(source.replace(FLAGS, SANITIZED))
    env = dict(
        os.environ,
        PYTHONPATH=str(tmp_path),
        PYTHONDONTWRITEBYTECODE="1",
        LD_PRELOAD=runtime,
        ASAN_OPTIONS="detect_leaks=0",
        # every object from malloc, where ASan sees its bounds: pymalloc's
        # arenas would hide a write past a small bytes object, such as a view's
        PYTHONMALLOC="malloc",
    )

    def run(*args: str) -> subprocess.CompletedProcess:
        return subprocess.run(
            [sys.executable, *args], cwd=tmp_path, env=env, capture_output=True, text=True
        )

    built = run("-c", "import sketchclust.native as n; print(n.kernel.__file__)")
    assert built.returncode == 0, built.stderr
    kernel = Path(built.stdout.strip())
    assert kernel.parent == copy / "__pycache__"
    assert b"__asan_report" in kernel.read_bytes() and b"__ubsan_handle" in kernel.read_bytes()
    selected = (
        "test_bank or test_model or test_ingest_oracle or rejects or disagrees or fuzz"
        " or own_blake2b or refine"
    )
    files = ("test_bank.py", "test_model.py", "test_ingest_oracle.py", "test_native.py",
             "test_sketch.py", "test_weight_opt.py")
    tests = [str(TESTS / name) for name in files]
    # ``--capture=sys``: a sanitizer's report goes to file descriptor 2 as the
    # run dies, which pytest's default capture would swallow.
    options = ["-q", "--capture=sys", "-p", "no:cacheprovider", "-k", selected]
    done = run("-m", "pytest", *options, *tests)
    assert done.returncode == 0, done.stdout[-4000:] + done.stderr[-4000:]
    assert " passed" in done.stdout
