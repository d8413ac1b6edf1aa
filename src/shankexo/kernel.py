"""The C kernel, `loop.c`, built by the system `cc` at import: the 1 kHz
controller-cable loop (`loop`, which `controller.Controller.run` calls once
a stretch) and the per-stride report (`report`, which
`metrics._StrideReport` calls once a stride). One library serves both.
`STATE`, `DECISIONS` and `SLOTS` are the layout of the loop's float64
vector s, as `loop.c` exports it: where the loop state starts, where the
decisions start, and its length. `REPORT_STRIDE`, `REPORT_STATE`,
`REPORT_OUT` and `REPORT_SLOTS` are the same for the report's vector v:
where the stride's inputs, the comparator's state and the report start,
and its length; `GRID_POINTS` is the points of the report's grids.
"""

import ctypes
import hashlib
import os
import sysconfig
import tempfile
from pathlib import Path

# The kernel's flags: no option that lets the compiler reorder, contract or
# approximate a double operation (such as -ffast-math) may join them.
# -fno-builtin-pow keeps gcc from folding the report's pow(d, 2.0) into
# d * d, which differs from C pow (and from np.float_power) in the last bit.
_CFLAGS = ("-O2", "-ffp-contract=off", "-fno-builtin-pow", "-shared", "-fPIC")


def _compile(source: Path, out_dir: str) -> str:
    """The shared library built from source by the system `cc` in
    out_dir. ImportError, on one line, when `cc` cannot run or fails."""
    import subprocess               # only a build pays for the import
    out = os.path.join(out_dir, "loop.so")
    try:
        done = subprocess.run(["cc", *_CFLAGS, "-o", out, str(source)],
                              capture_output=True, text=True)
    except OSError as exc:
        raise ImportError(f"shankexo needs the C compiler `cc` to build "
                          f"{source}: {exc.strerror}") from None
    if done.returncode:
        raise ImportError(f"`cc` failed to build {source}: "
                          f"{' '.join(done.stderr.split())}")
    return out


def _load() -> ctypes.CDLL:
    """loop.c built by the system `cc` into a shared library named by the
    SHA-256 of its source, the flags and the platform, so no edit of any of
    them loads a stale library. The library is kept in `__pycache__` beside
    the source, built in a private directory there and renamed into place,
    so a process loads only a whole library, whichever of several building
    at once renames last. Where `__pycache__` cannot be written, or its
    library cannot be loaded, the process builds its own in a temporary
    directory, removed once the library is loaded."""
    source = Path(__file__).with_name("loop.c")
    key = b"\0".join((source.read_bytes(), " ".join(_CFLAGS).encode(),
                      sysconfig.get_platform().encode()))
    lib = (source.parent / "__pycache__"
           / f"loop-{hashlib.sha256(key).hexdigest()}.so")
    try:
        if not lib.exists():
            lib.parent.mkdir(exist_ok=True)
            with tempfile.TemporaryDirectory(dir=lib.parent) as tmp:
                os.replace(_compile(source, tmp), lib)
        return ctypes.CDLL(str(lib))
    except OSError:
        with tempfile.TemporaryDirectory() as tmp:
            return ctypes.CDLL(_compile(source, tmp))


_lib = _load()
_size, _ptr = ctypes.c_ssize_t, ctypes.c_void_p
# loop(n, cols, stride, rows, s): see shankexo_loop in loop.c.
loop = _lib.shankexo_loop
loop.argtypes = (_size, _ptr, _size, _ptr, _ptr)
loop.restype = None
# report(n, log, v, curves): see shankexo_report in loop.c.
report = _lib.shankexo_report
report.argtypes = (_size, _ptr, _ptr, _ptr)
report.restype = None
STATE, DECISIONS, SLOTS = (_size * 3).in_dll(_lib, "shankexo_layout")
REPORT_STRIDE, REPORT_STATE, REPORT_OUT, REPORT_SLOTS, GRID_POINTS = (
    _size * 5).in_dll(_lib, "shankexo_report_layout")
