"""The C kernel, `loop.c`, built by the system `cc` at import, and its
five entry points in one library: the 1 kHz controller-cable loop
(`loop`, which `controller.Controller.run` calls once a stretch), the gait
event detector (`detect`, which `profile.EstimationPath` calls once an
event), the per-stride report (`report`, which `metrics._StrideReport`
calls once a stride), and the world's gait curves: `world`, the kinematic
rows and the biological torque of a block, which `plant.GaitWorld` calls
once a block, and `stance`, the stance curves at stance fractions, which
`plant.build_template` calls once a template. `STATE`, `DECISIONS` and
`SLOTS` are the layout of the loop's float64 vector s, as `loop.c` exports
it: where the loop state starts, where the decisions start, and its
length. `DETECTOR_STATE` and `DETECTOR_SLOTS` are the same for the
detector's vector d: where its state starts after the DetectorConfig
fields, and its length. `REPORT_STRIDE`, `REPORT_STATE`, `REPORT_OUT` and
`REPORT_SLOTS` are the same for the report's vector v: where the stride's
inputs, the comparator's state and the report start, and its length;
`GRID_POINTS` is the points of the report's grids. `TEMPLATE_SLOTS` names
the slots of the curves' template vector, in their order.
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
# detect(d, start, limit, cols, stride): see shankexo_detect in loop.c.
detect = _lib.shankexo_detect
detect.argtypes = (_ptr, _size, _size, _ptr, _size)
detect.restype = _size
# report(n, log, v, curves): see shankexo_report in loop.c.
report = _lib.shankexo_report
report.argtypes = (_size, _ptr, _ptr, _ptr)
report.restype = None
STATE, DECISIONS, SLOTS = (_size * 3).in_dll(_lib, "shankexo_layout")
DETECTOR_STATE, DETECTOR_SLOTS = (_size * 2).in_dll(
    _lib, "shankexo_detector_layout")
REPORT_STRIDE, REPORT_STATE, REPORT_OUT, REPORT_SLOTS, GRID_POINTS = (
    _size * 5).in_dll(_lib, "shankexo_report_layout")
# world(t, start, n, phase, scale, cols, stride, bio): see shankexo_world.
world = _lib.shankexo_world
world.argtypes = (_ptr, _size, _size, _ptr, _ptr, _ptr, _size, _ptr)
world.restype = None
# stance(t, n, u, out): see shankexo_stance.
stance = _lib.shankexo_stance
stance.argtypes = (_ptr, _size, _ptr, _ptr)
stance.restype = None
TEMPLATE_SLOTS = tuple(ctypes.string_at(ctypes.addressof(ctypes.c_char.in_dll(
    _lib, "shankexo_template_slots"))).decode().lower().split())
