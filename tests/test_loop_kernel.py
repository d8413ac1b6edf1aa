"""The loop kernel's build: `controller` compiles `loop.c` with the system
`cc` at import into `__pycache__` beside it, or, where that cannot be
written or its library cannot be loaded, into a temporary directory of its
own.

Each test copies the package without its `__pycache__` and imports the copy
in a fresh interpreter, so the build it checks really runs.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import shankexo

PACKAGE = Path(shankexo.__file__).parent
# A stretch of three pretighten ticks, whose commands are pretighten_rate.
PROBE = """\
import numpy as np
from shankexo.controller import Controller, ControllerConfig
from shankexo.plant import Cable, PlantState
from shankexo.tendon import TendonModel
rows = []
Controller(ControllerConfig(), TendonModel(50.0, 12.5, 300.0)).run(
    np.zeros((6, 3)), Cable(PlantState(0.0), 0.001, 0.0, 250.0, 0.0, 0.0),
    (0.0,) * 4, rows.append)
print(rows[0][:, 5].tolist())
"""
COMMANDS = "[30.0, 30.0, 30.0]\n"


@pytest.fixture
def copy(tmp_path) -> Path:
    """A copy of the package, without any library built, on a path of its
    own: tmp_path/shankexo."""
    shutil.copytree(PACKAGE, tmp_path / "shankexo",
                    ignore=shutil.ignore_patterns("__pycache__"))
    return tmp_path / "shankexo"


def python(copy: Path, *args: str, path: str = os.environ["PATH"],
           **env) -> subprocess.Popen:
    """A fresh interpreter that imports shankexo from copy."""
    return subprocess.Popen(
        [sys.executable, *args], cwd=copy.parent, text=True,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": str(copy.parent), "PATH": path,
             **env})


def finish(proc: subprocess.Popen) -> tuple[int, str, str]:
    out, err = proc.communicate(timeout=120)
    return proc.returncode, out, err


def libraries(copy: Path) -> list[str]:
    return sorted(p.name for p in (copy / "__pycache__").glob("loop*"))


def test_an_edited_source_builds_and_loads_a_new_library(copy):
    assert finish(python(copy, "-c", PROBE)) == (0, COMMANDS, "")
    first = libraries(copy)
    assert len(first) == 1
    # The edit turns each logged command's sign, so the rows show which
    # library the next process runs.
    source = copy / "loop.c"
    text = source.read_text()
    assert text.count("row[5] = v;") == 1
    source.write_text(text.replace("row[5] = v;", "row[5] = -v;"))
    assert finish(python(copy, "-c", PROBE)) == (
        0, "[-30.0, -30.0, -30.0]\n", "")
    assert len(libraries(copy)) == 2 and first[0] in libraries(copy)


def test_an_unwritable_cache_builds_in_a_temporary_directory(copy, tmp_path):
    # A file where the directory would go: mkdir fails, as a read-only
    # directory does for a user who is not root.
    (copy / "__pycache__").write_text("")
    tmp = tmp_path / "tmp"
    tmp.mkdir()
    assert finish(python(copy, "-c", PROBE, TMPDIR=str(tmp))) == (
        0, COMMANDS, "")
    assert (copy / "__pycache__").read_text() == ""
    assert list(tmp.iterdir()) == []       # removed once loaded


def test_a_library_that_cannot_be_loaded_is_built_in_a_temporary_directory(
        copy, tmp_path):
    assert finish(python(copy, "-c", PROBE)) == (0, COMMANDS, "")
    (lib,) = libraries(copy)
    (copy / "__pycache__" / lib).write_text("not a library")
    tmp = tmp_path / "tmp"
    tmp.mkdir()
    assert finish(python(copy, "-c", PROBE, TMPDIR=str(tmp))) == (
        0, COMMANDS, "")
    assert list(tmp.iterdir()) == []


def test_two_processes_building_at_once_each_load_a_whole_library(copy,
                                                                  tmp_path):
    # A `cc` that waits a second before it compiles, and logs each call:
    # the second process starts its build before the first one's is done.
    bin_dir, calls = tmp_path / "bin", tmp_path / "calls"
    bin_dir.mkdir()
    (bin_dir / "cc").write_text(
        f"#!/bin/sh\necho cc >> {calls}\nsleep 1\n"
        f"exec {shutil.which('cc')} \"$@\"\n")
    (bin_dir / "cc").chmod(0o755)
    path = f"{bin_dir}{os.pathsep}{os.environ['PATH']}"
    procs = [python(copy, "-c", PROBE, path=path) for _ in range(2)]
    assert [finish(p) for p in procs] == [(0, COMMANDS, "")] * 2
    assert calls.read_text() == "cc\ncc\n"
    # One library, and no temporary file or directory left beside it.
    left = [name for name in os.listdir(copy / "__pycache__")
            if not name.endswith(".pyc")]
    assert len(left) == 1 and left == libraries(copy)


def test_a_missing_cc_is_one_import_error_and_one_cli_line(copy, tmp_path):
    empty = tmp_path / "empty"
    empty.mkdir()
    code, _, err = finish(python(copy, "-c", "import shankexo.controller",
                                 path=str(empty)))
    last = err.splitlines()[-1]
    assert code == 1 and last.startswith("ImportError: ") and "`cc`" in last
    assert err.count("Traceback") == 1     # no chained exception
    code, out, err = finish(python(copy, "-m", "shankexo.cli", "run",
                                   "--strides", "8", path=str(empty)))
    assert (code, out, err.count("\n")) == (2, "", 1)
    assert err.startswith("shankexo: error: ") and "`cc`" in err
    assert libraries(copy) == []
