"""How `market_rewire._native` builds, caches and loads the compiled library.

Each test imports a copy of the package from `tmp_path` in fresh
interpreters, with the user's cache directory under `tmp_path` too, so it
starts with no cached library.
"""

import os
import re
import shutil
import subprocess
import sys
from datetime import date
from pathlib import Path

import numpy as np
import pytest

import market_rewire
from market_rewire import StandardizedWindow, distance_matrix, dtw

pytestmark = pytest.mark.skipif(dtw.KERNEL != "c", reason="the compiled DTW kernel did not build or load here")

# the modules the import loaded, and a day's matrix and its kernel, printed by
# a fresh interpreter
PROBE = """
import sys
import market_rewire.cli
loaded = " ".join(m for m in ("hashlib", "subprocess", "concurrent.futures", "logging") if m in sys.modules)
from datetime import date
import numpy as np
from market_rewire import StandardizedWindow, distance_matrix, dtw
arrays = np.random.default_rng(7).normal(size=(40, 20))
dm = distance_matrix([StandardizedWindow(f"a{i}", date(2020, 1, 2), v) for i, v in enumerate(arrays)])
print(dtw.__file__)
print(dtw.KERNEL)
print(dm.d.tobytes().hex())
print(loaded)
"""


def _expected_hex() -> str:
    arrays = np.random.default_rng(7).normal(size=(40, 20))
    dm = distance_matrix([StandardizedWindow(f"a{i}", date(2020, 1, 2), v) for i, v in enumerate(arrays)])
    return dm.d.tobytes().hex()


@pytest.fixture
def package_copy(tmp_path):
    """A copy of the package's source with no cached library, and the
    environment that imports it, whose user cache directory is empty."""
    src = tmp_path / "src"
    shutil.copytree(Path(market_rewire.__file__).parent, src / "market_rewire",
                    ignore=shutil.ignore_patterns("__pycache__"))
    return src, dict(os.environ, PYTHONPATH=str(src), XDG_CACHE_HOME=str(tmp_path / "cache"))


def _start(env):
    return subprocess.Popen([sys.executable, "-c", PROBE], env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)


def _finish(proc, src):
    out, err = proc.communicate(timeout=300)
    assert proc.returncode == 0, err
    path, kernel, matrix, modules = out.split("\n")[:4]
    assert Path(path).is_relative_to(src)
    return kernel, matrix, modules.split()


def _probe(src, env):
    return _finish(_start(env), src)


def _libraries(src):
    return sorted((src / "market_rewire" / "__pycache__").glob("_native.*.so"))


def test_without_a_compiler_the_numpy_wavefront_gives_the_same_bytes(package_copy, tmp_path):
    src, env = package_copy
    (tmp_path / "bin").mkdir()
    kernel, matrix, _ = _probe(src, dict(env, PATH=str(tmp_path / "bin")))
    assert kernel == "numpy"
    assert matrix == _expected_hex()
    assert _libraries(src) == [] and not (tmp_path / "cache").exists()


def test_a_package_directory_that_cannot_be_written_builds_into_the_user_cache(package_copy, tmp_path):
    src, env = package_copy
    (src / "market_rewire" / "__pycache__").write_bytes(b"")  # a plain file: nothing can be made under it
    for _ in range(2):  # a build, then a load of what it left
        kernel, matrix, modules = _probe(src, env)
        assert kernel == "c" and matrix == _expected_hex()
    assert modules == []
    # one library, CRC-keyed as in the package's own cache, and no temporary file
    (lib,) = (tmp_path / "cache" / "market-rewire").iterdir()
    assert re.fullmatch(r"_native\.[0-9a-f]{8}\.so", lib.name)


def test_two_interpreters_building_at_once_both_load_the_kernel(package_copy):
    src, env = package_copy
    procs = [_start(env), _start(env)]
    results = [_finish(p, src) for p in procs]
    assert [kernel for kernel, _, _ in results] == ["c", "c"]
    assert [matrix for _, matrix, _ in results] == [_expected_hex()] * 2
    assert len(_libraries(src)) == 1
    assert not list((src / "market_rewire" / "__pycache__").glob("*.tmp"))


@pytest.mark.parametrize("keep", [0.5, 0.95])
def test_a_truncated_library_is_rebuilt(package_copy, keep):
    src, env = package_copy
    assert _probe(src, env)[0] == "c"
    (lib,) = _libraries(src)
    size = lib.stat().st_size
    os.truncate(lib, int(size * keep))
    kernel, matrix, _ = _probe(src, env)
    assert kernel == "c" and matrix == _expected_hex()
    assert lib.stat().st_size == size


def test_a_warm_cache_imports_neither_hashlib_nor_subprocess(package_copy):
    """Nor the thread pool's `concurrent.futures` and `logging`, which only
    a pooled run needs."""
    src, env = package_copy
    _probe(src, env)
    kernel, _, modules = _probe(src, env)
    assert kernel == "c"
    assert modules == []
