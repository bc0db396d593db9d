"""The one compiled library, `_native.c`: its build, its cache and its load.

`lib` is the library, or None where none could be built or loaded. `dtw`,
`networks`, `export` and `ingest` call its exports, and take their numpy or
Python paths where it is None. An array that the caller did not make for
the call passes through `address` first. No other module imports ctypes.
"""

import ctypes
import os
import platform
import sys
import zlib

import numpy as np

_SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_native.c")
# No -ffast-math, which lets the compiler reorder and contract float operations
# and so break the bitwise contract, and no -march=native, which would tie a
# checkout's library to the CPU that built it; the source's target_clones pick
# AVX-512, AVX2 or baseline code when the library loads. -ffp-contract=off
# keeps the z-scores' squares and sign products out of fused multiply-adds,
# which GCC forms by default where the clones have FMA, and
# -fno-math-errno makes sqrt one instruction, so the library needs no libm.
_CFLAGS = ("-O3", "-ffp-contract=off", "-fno-math-errno", "-shared", "-fPIC")


# the exports of `_native.c`, by name, with their argument and result types
_P, _I, _R = ctypes.c_void_p, ctypes.c_int64, ctypes.c_double
_EXPORTS = {
    "dtw_block": ((_P, _I, _I, _I, _I, _P, _P, _P, _P, _P, _I, _I, _P, _P), ctypes.c_int),
    "dtw_edges": ((_P, _P, _I, _I, _I, _P, _P, _R, _R, _P, _P, _P), ctypes.c_int),
    "write_files": ((_I, ctypes.c_char_p, _P, _P, _P, _P, _I, _P, _P), _I),
    "parse_rows": ((ctypes.c_char_p, _I, _I, _I, _I, _I, _P, _P), _I),
}


def _load_kernel() -> ctypes.CDLL | None:
    """The compiled library, with the types of each of `_EXPORTS` set and
    its pair group size `dtw_group` defined, or None where it cannot be
    built or loaded: all exports or none.

    It is built on first use with the machine's `cc` into the first of
    `_cache_dirs` that can be written, and named by the CRC-32 of the source, the
    flags, the interpreter's cache tag and the machine, so a changed source
    is rebuilt and a current one is reused, as bytecode is.
    """
    try:
        with open(_SOURCE, "rb") as f:
            source = f.read()
    except OSError:
        return None
    key = [" ".join(_CFLAGS), str(sys.implementation.cache_tag), platform.machine()]
    crc = zlib.crc32("\n".join(key).encode(), zlib.crc32(source))
    paths = [os.path.join(folder, f"_native.{crc:08x}.so") for folder in _cache_dirs()]
    path = next((p for p in paths if _complete(p)), None) or _build(paths)
    if path is None:
        return None
    try:
        lib = ctypes.CDLL(path)
        for name, (argtypes, restype) in _EXPORTS.items():
            function = getattr(lib, name)
            function.argtypes, function.restype = argtypes, restype
        ctypes.c_int64.in_dll(lib, "dtw_group")
    except (OSError, AttributeError, ValueError):
        return None
    return lib


def _cache_dirs() -> tuple[str, str]:
    """Where the library is cached: this package's __pycache__, as its
    bytecode is, then the user's cache directory, `$XDG_CACHE_HOME` where it
    is an absolute path, else `~/.cache`, as the XDG base directory rules
    say."""
    user = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(user):
        user = os.path.join(os.path.expanduser("~"), ".cache")
    return os.path.join(os.path.dirname(_SOURCE), "__pycache__"), os.path.join(user, "market-rewire")


def _complete(path: str) -> bool:
    """Whether the file exists and, if it is ELF, is as long as its header
    says: loading a truncated library faults instead of failing. The linker
    puts the section header table last."""
    try:
        with open(path, "rb") as f:
            head, size = f.read(64), os.fstat(f.fileno()).st_size
    except OSError:
        return False
    if len(head) < 64:
        return False
    if head[:4] != b"\x7fELF":
        return True  # another format, as on macOS: nothing to check it against
    order = "little" if head[5] == 1 else "big"
    # e_shoff, e_shentsize and e_shnum of a 64-bit or 32-bit header
    at = (0x28, 8, 0x3A, 0x3C) if head[4] == 2 else (0x20, 4, 0x2E, 0x30)
    shoff = int.from_bytes(head[at[0] : at[0] + at[1]], order)
    entry, count = (int.from_bytes(head[i : i + 2], order) for i in at[2:])
    return shoff + entry * count <= size


def _build(paths: list[str]) -> str | None:
    """Compile `_native.c` into the first of `paths` whose directory takes
    a file, through a temporary file there, so no process ever loads a
    partly written library: that path, or None where the build fails."""
    import subprocess

    for path in paths:
        tmp = f"{path}.{os.getpid()}.tmp"
        try:
            os.makedirs(os.path.dirname(path), exist_ok=True)
            open(tmp, "wb").close()
        except OSError:
            continue  # a directory that cannot be written: the next one
        try:
            subprocess.run(["cc", *_CFLAGS, "-o", tmp, _SOURCE], check=True, capture_output=True, timeout=300)
            os.replace(tmp, path)
            return path
        except (OSError, subprocess.SubprocessError):
            return None
        finally:
            try:
                os.remove(tmp)
            except OSError:
                pass
    return None


def address(a: np.ndarray, dtype: type, shape: tuple[int, ...], user: str, writeable: bool = False) -> int:
    """The address of `a`, which `user` reads, or with `writeable` writes,
    through a raw pointer: ValueError unless `a` is C-contiguous, of `dtype`
    and `shape`, and writeable where it is written."""
    if a.dtype != dtype or a.shape != shape or not a.flags.c_contiguous or writeable and not a.flags.writeable:
        what = f"C-contiguous{' writeable' if writeable else ''} {np.dtype(dtype)} array of shape {shape}"
        raise ValueError(f"{user} takes a {what}, got a {a.dtype} array of shape {a.shape}")
    return a.ctypes.data


lib = _load_kernel()
# pairs per group of the compiled sweep, which lays each group out pair-minor
GROUP = 0 if lib is None else ctypes.c_int64.in_dll(lib, "dtw_group").value
# "c" where the compiled library loaded, for the DTW kernel, the edge
# search and the snapshot writer alike, else "numpy"
KERNEL = "numpy" if lib is None else "c"
