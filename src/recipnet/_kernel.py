"""Build and load ``_kernel.c``: ``rn_advance``, the compiled mirror of
``simulate._advance``; ``rn_format_int_rows``, the compiled mirror of
``io._write_chunks`` for integer tables; and ``rn_mbi_batch`` and
``rn_mbi_chunk``, the compiled mirrors of ``branching.simulate_mbi_batch``
and of ``branching._sample_chunk`` + ``_tally_chunk``.

The MBI entry points draw from the caller's numpy Generator, so they are
linked against numpy's own ``libnpyrandom.a`` (with its ``bitgen.h``);
``--exclude-libs`` keeps numpy's symbols out of the library's exports.

The library is compiled on first use with ``cc`` into a per-user cache
directory (``$XDG_CACHE_HOME/recipnet``, default ``~/.cache/recipnet``,
mode 0700) under a name keyed by the sha256 of the source, the flags, the
platform and numpy's two files, so a changed source, host or numpy never
loads a stale build. It is built under a temporary name and moved into
place, so concurrent first uses cannot load a half-written file. When
numpy's files are missing or the build against them fails, the library
is built without the MBI entry points, ``error`` says why, and ``mbi``
returns None. ``load`` returns None when anything else fails (no
compiler, a build error, a cache directory that is not private to this
user, a load error) and keeps the reason in ``error``; the caller then
runs its Python code, which draws the same graph and the same limit-law
counts and writes the same bytes. Nothing here runs at import time.
"""

from __future__ import annotations

import os

CC = "cc"
FLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off")
HEADER = ("numpy", "random", "bitgen.h")          # under numpy.get_include()
ARCHIVE = ("random", "lib", "libnpyrandom.a")     # under numpy's package directory
LINK = ("-Wl,--exclude-libs,ALL", "-lm")
NO_MBI = ("-DRN_NO_MBI",)

error: str | None = None     # why the kernel, or its MBI part, is unavailable, once tried
_tried = False
_lib = None


def source():
    """The kernel source shipped as package data."""
    from importlib import resources

    return resources.files("recipnet") / "_kernel.c"


def cache_dir() -> str:
    base = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(base):
        base = os.path.join(os.path.expanduser("~"), ".cache")
    return os.path.join(base, "recipnet")


def _sha256():
    # the builtin sha256 loads in about 1 ms; hashlib first loads OpenSSL,
    # which costs about 5 ms and 3.6 MB of resident memory per process
    try:
        from _sha2 import sha256        # Python 3.12+
    except ImportError:
        try:
            from _sha256 import sha256  # Python 3.10-3.11
        except ImportError:
            from hashlib import sha256
    return sha256


class CompileError(OSError):
    """numpy's random files are missing, or the compiler failed."""


def _link(mbi: bool):
    """Compiler arguments after the source, and the files they read."""
    if not mbi:
        return NO_MBI, ()
    import numpy

    include = numpy.get_include()
    header = os.path.join(include, *HEADER)
    archive = os.path.join(os.path.dirname(numpy.__file__), *ARCHIVE)
    for path in (header, archive):
        if not os.path.isfile(path):
            raise CompileError(f"numpy's {os.path.basename(path)} is missing ({path})")
    return ("-I" + include, archive, *LINK), (header, archive)


def library_name(code: bytes, mbi: bool = True) -> str:
    import platform
    import sys

    sha256 = _sha256()
    args, inputs = _link(mbi)
    key = sha256(code)
    for part in (CC, *FLAGS, *args, sys.platform, platform.machine()):
        key.update(b"\0" + part.encode())
    for path in inputs:
        with open(path, "rb") as fh:
            key.update(b"\0" + sha256(fh.read()).digest())
    return f"rn_kernel-{key.hexdigest()[:24]}.so"


def _build(mbi: bool) -> str:
    """Path of the compiled library, building it if the cache lacks it."""
    src = source()
    directory = cache_dir()
    os.makedirs(directory, mode=0o700, exist_ok=True)
    st = os.stat(directory)
    if st.st_uid != os.getuid() or st.st_mode & 0o077:
        raise OSError(f"cache directory {directory} is not private to this user "
                      f"(owner uid {st.st_uid}, mode {st.st_mode & 0o777:o})")
    path = os.path.join(directory, library_name(src.read_bytes(), mbi))
    if os.path.exists(path):
        return path

    import subprocess
    import tempfile
    from importlib import resources

    fd, tmp = tempfile.mkstemp(suffix=".so", dir=directory)
    os.close(fd)
    try:
        with resources.as_file(src) as src_path:
            done = subprocess.run([CC, *FLAGS, "-o", tmp, str(src_path), *_link(mbi)[0]],
                                  capture_output=True, text=True)
        if done.returncode != 0:
            raise CompileError(f"{CC} exited {done.returncode}: {done.stderr.strip()[-500:]}")
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return path


def load():
    """The ctypes library with its entry points typed, or None with the
    reason in ``error``."""
    global error, _tried, _lib
    if _tried:
        return _lib
    _tried = True
    try:
        import ctypes

        try:
            lib, full = ctypes.CDLL(_build(mbi=True)), True
        except CompileError as exc:   # the MBI engine runs as numpy code instead
            error, full = f"no MBI engine: {exc}", False
            lib = ctypes.CDLL(_build(mbi=False))
        p, i32, i64, f64 = ctypes.c_void_p, ctypes.c_int32, ctypes.c_int64, ctypes.c_double
        lib.rn_advance.argtypes = [p, i64, f64, f64, p, p, i32, p, p, p, p, p, i32, p, p, p, p]
        lib.rn_advance.restype = None
        lib.rn_format_int_rows.argtypes = [p, i64, i32, p]
        lib.rn_format_int_rows.restype = i64
        if full:
            lib.rn_mbi_batch.argtypes = [p, i64, p, p, p, p, f64, f64, f64, f64, p, p, p, p, p]
            lib.rn_mbi_chunk.argtypes = [p, i64, p, i32, p, f64, p, p, f64, f64, f64, f64,
                                         i64, i64, p, p]
            lib.rn_mbi_batch.restype = lib.rn_mbi_chunk.restype = None
        _lib = lib
    except (OSError, AttributeError) as exc:   # the Python code runs instead
        error = f"{type(exc).__name__}: {exc}"
    return _lib


def mbi():
    """``load()``'s library when it has the MBI entry points, else None."""
    lib = load()
    return lib if hasattr(lib, "rn_mbi_chunk") else None
