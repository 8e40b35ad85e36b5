"""Build and load ``_kernel.c``, the compiled mirror of ``simulate._advance``.

The library is compiled on first use with ``cc`` into a per-user cache
directory (``$XDG_CACHE_HOME/recipnet``, default ``~/.cache/recipnet``,
mode 0700) under a name keyed by the sha256 of the source, the flags and
the platform, so a changed source or host never loads a stale build. It
is built under a temporary name and moved into place, so concurrent
first uses cannot load a half-written file. ``load`` returns None when
anything fails (no compiler, a build error, a cache directory that is
not private to this user, a load error) and keeps the reason in
``error``; the caller then runs the Python loop, which draws the same
graph. Nothing here runs at import time.
"""

from __future__ import annotations

import os

CC = "cc"
FLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off")

error: str | None = None     # why the compiled kernel is unavailable, once tried
_tried = False
_fn = None


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


def library_name(code: bytes) -> str:
    import platform
    import sys

    key = _sha256()(code)
    for part in (CC, *FLAGS, sys.platform, platform.machine()):
        key.update(b"\0" + part.encode())
    return f"rn_kernel-{key.hexdigest()[:24]}.so"


def _build() -> str:
    """Path of the compiled library, building it if the cache lacks it."""
    src = source()
    directory = cache_dir()
    os.makedirs(directory, mode=0o700, exist_ok=True)
    st = os.stat(directory)
    if st.st_uid != os.getuid() or st.st_mode & 0o077:
        raise OSError(f"cache directory {directory} is not private to this user "
                      f"(owner uid {st.st_uid}, mode {st.st_mode & 0o777:o})")
    path = os.path.join(directory, library_name(src.read_bytes()))
    if os.path.exists(path):
        return path

    import subprocess
    import tempfile
    from importlib import resources

    fd, tmp = tempfile.mkstemp(suffix=".so", dir=directory)
    os.close(fd)
    try:
        with resources.as_file(src) as src_path:
            done = subprocess.run([CC, *FLAGS, "-o", tmp, str(src_path)],
                                  capture_output=True, text=True)
        if done.returncode != 0:
            raise OSError(f"{CC} exited {done.returncode}: {done.stderr.strip()[-500:]}")
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return path


def load():
    """``rn_advance`` as a ctypes function, or None with the reason in ``error``."""
    global error, _tried, _fn
    if _tried:
        return _fn
    _tried = True
    try:
        import ctypes

        fn = ctypes.CDLL(_build()).rn_advance
        p, i32, i64, f64 = ctypes.c_void_p, ctypes.c_int32, ctypes.c_int64, ctypes.c_double
        fn.argtypes = [p, i64, f64, f64, p, p, i32, p, p, p, p, p, i32, p, p, p, p]
        fn.restype = None
        _fn = fn
    except (OSError, AttributeError) as exc:   # the Python loop runs instead
        error = f"{type(exc).__name__}: {exc}"
    return _fn

