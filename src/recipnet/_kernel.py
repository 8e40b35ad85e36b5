"""Build and load ``_kernel.c``: ``rn_advance``, the compiled mirror of
``simulate._advance``; ``rn_format_int_rows``, the compiled mirror of
``io._write_chunks`` for integer tables, and ``rn_parse_int_rows``, of
``io.read_table``'s ``loadtxt`` rule through ``io._int_blocks``, which
read and fill the columns where they lie;
``rn_mbi_batch``, the compiled mirror of the fixed-horizon loop of
``branching.simulate_mbi_batch`` around one mirror of its event step
``_event``; ``rn_mbi_flow``, the compiled mirror of the limit law's
binomial flow ``branching._flow`` with ``_tally_chunk``'s tally (the raw
rows of ``_sample_chunk`` are drawn by numpy alone); ``rn_chains``,
the compiled mirror of ``embedding.embedding_chains``; and
``rn_pcg64_seed``, a pinned mirror of numpy's PCG64 seeded with the words
of ``seed_words``, the pinned mirror of
``SeedSequence(entropy).generate_state(4, np.uint64)``.

The MBI and chain entry points and ``rn_uniform_fill`` draw from a
``bitgen_t``: a ``PCG64``'s, which draws the stream of
``np.random.default_rng(entropy)`` without importing ``numpy.random``
(whose extension modules cost a process about 5 MB), or a numpy
Generator's. They draw with numpy's own functions: per iteration,
``rn_mbi_batch`` an exponential and a uniform fill; ``rn_mbi_flow``
``random_multinomial`` for the group counts, then once per group for the
initial states, then per layer one ``random_binomial`` per state for the
kills, the type-I events, their coins and the type-II coins, in that
order, as ``Generator.multinomial`` and ``.binomial`` do; ``rn_chains``
an exponential fill per replicate and jump, with single uniforms
between; ``rn_uniform_fill`` the fill of ``Generator.random``. So they
are linked against numpy's own ``libnpyrandom.a`` (with its
``bitgen.h``, and no Python headers: the C declares the numpy functions
it calls); ``--exclude-libs`` keeps numpy's symbols out of the library's
exports.

The library is compiled on first use with ``cc`` into a per-user cache
directory (``$XDG_CACHE_HOME/recipnet``, default ``~/.cache/recipnet``,
mode 0700) under a name keyed by the sha256 of the source, the flags, the
platform and numpy's two files, so a changed source, host or numpy never
loads a stale build. It is built under a temporary name and moved into
place, so concurrent first uses cannot load a half-written file; a build
then deletes all but the KEPT_LIBRARIES newest ``rn_kernel-*.so`` files
there by mtime, so old sources and numpy versions do not pile up.
``load`` sets the mtime of the library it opens to now, so a library
that another checkout still loads counts as new and is kept. ``load``
returns None when anything fails (numpy's files are missing, no
compiler, a build or link error, a cache directory that is not private
to this user, a load error) and keeps the reason in ``error``; the caller
then runs its Python code, which draws the same graph, limit-law counts
and chains and writes the same bytes. Nothing here runs at import time.
"""

from __future__ import annotations

import contextlib
import operator
import os

CC = "cc"
FLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off")
HEADER = ("numpy", "random", "bitgen.h")          # under numpy.get_include()
ARCHIVE = ("random", "lib", "libnpyrandom.a")     # under numpy's package directory
LINK = ("-Wl,--exclude-libs,ALL", "-lm")
KEPT_LIBRARIES = 4          # the cache keeps the newest builds, the new one among them

error: str | None = None     # why the kernel is unavailable, once tried
_tried = False
_lib = None


def source():
    """The kernel source shipped as package data, beside this module (so a
    cached load imports neither ``importlib.resources`` nor ``zipfile``)."""
    from pathlib import Path

    return Path(__file__).with_name("_kernel.c")


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


def _link():
    """Compiler arguments after the source, and the files they read."""
    import numpy

    include = numpy.get_include()
    header = os.path.join(include, *HEADER)
    archive = os.path.join(os.path.dirname(numpy.__file__), *ARCHIVE)
    for path in (header, archive):
        if not os.path.isfile(path):
            raise CompileError(f"numpy's {os.path.basename(path)} is missing ({path})")
    return ("-I" + include, archive, *LINK), (header, archive)


def _machine() -> str:
    """``platform.machine()``, without importing ``platform`` where
    ``os.uname`` gives the same answer."""
    if hasattr(os, "uname"):
        return os.uname().machine
    import platform

    return platform.machine()


def library_name(code: bytes) -> str:
    import sys

    sha256 = _sha256()
    args, inputs = _link()
    key = sha256(code)
    for part in (CC, *FLAGS, *args, sys.platform, _machine()):
        key.update(b"\0" + part.encode())
    for path in inputs:
        with open(path, "rb") as fh:
            key.update(b"\0" + sha256(fh.read()).digest())
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

    fd, tmp = tempfile.mkstemp(suffix=".so", dir=directory)
    os.close(fd)
    try:
        done = subprocess.run([CC, *FLAGS, "-o", tmp, str(src), *_link()[0]],
                              capture_output=True, text=True)
        if done.returncode != 0:
            raise CompileError(f"{CC} exited {done.returncode}: {done.stderr.strip()[-500:]}")
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    _prune(directory, path)
    return path


def _prune(directory: str, new: str) -> None:
    """Delete every ``rn_kernel-*.so`` in ``directory`` but ``new`` and the
    KEPT_LIBRARIES - 1 newest others by mtime (``load`` refreshes it, so
    that is the last use); a failed unlink is ignored."""
    old = []
    with os.scandir(directory) as entries:
        for entry in entries:
            if (entry.name.startswith("rn_kernel-") and entry.name.endswith(".so")
                    and entry.path != new):
                try:
                    old.append((entry.stat().st_mtime, entry.path))
                except OSError:
                    pass
    for _, path in sorted(old, reverse=True)[KEPT_LIBRARIES - 1:]:
        try:
            os.unlink(path)
        except OSError:
            pass


def column_layout(columns):
    """Each 1-d integer column's address, byte stride, item size and sign
    (1 if signed), one row per column: what ``rn_format_int_rows`` reads."""
    import numpy as np

    return np.array([(col.ctypes.data, col.strides[0], col.itemsize, col.dtype.kind == "i")
                     for col in columns], dtype=np.int64)


# SeedSequence's constants (numpy/random/bit_generator.pyx)
POOL_SIZE = 4
INIT_A, MULT_A, INIT_B, MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
MIX_MULT_L, MIX_MULT_R = 0xCA01F9DD, 0x4973F715
MASK32 = 0xFFFFFFFF


def _coerce_to_uint32_array(entropy) -> list:
    """SeedSequence's 32-bit words of a non-negative int, low word first, or
    of each entry of a list or tuple in turn."""
    if isinstance(entropy, (list, tuple)):
        return [w for x in entropy for w in _coerce_to_uint32_array(x)]
    n = operator.index(entropy)
    if n < 0:
        raise ValueError("expected non-negative integer")
    words = [n & MASK32]
    while n > MASK32:
        n >>= 32
        words.append(n & MASK32)
    return words


def seed_words(entropy) -> list:
    """``SeedSequence(entropy).generate_state(4, np.uint64)`` as Python ints:
    the entropy hashed into a pool of 4 words, the pool mixed, then 8 words
    drawn from it and paired low word first."""
    entropy = _coerce_to_uint32_array(entropy)
    const = INIT_A

    def hashmix(value):
        nonlocal const
        value ^= const
        const = const * MULT_A & MASK32
        value = value * const & MASK32
        return value ^ value >> 16

    def mix(x, y):
        result = (MIX_MULT_L * x - MIX_MULT_R * y) & MASK32
        return result ^ result >> 16

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(POOL_SIZE)]
    for i_src in range(POOL_SIZE):
        for i_dst in range(POOL_SIZE):
            if i_src != i_dst:
                pool[i_dst] = mix(pool[i_dst], hashmix(pool[i_src]))
    for value in entropy[POOL_SIZE:]:
        for i_dst in range(POOL_SIZE):
            pool[i_dst] = mix(pool[i_dst], hashmix(value))
    const, words = INIT_B, []
    for i in range(8):
        value = pool[i % POOL_SIZE] ^ const
        const = const * MULT_B & MASK32
        value = value * const & MASK32
        words.append(value ^ value >> 16)
    return [words[i] | words[i + 1] << 32 for i in range(0, 8, 2)]


class PCG64:
    """The stream of ``np.random.default_rng(entropy)``, drawn by ``lib``'s
    compiled PCG64 without importing ``numpy.random``. ``bitgen`` is the
    address of its ``bitgen_t``, which the kernel's entry points take in
    place of a Generator's; ``random`` is ``Generator.random``, one float or
    a C-contiguous float64 ``out`` filled."""

    def __init__(self, lib, entropy):
        import numpy as np

        self._lib = lib
        # rn_pcg64 holds two 128-bit integers: 96 bytes from a 16-byte boundary
        self._room = np.zeros(14, dtype=np.uint64)
        self.bitgen = -(-self._room.ctypes.data // 16) * 16
        lib.rn_pcg64_seed(self.bitgen, *seed_words(entropy))

    def random(self, *, out=None):
        import numpy as np

        fill = np.empty(()) if out is None else out
        if fill.dtype != np.float64 or not fill.flags.c_contiguous:
            raise ValueError("out must be a C-contiguous float64 array")
        self._lib.rn_uniform_fill(self.bitgen, fill.size, fill.ctypes.data)
        return float(fill) if out is None else fill


def default_rng(lib, entropy):
    """``np.random.default_rng(entropy)``'s stream: a ``PCG64`` of ``lib``
    where it loaded and ``seed_words`` takes the entropy (a non-negative int
    or a list of them), else numpy's Generator, which decides any other
    entropy (None, an array, a negative int) as it always has."""
    if lib is not None:
        try:
            return PCG64(lib, entropy)
        except (TypeError, ValueError):
            pass
    import numpy as np

    return np.random.default_rng(entropy)


@contextlib.contextmanager
def bitgen(rng):
    """The address of the ``bitgen_t`` that ``rng`` draws from: a PCG64's
    own, or a numpy Generator's, held under the Generator's lock."""
    if isinstance(rng, PCG64):
        yield rng.bitgen
    else:
        with rng.bit_generator.lock:
            yield rng.bit_generator.ctypes.bit_generator


def load():
    """The ctypes library with its entry points typed, or None with the
    reason in ``error``."""
    global error, _tried, _lib
    if _tried:
        return _lib
    _tried = True
    try:
        import ctypes

        path = _build()
        try:
            os.utime(path)      # _prune ranks by mtime: keep the library in use
        except OSError:
            pass
        lib = ctypes.CDLL(path)
        p, i32, i64, f64 = ctypes.c_void_p, ctypes.c_int32, ctypes.c_int64, ctypes.c_double
        u64 = ctypes.c_uint64
        lib.rn_advance.argtypes = [p, i64, f64, f64, p, p, i32, p, p, p, p, p, i32, p, p, p, p]
        lib.rn_advance.restype = None
        lib.rn_format_int_rows.argtypes = [p, i64, i32, p]
        lib.rn_format_int_rows.restype = i64
        lib.rn_parse_int_rows.argtypes = [p, i64, i32, i64, p]
        lib.rn_parse_int_rows.restype = i64
        lib.rn_mbi_batch.argtypes = [p, i64, p, p, p, p, f64, f64, f64, f64, p, p, p, p, p]
        lib.rn_mbi_flow.argtypes = [p, i64, p, i32, p, f64, p, p, f64, f64, f64, f64,
                                    i64, i64, p]
        lib.rn_mbi_flow.restype = i64
        lib.rn_chains.argtypes = [p, i64, i64, p, i32, p, f64, f64, f64, p, p, p, p]
        lib.rn_pcg64_seed.argtypes = [p, u64, u64, u64, u64]
        lib.rn_uniform_fill.argtypes = [p, i64, p]
        lib.rn_mbi_batch.restype = lib.rn_chains.restype = None
        lib.rn_pcg64_seed.restype = lib.rn_uniform_fill.restype = None
        _lib = lib
    except (OSError, AttributeError) as exc:   # the Python code runs instead
        error = f"{type(exc).__name__}: {exc}"
    return _lib
