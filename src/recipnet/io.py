"""File interfaces: the one CSV table codec and the artifacts built on it.

Every CSV goes through ``write_table`` (or ``_write_chunks``, which it
wraps, for a table built chunk by chunk) and ``read_table``: a header row,
then one comma-separated row per entry, nothing quoted. A cell is
``str()`` of the column's Python value (ints as digits, floats in
shortest round-trip form, ``inf`` as ``inf``); the compiled kernel
formats all-integer chunks, byte for byte the same, and parses those
bytes back into the arrays ``np.loadtxt`` gives. Readers find columns
by name in any order; a missing column, a header-only file or a cell
that does not parse as its dtype is a ValueError naming the file. This
module alone knows the artifact formats: edges, degrees and trajectory
tables, pmf grids, Hill sweeps (the rows of ``HillReport.k_sweep``, on
its fixed k grid) and the angular histogram. Node ids and the group
column are 1-based on disk, 0-based in the Python API. JSON artifacts
keep their key order with a 2-space indent, so reruns stay byte-identical.
"""

from __future__ import annotations

import json
import warnings
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from . import _kernel

if TYPE_CHECKING:
    from .branching import JointPmfEstimate
    from .simulate import GraphState, Trajectory

CHUNK = 1 << 16             # rows per write in write_table


def write_table(path, header, columns) -> None:
    """Write ``header``, then row i from element i of each equal-length column."""
    n = len(columns[0])
    _write_chunks(path, header, ([col[lo:lo + CHUNK] for col in columns]
                                for lo in range(0, n, CHUNK)))


def _write_chunks(path, header, chunks) -> None:
    """Write ``header``, then the rows of each chunk, a list of equal-length columns.

    Each chunk's ``.tolist()`` values are interleaved row by row into one
    list and formatted with one ``%s`` template, so each cell is ``str()``
    of its Python value and a table never holds more than one chunk of
    Python objects. That template is the rule. A chunk whose columns all
    hold integers (no bools) goes instead, when the compiled kernel loads,
    through ``rn_format_int_rows``, which writes the same bytes without
    building a Python object per cell.
    """
    width = len(header)
    row = ",".join(["%s"] * width) + "\n"
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode())
        for columns in chunks:
            rows = len(columns[0])
            if all(col.dtype.kind in "iu" and np.can_cast(col.dtype, np.int64)
                   for col in columns) and (kernel := _kernel.load()) is not None:
                cells = np.empty((rows, width), dtype=np.int64)
                for j, col in enumerate(columns):
                    cells[:, j] = col
                # a cell takes at most 20 characters and its separator
                buf = np.empty(rows * width * 21, dtype=np.uint8)
                fh.write(buf[:kernel.rn_format_int_rows(cells.ctypes.data, rows, width,
                                                        buf.ctypes.data)])
            else:
                cells = [None] * (rows * width)
                for j, col in enumerate(columns):
                    cells[j::width] = col.tolist()
                fh.write((row * rows % tuple(cells)).encode())
            del cells   # free this chunk's cells before the next chunk is built


def read_table(path, dtypes: dict) -> tuple:
    """Read the columns named in ``dtypes`` (name -> dtype), one array each.

    The ``loadtxt`` call below is the rule, and names every error. A table
    whose columns are all int64 is first parsed by the compiled kernel's
    ``rn_parse_int_rows``, when it loads; it gives the same arrays for the
    bytes ``rn_format_int_rows`` writes and refuses anything else, which
    then goes to ``loadtxt``.
    """
    if all(np.dtype(dtype) == np.int64 for dtype in dtypes.values()):
        columns = _parse_int_table(path, dtypes)
        if columns is not None:
            return columns
    with open(path, newline="") as fh:
        header = fh.readline().rstrip("\r\n").split(",")
        missing = [name for name in dtypes if name not in header]
        if missing:
            raise ValueError(f"{path}: missing column(s) {missing}; header is {header}")
        try:
            with warnings.catch_warnings():
                warnings.filterwarnings("ignore", "loadtxt: input contained no data")  # see below
                # older numpy parses an int cell such as 1.5 by truncating it, with only a warning
                warnings.filterwarnings("error", r"loadtxt\(\): Parsing an integer via a float")
                rows = np.loadtxt(fh, delimiter=",", ndmin=1, dtype=list(dtypes.items()),
                                  usecols=[header.index(name) for name in dtypes])
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from exc
    if rows.size == 0:
        raise ValueError(f"{path}: no rows below the header")
    return tuple(rows[name] for name in dtypes)


def _parse_int_table(path, names) -> tuple | None:
    """The named columns of an all-integer table through ``rn_parse_int_rows``,
    or None when the kernel does not load, the header is not plain ASCII
    naming every column, the body is empty, or the parser refuses it."""
    if (kernel := _kernel.load()) is None:
        return None
    with open(path, "rb") as fh:
        data = fh.read()
    start = data.find(b"\n") + 1
    if start == 0 or b"\r" in data[:start] or not data[:start].isascii():
        return None
    header = data[:start - 1].decode().split(",")
    if any(name not in header for name in names):
        return None
    rows = data.count(b"\n", start)
    if rows == 0:
        return None
    columns = np.empty((len(header), rows), dtype=np.int64)
    buf = np.frombuffer(data, dtype=np.uint8)
    if kernel.rn_parse_int_rows(buf.ctypes.data + start, len(data) - start, len(header),
                                rows, columns.ctypes.data) != rows:
        return None
    return tuple(columns[header.index(name)] for name in names)


def write_edges(path, state: GraphState) -> None:
    """Write ``state.edges()``, building CHUNK rows of it at a time."""
    _write_chunks(path, ("step", "source", "target", "reciprocal"),
                 (state.edges(lo, lo + CHUNK).T for lo in range(0, len(state), CHUNK)))


def write_degree_snapshot(path, state: GraphState) -> None:
    ind, outd, grp = state.degrees()
    write_table(path, ("node", "group", "in_deg", "out_deg"),
                (np.arange(1, len(ind) + 1), grp + 1, ind, outd))


def read_degree_snapshot(path, K: int | None = None):
    """(in_deg, out_deg, groups) arrays of a degree snapshot; groups 0-based.

    A negative degree, a group below 1 or, when the model's ``K`` is given,
    a group above it is a ValueError naming the file.
    """
    ind, outd, grp = read_table(path, {"in_deg": np.int64, "out_deg": np.int64,
                                       "group": np.int64})
    for name, column, lo in (("in_deg", ind, 0), ("out_deg", outd, 0), ("group", grp, 1)):
        if column.min() < lo:
            raise ValueError(f"{path}: {name} must be >= {lo}, got {column.min()}")
    if K is not None and grp.max() > K:
        raise ValueError(f"{path}: group must be <= K = {K}, got {grp.max()}")
    return ind, outd, grp - 1


def write_trajectory(path, traj: Trajectory) -> None:
    S, K = traj.group_in.shape
    header = ["step", "total_edges", *(f"{side}_{m + 1}" for m in range(K)
                                       for side in ("in", "out"))]
    pairs = np.stack([traj.group_in, traj.group_out], axis=2).reshape(S, 2 * K)
    write_table(path, header, [traj.steps, traj.total_edges, *pairs.T])


def write_pmf_grid(path, grid: np.ndarray) -> None:
    """Write a dense (k, l) grid as one row per cell, k-major."""
    k, l = np.divmod(np.arange(grid.size), grid.shape[1])
    write_table(path, ("k", "l", "probability"), (k, l, grid.ravel()))


def write_pmf(directory, est: JointPmfEstimate, formats=("csv", "json")) -> dict:
    """Write the mixed and per-group grids (``"csv"`` in ``formats``) and the
    metadata file pmf.json (``"json"``); return the metadata either way."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    mixed_file = "pmf.csv"
    group_files = {str(m + 1): f"pmf_group_{m + 1}.csv"
                   for m in range(est.group_counts.shape[0])}
    if "csv" in formats:
        write_pmf_grid(directory / mixed_file, est.grid)
        for m, name in enumerate(group_files.values()):
            write_pmf_grid(directory / name, est.group_grid(m))

    meta = {
        "schema": "recipnet/pmf/v1",
        "replicates": est.replicates,
        "failed": est.failed,
        "failed_fraction": est.failed_fraction,
        "overflow_mass": est.overflow_mass,
        "kmax": est.kmax,
        "lmax": est.lmax,
        "mixed_file": mixed_file,
        "group_files": group_files,
    }
    if "json" in formats:
        write_json(directory / "pmf.json", meta)
    return meta


def read_pmf_grid(path, kmax: int, lmax: int):
    """Read a pmf CSV back into a dense grid; a cell outside it is a ValueError."""
    k, l, p = read_table(path, {"k": np.int64, "l": np.int64, "probability": np.float64})
    grid = np.zeros((kmax + 1, lmax + 1))
    outside = np.flatnonzero((k < 0) | (k > kmax) | (l < 0) | (l > lmax))
    if outside.size:
        i = outside[0]
        raise ValueError(f"{path}: cell (k={k[i]}, l={l[i]}) is outside the "
                         f"{grid.shape} grid for kmax={kmax}, lmax={lmax}")
    grid[k, l] = p
    return grid


def write_hill_sweep(path, sweep: np.ndarray) -> None:
    """Write the (k, index estimate) rows of ``HillReport.k_sweep``."""
    write_table(path, ("k", "index_estimate"), (sweep[:, 0].astype(np.int64), sweep[:, 1]))


def write_angular_hist(path, bins: np.ndarray, counts: np.ndarray) -> None:
    """Write histogram bin edges (len(counts) + 1 of them) and counts."""
    write_table(path, ("bin_left", "bin_right", "count"), (bins[:-1], bins[1:], counts))


def write_json(path, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(jsonable(payload), fh, indent=2)
        fh.write("\n")


def jsonable(obj):
    """Recursively convert numpy scalars/arrays for JSON serialization."""
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    if isinstance(obj, (np.ndarray, np.generic)):
        return jsonable(obj.tolist())
    return obj
