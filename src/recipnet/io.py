"""File interfaces: edge streams, degree snapshots, trajectories, pmfs.

All CSVs are plain comma-separated numeric tables with a header row and
newline-terminated rows; nothing needs quoting. Node ids and the group
column are 1-based on disk (matching the 1-based node labeling); the
Python API uses 0-based group indices, so readers and writers shift.
JSON artifacts are written with a fixed key order and 2-space indent so
byte-identical reruns stay byte-identical.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

from .branching import JointPmfEstimate
from .simulate import GraphState, Trajectory

EDGE_CHUNK = 1 << 16


def write_edges(path, edges: np.ndarray) -> None:
    """Write the (E, 4) array of ``GraphState.edges``, EDGE_CHUNK rows at a time."""
    with open(path, "w", newline="") as fh:
        fh.write("step,source,target,reciprocal\n")
        for lo in range(0, len(edges), EDGE_CHUNK):
            fh.writelines(f"{k},{s},{t},{r}\n"
                          for k, s, t, r in edges[lo:lo + EDGE_CHUNK].tolist())


def write_degree_snapshot(path, state: GraphState) -> None:
    ind, outd, grp = state.degrees()
    with open(path, "w", newline="") as fh:
        fh.write("node,group,in_deg,out_deg\n")
        fh.writelines(
            f"{v + 1},{grp[v] + 1},{ind[v]},{outd[v]}\n" for v in range(len(ind))
        )


def read_degree_snapshot(path):
    """Read a degree snapshot; returns (in_deg, out_deg, groups) arrays.

    Groups come back 0-based.
    """
    ind, outd, grp = [], [], []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        required = {"node", "group", "in_deg", "out_deg"}
        if reader.fieldnames is None or not required.issubset(reader.fieldnames):
            raise ValueError(f"degree snapshot must have columns {sorted(required)}")
        for row in reader:
            ind.append(int(row["in_deg"]))
            outd.append(int(row["out_deg"]))
            grp.append(int(row["group"]) - 1)
    if not ind:
        raise ValueError(f"no rows in degree snapshot {path}")
    return (np.array(ind, dtype=np.int64), np.array(outd, dtype=np.int64),
            np.array(grp, dtype=np.int64))


def write_trajectory(path, traj: Trajectory) -> None:
    K = traj.group_in.shape[1]
    header = "step,total_edges," + ",".join(
        f"in_{m + 1},out_{m + 1}" for m in range(K))
    with open(path, "w", newline="") as fh:
        fh.write(header + "\n")
        for i in range(len(traj.steps)):
            cells = [str(traj.steps[i]), str(traj.total_edges[i])]
            for m in range(K):
                cells.append(str(traj.group_in[i, m]))
                cells.append(str(traj.group_out[i, m]))
            fh.write(",".join(cells) + "\n")


def write_pmf(directory, est: JointPmfEstimate, stem: str = "pmf",
              formats=("csv", "json")) -> dict:
    """Write the mixed grid, one grid per group, and a JSON metadata file.

    The grids are written with ``"csv"`` in ``formats`` and the metadata
    file with ``"json"``. Returns the metadata dict either way.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)

    def dump_grid(path, grid):
        with open(path, "w", newline="") as fh:
            fh.write("k,l,probability\n")
            for k in range(grid.shape[0]):
                for l in range(grid.shape[1]):
                    fh.write(f"{k},{l},{float(grid[k, l])!r}\n")

    mixed_file = f"{stem}.csv"
    group_files = {str(m + 1): f"{stem}_group_{m + 1}.csv"
                   for m in range(est.group_counts.shape[0])}
    if "csv" in formats:
        dump_grid(directory / mixed_file, est.grid)
        for m, name in enumerate(group_files.values()):
            dump_grid(directory / name, est.group_grid(m))

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
        write_json(directory / f"{stem}.json", meta)
    return meta


def read_pmf_grid(path, kmax: int, lmax: int):
    """Read a pmf CSV back into a dense grid; a cell outside it is a ValueError."""
    grid = np.zeros((kmax + 1, lmax + 1))
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        for row in reader:
            k, l = int(row["k"]), int(row["l"])
            if not (0 <= k <= kmax and 0 <= l <= lmax):
                raise ValueError(f"{path}: cell (k={k}, l={l}) is outside the "
                                 f"{grid.shape} grid for kmax={kmax}, lmax={lmax}")
            grid[k, l] = float(row["probability"])
    return grid


def write_json(path, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def jsonable(obj):
    """Recursively convert numpy scalars/arrays for JSON serialization."""
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj
