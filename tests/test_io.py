import json

import numpy as np
import pytest

from recipnet import SimConfig, estimate_pkl, run, solve_equilibrium
from recipnet import io as rio


def test_degree_snapshot_roundtrip(tmp_path, k2_ref):
    result = run(k2_ref, SimConfig(n_steps=200, seed=1))
    path = tmp_path / "degrees.csv"
    rio.write_degree_snapshot(path, result.state)
    ind, outd, grp = rio.read_degree_snapshot(path)
    ref_in, ref_out, ref_grp = result.state.degrees()
    assert np.array_equal(ind, ref_in)
    assert np.array_equal(outd, ref_out)
    assert np.array_equal(grp, ref_grp)
    # on-disk groups are 1-based
    first_row = path.read_text().splitlines()[1].split(",")
    assert int(first_row[1]) == ref_grp[0] + 1


def test_degree_snapshot_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b\n1,2\n")
    with pytest.raises(ValueError):
        rio.read_degree_snapshot(path)
    empty = tmp_path / "empty.csv"
    empty.write_text("node,group,in_deg,out_deg\n")
    with pytest.raises(ValueError):
        rio.read_degree_snapshot(empty)


def test_edges_csv_format(tmp_path, k1_ref):
    result = run(k1_ref, SimConfig(n_steps=5, seed=2))
    edges = result.state.edges()
    path = tmp_path / "edges.csv"
    rio.write_edges(path, edges)
    lines = path.read_text().splitlines()
    assert lines[0] == "step,source,target,reciprocal"
    assert lines[1] == "0,1,1,0"
    assert len(lines) == 1 + len(edges)
    for line in lines[1:]:
        cells = line.split(",")
        assert len(cells) == 4
        assert cells[3] in ("0", "1")


def test_trajectory_csv(tmp_path, k2_ref):
    result = run(k2_ref, SimConfig(n_steps=50, seed=3, snapshot_steps=(10, 50)))
    path = tmp_path / "traj.csv"
    rio.write_trajectory(path, result.trajectory)
    lines = path.read_text().splitlines()
    assert lines[0] == "step,total_edges,in_1,out_1,in_2,out_2"
    assert len(lines) == 3
    last = [int(c) for c in lines[-1].split(",")]
    assert last[0] == 50
    assert last[1] == result.state.edge_count


def test_pmf_write_and_read(tmp_path, k1_ref):
    sol = solve_equilibrium(k1_ref)
    est = estimate_pkl(k1_ref, sol, replicates=2000, kmax=6, lmax=6, seed=1)
    meta = rio.write_pmf(tmp_path, est)
    assert (tmp_path / "pmf.csv").exists()
    assert (tmp_path / "pmf_group_1.csv").exists()
    loaded = json.loads((tmp_path / "pmf.json").read_text())
    assert loaded == rio.jsonable(meta)
    grid = rio.read_pmf_grid(tmp_path / "pmf.csv", est.kmax, est.lmax)
    assert np.allclose(grid, est.grid, atol=0)
    assert abs(grid.sum() + loaded["overflow_mass"] - 1.0) <= 1e-12


def test_pmf_grid_rejects_cell_outside_shape(tmp_path):
    path = tmp_path / "pmf.csv"
    path.write_text("k,l,probability\n0,0,0.5\n99,1,0.5\n")
    with pytest.raises(ValueError, match=r"cell \(k=99, l=1\).*\(3, 3\)"):
        rio.read_pmf_grid(path, 2, 2)


def test_jsonable_handles_numpy():
    payload = {"a": np.int64(3), "b": np.float64(0.5), "c": np.arange(3),
               "d": [np.bool_(True)], "e": {"f": np.float32(1.5)}}
    out = rio.jsonable(payload)
    assert json.dumps(out)  # serializable
    assert out["a"] == 3 and out["d"] == [True]
