import json
import warnings
from pathlib import Path

import numpy as np
import pytest

from recipnet import SimConfig, _kernel, estimate_pkl, run, solve_equilibrium
from recipnet import io as rio
from recipnet.cli import main
from conftest import run_k2, sha256s

K1_CONFIG = Path(__file__).resolve().parent.parent / "demos" / "configs" / "k1.json"


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
    rio.write_edges(path, result.state)
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


def test_pmf_grid_names_missing_column(tmp_path):
    path = tmp_path / "pmf.csv"
    path.write_text("k,l,p\n0,0,1.0\n")
    with pytest.raises(ValueError, match=r"missing column\(s\) \['probability'\]"):
        rio.read_pmf_grid(path, 2, 2)


READERS = {
    "degrees": (rio.read_degree_snapshot,
                "node,group,in_deg,out_deg\n", "1,1,{},0\n"),
    "pmf": (lambda path: rio.read_pmf_grid(path, 2, 2),
            "k,l,probability\n", "0,{},0.5\n"),
}


@pytest.mark.parametrize("reader", sorted(READERS))
def test_readers_reject_header_only_and_non_integer_cell(tmp_path, reader):
    read, header, row = READERS[reader]
    for name, text in (("header_only.csv", header), ("fraction.csv", header + row.format("1.5"))):
        path = tmp_path / name
        path.write_text(text)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ValueError, match=name):
                read(path)
        assert not caught  # no numpy warning leaks out of the reader


def test_read_table_rejects_int_cell_that_older_numpy_truncates(tmp_path, monkeypatch):
    # numpy 1.23 deprecated, without yet refusing, parsing an int cell such as
    # 1.5 via a float: it warns and returns 1, or chains a ValueError to the
    # warning when warnings are errors
    real_loadtxt = np.loadtxt

    def older_loadtxt(fh, **kwargs):
        try:
            warnings.warn("loadtxt(): Parsing an integer via a float is deprecated.",
                          DeprecationWarning)
        except DeprecationWarning as exc:
            raise ValueError("could not convert string '1.5' to int64") from exc
        return real_loadtxt(["1,1,1,0"], **kwargs)

    path = tmp_path / "fraction.csv"
    path.write_text("node,group,in_deg,out_deg\n1,1,1.5,0\n")
    monkeypatch.setattr(np, "loadtxt", older_loadtxt)
    with pytest.raises(ValueError, match="fraction.csv"):
        rio.read_degree_snapshot(path)


def test_readers_find_columns_in_any_order(tmp_path):
    degrees = tmp_path / "degrees.csv"
    degrees.write_text("out_deg,in_deg,group,node\n4,1,2,1\n0,3,1,2\n")
    ind, outd, grp = rio.read_degree_snapshot(degrees)
    assert ind.tolist() == [1, 3] and outd.tolist() == [4, 0] and grp.tolist() == [1, 0]
    pmf = tmp_path / "pmf.csv"
    pmf.write_text("probability,l,k\n0.25,1,0\n0.75,0,2\n")
    grid = rio.read_pmf_grid(pmf, 2, 1)
    assert grid.tolist() == [[0.0, 0.25], [0.0, 0.0], [0.75, 0.0]]


DEGREE_COLUMNS = {"in_deg": np.int64, "out_deg": np.int64, "group": np.int64}
HEADER = "node,group,in_deg,out_deg\n"


def _rows(n):
    return "".join(f"{i + 1},{i % 3 + 1},{i % 7},{i % 11}\n" for i in range(n))


# text, and whether rn_parse_int_rows takes it (else loadtxt reads it)
READ_CASES = {
    "crlf": (HEADER.replace("\n", "\r\n") + "1,1,2,0\r\n2,2,0,3\r\n", False),
    "crlf-body": (HEADER + "1,1,2,0\r\n2,2,0,3\r\n", False),
    "no-final-newline": (HEADER + "1,1,2,0\n2,2,0,3", False),
    "permuted": ("out_deg,in_deg,group,node\n4,1,2,1\n0,3,1,2\n", True),
    "plus": (HEADER + "1,1,+5,0\n", False),
    "blank": (HEADER + "1,1, 5,0\n", False),
    "fraction": (HEADER + "1,1,1.5,0\n", False),
    "minus-zero": (HEADER + "1,1,-0,0\n", True),
    "leading-zeros": (HEADER + "1,1,007,0\n", True),
    "18-digits": (HEADER + f"1,1,{10**18 - 1},{-(10**18 - 1)}\n", True),
    "two-to-63": (HEADER + f"1,1,{2**63},0\n", False),
    "minus-two-to-63": (HEADER + f"1,1,{-2**63},0\n", False),
    "header-only": (HEADER, False),
    "extra-text-column": ("node,group,in_deg,out_deg,label\n1,1,2,0,a\n2,2,0,3,b\n", False),
    "short-row": (HEADER + "1,1,2,0\n2,2,0\n", False),
    "long-then-short-row": (HEADER + "1,1,2,0,9\n2,2,0\n", False),
    "cr-inside-header": ("group,in_deg,out_deg,x\ry\n1,2,3,4\n", False),
    "bad-cell-in-dropped-column": (HEADER + "1,1,2,0\nx,2,0,3\n", False),
    "fraction-in-dropped-column": (HEADER + "1.5,1,2,0\n", False),
    "one-row": (HEADER + _rows(1), True),
    "65537-rows": (HEADER + _rows(65537), True),
}


def _read(path):
    try:
        return rio.read_table(path, DEGREE_COLUMNS)
    except ValueError as exc:
        return str(exc)


@pytest.mark.parametrize("case", READ_CASES)
def test_int_table_parser_matches_loadtxt(tmp_path, monkeypatch, case):
    """The compiled parser gives loadtxt's arrays, or leaves the file to it."""
    text, parsed = READ_CASES[case]
    path = tmp_path / f"{case}.csv"
    path.write_bytes(text.encode())
    if _kernel.load() is None:
        pytest.skip(f"no compiled kernel: {_kernel.error}")
    assert (rio._parse_int_table(path, DEGREE_COLUMNS) is not None) == parsed
    fast = _read(path)
    monkeypatch.setattr(_kernel, "load", lambda: None)
    slow = _read(path)
    with open(path, newline="") as fh, warnings.catch_warnings():    # loadtxt itself
        warnings.simplefilter("ignore")
        header = fh.readline().rstrip("\r\n").split(",")
        try:
            rows = np.loadtxt(fh, delimiter=",", ndmin=1, dtype=list(DEGREE_COLUMNS.items()),
                              usecols=[header.index(name) for name in DEGREE_COLUMNS])
            direct = (tuple(rows[name] for name in DEGREE_COLUMNS) if rows.size
                      else f"{path}: no rows below the header")
        except ValueError as exc:
            direct = f"{path}: {exc}"
    if isinstance(slow, str):
        assert fast == slow == direct
    else:
        for got, want, ref in zip(fast, slow, direct):
            assert got.dtype == want.dtype == ref.dtype == np.int64
            assert np.array_equal(got, want) and np.array_equal(got, ref)


def test_write_table_cells_are_str_of_python_values(tmp_path):
    path = tmp_path / "t.csv"
    floats = np.array([0.1, 1e-300, np.inf, 2.0 / 3.0, 5.0])
    rio.write_table(path, ("i", "x"), (np.arange(5), floats))
    rows = [f"{i},{float(x)!r}" for i, x in enumerate(floats)]
    assert path.read_text() == "i,x\n" + "\n".join(rows) + "\n"
    assert rows[2] == "2,inf" and rows[4] == "4,5.0"

    # edge values: negative and extreme ints, signed zero, nan, -inf, the
    # smallest subnormal, a float with a long shortest repr, and bools
    i64 = np.iinfo(np.int64)
    ints = np.array([-1, -12345, i64.min, i64.max, 0, 0, 7], dtype=np.int64)
    edge = np.array([-0.0, np.nan, -np.inf, 5e-324, 0.1 + 0.2, 1.0, -2.5])
    flags = np.array([True, False, True, False, True, False, True])
    rio.write_table(path, ("i", "x", "b"), (ints, edge, flags))
    lines = path.read_text().splitlines()
    assert lines == ["i,x,b", *(",".join(map(str, row)) for row in
                                zip(ints.tolist(), edge.tolist(), flags.tolist()))]
    assert lines[1:5] == ["-1,-0.0,True", "-12345,nan,False",
                          f"{i64.min},-inf,True", f"{i64.max},5e-324,False"]
    assert lines[5] == "0,0.30000000000000004,True"

    # a table one row longer than a write chunk
    n = rio.CHUNK + 1
    ints = np.arange(n, dtype=np.int64) - n // 2
    rio.write_table(path, ("i", "x"), (ints, ints / 7.0))
    lines = path.read_text().splitlines()
    assert len(lines) == n + 1
    assert lines[1:] == [f"{i},{i / 7.0!s}" for i in ints.tolist()]


def test_jsonable_handles_numpy():
    payload = {"a": np.int64(3), "b": np.float64(0.5), "c": np.arange(3),
               "d": [np.bool_(True)], "e": {"f": np.float32(1.5)}}
    out = rio.jsonable(payload)
    assert json.dumps(out)  # serializable
    assert out["a"] == 3 and out["d"] == [True]


def _strict_json(path):
    """``path`` parsed as strict JSON, which has no NaN or infinity."""
    def refuse(token):
        raise ValueError(f"{path}: non-finite token {token}")

    return json.loads(path.read_text(), parse_constant=refuse)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_write_json_refuses_non_finite_numbers(tmp_path, value):
    with pytest.raises(ValueError):
        rio.write_json(tmp_path / "x.json", {"x": [1.0, np.float64(value)]})


def test_every_json_artifact_of_k1_is_strict(tmp_path):
    for command, *flags in (["analyze"], ["simulate", "--n-steps", "5000"],
                            ["embed", "--replicates", "5000", "--threads", "1"],
                            ["diagnose", "--input", str(tmp_path / "simulate" / "degrees.csv")],
                            ["verify", "--replicates", "2000"]):
        assert main([command, "--config", str(K1_CONFIG), "--out", str(tmp_path / command),
                     *flags]) == 0
    paths = sorted(tmp_path.glob("*/*.json"))
    assert [p.name for p in paths] == ["analyze.json", "config.json", "config.json",
                                       "report.json", "config.json", "pmf.json",
                                       "config.json", "summary.json", "config.json",
                                       "verify.json"]
    for path in paths:
        _strict_json(path)


# sha256 of the artifacts of the two-group model at small sizes. The embed
# digests were recorded when the killed jump chains of the limit law began
# to move as binomial counts over their states, with the compiled kernel;
# the numpy statements write the same bytes, which CI checks with a cache
# directory the loader refuses
PARENT_TABLE_DIGESTS = {
    "embed": {
        "pmf.csv": "9e989ff071a8bb992b32f3cdd717622d3edb328f49ff9ea0be3151c741c6f358",
        "pmf_group_1.csv": "78e8ea721232de6d2111573846a918e076c7c129eace2d2727cd4d011a144eed",
        "pmf_group_2.csv": "7fa1b0bf90efcacfe83162eb49f2a3a6dbc2184f3ac031895ca0906be6c708ae",
        "pmf.json": "6eb1a1128482c8ef7f705798024ad19f21ff5047a38df3ea52781f56d9f11b52",
    },
    "analyze": {
        "analyze.json": "bdad9599ccb362dde8c65d2e1d10407c1bdd5f32a1889ae4ccacda2647649e82",
    },
    # re-recorded when the p-values moved from scipy's chdtrc to the closed-form
    # embedding._chi2_sf (each within 2 ulp; every other field kept its bits)
    "verify": {
        "verify.json": "61053c62057a6ec086a66fc4978cd273c92b72e8066ea8be1d5bee5dacd291c9",
    },
}


@pytest.mark.parametrize("threads", ["1", "2"])
def test_embed_artifacts_match_parent_digests(tmp_path, threads):
    out = run_k2(tmp_path, "embed",
                 {"embed": {"replicates": 140000, "kmax": 12, "lmax": 12, "seed": 3}},
                 "--threads", threads)
    assert sha256s(out, PARENT_TABLE_DIGESTS["embed"]) == PARENT_TABLE_DIGESTS["embed"]


def test_analyze_and_verify_json_match_parent_digests(tmp_path):
    analyze = run_k2(tmp_path, "analyze", {})
    verify = run_k2(tmp_path, "verify",
                    {"verify": {"n": 2, "replicates": 5000, "repetitions": 2, "seed": 9}})
    assert sha256s(analyze, ["analyze.json"]) == PARENT_TABLE_DIGESTS["analyze"]
    assert sha256s(verify, ["verify.json"]) == PARENT_TABLE_DIGESTS["verify"]
