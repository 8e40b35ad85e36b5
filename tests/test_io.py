import json
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from recipnet import (DegreeDataset, SimConfig, _kernel, all_spectra, estimate_pkl,
                      pair_table, run, solve_equilibrium, tail_report)
from recipnet import cli
from recipnet import io as rio
from recipnet.cli import main
from conftest import K2_MODEL, run_k2, sha256s

CONFIGS = Path(__file__).resolve().parent.parent / "demos" / "configs"
K1_CONFIG = CONFIGS / "k1.json"


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


def _compiled(path, names):
    """The compiled parse of the whole table, or None where it refuses it."""
    columns, = rio._int_blocks(path, names, whole=True)
    return columns


@pytest.mark.parametrize("case", READ_CASES)
def test_int_table_parser_matches_loadtxt(tmp_path, case):
    """The compiled parser gives loadtxt's arrays, or leaves the file to it."""
    text, parsed = READ_CASES[case]
    path = tmp_path / f"{case}.csv"
    path.write_bytes(text.encode())
    if _kernel.load() is None:
        pytest.skip(f"no compiled kernel: {_kernel.error}")
    fast = _compiled(path, DEGREE_COLUMNS)
    assert (fast is not None) == parsed
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
        assert fast is None and slow == direct
    else:
        for got, want, ref in zip(fast or slow, slow, direct):
            assert got.dtype == want.dtype == ref.dtype == np.int64
            assert np.array_equal(got, want) and np.array_equal(got, ref)


# 40000 rows of 8 bytes under a 6-byte header: more than one default block
BLOCK_ROWS = [f"{i % 7},{i % 1000:03d},{i % 10}\n" for i in range(40000)]
BLOCK_COLUMNS = {"c": np.int64, "a": np.int64}      # b is checked and dropped
BAD_ROW = 20000


def _with(rows, i, row):
    return rows[:i] + [row] + rows[i + 1:]


# rows, and whether the one-block parse takes them
BLOCK_CASES = {
    "whole": (BLOCK_ROWS, True),
    "crlf": ([row.replace("\n", "\r\n") for row in BLOCK_ROWS], False),
    "no-final-newline": (_with(BLOCK_ROWS, -1, "1,001,1"), False),
    "bad-cell-in-last-block": (_with(BLOCK_ROWS, -1, "1,001,x\n"), False),
    "bad-cell-in-dropped-column": (_with(BLOCK_ROWS, BAD_ROW, "1,0x1,1\n"), False),
    "row-longer-than-16-bytes": (_with(BLOCK_ROWS, BAD_ROW, "1,00000000000001,1\n"), True),
}


@pytest.mark.parametrize("case", BLOCK_CASES)
def test_blocked_parse_matches_one_block_and_loadtxt(tmp_path, monkeypatch, case):
    """Block edges at row ends (16), inside cells (37), past the file end
    (4096 and the default) and inside row BAD_ROW's middle cell: the arrays
    of a one-block parse and of loadtxt, or a refusal where either refuses
    or a line is longer than the block."""
    if _kernel.load() is None:
        pytest.skip(f"no compiled kernel: {_kernel.error}")
    rows, parsed = BLOCK_CASES[case]
    default = rio.READ_BLOCK
    path = tmp_path / f"{case}.csv"
    path.write_bytes(("a,b,c\n" + "".join(rows)).encode())
    longest = max(map(len, rows))
    monkeypatch.setattr(rio, "READ_BLOCK", path.stat().st_size + 1)
    whole = _compiled(path, BLOCK_COLUMNS)
    assert (whole is not None) == parsed
    try:
        direct = rio.read_table(path, BLOCK_COLUMNS)
    except ValueError as exc:
        direct = str(exc)
    for block in (16, 37, 4096, default, 8 * BAD_ROW + 3):
        monkeypatch.setattr(rio, "READ_BLOCK", block)
        got = _compiled(path, BLOCK_COLUMNS)
        assert (got is not None) == (parsed and longest <= block), block
        if got is not None:
            assert all(np.array_equal(g, w) for g, w in zip(got, whole))
            assert all(np.array_equal(g, d) for g, d in zip(got, direct))


def test_read_degree_snapshot_holds_its_columns_and_one_block(tmp_path):
    """tracemalloc's peak while a 2e5-row snapshot is read stays within its
    three int64 columns, two read blocks and 64 KiB; the reader holds one
    block and a few small objects besides the columns."""
    if _kernel.load() is None:
        pytest.skip(f"no compiled kernel: {_kernel.error}")
    n = 200_000
    i = np.arange(n)
    path = tmp_path / "degrees.csv"
    rio.write_table(path, ("node", "group", "in_deg", "out_deg"),
                    (i + 1, i % 2 + 1, i % 1000, i * 7 % 101))
    assert path.stat().st_size > 3 * rio.READ_BLOCK
    tracemalloc.start()
    try:
        ind, outd, grp = rio.read_degree_snapshot(path, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ind.tolist() == (i % 1000).tolist() and grp.tolist() == (i % 2).tolist()
    assert peak <= 3 * 8 * n + 2 * rio.READ_BLOCK + (64 << 10), peak


def _snapshot(path, rng, n):
    """Write a degree snapshot of n nodes with heavy-tailed degrees drawn from
    ``rng``; return its (in_deg, out_deg, group) columns, groups 1-based."""
    ind, outd = (np.floor(rng.pareto(rng.uniform(0.5, 3.0), n) * rng.uniform(1, 40))
                 .astype(np.int64) for _ in range(2))
    grp = rng.integers(1, 3, n)
    rio.write_table(path, ("node", "group", "in_deg", "out_deg"),
                    (np.arange(1, n + 1), grp, ind, outd))
    return ind, outd, grp


def _blocks(path, K=2):
    """Copies of the blocks of read_degree_blocks, whose views the next block reuses."""
    return [tuple(column.copy() for column in block) for block in rio.read_degree_blocks(path, K)]


@pytest.mark.parametrize("n, block", [(1, None), (700, 128), (9000, 4096), (60000, None)])
@pytest.mark.parametrize("kernel", [True, False], ids=["kernel", "loadtxt"])
def test_degree_blocks_fold_to_the_pair_table_of_the_columns(tmp_path, monkeypatch, n, block,
                                                             kernel):
    """Folding the blocks, as diagnose does, gives pair_table of the per-node
    columns exactly (pairs, weights, order and dtypes), and the blocks are the
    written columns cut in order, groups 0-based. The kernel's blocks each fill
    at most one buffer; without the kernel, loadtxt reads the file as one block."""
    if kernel and _kernel.load() is None:
        pytest.skip(f"no compiled kernel: {_kernel.error}")
    if not kernel:
        monkeypatch.setattr(_kernel, "load", lambda: None)
    if block is not None:
        monkeypatch.setattr(rio, "READ_BLOCK", block)
    path = tmp_path / "degrees.csv"
    ind, outd, grp = _snapshot(path, np.random.default_rng(n), n)
    blocks = _blocks(path)
    # a kernel block holds the rows that end within one READ_BLOCK-byte read
    body = path.stat().st_size - len(HEADER)
    assert len(blocks) >= -(-body // rio.READ_BLOCK) if kernel else len(blocks) == 1
    for got, want in zip(map(np.concatenate, zip(*blocks)), (ind, outd, grp - 1)):
        assert got.dtype == np.int64 and np.array_equal(got, want)
    for got, want in zip(cli._fold_pair_table(path, 2), pair_table(ind, outd)):
        assert got.dtype == want.dtype and np.array_equal(got, want)


# row -> its text, written into a 40000-row snapshot that spans two read blocks
FALLBACK_CASES = {
    "plus-sign": {35000: "35001,1,+5,0"},
    "blank-cell": {35000: "35001,1, 5,0"},
    "bad-cell": {35000: "35001,1,x,0"},
    "negative-in-both-blocks": {10: "11,1,-9,0", 35000: "35001,1,-3,0"},
    "negative-out-in-later-block": {35000: "35001,1,2,-4"},
    "group-zero-in-later-block": {35000: "35001,0,2,4"},
    "group-above-K-in-both-blocks": {10: "11,5,2,4", 35000: "35001,3,2,4"},
}


@pytest.mark.parametrize("case", FALLBACK_CASES)
def test_degree_blocks_past_a_refused_block_fall_back_to_loadtxt(tmp_path, monkeypatch, case):
    """A cell that the compiled parser refuses past the first block sends the
    whole file to loadtxt, and the rows not yet yielded follow: every row is
    folded once. A bad row fails with read_degree_snapshot's message through
    loadtxt, a degree or group out of range with the file's least or largest
    value, as before the fold."""
    if _kernel.load() is None:
        pytest.skip(f"no compiled kernel: {_kernel.error}")
    n = 40000
    rows = [f"{i + 1},{i % 2 + 1},{i * 7 % 101},{i % 13}" for i in range(n)]
    for i, row in FALLBACK_CASES[case].items():
        rows[i] = row
    path = tmp_path / "degrees.csv"
    path.write_text(HEADER + "\n".join(rows) + "\n")
    assert path.stat().st_size > rio.READ_BLOCK

    def outcome(read):
        try:
            return read()
        except ValueError as exc:
            return str(exc)

    fold = outcome(lambda: cli._fold_pair_table(path, 2))
    blocks = outcome(lambda: _blocks(path))
    whole = outcome(lambda: rio.read_degree_snapshot(path, 2))
    with monkeypatch.context() as slow:
        slow.setattr(_kernel, "load", lambda: None)
        want = outcome(lambda: rio.read_degree_snapshot(path, 2))
    if isinstance(want, str):
        assert fold == blocks == whole == want
        assert want.startswith(f"{path}: ")
        return
    assert len(blocks) > 1 and sum(len(block[0]) for block in blocks) == n
    for got, ref, col in zip(map(np.concatenate, zip(*blocks)), whole, want):
        assert np.array_equal(got, col) and np.array_equal(ref, col)
    for got, ref in zip(fold, pair_table(*want[:2])):
        assert got.dtype == ref.dtype and np.array_equal(got, ref)
    assert fold[2].sum() == n


def _synthetic_snapshot(path, n):
    """Write an n-node degree snapshot CHUNK rows at a time: node i has about
    2000/sqrt(i) in-edges and 1500/i^0.45 out-edges, so the pairs are few and
    the tails distinct at any n."""
    def chunks():
        for lo in range(0, n, rio.CHUNK):
            i = np.arange(lo, min(lo + rio.CHUNK, n))
            yield (i + 1, i % 2 + 1, (2000 / np.sqrt(i + 1)).astype(np.int64) + i % 3,
                   (1500 / (i + 1) ** 0.45).astype(np.int64) + i % 2)
    rio._write_chunks(path, ("node", "group", "in_deg", "out_deg"), chunks())


def test_diagnose_memory_does_not_grow_with_nodes(tmp_path, k2_ref):
    """tracemalloc's peak while diagnose folds a snapshot's pair table and
    takes its tail report is the same at 2e6 nodes as at 2e5, within 512 KiB.
    Three int64 columns per node would add 43 MB."""
    if _kernel.load() is None:
        pytest.skip(f"no compiled kernel: {_kernel.error}")
    sol, spectra = solve_equilibrium(k2_ref), all_spectra(k2_ref)
    paths = []
    for n in (200_000, 2_000_000):
        paths.append(tmp_path / f"degrees-{n}.csv")
        _synthetic_snapshot(paths[-1], n)

    def peak(path):
        tracemalloc.start()
        try:
            report = tail_report(DegreeDataset(*cli._fold_pair_table(path, 2)), sol, spectra)
            return tracemalloc.get_traced_memory()[1], report
        finally:
            tracemalloc.stop()

    peak(paths[0])      # warm-up: first-call caches
    (small, report), (large, _) = peak(paths[0]), peak(paths[1])
    assert report.hill_in is not None and report.hill_out is not None
    assert large <= small + (512 << 10), (small, large)


# sha256 of diagnose's artifacts on snapshots of grow-k2's config (the k2
# model at 5e5 steps, seed 2001) and of demos/configs/k1.json and k2.json as
# they are (1e6 steps), recorded before diagnose folded its pair table block
# by block and took the Hill sweep's sums in chunks
DIAGNOSE_DIGESTS = {
    "grow-k2": {
        "report.json": "9d35581ea825a42d4455c6d5bb139d861c31b4469ad377f9818057c24eb687b2",
        "hill_sweep_in.csv": "3e87f2175e28bf6043b46e0baa375ea72c7d03764b345789b4fb742591ad5e89",
        "hill_sweep_out.csv": "f5d206e5c6a7489fcf33261ac56dfed4f971a304f339bb21cfdf3377eebcbee5",
        "angular_hist.csv": "00de307be7c9666fa627f351d4e6dcd12a7b7e0d0f938a970fdf989e9d3f2a4e",
    },
    "k1": {
        "report.json": "47da74804d6f873441aa2e8a6fa3280946ae27d6ca41183a3e81c6033b6a751e",
        "hill_sweep_in.csv": "c38d398a0ceacbc1d1de92b491726e6b017ca1876a88c0a00261c453a421c0a8",
        "hill_sweep_out.csv": "ea3e14ccbe5be0fee672169a1c564c47fbedb95e5bf270c726dea4dc395ffae0",
        "angular_hist.csv": "972f30584b7838633e047e4f5a2a46299858c1dbde4284a9496724521971644f",
    },
    "k2": {
        "report.json": "f68aa9fb504b9a80c5f6b59b07efbf0d48a31d89efcd1a9eb8a0a26472bdebd0",
        "hill_sweep_in.csv": "bf1fc9c5aeff977cf173fb431125b1ce2216b95654a3d73a68ece3b8d2f05532",
        "hill_sweep_out.csv": "dc431c3c0ce63215f6568dfa3494d5891dea9ac0a99ea4451caed7a4a3a86a03",
        "angular_hist.csv": "cd947548d9796c2b84a387234dd2169150bdb715502eab62a33fa0382092dadb",
    },
}


@pytest.mark.parametrize("name", DIAGNOSE_DIGESTS)
def test_diagnose_artifacts_match_parent_digests(tmp_path, monkeypatch, name):
    """The snapshots span several read blocks. Where the kernel loads, the
    grow-k2 snapshot is also diagnosed through loadtxt; where it does not,
    simulate runs its Python loop and diagnose reads through loadtxt."""
    if name == "grow-k2":
        cfg = tmp_path / "grow-k2.json"
        cfg.write_text(json.dumps({"model": K2_MODEL, "sim": {"n_steps": 500_000, "seed": 2001}}))
    else:
        cfg = CONFIGS / f"{name}.json"
    sim = tmp_path / "simulate"
    assert main(["simulate", "--config", str(cfg), "--out", str(sim)]) == 0
    runs = [True, False] if name == "grow-k2" and _kernel.load() is not None else [True]
    for kernel in runs:
        out = tmp_path / f"diagnose-{kernel}"
        with monkeypatch.context() as patched:
            if not kernel:
                patched.setattr(_kernel, "load", lambda: None)
            assert main(["diagnose", "--config", str(cfg), "--out", str(out),
                         "--input", str(sim / "degrees.csv")]) == 0
        assert sha256s(out, DIAGNOSE_DIGESTS[name]) == DIAGNOSE_DIGESTS[name], kernel


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
    # refused before the file is opened: no file is made, none is truncated
    path, payload = tmp_path / "x.json", {"a": 1, "x": [1.0, np.float64(value)]}
    with pytest.raises(ValueError):
        rio.write_json(path, payload)
    assert not path.exists()
    path.write_bytes(b'{"kept": true}\n')
    with pytest.raises(ValueError):
        rio.write_json(path, payload)
    assert path.read_bytes() == b'{"kept": true}\n'


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
# digests were recorded when the limit law's chunks grew to 2^20 chains, at
# four chunks, with the compiled kernel; --threads 1 and 2 must write them
# alike, and the numpy statements write the same bytes, which CI checks with
# a cache directory the loader refuses
PARENT_TABLE_DIGESTS = {
    "embed": {
        "pmf.csv": "972755a212f86508c80d7c207f0ca9f41f7233fd76082f45b2528bf0ff59f68e",
        "pmf_group_1.csv": "e9f86ed0f2f8185cb18dbf794396da344f7114e6386983e4096c6b01f10aec82",
        "pmf_group_2.csv": "427a9dd4d8c0019f855da0922f8d19d4a77e2b579bf5887848d4f770ca29a322",
        "pmf.json": "cb8187ed5aea9c21090f9fc855c120f943090be39570d5e8e95d4bdce06ad9e6",
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
                 {"embed": {"replicates": 3_200_000, "kmax": 12, "lmax": 12, "seed": 3}},
                 "--threads", threads)
    assert sha256s(out, PARENT_TABLE_DIGESTS["embed"]) == PARENT_TABLE_DIGESTS["embed"]


def test_analyze_and_verify_json_match_parent_digests(tmp_path):
    analyze = run_k2(tmp_path, "analyze", {})
    verify = run_k2(tmp_path, "verify",
                    {"verify": {"n": 2, "replicates": 5000, "repetitions": 2, "seed": 9}})
    assert sha256s(analyze, ["analyze.json"]) == PARENT_TABLE_DIGESTS["analyze"]
    assert sha256s(verify, ["verify.json"]) == PARENT_TABLE_DIGESTS["verify"]
