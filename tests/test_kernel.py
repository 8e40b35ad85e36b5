"""The compiled kernel against the Python statements of its rules.

``simulate._advance`` runs ``_kernel.c`` on large blocks when it builds
and its own loop otherwise, and ``io._write_chunks`` formats all-integer
chunks with it instead of its ``%s`` template. Both must leave the same
state and write the same bytes; any failure to build or load falls back
to the Python code.
"""

import os
import shutil
from importlib import resources

import numpy as np
import pytest

from recipnet import ResourceLimit, SimConfig, run, validate_params
from recipnet import _kernel, simulate
from recipnet import io as rio
from recipnet.simulate import GraphState
from conftest import run_k2, sha256s

NO_CC = shutil.which(_kernel.CC) is None

STATE_FIELDS = ("in_pool", "out_pool", "in_deg", "out_deg", "node_group",
                "group_in_edges", "group_out_edges", "group_node_counts")


@pytest.fixture
def fresh_loader(monkeypatch, tmp_path):
    """A loader that has not tried yet, caching under ``tmp_path``."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    monkeypatch.setattr(_kernel, "_tried", False)
    monkeypatch.setattr(_kernel, "_lib", None)
    monkeypatch.setattr(_kernel, "error", None)
    return tmp_path / "recipnet"


def _simulate_and_diagnose(tmp_path, k2_ref):
    tmp_path.mkdir()
    snaps = [1, 65535, 65536, 65537, 131072, 150000, 200000]
    result = run(k2_ref, SimConfig(n_steps=200_000, seed=11, snapshot_steps=tuple(snaps)))
    sim = run_k2(tmp_path, "simulate", {"sim": {"n_steps": 200_000, "seed": 11,
                                                "snapshots": snaps, "emit_edges": True}})
    diag = run_k2(tmp_path, "diagnose", {}, "--input", str(sim / "degrees.csv"))
    files = {"simulate": sorted(p.name for p in sim.iterdir() if p.name != "config.json"),
             "diagnose": sorted(p.name for p in diag.iterdir() if p.name != "config.json")}
    return result, {"simulate": sha256s(sim, files["simulate"]),
                    "diagnose": sha256s(diag, files["diagnose"])}


@pytest.mark.skipif(NO_CC, reason=f"no C compiler ({_kernel.CC}) to build the kernel")
def test_compiled_kernel_matches_python_loop(tmp_path, k2_ref, monkeypatch):
    assert _kernel.load() is not None, _kernel.error
    compiled, compiled_files = _simulate_and_diagnose(tmp_path / "compiled", k2_ref)
    monkeypatch.setattr(_kernel, "load", lambda: None)
    python, python_files = _simulate_and_diagnose(tmp_path / "python", k2_ref)

    a, b = compiled.state, python.state
    for name in STATE_FIELDS:
        assert np.array_equal(getattr(a, name), getattr(b, name)), name
    assert (a.n, a.n_nodes, a.edge_count, a.reciprocal_count) == (
        b.n, b.n_nodes, b.edge_count, b.reciprocal_count)
    for name in ("total_edges", "group_in", "group_out"):
        assert np.array_equal(getattr(compiled.trajectory, name),
                              getattr(python.trajectory, name)), name
    a.check_invariants()
    assert compiled_files == python_files
    assert {"edges.csv", "degrees.csv", "trajectory.csv", "summary.json"} <= set(
        compiled_files["simulate"])


@pytest.mark.skipif(NO_CC, reason=f"no C compiler ({_kernel.CC}) to build the kernel")
def test_format_int_rows_matches_str():
    lib = _kernel.load()
    assert lib is not None, _kernel.error
    i64 = np.iinfo(np.int64)
    cells = np.array([[i64.min, i64.max, 0], [-1, 1, -10], [9, 10, -9223372036854775807]],
                     dtype=np.int64)
    rows, w = cells.shape
    buf = np.empty(rows * w * 21, dtype=np.uint8)
    n = lib.rn_format_int_rows(cells.ctypes.data, rows, w, buf.ctypes.data)
    expected = "".join(",".join(map(str, row)) + "\n" for row in cells.tolist())
    assert buf[:n].tobytes() == expected.encode()
    assert n == len(expected)


def _tables(n):
    """Integer tables of ``n`` rows: extreme int64, int8 and int32 columns."""
    i64, i32, i8 = np.iinfo(np.int64), np.iinfo(np.int32), np.iinfo(np.int8)
    wide = np.resize(np.array([i64.min, i64.max, 0, -1], dtype=np.int64), n)
    small = np.resize(np.array([i8.min, i8.max, 0, -1], dtype=np.int8), n)
    mid = np.resize(np.array([i32.min, i32.max, 0, -1], dtype=np.int32), n)
    return {"wide.csv": (("a",), (wide,)),
            "mixed.csv": (("a", "b", "c", "d"), (np.arange(n), small, mid, wide))}


@pytest.mark.skipif(NO_CC, reason=f"no C compiler ({_kernel.CC}) to build the kernel")
@pytest.mark.parametrize("n", [1, rio.CHUNK + 1], ids=["one-row", "chunk-plus-one"])
def test_integer_tables_match_python_template(tmp_path, monkeypatch, n):
    lib = _kernel.load()
    assert lib is not None, _kernel.error
    calls = []
    monkeypatch.setattr(_kernel, "load", lambda: calls.append(1) or lib)
    for name, (header, columns) in _tables(n).items():
        rio.write_table(tmp_path / name, header, columns)
        expected = [",".join(header)] + [",".join(map(str, row))
                                         for row in zip(*(c.tolist() for c in columns))]
        assert (tmp_path / name).read_text().splitlines() == expected, name
    assert len(calls) == 2 * -(-n // rio.CHUNK)    # every chunk went through the kernel
    compiled = {name: (tmp_path / name).read_bytes() for name in _tables(n)}
    monkeypatch.setattr(_kernel, "load", lambda: None)
    for name, (header, columns) in _tables(n).items():
        rio.write_table(tmp_path / name, header, columns)
        assert (tmp_path / name).read_bytes() == compiled[name], name


def test_bool_and_float_tables_keep_the_python_template(tmp_path, monkeypatch):
    calls = []
    monkeypatch.setattr(_kernel, "load", lambda: calls.append(1))
    rio.write_table(tmp_path / "t.csv", ("i", "b"),
                    (np.arange(3), np.array([True, False, True])))
    rio.write_table(tmp_path / "u.csv", ("x",), (np.array([0.5, 2.0]),))
    assert (tmp_path / "t.csv").read_text() == "i,b\n0,True\n1,False\n2,True\n"
    assert (tmp_path / "u.csv").read_text() == "x\n0.5\n2.0\n"
    assert calls == []


def test_kernel_source_is_package_data(fresh_loader):
    src = resources.files("recipnet") / "_kernel.c"
    assert src.is_file()
    assert _kernel.source() == src
    if NO_CC:
        pytest.skip(f"no C compiler ({_kernel.CC}) to build the kernel")
    assert _kernel.load() is not None, _kernel.error
    built = fresh_loader / _kernel.library_name(src.read_bytes())
    assert built.is_file()
    assert os.listdir(fresh_loader) == [built.name]  # no temporary file left behind
    assert os.stat(fresh_loader).st_mode & 0o777 == 0o700


def _assert_falls_back(match, k2_ref):
    assert _kernel.load() is None
    assert _kernel.error is not None and match in _kernel.error, _kernel.error
    result = run(k2_ref, SimConfig(n_steps=300, seed=4))  # blocks big enough for the kernel
    result.state.check_invariants()


def test_missing_compiler_falls_back(fresh_loader, monkeypatch, k2_ref):
    monkeypatch.setattr(_kernel, "CC", "recipnet-no-such-compiler")
    _assert_falls_back("FileNotFoundError", k2_ref)


@pytest.mark.skipif(NO_CC, reason=f"no C compiler ({_kernel.CC}) to build the kernel")
def test_build_error_falls_back(fresh_loader, monkeypatch, k2_ref):
    monkeypatch.setattr(_kernel, "FLAGS", (*_kernel.FLAGS, "-fno-such-option-recipnet"))
    _assert_falls_back("exited", k2_ref)
    assert os.listdir(fresh_loader) == []  # the failed build leaves no file


def test_shared_cache_dir_falls_back(fresh_loader, k2_ref):
    fresh_loader.mkdir()
    fresh_loader.chmod(0o777)
    _assert_falls_back("not private", k2_ref)


def test_unloadable_library_falls_back(fresh_loader, k2_ref):
    fresh_loader.mkdir(mode=0o700)
    name = _kernel.library_name(_kernel.source().read_bytes())
    (fresh_loader / name).write_bytes(b"not a shared object")
    _assert_falls_back("OSError", k2_ref)


def test_run_refuses_int32_overflow_before_allocating(k1_ref, monkeypatch):
    def no_allocation(*args, **kwargs):
        raise AssertionError("run allocated graph state")

    monkeypatch.setattr(simulate, "GraphState", no_allocation)
    with pytest.raises(ResourceLimit, match="int32"):
        run(k1_ref, SimConfig(n_steps=2**30, seed=0, max_edges=2**40))


def test_reserve_refuses_int32_overflow():
    state = GraphState(1)
    state.edge_count = simulate.INT32_MAX - 1
    with pytest.raises(ResourceLimit, match="int32"):
        state.reserve(1)


@pytest.mark.skipif(NO_CC, reason=f"no C compiler ({_kernel.CC}) to build the kernel")
def test_int32_groups_match_python_loop(monkeypatch):
    # more than 127 groups store labels as int32 instead of int8
    rng = np.random.default_rng(3)
    K = 200
    params = validate_params(alpha=0.4, delta=0.8, pi=np.full(K, 1.0 / K),
                             rho=rng.uniform(0.0, 1.0, (K, K)))
    config = SimConfig(n_steps=5000, seed=8, snapshot_steps=(100, 5000))
    assert _kernel.load() is not None, _kernel.error
    compiled = run(params, config).state
    monkeypatch.setattr(_kernel, "load", lambda: None)
    python = run(params, config).state
    assert compiled.node_group.dtype == np.int32
    for name in STATE_FIELDS:
        assert np.array_equal(getattr(compiled, name), getattr(python, name)), name
    assert compiled.reciprocal_count == python.reciprocal_count
    compiled.check_invariants()


@pytest.mark.skipif(NO_CC, reason=f"no C compiler ({_kernel.CC}) to build the kernel")
def test_kernel_refuses_input_it_would_index_out_of_bounds(k2_ref):
    assert _kernel.load() is not None, _kernel.error
    state = simulate.init_graph(k2_ref, np.random.default_rng(0))
    u = np.random.default_rng(1).random((32, 5))
    for bad in (np.where(np.arange(5) == 2, 1.0, u), u[:, :4], np.where(u < 0.5, u, np.nan)):
        with pytest.raises(ValueError, match="bad kernel input"):
            simulate._advance(state, k2_ref, bad)
    assert (state.n, state.n_nodes, state.edge_count) == (0, 1, 1)
