"""The compiled kernel against the Python statements of its rules.

``simulate._advance`` runs ``_kernel.c`` on large blocks when it builds
and its own loop otherwise, ``io._write_chunks`` formats all-integer
chunks with it instead of its ``%s`` template, ``branching`` runs its
fixed-horizon MBI loop and its limit-law chunks (the binomial flow of
the killed chains, tallied or as rows) with it instead of numpy, and
``embedding.embedding_chains`` runs its linked chains with it. Each must
leave the same state, the same counts and the same generator state, and
write the same bytes; any failure to build or load falls back to the
Python code.
The Python side of each comparison runs with ``_kernel.load`` patched to
return None.
"""

import os
import shutil
from importlib import resources
from types import SimpleNamespace

import numpy as np
import pytest

from recipnet import (ResourceLimit, SimConfig, estimate_pkl, group_rates, run,
                      simulate_mbi_batch, solve_equilibrium, validate_params)
from recipnet import _kernel, branching, embedding, simulate
from recipnet import io as rio
from recipnet.params import ModelParams
from recipnet.simulate import GraphState
from conftest import K2_MODEL, run_k2, sha256s

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


def format_rows(lib, columns, spare=0):
    """``rn_format_int_rows`` on 1-d integer ``columns``, read where they lie:
    the bytes it wrote, and the ``spare`` bytes past its room."""
    rows, w = len(columns[0]), len(columns)
    room = rows * w * 21                    # the room the entry point asks for
    buf = np.full(room + spare, 0xA5, dtype=np.uint8)
    layout = _kernel.column_layout(columns)
    n = lib.rn_format_int_rows(layout.ctypes.data, rows, w, buf.ctypes.data)
    return buf[:n].tobytes(), buf[room:]


def str_rows(columns) -> bytes:
    """The rows as the ``%s`` template writes them: ``str()`` of each cell."""
    return "".join(",".join(map(str, row)) + "\n"
                   for row in zip(*(col.tolist() for col in columns))).encode()


def parse_rows(lib, data: bytes, w: int, cap: int, keep):
    """``rn_parse_int_rows`` on ``data`` with a destination for each column
    j in ``keep`` and NULL for the others: its return value and the kept
    columns, each of ``cap`` cells (-7 where it wrote none)."""
    buf = np.frombuffer(data + b"\0", dtype=np.uint8)     # never empty, so it has an address
    columns = {j: np.full(cap, -7, dtype=np.int64) for j in keep}
    dest = np.zeros(w, dtype=np.uintp)
    for j, column in columns.items():
        dest[j] = column.ctypes.data
    rows = lib.rn_parse_int_rows(buf.ctypes.data, len(data), w, cap, dest.ctypes.data)
    return rows, columns


@pytest.mark.skipif(NO_CC, reason=f"no C compiler ({_kernel.CC}) to build the kernel")
def test_format_int_rows_matches_str():
    lib = _kernel.load()
    assert lib is not None, _kernel.error
    i64, u64 = np.iinfo(np.int64), np.iinfo(np.uint64)
    wide = np.array([i64.min, i64.max, 0, -1, 10, -9223372036854775807], dtype=np.int64)
    grid = np.arange(-36, 36, dtype=np.int16).reshape(6, 12) * 910    # to -32760 and 31850
    columns = [wide, np.array([u64.max, 0, 1, 99, 100, 10**19], dtype=np.uint64),
               wide[::-1],                                           # a negative stride
               grid[:, 3], grid[::-1, 11],                           # strided int16
               np.array([-128, 5, 127, 7, 0, 1, -1, 2, 9, 3, 10, 4], dtype=np.int8)[::2],
               np.arange(250, 256, dtype=np.uint8)[::-1],
               np.array([0, 2**32 - 1, 1, 10**9, 10**9 - 1, 42], dtype=np.uint32),
               np.array([-2**31, 2**31 - 1, 0, -1, -10**9, 10**9], dtype=np.int32),
               np.array([0, 2**16 - 1, 9, 10, 99, 100], dtype=np.uint16)]
    assert any(col.strides[0] < 0 for col in columns)
    for col in columns:
        text, spare = format_rows(lib, [col], spare=8)
        assert text == str_rows([col]) and (spare == 0xA5).all(), col.dtype
    text, spare = format_rows(lib, columns, spare=8)
    assert text == str_rows(columns) and (spare == 0xA5).all()
    assert format_rows(lib, [wide[:0], wide[:0]])[0] == b""


@pytest.mark.skipif(NO_CC, reason=f"no C compiler ({_kernel.CC}) to build the kernel")
def test_parse_int_rows_reads_what_format_int_rows_writes():
    lib = _kernel.load()
    assert lib is not None, _kernel.error
    big = 10**18 - 1                       # the most digits the parser takes
    cells = np.array([[-big, big, 0], [-1, 1, -10], [9, 10, 123456789012]], dtype=np.int64)
    rows, w = cells.shape
    data = format_rows(lib, list(cells.T))[0]
    # one row of room to spare, and column 1 checked and dropped
    read, kept = parse_rows(lib, data, w, rows + 1, [0, 2])
    assert read == rows
    for j, column in kept.items():
        assert np.array_equal(column[:rows], cells[:, j]) and column[rows] == -7
    assert parse_rows(lib, data, w, rows, [])[0] == rows      # every column dropped
    # a table with more rows than room for them
    assert parse_rows(lib, data, w, rows - 1, [0, 1, 2])[0] == -1
    # a dropped column is still checked
    assert parse_rows(lib, b"1,x,2\n", 3, 1, [0, 2])[0] == -1
    # int64's extremes have 19 digits, so loadtxt reads them instead
    for x in (np.iinfo(np.int64).min, np.iinfo(np.int64).max, 10**18):
        assert parse_rows(lib, f"{x}\n".encode(), 1, 1, [0])[0] == -1
        assert parse_rows(lib, f"{x}\n".encode(), 1, 1, [])[0] == -1


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
    # three chunks on two workers: the pool forks with no library loaded
    est = estimate_pkl(k2_ref, solve_equilibrium(k2_ref), replicates=3000, kmax=5, lmax=5,
                       seed=2, chunk_size=1000, workers=2)
    assert est.group_counts.sum() + est.group_overflow_counts.sum() + est.failed == 3000
    # the linked chains run as numpy
    assert embedding.verify_equivalence(k2_ref, n=2, replicates=500, seed=1).df > 0


@pytest.mark.skipif(NO_CC, reason=f"no C compiler ({_kernel.CC}) to build the kernel")
def test_build_keeps_only_the_newest_libraries(fresh_loader):
    fresh_loader.mkdir(mode=0o700)
    old = [fresh_loader / f"rn_kernel-{i:024x}.so" for i in range(6)]
    others = [fresh_loader / name for name in ("rn_kernel-notes.txt", "kernel-old.so")]
    for age, path in enumerate(old + others):
        path.write_bytes(b"an older build")
        os.utime(path, (1e9 - 1e6 * age, 1e9 - 1e6 * age))   # old[0] is the newest
    assert _kernel.load() is not None, _kernel.error
    built = _kernel.library_name(_kernel.source().read_bytes())
    kept = [built, *(path.name for path in old[:_kernel.KEPT_LIBRARIES - 1])]
    assert sorted(os.listdir(fresh_loader)) == sorted(kept + [p.name for p in others])
    # a cache hit deletes nothing
    old[-1].write_bytes(b"an older build")
    _kernel._build()
    assert sorted(os.listdir(fresh_loader)) == sorted(kept + [old[-1].name]
                                                      + [p.name for p in others])


@pytest.mark.skipif(NO_CC, reason=f"no C compiler ({_kernel.CC}) to build the kernel")
def test_build_keeps_the_library_in_use(fresh_loader):
    assert _kernel.load() is not None, _kernel.error
    built = fresh_loader / _kernel.library_name(_kernel.source().read_bytes())
    os.utime(built, (1e9, 1e9))         # built long ago
    _kernel._tried = False
    assert _kernel.load() is not None, _kernel.error      # a later process loads it
    # then KEPT_LIBRARIES newer builds land, each from another source
    newer = [fresh_loader / f"rn_kernel-{i:024x}.so" for i in range(_kernel.KEPT_LIBRARIES)]
    for age, path in enumerate(newer):
        path.write_bytes(b"a newer build")
        os.utime(path, (1e9 + 1e6 * (age + 1), 1e9 + 1e6 * (age + 1)))
        _kernel._prune(str(fresh_loader), str(path))
    assert built.is_file()


def test_machine_is_platform_machine():
    import platform

    assert _kernel._machine() == platform.machine()


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


def _mbi_model(name):
    if name == "k1":
        return validate_params(alpha=0.5, delta=1.0, pi=[1.0], rho=[[0.5]])
    if name == "k2":
        return validate_params(**K2_MODEL)
    if name == "k3-zero-group":   # group 2 neither sends nor receives a reciprocal edge
        return validate_params(alpha=0.35, delta=0.7, pi=[0.5, 0.3, 0.2],
                               rho=[[0.6, 0.3, 0.0], [0.8, 0.5, 0.0], [0.0, 0.0, 0.0]])
    rng = np.random.default_rng(5)
    K = 200
    return validate_params(alpha=0.55, delta=1.3, pi=rng.dirichlet(np.ones(K)),
                           rho=rng.uniform(0.0, 1.0, (K, K)))


MBI_MODELS = ["k1", "k2", "k3-zero-group", "k200"]
BUDGETS = [1, 12, branching.DEFAULT_EVENT_BUDGET]


def _compiled_and_numpy(monkeypatch, fn):
    """``fn()`` through the compiled MBI engine, then through numpy."""
    assert _kernel.load() is not None, _kernel.error
    compiled = fn()
    monkeypatch.setattr(_kernel, "load", lambda: None)
    return compiled, fn()


def _batch(params, rows, seed, **kwargs):
    """simulate_mbi_batch on ``rows`` random rows, and four uniforms drawn after it."""
    draw = np.random.default_rng(seed)
    labels = draw.integers(0, params.K, rows)
    inits = draw.integers(0, 3, (rows, 2))
    t_ends = draw.exponential(0.8, rows)
    rng = np.random.default_rng(seed + 1)
    out = simulate_mbi_batch(labels, inits, t_ends, params, group_rates(params), rng, **kwargs)
    return (*out, rng.random(4))


def _assert_same(compiled, numpy_side):
    assert len(compiled) == len(numpy_side)
    for a, b in zip(compiled, numpy_side):
        assert a.dtype == b.dtype and np.array_equal(a, b)


@pytest.mark.skipif(NO_CC, reason=f"no C compiler ({_kernel.CC}) to build the kernel")
@pytest.mark.parametrize("budget", BUDGETS, ids=["budget-1", "budget-12", "budget-default"])
@pytest.mark.parametrize("model", MBI_MODELS)
def test_mbi_batch_matches_numpy_loop(monkeypatch, model, budget):
    params = _mbi_model(model)
    compiled, numpy_side = _compiled_and_numpy(
        monkeypatch, lambda: _batch(params, 3000, 7, event_budget=budget))
    _assert_same(compiled, numpy_side)
    n1, n2, events, failed, _ = compiled
    assert failed.any() == (budget < 1000)
    if budget < 1000:
        assert events.max() == budget


@pytest.mark.skipif(NO_CC, reason=f"no C compiler ({_kernel.CC}) to build the kernel")
@pytest.mark.parametrize("rows", [0, 1])
def test_mbi_batch_of_no_row_or_one_row_matches_numpy_loop(monkeypatch, k2_ref, rows):
    _assert_same(*_compiled_and_numpy(monkeypatch, lambda: _batch(k2_ref, rows, 3)))


@pytest.mark.skipif(NO_CC, reason=f"no C compiler ({_kernel.CC}) to build the kernel")
def test_mbi_batch_absorbing_rows_match_numpy_loop(monkeypatch):
    # delta = 0 makes (0, 0) absorbing: its rate is 0, its wait inf, and it stops at once
    params = ModelParams(alpha=0.5, gamma=0.5, delta=0.0, K=2, pi=np.array([0.5, 0.5]),
                         rho=np.array(K2_MODEL["rho"]))
    inits = np.tile([[0, 0], [0, 1], [1, 0], [2, 3]], (50, 1))
    labels = np.arange(len(inits)) % 2

    def batch():
        rng = np.random.default_rng(2)
        out = simulate_mbi_batch(labels, inits, np.full(len(inits), 1.0), params,
                                 group_rates(params), rng)
        return (*out, rng.random(4))

    compiled, numpy_side = _compiled_and_numpy(monkeypatch, batch)
    _assert_same(compiled, numpy_side)
    n1, n2, events, failed, _ = compiled
    still = (inits == 0).all(axis=1)
    assert (n1[still] == 0).all() and (n2[still] == 0).all() and (events[still] == 0).all()
    assert not failed.any() and (events[~still] > 0).any()


def test_mbi_batch_leaves_labels_out_of_range_to_numpy(k2_ref):
    # the compiled loop would read past rho_row; numpy's indexing raises instead
    with pytest.raises(IndexError):
        simulate_mbi_batch(np.array([0, 2]), np.ones((2, 2), dtype=np.int64), np.ones(2),
                           k2_ref, group_rates(k2_ref), np.random.default_rng(0))


def _estimate(params, sol, **kwargs):
    est = estimate_pkl(params, sol, **kwargs)
    return est.group_counts, est.group_overflow_counts, np.array(est.failed)


@pytest.mark.skipif(NO_CC, reason=f"no C compiler ({_kernel.CC}) to build the kernel")
@pytest.mark.filterwarnings("ignore:.*(contraction|regularity):RuntimeWarning")  # k200
@pytest.mark.parametrize("budget", BUDGETS, ids=["budget-1", "budget-12", "budget-default"])
@pytest.mark.parametrize("model", MBI_MODELS)
def test_estimate_pkl_matches_numpy_tally(monkeypatch, model, budget):
    params = _mbi_model(model)
    sol = solve_equilibrium(params)
    draw = dict(replicates=5000, kmax=6, lmax=9, seed=13, event_budget=budget,
                chunk_size=2048)
    compiled, numpy_side = _compiled_and_numpy(monkeypatch,
                                               lambda: _estimate(params, sol, **draw))
    _assert_same(compiled, numpy_side)
    counts, over, failed = compiled
    assert counts.sum() + over.sum() + failed == 5000
    assert (failed > 0) == (budget < 1000)


@pytest.mark.skipif(NO_CC, reason=f"no C compiler ({_kernel.CC}) to build the kernel")
@pytest.mark.parametrize("replicates, chunk_size, kmax, lmax", [
    (7, 1, 0, 3),
    (branching.CHUNK + 2, branching.CHUNK + 1, 4, 0),
], ids=["chunk-1-kmax-0", "chunk-plus-one-lmax-0"])
def test_estimate_pkl_chunk_edges_match_numpy_tally(monkeypatch, k2_ref, replicates,
                                                    chunk_size, kmax, lmax):
    sol = solve_equilibrium(k2_ref)
    draw = dict(replicates=replicates, kmax=kmax, lmax=lmax, seed=4, chunk_size=chunk_size)
    _assert_same(*_compiled_and_numpy(monkeypatch, lambda: _estimate(k2_ref, sol, **draw)))


def run_with(load, fn):
    """``fn()`` with ``_kernel.load`` returning ``load``: its outputs, then
    the state of the one numpy Generator it made and four uniforms drawn
    from it after the call."""
    made = []
    real = np.random.default_rng
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(np.random, "default_rng", lambda *args: made.append(real(*args)) or made[-1])
        patch.setattr(_kernel, "load", lambda: load)
        out = fn()
    assert len(made) == 1
    return (*out, made[0].random(4)), made[0].bit_generator.state


def assert_same_run(load, fn):
    """``fn`` through ``load``'s entry points and through numpy: the same
    arrays, dtypes and generator state."""
    compiled, compiled_state = run_with(load, fn)
    numpy_side, numpy_state = run_with(None, fn)
    assert len(compiled) == len(numpy_side)
    for a, b in zip(compiled, numpy_side):
        assert a.dtype == b.dtype and np.array_equal(a, b)
    assert compiled_state == numpy_state


def _flow_job(model, size, budget):
    params = _chains_model(model)
    sampler = branching.LimitPairSampler.from_solution(params, solve_equilibrium(params))
    return (params, group_rates(params), sampler, 2, size, 31, budget)


@pytest.mark.skipif(NO_CC, reason=f"no C compiler ({_kernel.CC}) to build the kernel")
@pytest.mark.filterwarnings("ignore:.*contraction:RuntimeWarning")     # k3
@pytest.mark.parametrize("size, budget", [
    (0, branching.DEFAULT_EVENT_BUDGET), (1, 0), (1, branching.DEFAULT_EVENT_BUDGET),
    (5000, 1), (5000, 2), (5000, 5), (200_000, branching.DEFAULT_EVENT_BUDGET),
], ids=["size-0", "size-1-budget-0", "size-1", "budget-1", "budget-2", "budget-5", "size-2e5"])
@pytest.mark.parametrize("model", ["k1", "k2", "k3-zero-pi-binary-rho"])
def test_mbi_flow_matches_numpy_statement(model, size, budget):
    # both modes, with the generator's state after the call; at 2e5 chains
    # the first layers' binomials have n*p far above 30, so BTPE runs, and
    # the grids of kmax 0 and lmax 0 send most chains to the overflow
    lib = _kernel.load()
    assert lib is not None, _kernel.error
    modes = []

    def rn_mbi_flow(*args):
        modes.append(args[14] is None)
        return lib.rn_mbi_flow(*args)

    kernel = SimpleNamespace(rn_mbi_flow=rn_mbi_flow)
    job = _flow_job(model, size, budget)
    assert_same_run(kernel, lambda: branching._sample_chunk(job))
    for kmax, lmax in ((0, 3), (4, 0), (6, 9)):
        assert_same_run(kernel, lambda: [branching._tally_chunk((job, kmax, lmax))])
    assert modes == [True, False, False, False]


@pytest.mark.skipif(NO_CC, reason=f"no C compiler ({_kernel.CC}) to build the kernel")
@pytest.mark.parametrize("threads", ["1", "2"])
def test_embed_artifacts_match_without_kernel(tmp_path, monkeypatch, threads):
    body = {"embed": {"replicates": 70000, "kmax": 7, "lmax": 11, "seed": 4,
                      "event_budget": 30}}
    names = ["pmf.csv", "pmf_group_1.csv", "pmf_group_2.csv", "pmf.json"]

    def embed(name):
        return sha256s(run_k2(tmp_path / name, "embed", body, "--threads", threads), names)

    (tmp_path / "compiled").mkdir()
    (tmp_path / "numpy").mkdir()
    compiled = embed("compiled")
    monkeypatch.setattr(_kernel, "load", lambda: None)
    assert embed("numpy") == compiled


def _chains_model(name):
    if name != "k3-zero-pi-binary-rho":
        return _mbi_model(name)
    # group 1 is never drawn, and every coin but one is certain
    return validate_params(alpha=0.35, delta=0.7, pi=[0.6, 0.0, 0.4],
                           rho=[[1.0, 0.0, 0.5], [0.0, 1.0, 1.0], [1.0, 0.0, 0.0]])


def chains_and_after(params, n, replicates, seed):
    """``embedding_chains`` output, the generator's state after it, and
    four uniforms drawn after it."""
    rng = np.random.default_rng(seed)
    out = embedding.embedding_chains(params, n, replicates, rng)
    state = rng.bit_generator.state
    return (*out, rng.random(4)), state


def assert_chains_match_numpy(monkeypatch, lib, params, n, replicates, seed):
    """The compiled chains, run through ``lib``, against the numpy loop."""
    calls = []

    def rn_chains(*args):
        calls.append(args[1:3])
        return lib.rn_chains(*args)

    monkeypatch.setattr(_kernel, "load", lambda: SimpleNamespace(rn_chains=rn_chains))
    compiled, compiled_state = chains_and_after(params, n, replicates, seed)
    monkeypatch.setattr(_kernel, "load", lambda: None)
    numpy_side, numpy_state = chains_and_after(params, n, replicates, seed)
    assert calls == [(n, replicates)]       # the compiled side ran the kernel
    _assert_same(compiled, numpy_side)
    assert compiled_state == numpy_state


@pytest.mark.skipif(NO_CC, reason=f"no C compiler ({_kernel.CC}) to build the kernel")
@pytest.mark.parametrize("n", [0, 1, 2, 3, 6])
@pytest.mark.parametrize("model", ["k1", "k2", "k3-zero-pi-binary-rho"])
def test_chains_match_numpy_loop(monkeypatch, model, n):
    lib = _kernel.load()
    assert lib is not None, _kernel.error
    params = _chains_model(model)
    for replicates in (0, 1, 3, 7, 4096, embedding.CHUNK + 1):
        with monkeypatch.context() as patch:
            assert_chains_match_numpy(patch, lib, params, n, replicates, 10 * n + replicates)


@pytest.mark.filterwarnings("ignore:divide by zero:RuntimeWarning")   # the rate-0 clocks
def test_chains_leave_zero_rates_to_numpy(monkeypatch):
    # delta = 0 gives a child with no type-I particle a rate-0 clock; 0 / 0
    # would be NaN, which np.argmin picks and the compiled select would not
    def refuse(*args):
        raise AssertionError("rn_chains ran with a zero rate")

    monkeypatch.setattr(_kernel, "load", lambda: SimpleNamespace(rn_chains=refuse))
    params = ModelParams(alpha=0.5, gamma=0.5, delta=0.0, K=2, pi=np.array([0.5, 0.5]),
                         rho=np.array(K2_MODEL["rho"]))
    labels, n1, n2 = embedding.embedding_chains(params, 3, 50, np.random.default_rng(0))
    assert (n1.sum(axis=1) == n2.sum(axis=1)).all() and (n1[:, 1:] == 0).any()


@pytest.mark.skipif(NO_CC, reason=f"no C compiler ({_kernel.CC}) to build the kernel")
def test_library_exports_only_rn_symbols():
    lib = _kernel.load()
    assert lib is not None, _kernel.error
    for name in ("rn_advance", "rn_format_int_rows", "rn_parse_int_rows", "rn_mbi_batch",
                 "rn_mbi_flow", "rn_chains"):
        assert hasattr(lib, name), name
    # --exclude-libs keeps libnpyrandom.a's symbols out of the dynamic table
    for name in ("random_standard_exponential_fill", "random_standard_uniform_fill",
                 "random_standard_exponential", "random_binomial", "random_multinomial",
                 "rn_draw_group", "rn_record"):
        assert not hasattr(lib, name), name


def test_library_name_tracks_numpy_random_files(tmp_path, monkeypatch):
    import numpy

    code = _kernel.source().read_bytes()
    shipped = {"HEADER": os.path.join(numpy.get_include(), *_kernel.HEADER),
               "ARCHIVE": os.path.join(os.path.dirname(numpy.__file__), *_kernel.ARCHIVE)}
    for part, path in shipped.items():
        copy = tmp_path / os.path.basename(path)
        shutil.copyfile(path, copy)
        monkeypatch.setattr(_kernel, part, (str(copy),))
        before = _kernel.library_name(code)
        copy.write_bytes(copy.read_bytes() + b"\n")     # an upgraded numpy
        assert _kernel.library_name(code) != before, part


@pytest.mark.parametrize("part", ["HEADER", "ARCHIVE"])
def test_missing_numpy_random_file_falls_back(fresh_loader, monkeypatch, k2_ref, part):
    monkeypatch.setattr(_kernel, part, ("recipnet-no-such-file",))
    _assert_falls_back("missing", k2_ref)
    assert os.listdir(fresh_loader) == []


@pytest.mark.skipif(NO_CC, reason=f"no C compiler ({_kernel.CC}) to build the kernel")
def test_mbi_link_error_falls_back(fresh_loader, monkeypatch, k2_ref):
    monkeypatch.setattr(_kernel, "LINK", (*_kernel.LINK, "-lrecipnet-no-such-library"))
    _assert_falls_back("exited", k2_ref)
    assert os.listdir(fresh_loader) == []  # the failed link leaves no file


@pytest.mark.skipif(NO_CC, reason=f"no C compiler ({_kernel.CC}) to build the kernel")
def test_group_draw_ties_and_clamp_match_python_loop(monkeypatch):
    # a uniform equal to a cumulative sum goes to the next group (side="right");
    # pi sums to just below 1, so the largest uniforms lie above every
    # cumulative sum and draw_groups clamps them into the last group
    params = validate_params(alpha=0.4, delta=1.0, pi=[0.3, 0.2, 0.5 - 1e-13],
                             rho=np.full((3, 3), 0.5))
    u = np.random.default_rng(6).random((simulate.COMPILED_MIN_ROWS, 5))
    u[::2, 3] = np.nextafter(1.0, 0.0)
    u[1::4, 3] = np.cumsum(params.pi)[1]

    def advance():
        state = simulate.init_graph(params, np.random.default_rng(1))
        simulate._advance(state, params, u)
        return state

    assert _kernel.load() is not None, _kernel.error
    compiled = advance()
    monkeypatch.setattr(_kernel, "load", lambda: None)
    python = advance()
    for name in STATE_FIELDS:
        assert np.array_equal(getattr(compiled, name), getattr(python, name)), name
    assert (compiled.node_group[2::2] == 2).all() and (compiled.node_group[3::4] == 2).all()
