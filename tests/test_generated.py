"""Generated differential tests of the compiled kernel against its statements.

Hypothesis draws the inputs: models and blocks of uniforms for
``rn_advance`` against the loop of ``simulate._advance``; models for
``rn_chains`` against the numpy loop of ``embedding.embedding_chains``,
for ``rn_mbi_flow`` against the numpy tally of ``branching._tally_chunk``
and the tally of the numpy rows of ``_sample_chunk``, and for
``rn_mbi_batch`` against the numpy loop of ``simulate_mbi_batch``; integer
columns of every width and sign, strided and reversed, for
``rn_format_int_rows`` against ``str()``; and integer tables and raw
bytes, with some columns dropped, for ``rn_parse_int_rows`` against
``np.loadtxt``; and rows of chain processes, with repeats, for the
compare-exchange network of ``embedding._row_keys`` against a row sort
and a matmul. Every comparison is exact, and those of the
sampling mirrors include the generator's state after the call. The runs
are derandomized, so every run tries the same examples.
"""

import io
import itertools
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from recipnet import _kernel, branching, embedding, simulate
from recipnet import io as rio
from recipnet.params import group_rates, validate_params
from test_kernel import (NO_CC, STATE_FIELDS, assert_chains_match_numpy,
                         assert_flow_matches_numpy, assert_pcg64_matches_numpy,
                         assert_same_run, format_rows, parse_rows, str_rows)

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

pytestmark = pytest.mark.skipif(NO_CC, reason=f"no C compiler ({_kernel.CC}) to build the kernel")

GENERATED = settings(max_examples=150, derandomize=True, deadline=None, database=None)

@st.composite
def models(draw):
    """Models with the edges of their probabilities: groups that are never
    drawn, and coins that are certain or impossible."""
    K = draw(st.integers(1, 4))
    weights = draw(st.lists(st.one_of(st.just(0.0), st.floats(0.01, 1.0)), min_size=K, max_size=K)
                   .filter(lambda w: sum(w) > 0.0))
    rho = draw(st.lists(st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
                        min_size=K * K, max_size=K * K))
    return validate_params(alpha=draw(st.floats(0.01, 0.99)), delta=draw(st.floats(1e-6, 50.0)),
                           pi=np.array(weights) / sum(weights), rho=np.reshape(rho, (K, K)))


@GENERATED
@given(models(), st.integers(0, 5), st.integers(0, 64), st.integers(0, 2**32 - 1))
def test_chains_match_numpy_loop_on_generated_models(params, n, replicates, seed):
    lib = _kernel.load()
    assert lib is not None, _kernel.error
    with pytest.MonkeyPatch.context() as patch:
        assert_chains_match_numpy(patch, lib, params, n, replicates, seed)


def admitted_ns(K):
    """Every jump count n whose row keys ``_code_width`` admits for K groups."""
    for n in itertools.count():
        try:
            embedding._code_width(K, n)
        except ValueError:
            return list(range(n))


@st.composite
def chain_rows(draw):
    """(labels, n1, n2, K) with every process drawn from a pool of at most
    three, so codes repeat within rows and rows repeat; degrees reach the
    code width's bound B - 1 = n + 1."""
    K = draw(st.integers(1, 4))
    n = draw(st.sampled_from(admitted_ns(K)))
    process = st.tuples(st.integers(0, K - 1), st.integers(0, n + 1), st.integers(0, n + 1))
    pool = draw(st.lists(process, min_size=1, max_size=3))
    rows = draw(st.lists(st.lists(st.sampled_from(pool), min_size=n + 1, max_size=n + 1),
                         max_size=12))
    cells = np.array(rows, dtype=np.int64).reshape(len(rows), n + 1, 3)
    return cells[..., 0], cells[..., 1], cells[..., 2], K


@GENERATED
@given(chain_rows())
def test_row_keys_match_sort_and_matmul_on_generated_rows(rows):
    labels, n1, n2, K = rows
    n = labels.shape[1] - 1
    B = n + 2
    codes = (labels * B + n1) * B + n2
    reference = np.sort(codes, axis=1) @ (K * B * B) ** np.arange(n, -1, -1, dtype=np.int64)
    keys = embedding._row_keys(labels, n1, n2, K)
    assert keys.dtype == np.int64
    assert np.array_equal(keys, reference)


ENTROPY_INTS = st.integers(0, 2**130 - 1)


@GENERATED
@given(st.one_of(ENTROPY_INTS, st.lists(ENTROPY_INTS, max_size=5)))
def test_pcg64_matches_numpy_on_generated_entropy(entropy):
    lib = _kernel.load()
    assert lib is not None, _kernel.error
    assert_pcg64_matches_numpy(lib, entropy)


@st.composite
def graph_models(draw):
    """Models for the graph transition: K from 1 to 8, groups that are never
    drawn, rho with whole rows and columns of zeros, and delta down to 1e-6."""
    K = draw(st.integers(1, 8))
    weights = draw(st.lists(st.one_of(st.just(0.0), st.floats(0.01, 1.0)), min_size=K, max_size=K)
                   .filter(lambda w: sum(w) > 0.0))
    rho = np.reshape(draw(st.lists(st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
                                   min_size=K * K, max_size=K * K)), (K, K))
    rho[sorted(draw(st.sets(st.integers(0, K - 1)))), :] = 0.0
    rho[:, sorted(draw(st.sets(st.integers(0, K - 1))))] = 0.0
    return validate_params(alpha=draw(st.floats(0.01, 0.99)), delta=draw(st.floats(1e-6, 50.0)),
                           pi=np.array(weights) / sum(weights), rho=rho)


def _advanced(load, params, blocks, seed):
    """The graph after ``_advance`` on each block in turn, from one root,
    with ``_kernel.load`` returning ``load``."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_kernel, "load", lambda: load)
        rng = np.random.default_rng(seed)
        state = simulate.init_graph(params, rng)
        for rows in blocks:
            simulate._advance(state, params, rng.random((rows, 5)))
    return state


@GENERATED
@given(graph_models(), st.lists(st.integers(simulate.COMPILED_MIN_ROWS, 300),
                                min_size=1, max_size=4),
       st.integers(0, 2**32 - 1))
def test_advance_matches_python_loop_on_generated_models(params, blocks, seed):
    lib = _kernel.load()
    assert lib is not None, _kernel.error
    calls = []

    def rn_advance(*args):
        calls.append(args[1])
        return lib.rn_advance(*args)

    compiled = _advanced(SimpleNamespace(rn_advance=rn_advance), params, blocks, seed)
    python = _advanced(None, params, blocks, seed)
    assert calls == blocks                  # every block ran through the kernel
    for name in STATE_FIELDS:
        a, b = getattr(compiled, name), getattr(python, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name
    assert (compiled.n, compiled.n_nodes, compiled.edge_count, compiled.reciprocal_count) == (
        python.n, python.n_nodes, python.edge_count, python.reciprocal_count)
    compiled.check_invariants()


@st.composite
def chunk_jobs(draw):
    """A ``_sample_chunk`` job on a generated model, with an initialization
    table that has zeros and a c* in the model's range 1 + rho* + delta."""
    params = draw(models())
    rows = draw(st.lists(st.lists(st.one_of(st.just(0.0), st.floats(0.01, 1.0)),
                                  min_size=3, max_size=3).filter(lambda r: sum(r) > 0.0),
                         min_size=params.K, max_size=params.K))
    sampler = branching.LimitPairSampler(
        c_star=1.0 + params.delta + draw(st.floats(0.0, 1.0)),
        init_probs=np.array(rows) / np.sum(rows, axis=1, keepdims=True))
    budget = draw(st.sampled_from([0, 1, 2, 5, branching.DEFAULT_EVENT_BUDGET]))
    return (params, group_rates(params), sampler, draw(st.integers(0, 3)),
            draw(st.integers(0, 64)), draw(st.integers(0, 2**32 - 1)), budget)


@GENERATED
@given(chunk_jobs(), st.integers(0, 6), st.integers(0, 6))
def test_mbi_chunk_matches_numpy_on_generated_models(job, kmax, lmax):
    lib = _kernel.load()
    assert lib is not None, _kernel.error
    assert_flow_matches_numpy(lib, job, [(kmax, lmax)])


@st.composite
def batch_rows(draw):
    """A model and (labels, inits, t_ends, budget) for ``simulate_mbi_batch``
    on it: horizons of 0 and inf among finite ones, and a budget small
    enough to stop an infinite horizon."""
    params = draw(models())
    rows = draw(st.integers(0, 64))
    labels = draw(st.lists(st.integers(0, params.K - 1), min_size=rows, max_size=rows))
    inits = draw(st.lists(st.integers(0, 3), min_size=2 * rows, max_size=2 * rows))
    t_ends = np.array(draw(st.lists(st.one_of(st.sampled_from([0.0, np.inf]), st.floats(0.0, 3.0)),
                                    min_size=rows, max_size=rows)), dtype=float)
    budgets = [0, 1, 2, 7] + ([branching.DEFAULT_EVENT_BUDGET] if np.isfinite(t_ends).all() else [])
    return (params, np.array(labels, dtype=np.int64),
            np.reshape(np.array(inits, dtype=np.int64), (rows, 2)), t_ends,
            draw(st.sampled_from(budgets)))


@GENERATED
@given(batch_rows())
def test_mbi_batch_matches_numpy_loop_on_generated_rows(batch_input):
    params, labels, inits, t_ends, budget = batch_input
    lib = _kernel.load()
    assert lib is not None, _kernel.error
    calls = []

    def rn_mbi_batch(*args):
        calls.append(args[1])
        return lib.rn_mbi_batch(*args)

    def batch():
        rng = np.random.default_rng(len(labels))
        return branching.simulate_mbi_batch(labels, inits, t_ends, params, group_rates(params),
                                            rng, event_budget=budget)

    assert_same_run(SimpleNamespace(rn_mbi_batch=rn_mbi_batch), batch)
    assert calls == [len(labels)]


INT64 = np.iinfo(np.int64)
# every power of ten in int64 with its neighbours, of both signs, and the two ends
BOUNDARIES = sorted({s * (10**k + d) for k in range(19) for d in (-1, 0, 1) for s in (1, -1)}
                    | {int(INT64.min), int(INT64.min) + 1, int(INT64.max) - 1, int(INT64.max)})
INT_DTYPES = [np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint16, np.uint32, np.uint64]


@st.composite
def int_columns(draw, rows):
    """A column of ``rows`` cells of a generated integer dtype, read with a
    generated stride (negative for a reversed view) from a larger array:
    the boundaries that fit the dtype, its ends, and any value between."""
    info = np.iinfo(draw(st.sampled_from(INT_DTYPES)))
    step = draw(st.sampled_from([1, 1, 2, 3, -1, -2]))
    edges = [b for b in BOUNDARIES if info.min <= b <= info.max] + [int(info.min), int(info.max)]
    cell = st.one_of(st.sampled_from(edges), st.integers(int(info.min), int(info.max)))
    cells = draw(st.lists(cell, min_size=rows * abs(step), max_size=rows * abs(step)))
    return np.array(cells, dtype=info.dtype)[::step]


@GENERATED
@example([np.array(BOUNDARIES, dtype=np.int64)])
@example([np.array(BOUNDARIES, dtype=np.int64)[::-1],
          np.array(BOUNDARIES, dtype=np.int64).view(np.uint64)])
@given(st.tuples(st.integers(0, 30), st.integers(1, 4)).flatmap(
    lambda shape: st.lists(int_columns(shape[0]), min_size=shape[1], max_size=shape[1])))
def test_format_int_rows_matches_str_on_generated_tables(columns):
    lib = _kernel.load()
    assert lib is not None, _kernel.error
    text, spare = format_rows(lib, columns, spare=8)
    assert text == str_rows(columns)
    assert (spare == 0xA5).all()            # nothing written past the room it asks for


def _loadtxt(data: bytes, w: int, keep) -> np.ndarray:
    """Columns ``keep`` of ``data`` as io.read_table's ``np.loadtxt`` reads
    integer cells, one row per line."""
    with warnings.catch_warnings():
        warnings.filterwarnings("error", r"loadtxt\(\): Parsing an integer via a float")
        return np.loadtxt(io.BytesIO(data), delimiter=",", dtype=np.int64, ndmin=2,
                          usecols=keep).reshape(-1, len(keep))


def _read(parsed, rows):
    """The kept columns that ``parse_rows`` filled, as (rows, kept) cells."""
    return np.array([column[:rows] for column in parsed.values()],
                    dtype=np.int64).reshape(len(parsed), rows).T


# the cells the parser takes: an optional '-' and at most 18 digits
CELLS = st.integers(-(10**18 - 1), 10**18 - 1)


@GENERATED
@given(st.integers(1, 4).flatmap(lambda w: st.tuples(
    st.lists(st.lists(CELLS, min_size=w, max_size=w), min_size=1, max_size=30),
    st.lists(st.booleans(), min_size=w, max_size=w))),
       st.integers(0, 32))
def test_parse_int_rows_matches_loadtxt_on_generated_tables(table_and_keep, cap):
    table, mask = table_and_keep
    w, keep = len(table[0]), [j for j, kept in enumerate(mask) if kept]
    lib = _kernel.load()
    assert lib is not None, _kernel.error
    data = "".join(",".join(map(str, row)) + "\n" for row in table).encode()
    rows, parsed = parse_rows(lib, data, w, cap, keep)
    if cap < len(table):
        assert rows == -1               # more rows than room for them
        return
    assert rows == len(table)
    assert all((column[rows:] == -7).all() for column in parsed.values())
    assert np.array_equal(_read(parsed, rows), np.array(table, dtype=np.int64)[:, keep])
    if keep:
        assert np.array_equal(_read(parsed, rows), _loadtxt(data, w, keep))


# cells the parser must refuse, or may refuse and leave to loadtxt
ODD_CELLS = st.sampled_from(["", "-", "+1", " 1", "1 ", "1.5", "--1", "1e3", "0x1", "1\r",
                             "#1", "0" * 19, str(2**63 - 1), str(-2**63), "٣"])


@st.composite
def raw_tables(draw):
    """``(data, w, keep)``: arbitrary bytes, or a table of w-cell rows with
    at most one fault: an odd cell, a row one cell too wide or too narrow,
    another row end, or one byte changed; and the columns to keep, never
    none, so a fault may lie in a dropped column."""
    w = draw(st.integers(1, 4))
    keep = sorted(draw(st.sets(st.integers(0, w - 1), min_size=1)))
    if draw(st.integers(0, 4)) == 0:
        return draw(st.binary(max_size=64)), w, keep
    rows = [list(map(str, row)) for row in
            draw(st.lists(st.lists(CELLS, min_size=w, max_size=w), min_size=1, max_size=6))]
    ends = ["\n"] * len(rows)
    i = draw(st.integers(0, len(rows) - 1))
    fault = draw(st.sampled_from(["none", "cell", "width", "end", "byte"]))
    if fault == "cell":
        rows[i][draw(st.integers(0, w - 1))] = draw(ODD_CELLS)
    elif fault == "width":
        rows[i] = rows[i][1:] if draw(st.booleans()) else rows[i] + ["0"]
    elif fault == "end":
        ends[i] = draw(st.sampled_from(["\r\n", ",", "", "\n\n"]))
    data = bytearray("".join(",".join(row) + end for row, end in zip(rows, ends)).encode())
    if fault == "byte" and data:
        data[draw(st.integers(0, len(data) - 1))] = draw(st.integers(0, 255))
    return bytes(data), w, keep


@GENERATED
@given(raw_tables(), st.integers(-1, 2))
def test_parse_int_rows_accepts_only_what_loadtxt_reads_alike(raw, spare):
    data, w, keep = raw
    lib = _kernel.load()
    assert lib is not None, _kernel.error
    cap = max(data.count(b"\n") + spare, 0)    # spare -1: one row too few
    rows, parsed = parse_rows(lib, data, w, cap, keep)
    if rows == -1:
        return                          # refused: io.read_table's loadtxt reads it
    assert 0 < rows <= cap and rows == data.count(b"\n")
    assert np.array_equal(_read(parsed, rows), _loadtxt(data, w, keep))


@GENERATED
@given(st.one_of(raw_tables(), st.integers(1, 4).flatmap(lambda w: st.tuples(
    st.lists(st.lists(CELLS, min_size=w, max_size=w), min_size=1, max_size=30).map(
        lambda table: "".join(",".join(map(str, row)) + "\n" for row in table).encode()),
    st.just(w), st.sets(st.integers(0, w - 1), min_size=1).map(sorted)))),
       st.one_of(st.sampled_from([16, 37, 4096, rio.READ_BLOCK]), st.integers(1, 80)))
@example((b"1\n2\n", 1, [0]), 2)         # only the header, c0, is longer than the block
def test_blocked_parse_matches_one_block_parse_and_loadtxt(tmp_path_factory, raw, block):
    """``io._int_blocks(..., whole=True)`` on READ_BLOCK-byte blocks gives
    the arrays of one block over the whole file and of ``np.loadtxt``, and
    refuses what that one block refuses and any line longer than the block."""
    body, w, keep = raw
    lib = _kernel.load()
    assert lib is not None, _kernel.error
    data = ",".join(f"c{j}" for j in range(w)).encode() + b"\n" + body
    path = tmp_path_factory.getbasetemp() / "blocked.csv"
    path.write_bytes(data)
    names = {f"c{j}": np.int64 for j in keep}
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(rio, "READ_BLOCK", len(data) + 1)
        whole, = rio._int_blocks(path, names, whole=True)
        patch.setattr(rio, "READ_BLOCK", block)
        got, = rio._int_blocks(path, names, whole=True)
    longest = max(len(line) + 1 for line in data.split(b"\n"))
    assert (got is not None) == (whole is not None and longest <= block)
    if got is not None:
        assert np.array_equal(np.array(got).T.reshape(-1, len(keep)), _loadtxt(body, w, keep))
        assert all(np.array_equal(g, h) for g, h in zip(got, whole))
