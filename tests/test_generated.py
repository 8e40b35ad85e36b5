"""Generated differential tests of the compiled kernel against its statements.

Hypothesis draws the inputs: models for ``rn_chains`` against the numpy
loop of ``embedding.embedding_chains``, for ``rn_mbi_chunk`` against
``branching._sample_chunk`` and ``_tally_chunk`` and for ``rn_mbi_batch``
against the numpy loop of ``simulate_mbi_batch``; integer tables for
``rn_format_int_rows`` against ``str()``; and integer tables and raw bytes
for ``rn_parse_int_rows`` against ``np.loadtxt``. Every comparison is
exact, and those of the sampling mirrors include the generator's state
after the call. The runs are derandomized, so every run tries the same
examples.
"""

import io
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from recipnet import _kernel, branching
from recipnet.params import group_rates, validate_params
from test_kernel import NO_CC, assert_chains_match_numpy

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


def _run_with(load, fn):
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


def _assert_same_run(load, fn):
    """``fn`` through ``load``'s entry points and through numpy: the same
    arrays, dtypes and generator state."""
    compiled, compiled_state = _run_with(load, fn)
    numpy_side, numpy_state = _run_with(None, fn)
    assert len(compiled) == len(numpy_side)
    for a, b in zip(compiled, numpy_side):
        assert a.dtype == b.dtype and np.array_equal(a, b)
    assert compiled_state == numpy_state


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
    modes = []

    def rn_mbi_chunk(*args):
        modes.append("rows" if args[14] is None else "counts")
        return lib.rn_mbi_chunk(*args)

    kernel = SimpleNamespace(rn_mbi_chunk=rn_mbi_chunk)
    _assert_same_run(kernel, lambda: branching._sample_chunk(job))
    _assert_same_run(kernel, lambda: [branching._tally_chunk((job, kmax, lmax))])
    assert modes == ["rows", "counts"]      # the compiled side ran the kernel


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

    _assert_same_run(SimpleNamespace(rn_mbi_batch=rn_mbi_batch), batch)
    assert calls == [len(labels)]


INT64 = np.iinfo(np.int64)
# every power of ten in int64 with its neighbours, of both signs, and the two ends
BOUNDARIES = sorted({s * (10**k + d) for k in range(19) for d in (-1, 0, 1) for s in (1, -1)}
                    | {int(INT64.min), int(INT64.min) + 1, int(INT64.max) - 1, int(INT64.max)})


@GENERATED
@example((1, [[b] for b in BOUNDARIES]))
@given(st.integers(1, 4).flatmap(lambda w: st.tuples(st.just(w), st.lists(
    st.lists(st.one_of(st.sampled_from(BOUNDARIES), st.integers(int(INT64.min), int(INT64.max))),
             min_size=w, max_size=w), max_size=30))))
def test_format_int_rows_matches_str_on_generated_tables(table):
    w, rows = table
    lib = _kernel.load()
    assert lib is not None, _kernel.error
    cells = np.array(rows, dtype=np.int64).reshape(len(rows), w)
    room = len(rows) * w * 21                   # the room the entry point asks for
    buf = np.full(room + 8, 0xA5, dtype=np.uint8)
    n = lib.rn_format_int_rows(cells.ctypes.data, len(rows), w, buf.ctypes.data)
    expected = "".join(",".join(map(str, row)) + "\n" for row in rows).encode()
    assert n == len(expected) and buf[:n].tobytes() == expected
    assert (buf[room:] == 0xA5).all()           # nothing written past that room


def _parse(data: bytes, w: int, cap: int):
    """``rn_parse_int_rows`` on ``data``: its return value and the rows it read."""
    lib = _kernel.load()
    assert lib is not None, _kernel.error
    buf = np.frombuffer(data + b"\0", dtype=np.uint8)     # never empty, so it has an address
    columns = np.full((w, cap), -7, dtype=np.int64)
    rows = lib.rn_parse_int_rows(buf.ctypes.data, len(data), w, cap, columns.ctypes.data)
    return rows, columns[:, :max(rows, 0)].T


def _loadtxt(data: bytes, w: int) -> np.ndarray:
    """``data`` as io.read_table's ``np.loadtxt`` reads integer cells."""
    with warnings.catch_warnings():
        warnings.filterwarnings("error", r"loadtxt\(\): Parsing an integer via a float")
        return np.loadtxt(io.BytesIO(data), delimiter=",", dtype=np.int64, ndmin=2).reshape(-1, w)


# the cells the parser takes: an optional '-' and at most 18 digits
CELLS = st.integers(-(10**18 - 1), 10**18 - 1)


@GENERATED
@given(st.integers(1, 4).flatmap(lambda w: st.lists(st.lists(CELLS, min_size=w, max_size=w),
                                                     min_size=1, max_size=30)),
       st.integers(0, 32))
def test_parse_int_rows_matches_loadtxt_on_generated_tables(table, cap):
    w = len(table[0])
    data = "".join(",".join(map(str, row)) + "\n" for row in table).encode()
    rows, read = _parse(data, w, cap)
    if cap < len(table):
        assert rows == -1               # more rows than room for them
    else:
        assert rows == len(table)
        assert np.array_equal(read, _loadtxt(data, w))
        assert np.array_equal(read, np.array(table, dtype=np.int64))


# cells the parser must refuse, or may refuse and leave to loadtxt
ODD_CELLS = st.sampled_from(["", "-", "+1", " 1", "1 ", "1.5", "--1", "1e3", "0x1", "1\r",
                             "#1", "0" * 19, str(2**63 - 1), str(-2**63), "٣"])


@st.composite
def raw_tables(draw):
    """``(data, w)``: arbitrary bytes, or a table of w-cell rows with at most
    one fault: an odd cell, a row one cell too wide or too narrow, another
    row end, or one byte changed."""
    w = draw(st.integers(1, 4))
    if draw(st.integers(0, 4)) == 0:
        return draw(st.binary(max_size=64)), w
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
    return bytes(data), w


@GENERATED
@given(raw_tables(), st.integers(-1, 2))
def test_parse_int_rows_accepts_only_what_loadtxt_reads_alike(raw, spare):
    data, w = raw
    cap = max(data.count(b"\n") + spare, 0)    # spare -1: one row too few
    rows, read = _parse(data, w, cap)
    if rows == -1:
        return                          # refused: io.read_table leaves it to loadtxt
    assert 0 < rows <= cap and rows == data.count(b"\n")
    assert np.array_equal(read, _loadtxt(data, w))
