"""Generated differential tests of the compiled kernel against its statements.

Hypothesis draws the inputs: models for ``rn_chains`` against the numpy
loop of ``embedding.embedding_chains``, and integer tables and raw bytes
for ``rn_parse_int_rows`` against ``np.loadtxt``. The runs are
derandomized, so every run tries the same examples.
"""

import io
import warnings

import numpy as np
import pytest

from recipnet import _kernel
from recipnet.params import validate_params
from test_kernel import NO_CC, assert_chains_match_numpy

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

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
