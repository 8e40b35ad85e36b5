"""Sequential simulator for the reciprocal preferential attachment graph.

The graph starts from a single node carrying a self-loop. Each step adds
one node and one directed edge: with probability alpha the new node sends
an edge to a target drawn by in-degree preference, otherwise it receives
an edge from a source drawn by out-degree preference. The old endpoint
(group m) and the new node (group r) then flip a coin to add the reverse
edge instantaneously: probability rho[m][r] when the group-m node is the
replier, rho[r][m] when the new node is. The two scenarios mirror each
other: scenario 2 is scenario 1 with in and out swapped and rho
transposed, so ``_advance`` states the step once for both.

Degree-proportional sampling uses endpoint pools: every edge appends its
target to ``in_pool`` and its source to ``out_pool``, so a uniform pool
entry is a degree-biased node. Mixing a uniform pool draw (weight
|E|/(|E|+delta|V|)) with a uniform node draw reproduces the offset rule
(D_v + delta)/(|E| + delta |V|) exactly, in O(1) per step.

Randomness contract: ``init_graph`` consumes one uniform (root group);
every step consumes exactly five uniforms in fixed order (scenario,
pool-vs-uniform mixture, index, new-node group, reciprocation coin), so
runs with the same seed are reproducible draw for draw. ``run`` and
``step`` share one kernel that applies the transition to a block of
uniforms; ``run`` draws blocks of up to BLOCK rows, ``step`` one row, and
the streams are identical. A block of (BLOCK, 5) uniforms is 0.66 MB, under
the 4 MiB at which numpy asks for huge pages, so it does not move the peak
RSS by where address randomisation puts it (see ``io``).

The pools double as the edge list: edge i runs from ``out_pool[i]`` to
``in_pool[i]``, and ``GraphState.edges`` derives the edge table from them.

The state lives in numpy arrays: int32 pools and degrees, int8 groups
(int32 beyond 127 groups) and int64 per-group counters; step and edge
counts stay Python ints. ``run`` preallocates the arrays for all of its
steps (2n+1 edges, n+2 node slots) and ``step`` doubles them when full.
A degree is at most the edge count, so ``run`` refuses, with
ResourceLimit and before allocating, any n with 2n+1 > 2**31 - 1.

``_advance`` is the statement of the transition. On blocks of
COMPILED_MIN_ROWS or more rows it hands the work to ``_kernel.c``, its
compiled line-for-line mirror, whenever that builds (see ``_kernel``),
and otherwise runs its own loop; the state is the same either way.
Whenever it builds, ``run`` also draws ``default_rng(seed)``'s stream
from the kernel's PCG64, which never imports ``numpy.random``.

Node ids are 1-based (node 1 is the root); group indices are 0-based.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernel
from .params import ModelParams, draw_groups

BLOCK = 1 << 14
INT32_MAX = 2**31 - 1
# below this many rows, setting up the foreign call costs more than the Python loop
COMPILED_MIN_ROWS = 16


class ResourceLimit(RuntimeError):
    """Requested run would make more edges than its int32 arrays hold (INT32_MAX)."""


@dataclass(frozen=True)
class SimConfig:
    """``n_steps`` steps from ``seed``; ``n_steps`` alone sizes ``run``'s arrays."""

    n_steps: int
    seed: int = 0
    snapshot_steps: tuple = ()

    def __post_init__(self):
        if self.n_steps < 1:
            raise ValueError(f"n_steps must be >= 1, got {self.n_steps}")


@dataclass(frozen=True)
class Trajectory:
    """Scaled edge counts recorded at snapshot steps."""

    steps: np.ndarray        # (S,)
    total_edges: np.ndarray  # (S,)
    group_in: np.ndarray     # (S, K)
    group_out: np.ndarray    # (S, K)


class GraphState:
    """Mutable state of the growing graph, held in numpy arrays.

    Node arrays are 1-based (index 0 is a dummy) to match node ids, and
    pools hold one node id per unit of in-/out-degree. The buffers have
    room for ``steps`` more steps and double when ``step`` needs more;
    the attributes below are read-only views of their filled part.
    Scalars stay Python ints.
    """

    def __init__(self, K: int, steps: int = 0):
        self.K = K
        self.n = 0
        self.n_nodes = 0
        self.edge_count = 0
        self.reciprocal_count = 0
        self.group_in_edges = np.zeros(K, dtype=np.int64)
        self.group_out_edges = np.zeros(K, dtype=np.int64)
        self.group_node_counts = np.zeros(K, dtype=np.int64)
        self._groups = np.zeros(steps + 2, dtype=np.int8 if K <= 127 else np.int32)
        self._groups[0] = -1
        self._in_deg = np.zeros(steps + 2, dtype=np.int32)
        self._out_deg = np.zeros(steps + 2, dtype=np.int32)
        self._in_pool = np.zeros(2 * steps + 1, dtype=np.int32)
        self._out_pool = np.zeros(2 * steps + 1, dtype=np.int32)

    def _view(self, buf, stop):
        view = buf[:stop]
        view.flags.writeable = False
        return view

    node_group = property(lambda self: self._view(self._groups, self.n_nodes + 1))
    in_deg = property(lambda self: self._view(self._in_deg, self.n_nodes + 1))
    out_deg = property(lambda self: self._view(self._out_deg, self.n_nodes + 1))
    in_pool = property(lambda self: self._view(self._in_pool, self.edge_count))
    out_pool = property(lambda self: self._view(self._out_pool, self.edge_count))

    def reserve(self, steps: int) -> None:
        """Make room for ``steps`` more steps, doubling the buffers as needed."""
        nodes, edges = self.n_nodes + steps + 1, self.edge_count + 2 * steps
        if nodes <= len(self._in_deg) and edges <= len(self._in_pool):
            return
        if edges > INT32_MAX:
            raise ResourceLimit(f"{edges} edges would overflow the int32 node arrays")
        for name, need in (("_groups", nodes), ("_in_deg", nodes), ("_out_deg", nodes),
                           ("_in_pool", edges), ("_out_pool", edges)):
            buf = getattr(self, name)
            grown = np.zeros(min(max(need, 2 * len(buf)), INT32_MAX), dtype=buf.dtype)
            grown[:len(buf)] = buf
            setattr(self, name, grown)

    def degrees(self):
        """(in_deg, out_deg, group) views indexed by node order."""
        return self.in_deg[1:], self.out_deg[1:], self.node_group[1:]

    def __len__(self) -> int:
        """The edge count: ``len(state) == len(state.edges())``."""
        return self.edge_count

    def edge_columns(self, lo: int = 0, hi: int | None = None) -> tuple:
        """Rows lo..hi-1 (all rows by default) of the edge table, in creation
        order, as its four columns: an int32 step, the source and target
        pool slices (views) and a uint8 reciprocal flag.

        Edge i is (out_pool[i], in_pool[i]). Step k creates node k + 1, so an
        edge's step is its larger endpoint minus one; a reciprocal edge
        directly follows its trigger and shares its step, so the flag of row
        lo comes from row lo - 1.
        """
        hi = self.edge_count if hi is None else min(hi, self.edge_count)
        source, target = self.out_pool[lo:hi], self.in_pool[lo:hi]
        step = np.maximum(source, target)
        step -= 1
        prev = max(self.out_pool[lo - 1], self.in_pool[lo - 1]) - 1 if lo else -1
        flag = np.empty(len(step), dtype=bool)
        flag[:1] = step[:1] == prev
        np.equal(step[1:], step[:-1], out=flag[1:])
        return step, source, target, flag.view(np.uint8)

    def edges(self, lo: int = 0, hi: int | None = None) -> np.ndarray:
        """Int64 rows lo..hi-1 (all rows by default) of (step, source, target,
        reciprocal): the columns of ``edge_columns`` side by side."""
        return np.stack(self.edge_columns(lo, hi), axis=1, dtype=np.int64)

    def check_invariants(self):
        """Raise AssertionError on any violated conservation law."""
        ind, outd, grp = (a.astype(np.int64) for a in self.degrees())
        assert self.n_nodes == self.n + 1, "node count must be n + 1"
        assert ind.sum() == self.edge_count, "in-degree sum != |E|"
        assert outd.sum() == self.edge_count, "out-degree sum != |E|"
        assert np.array_equal(np.bincount(self.in_pool, minlength=self.n_nodes + 1)[1:], ind)
        assert np.array_equal(np.bincount(self.out_pool, minlength=self.n_nodes + 1)[1:], outd)
        assert self.group_in_edges.sum() == self.edge_count
        assert self.group_out_edges.sum() == self.edge_count
        assert self.group_node_counts.sum() == self.n + 1
        assert self.edge_count == (self.n + 1) + self.reciprocal_count
        for g in range(self.K):
            mine = grp == g
            assert ind[mine].sum() == self.group_in_edges[g], "per-group in-edge counters drifted"
            assert outd[mine].sum() == self.group_out_edges[g], "per-group out-edge counters drifted"
            assert mine.sum() == self.group_node_counts[g]


def init_graph(params: ModelParams, rng: np.random.Generator, steps: int = 16) -> GraphState:
    """Root graph: node 1 with a self-loop and a group drawn from pi.

    ``steps`` preallocates the state for that many steps; more still fit.
    """
    state = GraphState(params.K, steps)
    g = int(draw_groups(np.cumsum(params.pi), rng.random()))
    state._groups[1] = g
    state._in_deg[1] = state._out_deg[1] = 1
    state._in_pool[0] = state._out_pool[0] = 1
    state.n_nodes = state.edge_count = 1
    state.group_in_edges[g] = 1
    state.group_out_edges[g] = 1
    state.group_node_counts[g] = 1
    return state


def _advance(state: GraphState, params: ModelParams, u: np.ndarray) -> None:
    """Apply one transition per row of the (m, 5) uniform block ``u``.

    Columns are (scenario, pool-vs-uniform mixture, index, new-node group,
    reciprocation coin). With probability |E|/(|E| + delta*|V|) the old
    endpoint is a uniform pool entry (degree-proportional), otherwise a
    uniform node id; the mixture equals (D_v + delta)/(|E| + delta*|V|).
    Mutates ``state`` in place.

    One body serves both scenarios. In scenario 1 the old endpoint v's
    side is the in-pool, in-degrees and group in-edge counts, the new node
    w's side the out-side, and v replies with rho[m][r]; scenario 2 swaps
    the two sides and uses rho transposed.

    The loop below is the statement of the rule. ``_kernel.c`` repeats it
    line for line and runs instead on blocks of COMPILED_MIN_ROWS or more
    rows whenever it builds; the two produce the same state from the same
    block.
    """
    state.reserve(len(u))
    cum_pi = np.cumsum(params.pi)
    kernel = _kernel.load() if len(u) >= COMPILED_MIN_ROWS else None
    if kernel is not None:
        _advance_compiled(kernel.rn_advance, state, params, u, cum_pi)
        return

    alpha, delta = params.alpha, params.delta
    grp = draw_groups(cum_pi, u[:, 3])
    # memoryviews index and assign Python ints into the arrays
    in_side = (memoryview(state._in_pool), memoryview(state._in_deg),
               memoryview(state.group_in_edges))
    out_side = (memoryview(state._out_pool), memoryview(state._out_deg),
                memoryview(state.group_out_edges))
    # (v's side, w's side, reply matrix) of scenario 1, then of scenario 2
    scenarios = ((*in_side, *out_side, params.rho.tolist()),
                 (*out_side, *in_side, params.rho.T.tolist()))
    node_group = memoryview(state._groups)
    g_nodes = memoryview(state.group_node_counts)

    E, V, rc = state.edge_count, state.n_nodes, state.reciprocal_count
    for row, r in zip(u.tolist(), grp.tolist()):
        # scenario 1: new node w sends (w, v), v by in-degree preference;
        # scenario 2: w receives (v, w), v by out-degree preference
        v_pool, v_deg, v_edges, w_pool, w_deg, w_edges, rho = scenarios[row[0] >= alpha]
        w = V + 1
        if row[1] * (E + delta * V) < E:
            v = v_pool[int(row[2] * E)]
        else:
            v = int(row[2] * V) + 1
        m = node_group[v]
        v_deg[v] += 1
        v_pool[E], w_pool[E] = v, w
        v_edges[m] += 1
        w_edges[r] += 1
        E += 1
        if row[4] < rho[m][r]:
            w_deg[v] += 1
            v_pool[E], w_pool[E] = w, v
            v_edges[r] += 1
            w_edges[m] += 1
            E += 1
            rc += 1
            v_deg[w] = 1
        else:
            v_deg[w] = 0
        w_deg[w] = 1
        node_group[w] = r
        g_nodes[r] += 1
        V += 1

    state.n += len(u)
    state.edge_count, state.n_nodes, state.reciprocal_count = E, V, rc


def _advance_compiled(kernel, state: GraphState, params: ModelParams, u: np.ndarray,
                      cum_pi: np.ndarray) -> None:
    """``_advance`` through ``rn_advance``; ``state`` has room for the block."""
    u = np.ascontiguousarray(u, dtype=np.float64)
    rho = np.ascontiguousarray(params.rho, dtype=np.float64)
    # the kernel indexes memory with these: shapes must match K, uniforms lie in [0, 1)
    if (u.shape[1:] != (5,) or rho.shape != (params.K, params.K)
            or cum_pi.shape != (params.K,) or not (u.min() >= 0.0 and u.max() < 1.0)):
        raise ValueError(f"bad kernel input: uniforms {u.shape} in "
                         f"[{u.min()}, {u.max()}], K={params.K}, rho {rho.shape}")
    counts = np.array([state.edge_count, state.n_nodes, state.reciprocal_count],
                      dtype=np.int64)
    kernel(u.ctypes.data, len(u), params.alpha, params.delta, cum_pi.ctypes.data,
           rho.ctypes.data, params.K, state._in_pool.ctypes.data,
           state._out_pool.ctypes.data, state._in_deg.ctypes.data,
           state._out_deg.ctypes.data, state._groups.ctypes.data,
           state._groups.itemsize > 1, state.group_in_edges.ctypes.data,
           state.group_out_edges.ctypes.data, state.group_node_counts.ctypes.data,
           counts.ctypes.data)
    state.n += len(u)
    state.edge_count, state.n_nodes, state.reciprocal_count = counts.tolist()


def step(state: GraphState, params: ModelParams, rng: np.random.Generator) -> GraphState:
    """Advance the graph by one step, mutating ``state``; consumes five uniforms."""
    _advance(state, params, rng.random(5).reshape(1, 5))
    return state


@dataclass(frozen=True)
class SimResult:
    state: GraphState
    trajectory: Trajectory


def run(params: ModelParams, config: SimConfig) -> SimResult:
    """Run ``config.n_steps`` steps from a fresh seeded generator.

    Deterministic given the seed; uniforms are drawn in blocks that end at
    each snapshot step, and the stream matches repeated ``step`` calls.
    Snapshot steps record (|E(k)|, per-group edge counts) after step k.
    """
    edges = 2 * config.n_steps + 1
    if edges > INT32_MAX:
        raise ResourceLimit(
            f"n_steps={config.n_steps} implies up to {edges} edges; node ids, pool "
            f"entries and degrees are int32, so at most {INT32_MAX} edges fit")
    snaps = sorted(set(int(s) for s in config.snapshot_steps))
    if snaps and (snaps[0] < 1 or snaps[-1] > config.n_steps):
        raise ValueError("snapshot steps must lie in [1, n_steps]")

    rng = _kernel.default_rng(_kernel.load(), config.seed)
    state = init_graph(params, rng, config.n_steps)
    block = np.empty((min(BLOCK, config.n_steps), 5))
    snap_rows = []
    for i, end in enumerate(snaps + [config.n_steps]):
        while state.n < end:
            u = block[:min(BLOCK, end - state.n)]
            rng.random(out=u)
            _advance(state, params, u)
        if i < len(snaps):
            snap_rows.append((end, state.edge_count, state.group_in_edges.copy(),
                              state.group_out_edges.copy()))

    traj = Trajectory(
        steps=np.array([s[0] for s in snap_rows], dtype=np.int64),
        total_edges=np.array([s[1] for s in snap_rows], dtype=np.int64),
        group_in=np.array([s[2] for s in snap_rows], dtype=np.int64).reshape(-1, params.K),
        group_out=np.array([s[3] for s in snap_rows], dtype=np.int64).reshape(-1, params.K),
    )
    return SimResult(state=state, trajectory=traj)
