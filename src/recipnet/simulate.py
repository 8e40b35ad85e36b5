"""Sequential simulator for the reciprocal preferential attachment graph.

The graph starts from a single node carrying a self-loop. Each step adds
one node and one directed edge: with probability alpha the new node sends
an edge to a target drawn by in-degree preference, otherwise it receives
an edge from a source drawn by out-degree preference. The old endpoint
(group m) and the new node (group r) then flip a coin to add the reverse
edge instantaneously: probability rho[m][r] when the group-m node is the
replier, rho[r][m] when the new node is.

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
the streams are identical.

The pools double as the edge list: edge i runs from ``out_pool[i]`` to
``in_pool[i]``, and ``GraphState.edges`` derives the edge table from them.

Node ids are 1-based (node 1 is the root); group indices are 0-based.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .params import ModelParams, draw_groups

BLOCK = 1 << 16


class ResourceLimit(RuntimeError):
    """Requested run would exceed the configured edge-memory budget."""


@dataclass(frozen=True)
class SimConfig:
    n_steps: int
    seed: int = 0
    snapshot_steps: tuple = ()
    max_edges: int = 100_000_000

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
    """Mutable state of the growing graph.

    Degree and group lists are 1-based (index 0 is a dummy) to match node
    ids. Pools hold one node id per unit of in-/out-degree.
    """

    def __init__(self, K: int):
        self.K = K
        self.n = 0
        self.node_group = [-1]          # node id -> 0-based group
        self.in_deg = [0]
        self.out_deg = [0]
        self.in_pool: list[int] = []
        self.out_pool: list[int] = []
        self.edge_count = 0
        self.group_in_edges = [0] * K
        self.group_out_edges = [0] * K
        self.group_node_counts = [0] * K
        self.reciprocal_count = 0

    @property
    def n_nodes(self) -> int:
        return len(self.node_group) - 1

    def degrees(self):
        """(in_deg, out_deg, group) as arrays indexed by node order."""
        return (
            np.array(self.in_deg[1:], dtype=np.int64),
            np.array(self.out_deg[1:], dtype=np.int64),
            np.array(self.node_group[1:], dtype=np.int64),
        )

    def edges(self) -> np.ndarray:
        """(E, 4) int64 rows of (step, source, target, reciprocal) in creation order.

        Edge i is (out_pool[i], in_pool[i]). Step k creates node k + 1, so an
        edge's step is its larger endpoint minus one; a reciprocal edge
        directly follows its trigger and shares its step.
        """
        out = np.empty((len(self.in_pool), 4), dtype=np.int64)
        out[:, 1] = self.out_pool
        out[:, 2] = self.in_pool
        np.maximum(out[:, 1], out[:, 2], out=out[:, 0])
        out[:, 0] -= 1
        out[:1, 3] = 0
        out[1:, 3] = out[1:, 0] == out[:-1, 0]
        return out

    def check_invariants(self):
        """Raise AssertionError on any violated conservation law."""
        assert self.n_nodes == self.n + 1, "node count must be n + 1"
        assert sum(self.in_deg) == self.edge_count, "in-degree sum != |E|"
        assert sum(self.out_deg) == self.edge_count, "out-degree sum != |E|"
        assert len(self.in_pool) == self.edge_count, "in_pool length != |E|"
        assert len(self.out_pool) == self.edge_count, "out_pool length != |E|"
        assert sum(self.group_in_edges) == self.edge_count
        assert sum(self.group_out_edges) == self.edge_count
        assert sum(self.group_node_counts) == self.n + 1
        assert self.edge_count == (self.n + 1) + self.reciprocal_count
        gin = [0] * self.K
        gout = [0] * self.K
        gn = [0] * self.K
        for v in range(1, self.n_nodes + 1):
            g = self.node_group[v]
            gin[g] += self.in_deg[v]
            gout[g] += self.out_deg[v]
            gn[g] += 1
        assert gin == self.group_in_edges, "per-group in-edge counters drifted"
        assert gout == self.group_out_edges, "per-group out-edge counters drifted"
        assert gn == self.group_node_counts


def init_graph(params: ModelParams, rng: np.random.Generator) -> GraphState:
    """Root graph: node 1 with a self-loop and a group drawn from pi."""
    state = GraphState(params.K)
    g = int(draw_groups(np.cumsum(params.pi), rng.random()))
    state.node_group.append(g)
    state.in_deg.append(1)
    state.out_deg.append(1)
    state.in_pool.append(1)
    state.out_pool.append(1)
    state.edge_count = 1
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
    """
    alpha, delta = params.alpha, params.delta
    rho = params.rho.tolist()
    grp = draw_groups(np.cumsum(params.pi), u[:, 3])

    in_pool = state.in_pool
    out_pool = state.out_pool
    in_deg = state.in_deg
    out_deg = state.out_deg
    node_group = state.node_group
    g_in = state.group_in_edges
    g_out = state.group_out_edges
    g_nodes = state.group_node_counts
    ipa, opa = in_pool.append, out_pool.append
    ida, oda = in_deg.append, out_deg.append
    nga = node_group.append

    E = state.edge_count
    V = state.n_nodes
    rc = state.reciprocal_count
    for row, r in zip(u.tolist(), grp.tolist()):
        w = V + 1
        if row[0] < alpha:
            # new node w sends (w, v); v by in-degree preference
            if row[1] * (E + delta * V) < E:
                v = in_pool[int(row[2] * E)]
            else:
                v = int(row[2] * V) + 1
            m = node_group[v]
            in_deg[v] += 1
            ipa(v)
            opa(w)
            g_in[m] += 1
            g_out[r] += 1
            E += 1
            if row[4] < rho[m][r]:
                out_deg[v] += 1
                ipa(w)
                opa(v)
                g_in[r] += 1
                g_out[m] += 1
                E += 1
                rc += 1
                ida(1)
            else:
                ida(0)
            oda(1)
        else:
            # new node w receives (v, w); v by out-degree preference
            if row[1] * (E + delta * V) < E:
                v = out_pool[int(row[2] * E)]
            else:
                v = int(row[2] * V) + 1
            m = node_group[v]
            out_deg[v] += 1
            ipa(w)
            opa(v)
            g_in[r] += 1
            g_out[m] += 1
            E += 1
            if row[4] < rho[r][m]:
                in_deg[v] += 1
                ipa(v)
                opa(w)
                g_in[m] += 1
                g_out[r] += 1
                E += 1
                rc += 1
                oda(1)
            else:
                oda(0)
            ida(1)
        nga(r)
        g_nodes[r] += 1
        V += 1

    state.n += len(u)
    state.edge_count = E
    state.reciprocal_count = rc


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
    if 2 * config.n_steps + 1 > config.max_edges:
        raise ResourceLimit(
            f"n_steps={config.n_steps} implies up to {2 * config.n_steps + 1} edges, "
            f"over budget {config.max_edges}"
        )
    snaps = sorted(set(int(s) for s in config.snapshot_steps))
    if snaps and (snaps[0] < 1 or snaps[-1] > config.n_steps):
        raise ValueError("snapshot steps must lie in [1, n_steps]")

    rng = np.random.default_rng(config.seed)
    state = init_graph(params, rng)
    snap_rows = []
    for i, end in enumerate(snaps + [config.n_steps]):
        while state.n < end:
            _advance(state, params, rng.random((min(BLOCK, end - state.n), 5)))
        if i < len(snaps):
            snap_rows.append((end, state.edge_count, list(state.group_in_edges),
                              list(state.group_out_edges)))

    traj = Trajectory(
        steps=np.array([s[0] for s in snap_rows], dtype=np.int64),
        total_edges=np.array([s[1] for s in snap_rows], dtype=np.int64),
        group_in=np.array([s[2] for s in snap_rows], dtype=np.int64).reshape(-1, params.K),
        group_out=np.array([s[3] for s in snap_rows], dtype=np.int64).reshape(-1, params.K),
    )
    return SimResult(state=state, trajectory=traj)


@dataclass(frozen=True)
class DegreeHistogram:
    """Joint (in, out) degree counts, overall and per group."""

    pairs: np.ndarray              # (M, 2) distinct (in, out) pairs
    counts: np.ndarray             # (M,)
    group_pairs: list[np.ndarray]
    group_counts: list[np.ndarray]
    n_nodes: int

    def to_pmf(self, kmax: int, lmax: int):
        """Empirical pmf on the grid {0..kmax} x {0..lmax} plus overflow mass."""
        pairs, counts = self.pairs, self.counts
        grid = np.zeros((kmax + 1, lmax + 1))
        inside = (pairs[:, 0] <= kmax) & (pairs[:, 1] <= lmax)
        np.add.at(grid, (pairs[inside, 0], pairs[inside, 1]), counts[inside])
        grid /= self.n_nodes
        return grid, float(counts[~inside].sum()) / self.n_nodes


def degree_histogram(state: GraphState) -> DegreeHistogram:
    """Tally joint in/out-degree counts N_{k,l} and per-group versions."""
    ind, outd, grp = state.degrees()
    key = ind * (outd.max() + 1) + outd

    def tally(mask):
        uniq, cnt = np.unique(key[mask], return_counts=True)
        p = np.stack([uniq // (outd.max() + 1), uniq % (outd.max() + 1)], axis=1)
        return p, cnt

    all_pairs, all_counts = tally(np.ones(len(key), dtype=bool))
    group_pairs = []
    group_counts = []
    for g in range(state.K):
        p, c = tally(grp == g)
        group_pairs.append(p)
        group_counts.append(c)
    return DegreeHistogram(
        pairs=all_pairs, counts=all_counts,
        group_pairs=group_pairs, group_counts=group_counts,
        n_nodes=state.n_nodes,
    )
