"""Linked branching-process embedding of the graph's degree evolution.

The degree sequence of the growing graph is equal in law to a family of
linked branching-with-immigration processes observed at its jump times:
process k mirrors node k's (in, out) pair, and at every jump a new
process starts whose initialization depends on how the jumping process
moved. Selecting the jumping process works exactly like preferential
attachment: each process with label m and state (n1, n2) carries
alpha-weight n1 + delta and gamma-weight n2 + delta, realized here with
the same O(1) unit-pool trick the graph simulator uses.

Per jump the chain consumes one exponential (waiting time) and five
uniforms (side, pool-vs-uniform mixture, index, new label, reciprocation
coin). ``verify_equivalence`` compares chain Monte Carlo against exact
enumeration of the graph law on the observable

    (edge count, sorted multiset of (group, in-degree, out-degree)),

which is label-alignment-free: the two constructions agree in law on it.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass

import numpy as np
from scipy.special import chdtrc

from .params import ModelParams

MAX_ENUM_STEPS = 3
DEFAULT_CHAIN_CAP = 10_000


class EnumerationTooLarge(ValueError):
    """Exact expansion of the graph law is only supported for n <= 3."""


@dataclass
class EmbeddingChainState:
    """State of the linked chain after some number of jumps.

    Lists are indexed by process (= node) creation order, 0-based.
    ``in_units[i]`` is a process index owning one type-I particle; pools
    have one entry per particle so uniform entries are count-biased.
    """

    labels: list[int]
    n1: list[int]
    n2: list[int]
    birth_times: list[float]
    R: list[int]
    T: list[float]
    in_units: list[int]
    out_units: list[int]

    @property
    def jumps(self) -> int:
        return len(self.R)

    def check_identity(self):
        """Total particle counts of both types equal #processes + sum(R)."""
        expect = len(self.labels) + sum(self.R)
        assert sum(self.n1) == expect, "type-I total drifted"
        assert sum(self.n2) == expect, "type-II total drifted"
        assert len(self.in_units) == expect and len(self.out_units) == expect

    def observable(self):
        """(edge count, sorted multiset of (group, in, out))."""
        e = len(self.labels) + sum(self.R)
        cells = sorted(zip(self.labels, self.n1, self.n2))
        return e, tuple(cells)


def embedding_chain(params: ModelParams, n_steps: int, rng: np.random.Generator,
                    cap: int = DEFAULT_CHAIN_CAP) -> EmbeddingChainState:
    """Run the linked chain for ``n_steps`` jumps.

    The chain is a verification harness; ``cap`` guards against
    accidentally huge runs (selection pools grow linearly).
    """
    if n_steps > cap:
        raise ValueError(f"n_steps={n_steps} exceeds harness cap {cap}")
    alpha, gamma, delta = params.alpha, params.gamma, params.delta
    rho = params.rho.tolist()
    cum_pi = np.cumsum(params.pi)
    K_last = params.K - 1

    u0 = rng.random()
    l1 = min(int(np.searchsorted(cum_pi, u0, side="right")), K_last)
    state = EmbeddingChainState(
        labels=[l1], n1=[1], n2=[1], birth_times=[0.0],
        R=[], T=[0.0], in_units=[0], out_units=[0],
    )
    labels, n1, n2 = state.labels, state.n1, state.n2
    in_units, out_units = state.in_units, state.out_units

    for _ in range(n_steps):
        p_count = len(labels)
        s1 = len(in_units)                      # = p_count + sum(R)
        total_rate = (1.0 + delta) * p_count + (s1 - p_count)
        t_new = state.T[-1] + rng.standard_exponential() / total_rate
        u = rng.random(5)

        alpha_mass = alpha * (s1 + delta * p_count)
        gamma_mass = gamma * (len(out_units) + delta * p_count)
        new = p_count
        if u[0] * (alpha_mass + gamma_mass) < alpha_mass:
            # alpha side: jumping process gains an in-unit
            if u[1] * (s1 + delta * p_count) < s1:
                k = in_units[int(u[2] * s1)]
            else:
                k = int(u[2] * p_count)
            m = labels[k]
            r = min(int(np.searchsorted(cum_pi, u[3], side="right")), K_last)
            n1[k] += 1
            in_units.append(k)
            if u[4] < rho[m][r]:
                n2[k] += 1
                out_units.append(k)
                state.R.append(1)
                labels.append(r)
                n1.append(1)
                n2.append(1)
                in_units.append(new)
                out_units.append(new)
            else:
                state.R.append(0)
                labels.append(r)
                n1.append(0)
                n2.append(1)
                out_units.append(new)
        else:
            # gamma side: jumping process gains an out-unit
            s2 = len(out_units)
            if u[1] * (s2 + delta * p_count) < s2:
                k = out_units[int(u[2] * s2)]
            else:
                k = int(u[2] * p_count)
            m = labels[k]
            r = min(int(np.searchsorted(cum_pi, u[3], side="right")), K_last)
            n2[k] += 1
            out_units.append(k)
            if u[4] < rho[r][m]:
                n1[k] += 1
                in_units.append(k)
                state.R.append(1)
                labels.append(r)
                n1.append(1)
                n2.append(1)
                in_units.append(new)
                out_units.append(new)
            else:
                state.R.append(0)
                labels.append(r)
                n1.append(1)
                n2.append(0)
                in_units.append(new)
        state.birth_times.append(t_new)
        state.T.append(t_new)
    return state


def enumerate_graph_law(params: ModelParams, n: int) -> dict:
    """Exact distribution of the observable after n graph steps.

    Expands scenarios x targets x groups x reciprocation coins; feasible
    for n <= 3. Keys are (edge count, sorted multiset of (group, in, out))
    with 0-based groups.
    """
    if n > MAX_ENUM_STEPS:
        raise EnumerationTooLarge(f"exact enumeration supports n <= {MAX_ENUM_STEPS}, got {n}")
    alpha, gamma, delta = params.alpha, params.gamma, params.delta
    pi = params.pi
    rho = params.rho
    dist: dict = defaultdict(float)

    def expand(nodes: tuple, e: int, steps_left: int, prob: float):
        if steps_left == 0:
            key = (e, tuple(sorted(nodes)))
            dist[key] += prob
            return
        v_count = len(nodes)
        denom = e + delta * v_count
        for r in range(params.K):
            pr = pi[r]
            if pr == 0.0:
                continue
            for vi, (g, din, dout) in enumerate(nodes):
                # scenario 1: new node sends to vi
                p_t = alpha * (din + delta) / denom * pr
                if p_t > 0.0:
                    rec = rho[g, r]
                    if rec > 0.0:
                        nxt = list(nodes)
                        nxt[vi] = (g, din + 1, dout + 1)
                        nxt.append((r, 1, 1))
                        expand(tuple(nxt), e + 2, steps_left - 1, prob * p_t * rec)
                    if rec < 1.0:
                        nxt = list(nodes)
                        nxt[vi] = (g, din + 1, dout)
                        nxt.append((r, 0, 1))
                        expand(tuple(nxt), e + 1, steps_left - 1, prob * p_t * (1.0 - rec))
                # scenario 2: vi sends to new node
                p_t = gamma * (dout + delta) / denom * pr
                if p_t > 0.0:
                    rec = rho[r, g]
                    if rec > 0.0:
                        nxt = list(nodes)
                        nxt[vi] = (g, din + 1, dout + 1)
                        nxt.append((r, 1, 1))
                        expand(tuple(nxt), e + 2, steps_left - 1, prob * p_t * rec)
                    if rec < 1.0:
                        nxt = list(nodes)
                        nxt[vi] = (g, din, dout + 1)
                        nxt.append((r, 1, 0))
                        expand(tuple(nxt), e + 1, steps_left - 1, prob * p_t * (1.0 - rec))

    for g in range(params.K):
        if pi[g] > 0.0:
            expand(((g, 1, 1),), 1, n, float(pi[g]))
    return dict(dist)


@dataclass(frozen=True)
class EquivalenceReport:
    """Chi-square comparison of chain Monte Carlo vs the exact graph law."""

    n: int
    replicates: int
    statistic: float
    df: int
    p_value: float
    max_abs_dev: float
    n_cells: int
    n_merged: int
    impossible_support: bool


def _chi_square_against(exact: dict, observed: Counter, n_samples: int,
                        min_expected: float = 5.0):
    """Pearson chi-square with small-expectation cells pooled."""
    impossible = any(key not in exact for key in observed)
    items = sorted(exact.items(), key=lambda kv: -kv[1])
    kept = []
    pool_p = 0.0
    pool_obs = 0
    for key, p in items:
        if p * n_samples >= min_expected:
            kept.append((key, p))
        else:
            pool_p += p
            pool_obs += observed.get(key, 0)
    cells = [(observed.get(key, 0), p * n_samples) for key, p in kept]
    n_merged = len(items) - len(kept)
    if pool_p > 0.0:
        cells.append((pool_obs, pool_p * n_samples))
    if impossible:
        # observations outside the exact support: certain disagreement
        return float("inf"), max(len(cells) - 1, 1), 0.0, n_merged, True
    stat = sum((obs - exp) ** 2 / exp for obs, exp in cells)
    df = len(cells) - 1
    p_value = float(chdtrc(df, stat)) if df > 0 else 1.0
    return stat, df, p_value, n_merged, False


def verify_equivalence(params: ModelParams, n: int, replicates: int,
                       seed: int = 0) -> EquivalenceReport:
    """Exact graph law vs chain Monte Carlo on the degree observable.

    Runs ``replicates`` independent chains for n jumps (n <= 3), tallies
    the observable, and chi-square-tests the frequencies against the
    enumerated distribution.
    """
    if replicates < 1:
        raise ValueError("replicates must be >= 1")
    exact = enumerate_graph_law(params, n)
    rng = np.random.default_rng(seed)
    observed: Counter = Counter()
    for _ in range(replicates):
        chain = embedding_chain(params, n, rng)
        observed[chain.observable()] += 1

    stat, df, p_value, n_merged, impossible = _chi_square_against(exact, observed, replicates)
    keys = set(exact) | set(observed)
    max_dev = max(abs(observed.get(k, 0) / replicates - exact.get(k, 0.0)) for k in keys)
    return EquivalenceReport(
        n=n, replicates=replicates, statistic=stat, df=df, p_value=p_value,
        max_abs_dev=max_dev, n_cells=len(exact), n_merged=n_merged,
        impossible_support=impossible,
    )
