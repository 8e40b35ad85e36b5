"""Linked branching-process embedding of the graph's degree evolution.

The degree sequence of the growing graph is equal in law to a family of
linked branching-with-immigration processes observed at its jump times:
process k mirrors node k's (in, out) pair, and at every jump a new
process starts whose initialization depends on how the jumping process
moved. ``embedding_chains`` builds that family directly from the
branching construction, never from the graph's endpoint pools. A live
process with label m and state (n1, n2) carries two exponential clocks,
type I at rate alpha * (n1 + delta) and type II at rate
gamma * (n2 + delta), the clocks of the single-process engine
``branching.simulate_mbi_batch``; they sum to the total rate
alpha * n1 + gamma * n2 + delta. The first clock to ring makes the jump:
a child with label r ~ pi is born, and a reciprocation coin with
probability rho[m][r] (type I) or rho[r][m] (type II) decides whether
parent and child both gain the other particle type.

All replicates run in lockstep as (replicates, n + 1) arrays: one jump
draws a (replicates, 2j) block of exponentials and takes the argmin.
``verify_equivalence`` compares chain Monte Carlo against exact
enumeration of the graph law on the observable

    (edge count, sorted multiset of (group, in-degree, out-degree)),

which is label-alignment-free: the two constructions agree in law on it.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass

import numpy as np

from .params import ModelParams, draw_groups

MAX_ENUM_STEPS = 3
CHUNK = 4096                # replicates per lockstep block in verify_equivalence


class EnumerationTooLarge(ValueError):
    """Exact expansion of the graph law is only supported for n <= 3."""


def embedding_chains(params: ModelParams, n: int, replicates: int,
                     rng: np.random.Generator):
    """Run ``replicates`` independent linked chains for ``n`` jumps in lockstep.

    Returns ``(labels, n1, n2)``, int64 arrays of shape
    ``(replicates, n + 1)`` with processes in creation order. Process 0
    starts at (1, 1), the initial self-loop; the total type-I (and
    type-II) count is the graph's edge count.
    """
    alpha, gamma, delta = params.alpha, params.gamma, params.delta
    cum_pi = np.cumsum(params.pi)
    rows = np.arange(replicates)

    labels = np.zeros((replicates, n + 1), dtype=np.int64)
    n1 = np.zeros((replicates, n + 1), dtype=np.int64)
    n2 = np.zeros((replicates, n + 1), dtype=np.int64)
    labels[:, 0] = draw_groups(cum_pi, rng.random(replicates))
    n1[:, 0] = n2[:, 0] = 1
    for j in range(1, n + 1):
        # clocks are memoryless, so every jump races fresh exponentials; the
        # first of the 2j clocks picks the jumping process and its type
        rates = np.concatenate((alpha * (n1[:, :j] + delta), gamma * (n2[:, :j] + delta)),
                               axis=1)
        winner = np.argmin(rng.standard_exponential((replicates, 2 * j)) / rates, axis=1)
        type2 = winner >= j
        k = winner - j * type2
        m = labels[rows, k]
        r = draw_groups(cum_pi, rng.random(replicates))
        rho = np.where(type2, params.rho[r, m], params.rho[m, r])
        rec = rng.random(replicates) < rho
        n1[rows, k] += ~type2 | rec
        n2[rows, k] += type2 | rec
        labels[:, j] = r
        n1[:, j] = type2 | rec
        n2[:, j] = ~type2 | rec
    return labels, n1, n2


def _code_width(K: int, n: int) -> int:
    """B = n + 2 bounds every degree after n jumps; keys must fit in int64."""
    B = n + 2
    if (K * B * B) ** (n + 1) > np.iinfo(np.int64).max:
        raise ValueError(f"observable keys for K={K}, n={n} do not fit in int64")
    return B


def _tally(labels, n1, n2, K: int) -> Counter:
    """Counter of observables over the rows of ``embedding_chains`` output.

    Each process is coded as (g*B + in)*B + out with B = n + 2; the
    sorted codes of a row are the digits of one int64 key in base K*B*B,
    so ``np.unique`` tallies whole rows and only distinct keys are decoded.
    """
    B = _code_width(K, labels.shape[1] - 1)
    base = K * B * B
    codes = np.sort((labels * B + n1) * B + n2, axis=1)
    keys = codes @ (base ** np.arange(codes.shape[1] - 1, -1, -1, dtype=np.int64))
    observed: Counter = Counter()
    for key, count in zip(*np.unique(keys, return_counts=True)):
        cells = []
        key = int(key)
        for _ in range(codes.shape[1]):
            key, code = divmod(key, base)
            code, out = divmod(code, B)
            g, din = divmod(code, B)
            cells.append((g, din, out))
        cells.reverse()
        observed[(sum(c[1] for c in cells), tuple(cells))] += int(count)
    return observed


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
    from scipy.special import chdtrc  # only verify needs scipy; keep it off CLI start-up
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

    Runs ``replicates`` independent chains for n jumps (n <= 3) from one
    ``default_rng(seed)`` stream, ``CHUNK`` replicates at a time, tallies
    the observable, and chi-square-tests the frequencies against the
    enumerated distribution.
    """
    if replicates < 1:
        raise ValueError("replicates must be >= 1")
    _code_width(params.K, n)
    exact = enumerate_graph_law(params, n)
    rng = np.random.default_rng(seed)
    observed: Counter = Counter()
    for start in range(0, replicates, CHUNK):
        size = min(CHUNK, replicates - start)
        observed.update(_tally(*embedding_chains(params, n, size, rng), params.K))

    stat, df, p_value, n_merged, impossible = _chi_square_against(exact, observed, replicates)
    keys = set(exact) | set(observed)
    max_dev = max(abs(observed.get(k, 0) / replicates - exact.get(k, 0.0)) for k in keys)
    return EquivalenceReport(
        n=n, replicates=replicates, statistic=stat, df=df, p_value=p_value,
        max_abs_dev=max_dev, n_cells=len(exact), n_merged=n_merged,
        impossible_support=impossible,
    )
