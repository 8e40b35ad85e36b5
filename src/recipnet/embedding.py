"""Linked branching-process embedding of the graph's degree evolution.

The degree sequence of the growing graph is equal in law to a family of
linked branching-with-immigration processes observed at its jump times:
process k mirrors node k's (in, out) pair, and at every jump a new
process starts whose initialization depends on how the jumping process
moved. ``embedding_chains`` builds that family directly from the
branching construction, never from the graph's endpoint pools. A live
process with label m and state (n1, n2) carries two exponential clocks,
type I at rate alpha * (n1 + delta) and type II at rate
gamma * (n2 + delta), stated once in ``params.clock_rates`` for these
chains and for the engines of ``branching``; they sum to the total rate
alpha * n1 + gamma * n2 + delta. The first clock to ring makes the jump:
a child with label r ~ pi is born, and a reciprocation coin with
probability rho[m][r] (type I) or rho[r][m] (type II) decides whether
parent and child both gain the other particle type.

All replicates run in lockstep as (replicates, n + 1) arrays: one jump
draws a (replicates, 2j) block of exponentials and takes the argmin.
``rn_chains`` in ``_kernel.c`` mirrors that loop draw for draw, and
``verify_equivalence`` hands it the kernel's PCG64 on the stream of
``default_rng(seed)``, so a compiled run never imports ``numpy.random``.
``verify_equivalence`` compares chain Monte Carlo against exact
enumeration of the graph law on the observable

    (edge count, sorted multiset of (group, in-degree, out-degree)),

which is label-alignment-free: the two constructions agree in law on it.
Each chunk's rows are packed into int64 keys, whose counts join one tally
as the chunk is drawn, so memory does not grow with the number of chains;
the distinct keys are decoded once at the end. The p-value is the
chi-square tail ``_chi2_sf``, a closed-form finite sum for integer degrees
of freedom, so the check needs nothing beyond numpy and the standard
library.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict
from dataclasses import dataclass

import numpy as np

from . import _kernel
from .params import ModelParams, check_count, clock_rates, draw_groups

MAX_ENUM_STEPS = 3
CHUNK = 4096                # replicates per lockstep block in verify_equivalence


class EnumerationTooLarge(ValueError):
    """Exact expansion of the graph law is only supported for n <= 3."""


def _chains_kernel(params: ModelParams):
    """The loaded kernel if ``rn_chains`` takes ``params``, else None.

    The compiled loop indexes rho with labels it draws from cumsum(pi), so
    both must have K entries per axis, and it needs positive rates, so that
    no clock's time is 0 / 0 (NaN, which np.argmin would pick)."""
    lib = _kernel.load()
    if (lib is not None and np.size(params.pi) == params.K
            and np.shape(params.rho) == (params.K, params.K)
            and min(params.alpha, params.gamma) * params.delta > 0.0):
        return lib
    return None


def embedding_chains(params: ModelParams, n: int, replicates: int,
                     rng: np.random.Generator):
    """Run ``replicates`` independent linked chains for ``n`` jumps in lockstep.

    Returns ``(labels, n1, n2)``, int64 arrays of shape
    ``(replicates, n + 1)`` with processes in creation order. Process 0
    starts at (1, 1), the initial self-loop; the total type-I (and
    type-II) count is the graph's edge count.

    The loop below is the statement of the rule; ``rn_chains`` runs
    instead, from the same generator, whenever the kernel loads.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0 jumps, got {n}")
    check_count("replicates", replicates, 0)
    alpha, gamma, delta = params.alpha, params.gamma, params.delta
    cum_pi = np.cumsum(params.pi)
    labels = np.zeros((replicates, n + 1), dtype=np.int64)
    n1 = np.zeros((replicates, n + 1), dtype=np.int64)
    n2 = np.zeros((replicates, n + 1), dtype=np.int64)
    n1[:, 0] = n2[:, 0] = 1
    lib = _chains_kernel(params)
    # it takes the kernel's PCG64 or numpy's Generator only (tested in that
    # order: naming np.random.Generator imports numpy.random)
    if lib is not None and (isinstance(rng, _kernel.PCG64)
                            or isinstance(rng, np.random.Generator)):
        cum_pi, rho = (np.ascontiguousarray(a, dtype=float) for a in (cum_pi, params.rho))
        work = np.empty(replicates + 2 * n)
        with _kernel.bitgen(rng) as bitgen:
            lib.rn_chains(bitgen, n, replicates, cum_pi.ctypes.data, params.K,
                          rho.ctypes.data, alpha, gamma, delta, labels.ctypes.data,
                          n1.ctypes.data, n2.ctypes.data, work.ctypes.data)
        return labels, n1, n2

    rows = np.arange(replicates)
    labels[:, 0] = draw_groups(cum_pi, rng.random(replicates))
    for j in range(1, n + 1):
        # clocks are memoryless, so every jump races fresh exponentials; the
        # first of the 2j clocks picks the jumping process and its type
        rates = np.concatenate(clock_rates(params, n1[:, :j], n2[:, :j]), axis=1)
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


def _row_keys(labels, n1, n2, K: int) -> np.ndarray:
    """One int64 key per row of ``embedding_chains`` output.

    Each process is coded as (g*B + in)*B + out with B = n + 2; the
    sorted codes of a row are the digits of its key in base K*B*B. An
    odd-even transposition network of compare-exchanges sorts the n + 1
    code columns (n + 1 rounds sort any row), and Horner's rule sums them.
    """
    B = _code_width(K, labels.shape[1] - 1)
    cols = list(((labels * B + n1) * B + n2).T)
    for r in range(len(cols)):
        for i in range(r % 2, len(cols) - 1, 2):
            lo, hi = cols[i], cols[i + 1]
            cols[i], cols[i + 1] = np.minimum(lo, hi), np.maximum(lo, hi)
    keys = cols[0]
    for col in cols[1:]:
        keys = keys * (K * B * B) + col
    return keys


def _key_counts(keys: np.ndarray) -> dict:
    """How often each distinct row key occurs, as Python ints."""
    return dict(zip(*(a.tolist() for a in np.unique(keys, return_counts=True))))


def _decode(counts, K: int, n: int) -> Counter:
    """Counter of observables from the counts of n-jump chains' row keys."""
    B = _code_width(K, n)
    base = K * B * B
    observed: Counter = Counter()
    for key, count in sorted(counts.items()):
        cells = []
        for _ in range(n + 1):
            key, code = divmod(key, base)
            code, out = divmod(code, B)
            g, din = divmod(code, B)
            cells.append((g, din, out))
        cells.reverse()
        observed[(sum(c[1] for c in cells), tuple(cells))] += count
    return observed


def _tally(labels, n1, n2, K: int) -> Counter:
    """Counter of observables over the rows of ``embedding_chains`` output."""
    return _decode(_key_counts(_row_keys(labels, n1, n2, K)), K, labels.shape[1] - 1)


def enumerate_graph_law(params: ModelParams, n: int) -> dict:
    """Exact distribution of the observable after n graph steps.

    Expands scenarios x targets x groups x reciprocation coins; feasible
    for n <= 3. Keys are (edge count, sorted multiset of (group, in, out))
    with 0-based groups.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0 graph steps, got {n}")
    if n > MAX_ENUM_STEPS:
        raise EnumerationTooLarge(f"exact enumeration supports n <= {MAX_ENUM_STEPS}, got {n}")
    delta, pi = params.delta, params.pi
    # scenario 1 (new node sends to vi) grows vi's in-degree, side 1 of a
    # (group, in, out) node, and scenario 2 (vi sends to the new node) its
    # out-degree, side 2; each with its rate and reply matrix
    scenarios = ((params.alpha, 1, params.rho), (params.gamma, 2, params.rho.T))
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
            for vi, node in enumerate(nodes):
                for rate, side, rho in scenarios:
                    p_t = rate * (node[side] + delta) / denom * pr
                    rec = rho[node[0], r]
                    # reciprocated (both gain the other side too), then not
                    for back, q in ((1, rec), (0, 1.0 - rec)):
                        if p_t > 0.0 and q > 0.0:
                            old, new = list(node), [r, back, back]
                            old[side] += 1
                            old[3 - side] += back
                            new[3 - side] = 1
                            nxt = list(nodes)
                            nxt[vi] = tuple(old)
                            nxt.append(tuple(new))
                            expand(tuple(nxt), e + 1 + back, steps_left - 1, prob * p_t * q)

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


# Stirling series of lgamma(a + 1) - (a log a - a + log(2 pi a) / 2), in powers
# of 1/a from a^-1 to a^-11; the first term left out is below 1e-15 at a >= 10
_STIRLING = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360)


def _chi2_sf(df: int, x: float) -> float:
    """P(X > x) for X chi-square with integer ``df`` >= 1 degrees of freedom.

    This is the upper regularized gamma Q(df/2, h) with h = x/2, a finite
    sum of positive terms e^-h h^a / Gamma(a + 1): a = 0, 1, ..., df/2 - 1
    for even df, and a = 1/2, 3/2, ..., df/2 - 1 plus erfc(sqrt(h)) for odd
    df. The terms are scaled by the largest one, walked out from it with
    the ratios h / a, and summed with ``math.fsum``. The log of the peak term
    comes from the Stirling series once a >= 10, where the direct form
    a log h - h - lgamma(a + 1) loses digits to cancellation.
    """
    if df < 1 or int(df) != df:
        raise ValueError(f"df must be an integer >= 1, got {df!r}")
    if x <= 0.0:
        return 1.0
    if x == math.inf:
        return 0.0
    h = 0.5 * x
    c = 0.5 * (df % 2)                      # a runs over c, c + 1, ..., c + n - 1
    n = df // 2
    head = math.erfc(math.sqrt(h)) if c else 0.0
    if n == 0:
        return head
    p = min(n - 1, max(0, math.floor(h - c)))  # the terms rise while a <= h
    a = p + c
    if a >= 10.0:
        d = (h - a) / a
        s = 0.0
        for coef in reversed(_STIRLING):
            s = s / (a * a) + coef
        log_peak = a * (math.log1p(d) - d) - 0.5 * math.log(2.0 * math.pi * a) - s / a
    else:
        log_peak = a * math.log(h) - h - math.lgamma(a + 1.0)
    # away from the peak the ratios only shrink, so each walk stops below 1e-20
    # of the peak term; what it leaves out is far below an ulp of the sum
    terms = [1.0]
    t = 1.0
    for j in range(p, 0, -1):
        t *= (j + c) / h
        if t < 1e-20:
            break
        terms.append(t)
    t = 1.0
    for j in range(p + 1, n):
        t *= h / (j + c)
        if t < 1e-20:
            break
        terms.append(t)
    return head + math.exp(log_peak) * math.fsum(terms)


def _chi_square_against(exact: dict, observed: Counter, n_samples: int,
                        min_expected: float = 5.0):
    """Pearson chi-square with small-expectation cells pooled.

    The p-value is ``_chi2_sf(df, statistic)``, the closed-form tail of the
    chi-square law with df = cells - 1, or 1.0 when a single cell is left.
    """
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
    p_value = _chi2_sf(df, stat) if df > 0 else 1.0
    return stat, df, p_value, n_merged, False


def verify_equivalence(params: ModelParams, n: int, replicates: int,
                       seed: int = 0) -> EquivalenceReport:
    """Exact graph law vs chain Monte Carlo on the degree observable.

    Runs ``replicates`` independent chains for n jumps (n <= 3) from one
    ``default_rng(seed)`` stream (the kernel's PCG64 draws it whenever
    ``rn_chains`` runs), ``CHUNK`` replicates at a time, keys each row and
    adds each chunk's key counts to one tally as soon as it is drawn. So a
    run holds one chunk plus the distinct keys, whatever ``replicates`` is.
    The distinct keys are decoded once, and the frequencies are
    chi-square-tested against the enumerated distribution.
    """
    check_count("replicates", replicates, 1)
    _code_width(params.K, n)
    exact = enumerate_graph_law(params, n)
    # one stream for every chunk: the kernel's PCG64 only if rn_chains takes
    # the model, since the numpy loop draws from a Generator
    rng = _kernel.default_rng(_chains_kernel(params), seed)
    counts: Counter = Counter()
    for start in range(0, replicates, CHUNK):
        chains = embedding_chains(params, n, min(CHUNK, replicates - start), rng)
        counts.update(_key_counts(_row_keys(*chains, params.K)))
    observed = _decode(counts, params.K, n)

    stat, df, p_value, n_merged, impossible = _chi_square_against(exact, observed, replicates)
    keys = set(exact) | set(observed)
    max_dev = max(abs(observed.get(k, 0) / replicates - exact.get(k, 0.0)) for k in keys)
    return EquivalenceReport(
        n=n, replicates=replicates, statistic=stat, df=df, p_value=p_value,
        max_abs_dev=max_dev, n_cells=len(exact), n_merged=n_merged,
        impossible_support=impossible,
    )
