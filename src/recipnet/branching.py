"""Two-type Markov branching with immigration and the degree-limit sampler.

A group-m process tracks a pair (n1, n2) mimicking the in/out-degrees of
one group-m node. It carries two exponential clocks, the same two that
``embedding.embedding_chains`` races for every process of its chain:

* type I, rate alpha * (n1 + delta): n1 += 1, and with probability
  rho_row[m] also n2 += 1 (the node reciprocates an incoming edge);
* type II, rate gamma * (n2 + delta): n2 += 1, and with probability
  rho_col[m] also n1 += 1.

Their sum is alpha * n1 + gamma * n2 + delta; the delta terms are the
immigration of the paper's branching process with immigration.

Evaluating a process with the equilibrium-matched random initialization
at an independent Exp(c*) time T* yields a draw from the limiting joint
in/out-degree distribution; ``estimate_pkl`` Monte-Carlos that mixture
over the group label, one chunk of chains after another in the calling
process.

T* is memoryless, so that law is also the law of the process's jump
chain killed in each state with probability c* / (c* + w1 + w2), w1 and
w2 the state's two clock rates (``params.clock_rates``). i.i.d. chains on
the (group, n1, n2) states can be moved as counts, so ``_flow`` draws a
chunk of them as a binomial flow: the chains in a state split into
killed, type I and type II, and each event is reciprocated by the
state's coin, so the work is the states visited, not the chains times
their events. ``simulate_mbi_batch`` is the fixed-horizon engine: it
advances trajectories of any mix of labels in lockstep up to given
times, two variates per event (an exponential wait, then the event step
``_event``, which reads the clock and the coin from one x = u * (w1 + w2)).
``rn_mbi_flow`` (the flow with ``_tally_chunk``'s tally) and
``rn_mbi_batch`` in ``_kernel.c`` repeat the flow and the loop line for
line. They draw in the numpy code's order and run instead whenever the
kernel loads (see ``_kernel``), with the same counts and the same
generator state after the call: ``rn_mbi_batch`` from the caller's
generator, ``rn_mbi_flow`` from the kernel's PCG64, seeded as
``_chunk_rng`` seeds numpy's, so a tally never imports ``numpy.random``.
The raw rows of ``sample_limit_pairs`` come from ``_flow`` in numpy alone.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass

import numpy as np

from . import _kernel
from .params import GroupRates, ModelParams, check_count, clock_rates, group_rates
from .equilibrium import EquilibriumSolution, attachment_law

DEFAULT_EVENT_BUDGET = 10_000_000
CHUNK = 1 << 20


class EventBudgetExceeded(RuntimeError):
    """Every replicate hit the event budget, so no estimate can be normalized.

    Replicates hitting the cap are reported as failed rather than
    resampled, to avoid biasing the estimate. The counts are kept on the
    error as ``failed`` and ``replicates``.
    """

    def __init__(self, failed: int, replicates: int):
        super().__init__(failed, replicates)
        self.failed = failed
        self.replicates = replicates

    def __str__(self) -> str:
        return (f"all replicates hit the event budget ({self.failed} failed of "
                f"{self.replicates}); there is no estimate to normalize")


def _event(a1, a2, x, w1, w2, rr, rc):
    """Move the processes at (a1, a2) by the event that x = u * (w1 + w2)
    picks: type I below w1 (reciprocated below w1*rr), else type II
    (reciprocated below w1 + w2*rc)."""
    is1 = x < w1
    a1 += is1 | (x < w1 + w2 * rc)
    a2 += ~is1 | (x < w1 * rr)


def simulate_mbi_batch(labels: np.ndarray, inits: np.ndarray, t_ends: np.ndarray,
                       params: ModelParams, rates: GroupRates,
                       rng: np.random.Generator,
                       event_budget: int = DEFAULT_EVENT_BUDGET):
    """Advance R independent trajectories in lockstep until their ``t_ends``.

    Row i has group ``labels[i]`` and starts at ``inits[i]``; ``inits`` has
    shape (R, 2). Returns (n1, n2, events, failed): final counts, event
    totals, and a mask of trajectories that hit the event budget (their
    counts are partial).

    The loop below is the statement of the rule; ``rn_mbi_batch`` runs
    instead, from the same generator, whenever the kernel loads.
    """
    inits = np.asarray(inits)
    n1 = inits[:, 0].astype(np.int64)
    n2 = inits[:, 1].astype(np.int64)
    events = np.zeros(len(n1), dtype=np.int64)
    failed = np.zeros(len(n1), dtype=bool)
    left = np.array(t_ends, dtype=float)
    labels = np.asarray(labels)
    lib = _kernel.load()
    # the compiled loop indexes memory with the labels, so it takes in-range
    # integer labels, one per row, and the kernel's PCG64 or numpy's own
    # Generator only (tested in that order: naming np.random.Generator
    # imports numpy.random)
    if (lib is not None
            and (isinstance(rng, _kernel.PCG64) or isinstance(rng, np.random.Generator))
            and labels.dtype.kind in "iu" and labels.shape == left.shape == n1.shape
            and np.all((labels >= 0)
                       & (labels < min(rates.rho_row.size, rates.rho_col.size)))):
        labels = np.ascontiguousarray(labels, dtype=np.int64)
        rho_row, rho_col = (np.ascontiguousarray(r, dtype=float)
                            for r in (rates.rho_row, rates.rho_col))
        work = np.empty(6 * len(n1))
        with _kernel.bitgen(rng) as bitgen:
            lib.rn_mbi_batch(bitgen, len(n1), labels.ctypes.data, left.ctypes.data,
                             rho_row.ctypes.data, rho_col.ctypes.data, params.alpha,
                             params.gamma, params.delta, event_budget, n1.ctypes.data,
                             n2.ctypes.data, events.ctypes.data, failed.ctypes.data,
                             work.ctypes.data)
        return n1, n2, events, failed

    # the running rows, compacted whenever some of them stop; every running
    # row makes one event per iteration, so each has made ``it`` events
    idx = np.arange(len(n1))
    a1 = n1.astype(float)
    a2 = n2.astype(float)
    rr = rates.rho_row[labels]
    rc = rates.rho_col[labels]
    it = 0
    while idx.size:
        w1, w2 = clock_rates(params, a1, a2)
        rate = w1 + w2
        with np.errstate(divide="ignore", invalid="ignore"):
            # a rate-0 row (delta = 0 at state (0, 0)) is absorbing: its wait is inf
            left -= rng.standard_exponential(idx.size) / rate
        x = rng.random(idx.size) * rate
        go = left >= 0.0
        if it >= event_budget:
            failed[idx[go]] = True
            go[:] = False
        if not go.all():
            stop = np.flatnonzero(~go)
            done = idx[stop]
            n1[done] = a1[stop]
            n2[done] = a2[stop]
            events[done] = it
            keep = np.flatnonzero(go)
            idx, a1, a2, left, rr, rc, w1, w2, x = (
                v.take(keep) for v in (idx, a1, a2, left, rr, rc, w1, w2, x))
        _event(a1, a2, x, w1, w2, rr, rc)
        it += 1
    return n1, n2, events, failed


@dataclass(frozen=True)
class LimitPairSampler:
    """Initialization and observation-time data for the degree limit law.

    ``init_probs[r]`` holds the probabilities of starting at (0,1), (1,0)
    and (1,1) for label r, built from the solved edge fractions; T* is
    exponential with rate ``c_star``.
    """

    c_star: float
    init_probs: np.ndarray   # (K, 3), rows over (0,1), (1,0), (1,1)

    @classmethod
    def from_solution(cls, params: ModelParams,
                      sol: EquilibriumSolution) -> "LimitPairSampler":
        alpha, gamma, rho = params.alpha, params.gamma, params.rho
        px, py = attachment_law(params, sol.x, sol.y)
        q_in = rho.T @ px    # q_in[r]: reciprocated share of received edges
        q_out = rho @ py     # q_out[r]: reciprocated share of sent edges
        p01 = alpha * (1.0 - q_in)
        p10 = gamma * (1.0 - q_out)
        p11 = alpha * q_in + gamma * q_out
        init_probs = np.stack([p01, p10, p11], axis=1)
        if np.any(init_probs < 0.0) or np.any(np.abs(init_probs.sum(axis=1) - 1.0) > 1e-12):
            raise AssertionError("initialization distribution rows must be pmfs")
        init_probs.setflags(write=False)
        return cls(c_star=sol.c_star, init_probs=init_probs)


@dataclass(frozen=True)
class JointPmfEstimate:
    """Monte-Carlo estimate of the limiting joint degree pmf.

    Canonical storage is integer counts per group, so the group grids mix
    to the overall grid exactly. ``grid`` and ``overflow_mass`` normalize
    by the number of successful replicates; ``failed`` counts trajectories
    that hit the event budget (excluded from the normalization).
    """

    group_counts: np.ndarray            # (K, kmax+1, lmax+1) int64
    group_overflow_counts: np.ndarray   # (K,) int64
    replicates: int
    failed: int
    kmax: int
    lmax: int

    @property
    def successes(self) -> int:
        return self.replicates - self.failed

    def _normalizer(self) -> int:
        if self.successes == 0:
            raise EventBudgetExceeded(self.failed, self.replicates)
        return self.successes

    @property
    def grid(self) -> np.ndarray:
        return self.group_counts.sum(axis=0) / self._normalizer()

    @property
    def overflow_mass(self) -> float:
        return float(self.group_overflow_counts.sum()) / self._normalizer()

    @property
    def failed_fraction(self) -> float:
        return self.failed / self.replicates

    def group_grid(self, m: int) -> np.ndarray:
        """Group-m contribution to the mixed pmf (mass ~ pi[m])."""
        return self.group_counts[m] / self._normalizer()


def _chunk_rng(job):
    """Chunk j's generator, seeded with SeedSequence([seed, j])."""
    return np.random.default_rng(np.random.SeedSequence([job[5], job[3]]))


def _merge(g, k, l, n):
    """The states with positive counts n, sorted by (g, k, l), equal states summed."""
    pos = n > 0
    order = np.lexsort((l[pos], k[pos], g[pos]))
    g, k, l, n = (v[pos][order] for v in (g, k, l, n))
    first = np.flatnonzero(np.diff(g, prepend=-1) | np.diff(k, prepend=-1) | np.diff(l, prepend=-1))
    return g[first], k[first], l[first], np.add.reduceat(n, first)


def _flow(job, rng):
    """One chunk's killed jump chains moved as counts: the terminal records
    (labels, n1, n2, count, failed) in record order.

    Layer e holds the chains that have made e events. In each state a
    binomial share is killed, and recorded there; at the event budget the
    rest fail there. Otherwise the rest split into type-I and type-II
    events, each reciprocated by the state's coin. Each draw is one call
    over the whole layer."""
    params, rates, sampler, _, size, _, event_budget = job
    c, K = sampler.c_star, params.K
    start = rng.multinomial(rng.multinomial(size, params.pi), sampler.init_probs)
    # (0, 1), (1, 0) and (1, 1) per group, the order of init_probs' columns
    layer = (np.repeat(np.arange(K), 3), np.tile([0, 1, 1], K), np.tile([1, 0, 1], K),
             start.ravel())
    records = [(*(np.zeros(0, dtype=np.int64) for _ in range(4)), np.zeros(0, dtype=bool))]
    for e in itertools.count():
        g, k, l, n = _merge(*layer)
        if not n.size:
            break
        w1, w2 = clock_rates(params, k, l)
        kill = rng.binomial(n, c / (c + w1 + w2))
        records.append((g, k, l, kill, np.zeros(n.size, dtype=bool)))
        live = n - kill
        if e >= event_budget:
            records.append((g, k, l, live, np.ones(n.size, dtype=bool)))
            break
        t1 = rng.binomial(live, w1 / (w1 + w2))
        r1 = rng.binomial(t1, rates.rho_row[g])
        r2 = rng.binomial(live - t1, rates.rho_col[g])
        layer = (np.tile(g, 3), np.concatenate([k + 1, k, k + 1]),
                 np.concatenate([l, l + 1, l + 1]),
                 np.concatenate([t1 - r1, live - t1 - r2, r1 + r2]))
    return tuple(np.concatenate(v) for v in zip(*records))


def _sample_chunk(args):
    """Raw limit pairs (labels, n1, n2, failed) for one replicate chunk:
    the records of ``_flow`` expanded in record order, then permuted, so
    the rows are i.i.d. draws."""
    rng = _chunk_rng(args)
    labels, n1, n2, n, failed = _flow(args, rng)
    record = np.repeat(np.arange(n.size), n)[rng.permutation(n.sum())]
    return tuple(v[record] for v in (labels, n1, n2, failed))


def _tally_chunk(job, kmax, lmax):
    """One chunk's count vector: the (K, kmax+1, lmax+1) grid cells flat,
    then the overflow count of each group, then the failed count.

    ``rn_mbi_flow`` draws and tallies the chunk whenever the kernel loads
    and the model's arrays have the shapes it indexes memory with, from the
    kernel's PCG64 on the stream of ``_chunk_rng(job)``; the numpy code
    below is the statement it mirrors."""
    params, rates, sampler, j, size, seed, event_budget = job
    K = params.K
    cells = K * (kmax + 1) * (lmax + 1)
    counts = np.zeros(cells + K + 1, dtype=np.int64)
    pi, probs, rho_row, rho_col = (
        np.ascontiguousarray(a, dtype=float)
        for a in (params.pi, sampler.init_probs, rates.rho_row, rates.rho_col))
    lib = _kernel.load()
    if (lib is not None and min(kmax, lmax) >= 0 and probs.shape == (K, 3)
            and pi.shape == rho_row.shape == rho_col.shape == (K,)):
        rng = _kernel.PCG64(lib, [seed, j])     # the stream of _chunk_rng(job)
        status = lib.rn_mbi_flow(rng.bitgen, size, pi.ctypes.data, K, probs.ctypes.data,
                                 sampler.c_star, rho_row.ctypes.data, rho_col.ctypes.data,
                                 params.alpha, params.gamma, params.delta, event_budget,
                                 kmax, lmax, counts.ctypes.data)
        if status != 0:
            raise MemoryError("rn_mbi_flow could not allocate its layers")
        return counts
    labels, n1, n2, n, failed = _flow(job, _chunk_rng(job))
    code = np.where((n1 <= kmax) & (n2 <= lmax),
                    (labels * (kmax + 1) + n1) * (lmax + 1) + n2, cells + labels)
    code[failed] = cells + K
    np.add.at(counts, code, n)
    return counts


def _chunk_jobs(params, sol, replicates, seed, event_budget, chunk_size):
    """One ``_sample_chunk`` job per chunk, in chunk order; chunk j draws
    from SeedSequence([seed, j])."""
    check_count("replicates", replicates, 1)
    check_count("chunk_size", chunk_size, 1)
    rates = group_rates(params)
    sampler = LimitPairSampler.from_solution(params, sol)
    return [
        (params, rates, sampler, j, min(chunk_size, replicates - j * chunk_size),
         seed, event_budget)
        for j in range((replicates + chunk_size - 1) // chunk_size)
    ]


def sample_limit_pairs(params: ModelParams, sol: EquilibriumSolution,
                       replicates: int, seed: int = 0,
                       event_budget: int = DEFAULT_EVENT_BUDGET,
                       chunk_size: int = CHUNK):
    """Raw draws from the limiting joint degree law.

    Returns (labels, n1, n2, failed) arrays of length ``replicates``. Each
    chunk's rows are the terminal records of ``estimate_pkl``'s flow at
    equal seeds, put in the order of one permutation drawn after the flow,
    so the rows are i.i.d. draws and ``estimate_pkl`` is their tally.
    """
    parts = list(map(_sample_chunk,
                     _chunk_jobs(params, sol, replicates, seed, event_budget, chunk_size)))
    return tuple(np.concatenate([p[i] for p in parts]) for i in range(4))


def estimate_pkl(params: ModelParams, sol: EquilibriumSolution, replicates: int,
                 kmax: int, lmax: int, seed: int = 0,
                 event_budget: int = DEFAULT_EVENT_BUDGET,
                 chunk_size: int = CHUNK) -> JointPmfEstimate:
    """Estimate the limiting joint degree pmf on {0..kmax} x {0..lmax}.

    Replicates are processed in chunks of ``chunk_size``; chunk j uses the
    generator seeded with SeedSequence([seed, j]). Within a chunk the group
    and initial-state counts are drawn first (two multinomials), then the
    killed jump chains of all groups move as one binomial flow over their
    states (``_flow``). Each chunk is tallied into K*(kmax+1)*(lmax+1) +
    K + 1 counts (grid cells, overflow per group, failed), and the chunks'
    vectors are summed in chunk order, in this process, so memory does
    not grow with ``replicates``.
    """
    check_count("kmax", kmax, 0)
    check_count("lmax", lmax, 0)
    if sol.regular is not None and not sol.regular.star:
        warnings.warn("regularity conditions fail; the sampled law is not "
                      "a certified degree-frequency limit", RuntimeWarning)
    counts = sum(_tally_chunk(job, kmax, lmax) for job in
                 _chunk_jobs(params, sol, replicates, seed, event_budget, chunk_size))
    K = params.K
    cells = K * (kmax + 1) * (lmax + 1)
    return JointPmfEstimate(
        group_counts=counts[:cells].reshape(K, kmax + 1, lmax + 1),
        group_overflow_counts=counts[cells:cells + K],
        replicates=replicates, failed=int(counts[cells + K]), kmax=kmax, lmax=lmax,
    )
