import concurrent.futures
import math
import multiprocessing
import sys
from collections import Counter

import numpy as np
import pytest
from scipy.linalg import expm

from recipnet import (
    EventBudgetExceeded,
    JointPmfEstimate,
    estimate_pkl,
    group_rates,
    sample_limit_pairs,
    simulate_mbi_batch,
    solve_equilibrium,
    validate_params,
)
from recipnet import io as rio
from recipnet.branching import LimitPairSampler, _event, _tally_chunk
from recipnet.embedding import _chi_square_against
from recipnet.params import ModelParams, draw_groups
from conftest import run_k2


def _raw_params(alpha, delta, pi, rho):
    """Unvalidated params for out-of-domain probes (e.g. delta = 0)."""
    pi = np.asarray(pi, dtype=float)
    rho = np.asarray(rho, dtype=float)
    return ModelParams(alpha=alpha, gamma=1.0 - alpha, delta=delta,
                       K=len(pi), pi=pi, rho=rho)


def _run(params, m, inits, t_ends, seed, **kwargs):
    """simulate_mbi_batch with every row in group m."""
    inits = np.asarray(inits, dtype=np.int64).reshape(-1, 2)
    return simulate_mbi_batch(np.full(len(inits), m), inits,
                              np.broadcast_to(np.asarray(t_ends, dtype=float), len(inits)),
                              params, group_rates(params), np.random.default_rng(seed),
                              **kwargs)


def _generator(params, m, gmax):
    """Generator of the group-m process on {0..gmax}^2 plus one absorbing
    overflow state (the last index); state (i, j) has index i*(gmax+1) + j.

    Written in the immigration-split form, not as two clocks: particles fire
    at alpha*n1 (type I) and gamma*n2 (type II), and immigrants arrive at
    rate delta with increments (1,0), (0,1), (1,1) in proportions
    alpha*(1-rr), gamma*(1-rc), alpha*rr + gamma*rc.
    """
    rates = group_rates(params)
    a, g, d = params.alpha, params.gamma, params.delta
    rr, rc = float(rates.rho_row[m]), float(rates.rho_col[m])
    size = (gmax + 1) ** 2
    Q = np.zeros((size + 1, size + 1))
    for i in range(gmax + 1):
        for j in range(gmax + 1):
            s = i * (gmax + 1) + j
            for di, dj, rate in (
                (1, 0, a * i * (1 - rr) + d * a * (1 - rr)),
                (0, 1, g * j * (1 - rc) + d * g * (1 - rc)),
                (1, 1, a * i * rr + g * j * rc + d * (a * rr + g * rc)),
            ):
                inside = i + di <= gmax and j + dj <= gmax
                Q[s, (i + di) * (gmax + 1) + j + dj if inside else size] += rate
                Q[s, s] -= rate
    return Q


def _grid_counts(n1, n2, gmax):
    """Counts over the generator's states: the grid cells, then overflow."""
    inside = (n1 <= gmax) & (n2 <= gmax)
    codes = np.where(inside, n1 * (gmax + 1) + n2, (gmax + 1) ** 2)
    return np.bincount(codes, minlength=(gmax + 1) ** 2 + 1)


def _chi_square_p(counts, law):
    exact = {s: float(p) for s, p in enumerate(law) if p > 0.0}
    observed = Counter({s: int(c) for s, c in enumerate(counts) if c})
    return _chi_square_against(exact, observed, int(counts.sum()))[2]


@pytest.mark.parametrize("c", [0.0, 2.5], ids=["engine-c-0", "killed-chain-c-2.5"])
def test_event_step_at_each_threshold(c):
    w1, w2, rr, rc = 1.5, 3.0, 0.25, 0.5     # every threshold below is exact in binary
    # x in [c, c + w1 + w2) falls in four regions, each from its threshold up
    regions = [(c, (1, 1)),                   # type I, reciprocated
               (c + w1 * rr, (1, 0)),         # type I
               (c + w1, (1, 1)),              # type II, reciprocated
               (c + w1 + w2 * rc, (0, 1))]    # type II
    table = [(c, (1, 1)), (np.nextafter(c + w1 + w2, 0.0), (0, 1))]
    for (below, before), (t, after) in zip(regions, regions[1:]):
        table += [(np.nextafter(t, below), before), (t, after), (np.nextafter(t, np.inf), after)]
    x = np.array([row[0] for row in table])
    a1, a2 = np.full(len(x), 3.0), np.full(len(x), 7.0)
    _event(a1, a2, x, c, *(np.full(len(x), v) for v in (w1, w2, rr, rc)))
    assert [(d1, d2) for d1, d2 in zip(a1 - 3.0, a2 - 7.0)] == [row[1] for row in table]


def test_t_end_zero_returns_init(k1_ref):
    n1, n2, events, failed = _run(k1_ref, 0, [(2, 3), (0, 1)], 0.0, seed=0)
    assert n1.tolist() == [2, 0] and n2.tolist() == [3, 1]
    assert not events.any() and not failed.any()


def test_yule_mean_growth():
    # delta=0, rho=0, init (1,0): n1 is a pure birth process with rate
    # alpha, so E[n1(t)] = exp(alpha t)
    alpha, t = 0.5, 3.0
    p = _raw_params(alpha, 0.0, [1.0], [[0.0]])
    n_runs = 100_000
    n1, n2, _, failed = _run(p, 0, np.tile((1, 0), (n_runs, 1)), t, seed=2024)
    assert not failed.any() and not n2.any()
    expect = math.exp(alpha * t)
    # geometric law: var = (1-p)/p^2 with p = exp(-alpha t)
    pgeo = math.exp(-alpha * t)
    se = math.sqrt((1.0 - pgeo) / pgeo**2 / n_runs)
    assert abs(n1.mean() - expect) <= 3.0 * se


def test_full_reciprocity_preserves_difference():
    p = _raw_params(0.5, 0.0, [1.0], [[1.0]])
    inits = np.array([(1, 0), (3, 1), (2, 2)])
    n1, n2, events, _ = _run(p, 0, inits, 4.0, seed=5)
    assert np.array_equal(n1 - n2, inits[:, 0] - inits[:, 1])
    assert np.array_equal(n1 - inits[:, 0], events)


def test_n1_is_negative_binomial_at_zero_reciprocity():
    # at rho = 0 only the type-I clock moves n1, at rate alpha*(n1 + delta):
    # from 0 that is a linear birth process with immigration, so
    # n1(t) ~ NegBin(delta, exp(-alpha t)), mean delta*(e^{at}-1) and
    # variance delta*e^{at}*(e^{at}-1)
    alpha, delta, t = 0.5, 1.5, 2.0
    p = validate_params(alpha=alpha, delta=delta, pi=[1.0], rho=[[0.0]])
    n_runs = 20_000
    n1, _, _, failed = _run(p, 0, np.zeros((n_runs, 2)), t, seed=31)
    assert not failed.any()
    growth = math.exp(alpha * t)
    mean = delta * (growth - 1.0)
    var = delta * growth * (growth - 1.0)
    assert abs(n1.mean() - mean) <= 3.0 * math.sqrt(var / n_runs)
    se_var = ((n1 - n1.mean()) ** 2).std(ddof=1) / math.sqrt(n_runs)
    assert abs(n1.var(ddof=1) - var) <= 3.0 * se_var


def test_batch_budget_marks_failed(k1_ref):
    n1, n2, events, failed = _run(k1_ref, 0, np.ones((50, 2)), 50.0, seed=0,
                                  event_budget=5)
    assert failed.all()
    assert np.all(events == 5)
    assert np.all(n1 + n2 >= 2 + 5)


def test_event_budget_exceeded_carries_state():
    est = JointPmfEstimate(group_counts=np.zeros((2, 3, 3), dtype=np.int64),
                           group_overflow_counts=np.zeros(2, dtype=np.int64),
                           replicates=40, failed=40, kmax=2, lmax=2)
    assert est.failed_fraction == 1.0
    for read in (lambda: est.grid, lambda: est.overflow_mass,
                 lambda: est.group_grid(1)):
        with pytest.raises(EventBudgetExceeded) as err:
            read()
        assert (err.value.failed, err.value.replicates) == (40, 40)
        assert "40 failed of 40" in str(err.value)


def test_all_failed_estimate_raises_named_error(tmp_path):
    est = JointPmfEstimate(group_counts=np.zeros((1, 3, 3), dtype=np.int64),
                           group_overflow_counts=np.zeros(1, dtype=np.int64),
                           replicates=40, failed=40, kmax=2, lmax=2)
    for formats in (["csv"], ["json"]):
        with pytest.raises(EventBudgetExceeded, match="40 failed of 40"):
            rio.write_pmf(tmp_path, est, formats=formats)
    assert not list(tmp_path.iterdir())


def _exact_mbi_mean(params, rates, m, init, t_end):
    """Mean of (n1, n2) from the linear mean ODE, solved independently."""
    from scipy.integrate import solve_ivp

    a, g, d = params.alpha, params.gamma, params.delta
    rr, rc = float(rates.rho_row[m]), float(rates.rho_col[m])
    p11 = a * rr + g * rc
    imm = np.array([a * (1 - rr) + p11, g * (1 - rc) + p11])

    def f(_, mvec):
        n1, n2 = mvec
        return [a * n1 + g * n2 * rc + d * imm[0],
                a * n1 * rr + g * n2 + d * imm[1]]

    sol = solve_ivp(f, (0.0, t_end), list(map(float, init)),
                    rtol=1e-10, atol=1e-12)
    return sol.y[:, -1]


def test_engine_matches_exact_mean_and_transition_law(k2_ref):
    # the engine against the exact mean ODE and, on the joint pmf, against
    # expm(Q t) of the truncated generator
    rates = group_rates(k2_ref)
    t_end, reps, grid_max = 0.8, 50_000, 14
    exact = _exact_mbi_mean(k2_ref, rates, 0, (1, 1), t_end)

    n1, n2, _, failed = _run(k2_ref, 0, np.ones((reps, 2)), t_end, seed=200)
    assert not failed.any()
    for sample, target in ((n1, exact[0]), (n2, exact[1])):
        se = sample.std(ddof=1) / np.sqrt(reps)
        assert abs(sample.mean() - target) <= 4.0 * se

    law = expm(_generator(k2_ref, 0, grid_max) * t_end)[grid_max + 2]   # from (1, 1)
    assert law.sum() == pytest.approx(1.0, abs=1e-9)
    assert _chi_square_p(_grid_counts(n1, n2, grid_max), law) > 1e-3


def test_estimate_pkl_matches_exact_resolvent(k2_ref):
    # at T* ~ Exp(c*) the group-m law is c* p0 (c* I - Q)^{-1}, with p0 the
    # initialization law; truncating Q at gmax is exact on the grid because
    # counts never decrease
    gmax = 20
    sol = solve_equilibrium(k2_ref)
    est = estimate_pkl(k2_ref, sol, replicates=400_000, kmax=gmax, lmax=gmax, seed=21)
    assert est.failed == 0
    init = LimitPairSampler.from_solution(k2_ref, sol).init_probs
    c = sol.c_star
    for m in range(k2_ref.K):
        Q = _generator(k2_ref, m, gmax)
        p0 = np.zeros(len(Q))
        p0[[1, gmax + 1, gmax + 2]] = init[m]            # (0,1), (1,0), (1,1)
        law = c * np.linalg.solve((c * np.eye(len(Q)) - Q).T, p0)
        assert law.sum() == pytest.approx(1.0, abs=1e-9)
        counts = np.append(est.group_counts[m].ravel(), est.group_overflow_counts[m])
        assert _chi_square_p(counts, law) > 1e-3


def _two_sample_p(a, b):
    """Chi-square p-value that two equal-size samples of keys share one law;
    keys seen fewer than 10 times in both samples together share one bin."""
    from scipy.stats import chi2

    keys = sorted(set(a) | set(b))
    pair = np.array([(a[k], b[k]) for k in keys], dtype=float)
    rare = pair.sum(axis=1) < 10
    pair = np.vstack([pair[~rare], pair[rare].sum(axis=0)])
    pair = pair[pair.sum(axis=1) > 0]
    stat = float((((pair[:, 0] - pair[:, 1]) ** 2) / pair.sum(axis=1)).sum())
    return float(chi2.sf(stat, len(pair) - 1))


def _draw_inits(init_probs, labels, u):
    """(R, 2) initial states for the given labels, one uniform each, by the
    columns of ``LimitPairSampler.init_probs``: (0,1), (1,0), (1,1)."""
    p01, p10 = init_probs[labels, 0], init_probs[labels, 1]
    return np.stack([u >= p01, (u < p01) | (u >= p01 + p10)], axis=1).astype(np.int64)


def _k3_zero_pi_binary_coins():
    # group 1 is never drawn, and every coin but one is certain
    return validate_params(alpha=0.35, delta=0.7, pi=[0.6, 0.0, 0.4],
                           rho=[[1.0, 0.0, 0.5], [0.0, 1.0, 1.0], [1.0, 0.0, 0.0]])


@pytest.mark.filterwarnings("ignore:.*contraction:RuntimeWarning")   # k3
@pytest.mark.parametrize("model", ["k1", "k2", "k3"])
def test_killed_chain_matches_engine_at_exponential_times(request, model):
    # the limit law two ways: the binomial flow of sample_limit_pairs' killed
    # chains, and the fixed-horizon engine run to an explicit T* ~ Exp(c*) per row
    # from the same initialization law; their (group, n1, n2) tallies must
    # pass a two-sample chi-square at p > 1e-3
    params = (_k3_zero_pi_binary_coins() if model == "k3"
              else request.getfixturevalue(f"{model}_ref"))
    sol = solve_equilibrium(params)
    sampler = LimitPairSampler.from_solution(params, sol)
    reps = 200_000
    labels, n1, n2, failed = sample_limit_pairs(params, sol, replicates=reps, seed=41)
    rng = np.random.default_rng(43)
    t_labels = draw_groups(np.cumsum(params.pi), rng.random(reps))
    inits = _draw_inits(sampler.init_probs, t_labels, rng.random(reps))
    t_star = rng.standard_exponential(reps) / sol.c_star
    t1, t2, _, t_failed = simulate_mbi_batch(t_labels, inits, t_star, params,
                                             group_rates(params), rng)
    assert not failed.any() and not t_failed.any()
    chain = Counter(zip(labels.tolist(), n1.tolist(), n2.tolist()))
    engine = Counter(zip(t_labels.tolist(), t1.tolist(), t2.tolist()))
    assert _two_sample_p(chain, engine) > 1e-3


def test_growth_ratio_concentrates_on_slope():
    # group 0: rho_row=0.30, rho_col=0.55 gives lambda ~ 0.703 > log 2 and
    # slope a = sqrt(0.165)/0.55
    p = validate_params(alpha=0.5, delta=1.0, pi=[0.5, 0.5],
                        rho=[[0.6, 0.0], [0.5, 0.5]])
    lam = 0.5 * (1.0 + math.sqrt(4 * 0.25 * 0.30 * 0.55))
    assert lam > math.log(2.0)
    a = (math.sqrt(4 * 0.25 * 0.30 * 0.55)) / (2 * 0.5 * 0.55)

    n_runs = 1000
    n1, n2, _, failed = _run(p, 0, np.ones((n_runs, 2)), 15.0, seed=999,
                             event_budget=10_000_000)
    assert not failed.any()
    ratio = n2 / n1
    assert np.median(np.abs(ratio - a)) <= 0.05


def test_event_increment_bounds(k2_ref):
    # every event adds 1 or 2 to the total count, so the growth is
    # bracketed by the event counter: events <= added <= 2 * events
    rng = np.random.default_rng(17)
    reps = 200
    inits = np.stack([rng.integers(0, 3, reps), rng.integers(1, 3, reps)], axis=1)
    n1, n2, events, failed = simulate_mbi_batch(
        rng.integers(0, 2, reps), inits, rng.uniform(0, 2, reps), k2_ref,
        group_rates(k2_ref), rng)
    assert not failed.any()
    assert np.all(n1 >= inits[:, 0]) and np.all(n2 >= inits[:, 1])
    added = n1 + n2 - inits.sum(axis=1)
    assert np.all((events <= added) & (added <= 2 * events))


def test_limit_sampler_init_distribution_k1(k1_ref):
    sol = solve_equilibrium(k1_ref)
    sampler = LimitPairSampler.from_solution(k1_ref, sol)
    assert sampler.c_star == pytest.approx(2.5, abs=1e-12)
    # q_in = q_out = 0.5 at x = y = 1.5, so (0,1) w.p. 0.25, (1,0) w.p.
    # 0.25, (1,1) w.p. 0.5
    assert np.allclose(sampler.init_probs[0], [0.25, 0.25, 0.5], atol=1e-12)
    inits = _draw_inits(sampler.init_probs, np.zeros(3, dtype=np.int64),
                        np.array([0.10, 0.30, 0.90]))
    assert inits.tolist() == [[0, 1], [1, 0], [1, 1]]


def test_limit_pair_never_zero_zero(k1_ref):
    sol = solve_equilibrium(k1_ref)
    _, n1, n2, failed = sample_limit_pairs(k1_ref, sol, replicates=20_000, seed=8)
    assert not failed.any()
    assert np.all(n1 + n2 >= 1)


def test_estimate_pkl_mass_accounting(k1_ref):
    sol = solve_equilibrium(k1_ref)
    est = estimate_pkl(k1_ref, sol, replicates=20_000, kmax=10, lmax=10, seed=5)
    assert est.failed == 0
    assert est.grid.sum() + est.overflow_mass == pytest.approx(1.0, abs=1e-12)
    assert est.grid[0, 0] == 0.0
    # group grids mix to the overall grid exactly in counts
    assert np.array_equal(est.group_counts.sum(axis=0),
                          (est.grid * est.successes).round().astype(np.int64))


def test_estimate_pkl_deterministic_and_worker_invariant(k2_ref):
    sol = solve_equilibrium(k2_ref)
    a = estimate_pkl(k2_ref, sol, replicates=30_000, kmax=8, lmax=8, seed=9,
                     chunk_size=8192, workers=1)
    b = estimate_pkl(k2_ref, sol, replicates=30_000, kmax=8, lmax=8, seed=9,
                     chunk_size=8192, workers=2)
    assert np.array_equal(a.group_counts, b.group_counts)
    assert np.array_equal(a.group_overflow_counts, b.group_overflow_counts)
    c = estimate_pkl(k2_ref, sol, replicates=30_000, kmax=8, lmax=8, seed=9,
                     chunk_size=8192)
    assert np.array_equal(a.group_counts, c.group_counts)


@pytest.mark.parametrize("workers", [1, 2])
def test_estimate_pkl_is_a_tally_of_sample_limit_pairs(k2_ref, workers):
    # kmax != lmax catches a swapped axis; the small budget makes some
    # replicates fail and others overflow on each axis
    sol = solve_equilibrium(k2_ref)
    kmax, lmax = 6, 9
    draw = dict(replicates=5000, seed=13, event_budget=12, chunk_size=2048)
    labels, n1, n2, failed = sample_limit_pairs(k2_ref, sol, **draw)
    counts = np.zeros((k2_ref.K, kmax + 1, lmax + 1), dtype=np.int64)
    over = np.zeros(k2_ref.K, dtype=np.int64)
    for m, k, l, f in zip(labels.tolist(), n1.tolist(), n2.tolist(), failed.tolist()):
        if f:
            continue
        if k <= kmax and l <= lmax:
            counts[m, k, l] += 1
        else:
            over[m] += 1
    assert failed.any() and (n1[~failed] > kmax).any() and (n2[~failed] > lmax).any()

    est = estimate_pkl(k2_ref, sol, kmax=kmax, lmax=lmax, workers=workers, **draw)
    assert np.array_equal(est.group_counts, counts)
    assert np.array_equal(est.group_overflow_counts, over)
    assert est.failed == int(failed.sum())


def _check_against_per_chunk_tally(params, replicates, chunk_size, workers):
    # the oracle: every chunk tallied on its own from SeedSequence([seed, j]),
    # summed in chunk order. On k2 about 12% of the replicates make more than
    # 2 events, so at budget 2 some fail in any stream (80 replicates all
    # succeed with probability 5e-5), and the small grid makes others overflow
    sol = solve_equilibrium(params)
    kmax, lmax, seed, budget = 1, 2, 21, 2
    rates, sampler = group_rates(params), LimitPairSampler.from_solution(params, sol)
    oracle = sum(_tally_chunk(((params, rates, sampler, j,
                                min(chunk_size, replicates - j * chunk_size), seed, budget),
                               kmax, lmax))
                 for j in range(-(-replicates // chunk_size)))
    cells = params.K * (kmax + 1) * (lmax + 1)
    assert oracle[-1] > 0 and oracle[cells:-1].any()
    for w in workers:
        est = estimate_pkl(params, sol, replicates=replicates, kmax=kmax, lmax=lmax,
                           seed=seed, event_budget=budget, chunk_size=chunk_size,
                           workers=w)
        assert np.array_equal(est.group_counts.ravel(), oracle[:cells]), w
        assert np.array_equal(est.group_overflow_counts, oracle[cells:-1]), w
        assert est.failed == oracle[-1], w


@pytest.mark.parametrize("replicates, chunk_size", [
    (2050, 100),   # 21 chunks, the last one short: slices of several chunks
    (150, 100),    # 2 chunks: more workers than chunks at 3 workers
    (80, 100),     # a single chunk
], ids=["21-chunks", "2-chunks", "1-chunk"])
def test_sliced_fan_out_matches_per_chunk_tally(k2_ref, replicates, chunk_size):
    _check_against_per_chunk_tally(k2_ref, replicates, chunk_size, workers=(1, 2, 3))


def test_embed_pool_forks_on_linux(k2_ref, monkeypatch):
    # the pool forks on Linux whatever the platform default, so the workers
    # inherit the loaded kernel; elsewhere it keeps the default context
    methods = []

    class Recording(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, *args, mp_context=None, **kwargs):
            methods.append(mp_context and mp_context.get_start_method())
            super().__init__(*args, mp_context=mp_context, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recording)
    _check_against_per_chunk_tally(k2_ref, 2050, 100, workers=(2,))
    assert methods == ["fork" if sys.platform == "linux" else None]


def test_pools_leave_no_process(k2_ref, tmp_path):
    # a pool that is never shut down leaves its workers running;
    # active_children() reaps the ones that have exited
    sol = solve_equilibrium(k2_ref)
    estimate_pkl(k2_ref, sol, replicates=300, kmax=4, lmax=4, seed=1, chunk_size=100,
                 workers=2)
    assert multiprocessing.active_children() == []
    # three chunks of the CLI's size, in-process
    run_k2(tmp_path, "embed", {"embed": {"replicates": 140_000, "kmax": 4, "lmax": 4}},
           "--threads", "2")
    assert multiprocessing.active_children() == []


def test_estimate_pkl_failed_accounting(k1_ref):
    sol = solve_equilibrium(k1_ref)
    est = estimate_pkl(k1_ref, sol, replicates=5000, kmax=6, lmax=6, seed=3,
                       event_budget=1)
    assert est.failed > 0
    assert est.successes + est.failed == 5000
    assert est.grid.sum() + est.overflow_mass == pytest.approx(1.0, abs=1e-12)


def test_estimate_pkl_rejects_bad_replicates(k1_ref):
    sol = solve_equilibrium(k1_ref)
    with pytest.raises(ValueError):
        estimate_pkl(k1_ref, sol, replicates=0, kmax=5, lmax=5)


def test_estimate_pkl_warns_without_regularity():
    # zero reciprocity breaks the positivity flags; the estimate still
    # runs but is not a certified limit
    p = validate_params(alpha=0.5, delta=1.0, pi=[1.0], rho=[[0.0]])
    sol = solve_equilibrium(p)
    assert not sol.regular.star
    with pytest.warns(RuntimeWarning):
        est = estimate_pkl(p, sol, replicates=500, kmax=5, lmax=5, seed=1)
    assert est.grid.sum() + est.overflow_mass == pytest.approx(1.0, abs=1e-12)
