import dataclasses
import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from scipy.special import chdtrc
from scipy.stats import chi2

from recipnet import (
    EnumerationTooLarge,
    embedding_chains,
    enumerate_graph_law,
    group_rates,
    validate_params,
    verify_equivalence,
)
from recipnet.embedding import (CHUNK, EquivalenceReport, _chi2_sf, _chi_square_against,
                                _tally)
from conftest import random_params


def test_chain_before_any_jump(k2_ref):
    labels, n1, n2 = embedding_chains(k2_ref, 0, 5, np.random.default_rng(0))
    assert labels.shape == n1.shape == n2.shape == (5, 1)
    assert np.all((labels >= 0) & (labels < k2_ref.K))
    assert np.all(n1 == 1) and np.all(n2 == 1)


def test_chain_identity_after_every_jump():
    rng_master = np.random.default_rng(15)
    for _ in range(15):
        p = random_params(rng_master)
        rng = np.random.default_rng(int(rng_master.integers(0, 2**32)))
        for n in range(1, 25):
            labels, n1, n2 = embedding_chains(p, n, 8, rng)
            assert labels.shape == n1.shape == n2.shape == (8, n + 1)
            # both particle totals equal #processes + #reciprocations,
            # and each jump reciprocates at most once
            e = n1.sum(axis=1)
            assert np.array_equal(e, n2.sum(axis=1))
            assert np.all((e >= n + 1) & (e <= 2 * n + 1))
            assert np.all(n1 + n2 >= 1)
            if n > 3:
                continue
            # edge-count analogue: the tallied observable has n+1 cells and
            # matches the observable read row by row
            observed = _tally(labels, n1, n2, p.K)
            reference = Counter(
                (int(b.sum()), tuple(sorted(zip(a.tolist(), b.tolist(), c.tolist()))))
                for a, b, c in zip(labels, n1, n2))
            assert observed == reference
            assert all(len(cells) == n + 1 for _, cells in observed)


def test_tally_rejects_keys_beyond_int64(k2_ref):
    chains = embedding_chains(k2_ref, 12, 4, np.random.default_rng(0))
    with pytest.raises(ValueError, match="int64"):
        _tally(*chains, k2_ref.K)


def test_first_reciprocation_probability(k1_ref):
    # P(R_1 = 1) equals the mixture rate rho0
    rho0 = group_rates(k1_ref).rho0
    rng = np.random.default_rng(77)
    n_runs = 100_000
    _, n1, _ = embedding_chains(k1_ref, 1, n_runs, rng)
    hits = int((n1.sum(axis=1) - 2).sum())
    se = np.sqrt(rho0 * (1 - rho0) / n_runs)
    assert abs(hits / n_runs - rho0) <= 3.0 * se


def test_enumeration_total_probability():
    rng = np.random.default_rng(3)
    for _ in range(10):
        p = random_params(rng, k_max=2)
        for n in (1, 2):
            dist = enumerate_graph_law(p, n)
            assert abs(sum(dist.values()) - 1.0) <= 1e-12


def test_enumeration_one_step_edge_count(k1_ref):
    dist = enumerate_graph_law(k1_ref, 1)
    p_three = sum(p for (e, _), p in dist.items() if e == 3)
    assert abs(p_three - 0.5) <= 1e-12  # alpha*rho + gamma*rho = rho = 0.5


def test_enumeration_zero_reciprocity():
    p = validate_params(alpha=0.5, delta=1.0, pi=[1.0], rho=[[0.0]])
    dist = enumerate_graph_law(p, 1)
    assert all(e == 2 for (e, _) in dist)
    assert abs(sum(dist.values()) - 1.0) <= 1e-12


def test_enumeration_too_large(k1_ref):
    with pytest.raises(EnumerationTooLarge):
        enumerate_graph_law(k1_ref, 4)


@pytest.mark.parametrize("call", [
    lambda p: enumerate_graph_law(p, -1),
    lambda p: verify_equivalence(p, -1, 100),
    lambda p: embedding_chains(p, -1, 5, np.random.default_rng(0)),
], ids=["enumerate_graph_law", "verify_equivalence", "embedding_chains"])
def test_negative_n_is_a_named_error(k1_ref, call):
    # unchecked, n = -1 recurses without end in the enumeration and indexes
    # an empty axis of the chains
    with pytest.raises(ValueError, match="n must be >= 0") as err:
        call(k1_ref)
    assert not isinstance(err.value, EnumerationTooLarge)


def test_negative_replicates_is_a_named_error(k1_ref):
    # unchecked, numpy refuses the negative dimension without naming it
    with pytest.raises(ValueError, match="replicates must be an integer >= 0"):
        embedding_chains(k1_ref, 1, -5, np.random.default_rng(0))


@pytest.mark.parametrize("replicates", [2.5, True])
def test_replicates_that_is_no_integer_is_a_named_error(k1_ref, replicates):
    # unchecked, numpy raises a TypeError that names neither replicates nor
    # the value, and a bool is no count
    with pytest.raises(ValueError, match="replicates must be an integer >= 0"):
        embedding_chains(k1_ref, 1, replicates, np.random.default_rng(0))


def test_verify_equivalence_one_step_k1(k1_ref):
    report = verify_equivalence(k1_ref, n=1, replicates=20_000, seed=1)
    assert not report.impossible_support
    assert report.p_value > 1e-3
    assert report.max_abs_dev < 0.02


def test_verify_equivalence_two_step_k2(k2_ref):
    for seed in (1, 2):
        report = verify_equivalence(k2_ref, n=2, replicates=20_000, seed=seed)
        assert not report.impossible_support
        assert report.p_value > 1e-3


def test_verify_zero_reciprocity_degenerate_cells():
    p = validate_params(alpha=0.5, delta=1.0, pi=[1.0], rho=[[0.0]])
    report = verify_equivalence(p, n=1, replicates=2000, seed=0)
    assert not report.impossible_support
    assert report.p_value > 1e-3


def test_impossible_support_detection(k1_ref):
    # chain sampled under full reciprocity against the zero-reciprocity law
    p0 = validate_params(alpha=0.5, delta=1.0, pi=[1.0], rho=[[0.0]])
    exact = enumerate_graph_law(p0, 1)
    p1 = validate_params(alpha=0.5, delta=1.0, pi=[1.0], rho=[[1.0]])
    observed = _tally(*embedding_chains(p1, 1, 200, np.random.default_rng(0)), p1.K)
    stat, df, p_value, merged, impossible = _chi_square_against(exact, observed, 200)
    assert impossible
    assert p_value == 0.0


@pytest.mark.parametrize("perturb", [
    lambda p: validate_params(alpha=p.alpha, delta=2.0, pi=p.pi, rho=p.rho),
    lambda p: validate_params(alpha=p.alpha, delta=p.delta, pi=p.pi, rho=p.rho.T),
], ids=["delta-1-to-2", "rho-transposed"])
def test_checker_rejects_perturbed_law(k2_ref, perturb):
    # chains of the k2 model scored against the law of a different model
    replicates = 100_000
    observed = _tally(*embedding_chains(k2_ref, 2, replicates, np.random.default_rng(5)),
                      k2_ref.K)
    exact = enumerate_graph_law(perturb(k2_ref), 2)
    _, _, p_value, _, _ = _chi_square_against(exact, observed, replicates)
    assert p_value < 1e-3


def _per_chunk_report(params, n, replicates, seed):
    """verify_equivalence as it ran before the keys were pooled: each chunk's
    rows tallied and decoded on their own, the Counters summed."""
    exact = enumerate_graph_law(params, n)
    rng = np.random.default_rng(seed)
    observed = Counter()
    for start in range(0, replicates, CHUNK):
        size = min(CHUNK, replicates - start)
        observed.update(_tally(*embedding_chains(params, n, size, rng), params.K))
    stat, df, p_value, merged, impossible = _chi_square_against(exact, observed, replicates)
    max_dev = max(abs(observed.get(k, 0) / replicates - exact.get(k, 0.0))
                  for k in set(exact) | set(observed))
    return EquivalenceReport(
        n=n, replicates=replicates, statistic=stat, df=df, p_value=p_value,
        max_abs_dev=max_dev, n_cells=len(exact), n_merged=merged, impossible_support=impossible)


def test_verify_equivalence_matches_per_chunk_tally(k1_ref, k2_ref):
    rng = np.random.default_rng(1313)
    models = [k1_ref, k2_ref] + [random_params(rng, k_max=3) for _ in range(5)]
    for i, params in enumerate(models):
        for n in (1, 2, 3):
            for replicates in (1, CHUNK, CHUNK + 1, 3 * CHUNK + 5):
                seed = 100 * i + 10 * n + replicates % 7
                got = verify_equivalence(params, n=n, replicates=replicates, seed=seed)
                ref = _per_chunk_report(params, n, replicates, seed)
                assert dataclasses.replace(got, p_value=0.0) == dataclasses.replace(ref, p_value=0.0)
                if got.impossible_support:
                    assert got.p_value == 0.0
                elif got.df == 0:
                    assert got.p_value == 1.0
                else:
                    expected = float(chdtrc(got.df, got.statistic))
                    assert abs(got.p_value - expected) <= 1e-12 * expected


def test_verify_memory_does_not_grow_with_replicates(k2_ref):
    # each chunk's key counts join one tally as it is drawn, so a run holds
    # one chunk plus the distinct keys (806 for k2 at n = 3)
    verify_equivalence(k2_ref, n=3, replicates=CHUNK, seed=2)   # loads the kernel
    peaks = []
    for replicates in (10 * CHUNK, 100 * CHUNK):
        tracemalloc.start()
        try:
            verify_equivalence(k2_ref, n=3, replicates=replicates, seed=3)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= peaks[0] + 256 * 1024, peaks


CHI2_DFS = list(range(1, 61)) + sorted(
    set(np.round(np.geomspace(60, 4000, 200)).astype(int).tolist()) - {60})
CHI2_TAILS = (1e-12, 1e-6, 1e-3, 0.05, 0.5, 0.95, 0.999, 1 - 1e-7)


def test_chi2_sf_matches_scipy():
    assert len(CHI2_DFS) > 230
    for df in CHI2_DFS:
        for q in CHI2_TAILS:
            x = float(chi2.isf(q, df))
            expected = float(chdtrc(df, x))
            assert abs(_chi2_sf(df, x) - expected) <= 1e-12 * expected, (df, q)


def test_chi2_sf_hand_values():
    for x in (1e-9, 0.3, 1.0, 2.0, 7.5, 40.0, 300.0):
        h = x / 2
        assert _chi2_sf(2, x) == pytest.approx(math.exp(-h), rel=1e-15, abs=0)
        assert _chi2_sf(1, x) == pytest.approx(math.erfc(math.sqrt(h)), rel=1e-15, abs=0)
        # beyond one term, e^-h comes from the exp of a log term of size ~h,
        # which carries about h ulps
        rel = 4 * (1 + h) * 2.0**-52
        assert _chi2_sf(4, x) == pytest.approx(math.exp(-h) * (1 + h), rel=rel, abs=0)
        assert _chi2_sf(3, x) == pytest.approx(
            math.erfc(math.sqrt(h)) + 2 * math.sqrt(h / math.pi) * math.exp(-h), rel=rel, abs=0)


def test_chi2_sf_edges():
    for df in (1, 2, 3, 75, 4000):
        assert _chi2_sf(df, 0.0) == 1.0
        assert _chi2_sf(df, -3.0) == 1.0
        assert _chi2_sf(df, math.inf) == 0.0
    assert _chi2_sf(3, 1e5) == 0.0
    assert _chi2_sf(4000, 1e6) == 0.0
    # far below the mean the tail is 1, though the last terms underflow
    for df in (3999, 4000):
        for x in (1e-3, 10.0):
            assert _chi2_sf(df, x) == pytest.approx(1.0, rel=1e-14, abs=0)
    for df in (0, -1, 2.5):
        with pytest.raises(ValueError, match="df"):
            _chi2_sf(df, 1.0)
