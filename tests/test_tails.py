import math
from collections import Counter

import numpy as np
import pytest

from recipnet import (
    ConditionsUnmet,
    DegenerateTail,
    DegreeDataset,
    EmptySelection,
    GridMismatch,
    GroupSpectral,
    InsufficientData,
    NonPositiveValues,
    PeelOptions,
    SimConfig,
    all_spectra,
    angular_transform,
    compare_pmf,
    degree_histogram,
    hill_estimator,
    hrv_peel,
    ray_distance,
    run,
    solve_equilibrium,
    tail_report,
    validate_params,
)
from recipnet.spectral import order_groups
from recipnet import tails
from recipnet.tails import (HILL_SWEEP_POINTS, HillReport, hill_sweep_ks, pair_table,
                            weighted_median, weighted_quantile)


def expanded_hill_estimator(values, k, sweep=False):
    """The per-node rule that ``hill_estimator`` reads from weighted rows:
    sort every positive value, then average the top k log ratios."""
    values = np.asarray(values, dtype=float)
    if k < 1 or k + 1 > values.size:
        raise InsufficientData(f"need k >= 1 and k+1 <= n, got k={k}, n={values.size}")
    pos = values[values > 0.0]
    if pos.size < k + 1:
        raise NonPositiveValues(
            f"need at least k+1={k + 1} positive values, have {pos.size}")
    top = np.sort(pos, kind="stable")[::-1]
    inv = float(np.mean(np.log(top[:k] / top[k])))
    if inv == 0.0:
        raise DegenerateTail("top order statistics are identical")
    est = 1.0 / inv

    k_sweep = None
    if sweep:
        logs = np.log(top)
        ks = hill_sweep_ks(pos.size - 1, k)
        inv_ks = np.cumsum(logs[:-1])[ks - 1] / ks - logs[ks]
        with np.errstate(divide="ignore"):
            est_ks = np.where(inv_ks > 0.0, 1.0 / inv_ks, np.inf)
        k_sweep = np.stack([ks, est_ks], axis=1)
    return HillReport(k=k, index_estimate=est, se=est / math.sqrt(k), k_sweep=k_sweep)


def test_hill_hand_arithmetic():
    rep = hill_estimator([100.0, 10.0, 1.0], k=2)
    inv = (math.log(100.0) + math.log(10.0)) / 2.0
    assert inv == pytest.approx(3.45388, abs=1e-5)
    assert rep.index_estimate == pytest.approx(1.0 / inv, abs=1e-12)
    assert rep.index_estimate == pytest.approx(0.28953, abs=1e-5)
    assert rep.se == pytest.approx(rep.index_estimate / math.sqrt(2), abs=1e-12)


def test_hill_recovers_pareto_index():
    # deterministic inverse-cdf probe: X_i = u_i^{-1/a} with a = 2
    n = 100_000
    u = (np.arange(1, n + 1)) / (n + 1.0)
    x = u ** (-1.0 / 2.0)
    rep = hill_estimator(x, k=int(math.isqrt(n)))
    assert abs(rep.index_estimate - 2.0) / 2.0 <= 0.05


def test_hill_degenerate():
    with pytest.raises(DegenerateTail):
        hill_estimator([3.0, 3.0, 3.0, 3.0], k=2)


def test_hill_insufficient_and_nonpositive():
    with pytest.raises(InsufficientData):
        hill_estimator([1.0, 2.0], k=2)
    with pytest.raises(InsufficientData):
        hill_estimator([1.0, 2.0, 3.0], k=0)
    with pytest.raises(NonPositiveValues):
        hill_estimator([5.0, 4.0, 0.0, 0.0], k=2)


def test_hill_scale_invariance():
    rng = np.random.default_rng(0)
    x = rng.pareto(2.5, size=500) + 1.0
    base = hill_estimator(x, k=40).index_estimate
    # powers of two rescale mantissas exactly
    assert hill_estimator(4.0 * x, k=40).index_estimate == base
    assert hill_estimator(x / 8.0, k=40).index_estimate == base
    assert hill_estimator(3.7 * x, k=40).index_estimate == pytest.approx(base, abs=1e-12)


def test_hill_sweep_shape():
    x = np.arange(1.0, 101.0)
    rep = hill_estimator(x, k=10, sweep=True)
    assert rep.k_sweep.shape == (99, 2)
    assert rep.k_sweep[9, 0] == 10
    assert rep.k_sweep[9, 1] == pytest.approx(rep.index_estimate, abs=1e-12)


def test_hill_sweep_grid_matches_direct_estimates():
    # zeros are dropped before ranking, so the grid runs to the positive count - 1
    rng = np.random.default_rng(5)
    x = rng.pareto(2.0, size=3000) + 1.0
    x[:200] = 0.0
    k = 1000
    rep = hill_estimator(x, k=k, sweep=True)
    ks = rep.k_sweep[:, 0].astype(np.int64)
    n_pos = int((x > 0).sum())
    assert np.all(np.diff(ks) > 0)
    assert set(range(1, min(HILL_SWEEP_POINTS, n_pos - 1) + 1)) <= set(ks.tolist())
    assert ks[-1] == n_pos - 1
    assert k in ks and k not in hill_sweep_ks(n_pos - 1, 1)   # k is added, not a grid point
    assert len(ks) <= 2 * HILL_SWEEP_POINTS + 1
    # the direct mean-of-log-ratios estimate at each k, not the sweep's cumsum
    for kk, est in rep.k_sweep:
        direct = hill_estimator(x, k=int(kk)).index_estimate
        assert est == pytest.approx(direct, rel=1e-12, abs=0.0), kk


def test_angular_hand_values():
    ds = DegreeDataset(x=np.array([3.0, 0.0]), y=np.array([1.0, 5.0]))
    theta = angular_transform(ds, 2.0)
    assert theta.tolist() == [0.25, 1.0]


def test_angular_on_ray_collapses():
    a = 0.7
    x = np.linspace(1, 50, 25)
    ds = DegreeDataset(x=x, y=a * x)
    theta = angular_transform(ds, 1.5)
    assert np.allclose(theta, a / (1 + a), atol=1e-12)


def test_angular_scale_invariance_and_range():
    rng = np.random.default_rng(1)
    x = rng.uniform(0, 10, 200)
    y = rng.uniform(0, 10, 200)
    ds = DegreeDataset(x=x, y=y)
    t1 = angular_transform(ds, 3.0)
    t2 = angular_transform(DegreeDataset(x=5 * x, y=5 * y), 15.0)
    assert np.allclose(t1, t2, atol=1e-12)
    assert np.all((t1 >= 0) & (t1 <= 1))


def test_angular_empty_selection():
    ds = DegreeDataset(x=np.array([1.0]), y=np.array([1.0]))
    with pytest.raises(EmptySelection):
        angular_transform(ds, 10.0)
    with pytest.raises(ValueError, match="radius threshold must be nonnegative"):
        angular_transform(ds, -1.0)


def test_ray_distance_values():
    assert ray_distance((3.0, 5.0), 1.0) == 2.0
    assert ray_distance((4.0, 2.0), 0.5) == 0.0
    assert ray_distance((100.0, 115.0), 1.15470) == pytest.approx(0.470, abs=1e-9)
    for a in (0.0, -1.0):
        with pytest.raises(ValueError, match="ray slope must be positive"):
            ray_distance((3.0, 5.0), a)


def test_ray_distance_homogeneous():
    pair = np.array([3.0, 7.0])
    for c in (0.5, 2.0, 16.0):
        assert ray_distance(c * pair, 1.3) == pytest.approx(
            c * ray_distance(pair, 1.3), rel=1e-12)


def _fake_spectrum(group, lam, a):
    u = np.array([0.5, 0.5])
    v = np.array([1.0, a]) / (0.5 * (1 + a))
    return GroupSpectral(group=group, A=np.eye(2), lam=lam, lam_prime=1 - lam,
                         D0=0.0, u=u, v=v, a=a, degenerate=False)


class _FakeSolution:
    def __init__(self, c_star):
        self.c_star = c_star


def synthetic_two_ray(n=200_000, seed=0, c1=1.5, c2=3.0, a1=2.0, a2=0.5,
                      mix=0.9, jitter=0.02):
    """Ground-truth mixture: Pareto(c1) radii on ray a1, Pareto(c2) near a2."""
    rng = np.random.default_rng(seed)
    n1 = int(mix * n)
    r1 = rng.pareto(c1, size=n1) + 1.0
    th1 = np.full(n1, a1 / (1.0 + a1))
    r2 = rng.pareto(c2, size=n - n1) + 1.0
    th2 = a2 / (1.0 + a2) + rng.uniform(-jitter, jitter, size=n - n1)
    r = np.concatenate([r1, r2])
    th = np.concatenate([th1, th2])
    return DegreeDataset(x=r * (1.0 - th), y=r * th)


def test_hrv_peel_synthetic_oracle():
    c1, c2, a1, a2 = 1.5, 3.0, 2.0, 0.5
    ds = synthetic_two_ray(c1=c1, c2=c2, a1=a1, a2=a2)
    spectra = [_fake_spectrum(0, 0.8, a1), _fake_spectrum(1, 0.4, a2)]
    sol = _FakeSolution(c_star=1.2)  # predictions 1.2/0.8=1.5, 1.2/0.4=3.0
    rep = hrv_peel(ds, spectra, sol, PeelOptions())
    assert abs(rep.first_index - c1) / c1 <= 0.15
    assert abs(rep.second_index - c2) / c2 <= 0.15
    assert abs(rep.first_ray_estimate - a1 / (1 + a1)) <= 0.05
    assert abs(rep.second_ray_estimate - a2 / (1 + a2)) <= 0.05
    assert rep.n_removed + rep.n_peeled == ds.n
    # degraded flags present: lam2 = 0.4 < log 2 and <= lam1/2
    assert len(rep.degraded) == 2


def synthetic_three_ray(indices, slopes, n=200_000, seed=0, weights=(0.85, 0.10, 0.05),
                        jitter=0.005):
    """Pareto(indices[j]) radii near ray slopes[j]; ray 1 exact, the rest jittered."""
    rng = np.random.default_rng(seed)
    r, th = [], []
    for j, (c, a, w) in enumerate(zip(indices, slopes, weights)):
        m = int(w * n)
        r.append(rng.pareto(c, size=m) + 1.0)
        th.append(np.full(m, a / (1.0 + a)) + (rng.uniform(-jitter, jitter, size=m) if j else 0.0))
    r, th = np.concatenate(r), np.concatenate(th)
    return DegreeDataset(x=r * (1.0 - th), y=r * th)


DATA_LAMS = (1.6, 1.0, 0.7)    # with c* = 2.4, the data's indices are (1.5, 2.4, 3.43)


@pytest.mark.parametrize("lams, n_rays", [
    (DATA_LAMS, 3),            # both conditions hold at ranks 2 and 3
    ((1.6, 1.0, 0.65), 2),     # rank 3 fails the moment condition: 0.65 < log 2
    ((2.0, 0.9, 0.8), 2),      # rank 2 fails the gap condition; rank 3 is not reached
], ids=["three-rays", "moment-fails-at-3", "gap-fails-at-2"])
def test_hrv_peel_iterates_while_conditions_hold(lams, n_rays):
    c_star, slopes = 2.4, (2.0, 0.5, 1.0)
    ds = synthetic_three_ray([c_star / lam for lam in DATA_LAMS], slopes)
    spectra = [_fake_spectrum(m, lam, a) for m, (lam, a) in enumerate(zip(lams, slopes))]
    # 1% exceedances (k = 2000 per stage): over seeds 0-29 the three Hill
    # estimates have a spread of 2-3%; at the default 0.1% it is 6-7%
    rep = hrv_peel(ds, spectra, _FakeSolution(c_star), PeelOptions(0.99, 0.99))
    assert [(r.rank, r.group) for r in rep.rays] == [(j + 1, j) for j in range(n_rays)]
    assert len(rep.degraded) == (lams[1] <= lams[0] / 2)
    for j, ray in enumerate(rep.rays):
        truth = c_star / DATA_LAMS[j]
        assert ray.index_predicted == pytest.approx(c_star / lams[j], rel=1e-12)
        assert abs(ray.index_estimate - truth) / truth <= 0.15
        assert abs(ray.theta_median - slopes[j] / (1 + slopes[j])) <= 0.05


def test_hrv_peel_single_ray_degenerate_distance(k2_ref):
    x = np.linspace(1, 100, 1000)
    ds = DegreeDataset(x=x, y=2.0 * x)
    spectra = [_fake_spectrum(0, 0.8, 2.0), _fake_spectrum(1, 0.7, 0.5)]
    with pytest.raises(DegenerateTail):
        hrv_peel(ds, spectra, _FakeSolution(1.2), PeelOptions())
    # off the first ray, but 985 of 1000 nodes share the largest distance, so
    # its median leaves no exceedances; tail_report then skips the peel
    ds = DegreeDataset(x=np.array([1, 30, 10]), y=np.array([1, 35, 1]),
                       weight=np.array([10, 5, 985]))
    sol, spectra = solve_equilibrium(k2_ref), all_spectra(k2_ref)
    reason = "distance quantile leaves no exceedances"
    with pytest.raises(EmptySelection, match=f"^{reason}$"):
        hrv_peel(ds, spectra, sol, PeelOptions(0.99, 0.5))
    rep = tail_report(ds, sol, spectra, options=PeelOptions(0.99, 0.5))
    assert rep.hrv is None and rep.hrv_skip_reason == reason


def test_hrv_peel_single_group_unmet(k1_ref):
    sol = solve_equilibrium(k1_ref)
    spectra = all_spectra(k1_ref)
    ds = DegreeDataset(x=np.arange(1.0, 100.0), y=np.arange(1.0, 100.0))
    with pytest.raises(ConditionsUnmet):
        hrv_peel(ds, spectra, sol, PeelOptions())


def test_hrv_peel_tied_eigenvalues_unmet():
    spectra = [_fake_spectrum(0, 0.8, 2.0), _fake_spectrum(1, 0.8, 0.5)]
    ds = synthetic_two_ray(n=10_000)
    with pytest.raises(ConditionsUnmet):
        hrv_peel(ds, spectra, _FakeSolution(1.2), PeelOptions())


def test_tail_report_k1_reference(k1_ref):
    sol = solve_equilibrium(k1_ref)
    spectra = all_spectra(k1_ref)
    result = run(k1_ref, SimConfig(n_steps=30_000, seed=4))
    ds = degree_histogram(result.state)
    rep = tail_report(ds, sol, spectra)
    assert rep.predicted_first_index == pytest.approx(2.5 / 0.75, abs=1e-12)
    assert rep.hill_in is not None and rep.hill_in.index_estimate > 0
    assert rep.hrv is None and "non-degenerate" in rep.hrv_skip_reason
    # symmetric single group: angular mass concentrates near theta = 1/2
    peak = rep.angular_counts.argmax()
    assert abs((rep.angular_bins[peak] + rep.angular_bins[peak + 1]) / 2 - 0.5) <= 0.1
    # deterministic given the dataset
    rep2 = tail_report(ds, sol, spectra)
    assert rep2.hill_in.index_estimate == rep.hill_in.index_estimate
    assert np.array_equal(rep2.angular_counts, rep.angular_counts)


def test_compare_pmf_basics():
    g1 = np.zeros((3, 3))
    g1[0, 0] = 1.0
    g2 = np.zeros((3, 3))
    g2[1, 1] = 1.0
    assert compare_pmf((g1, 0.0), (g1, 0.0)) == 0.0
    assert compare_pmf((g1, 0.0), (g2, 0.0)) == 1.0
    half = np.zeros((3, 3))
    half[0, 0] = 0.5
    half[1, 1] = 0.5
    assert compare_pmf((half, 0.0), (g1, 0.0)) == 0.5


def test_compare_pmf_overflow_and_mismatch():
    g = np.zeros((2, 2))
    g[0, 0] = 1.0
    assert compare_pmf((g, 0.0), (g * 0.0, 1.0)) == 1.0
    with pytest.raises(GridMismatch):
        compare_pmf((g, 0.0), (np.zeros((3, 3)), 0.0))


def test_compare_pmf_against_histogram(k1_ref):
    result = run(k1_ref, SimConfig(n_steps=2000, seed=10))
    hist = degree_histogram(result.state)
    grid, overflow = hist.to_pmf(10, 10)
    assert compare_pmf((grid, overflow), (grid, overflow)) == 0.0


def test_pair_table_bincount_and_unique_agree():
    rng = np.random.default_rng(3)
    x = rng.integers(0, 40, 5000)
    y = rng.integers(0, 9, 5000)
    tables = [pair_table(x, y), pair_table(x.astype(float), y.astype(float)),
              pair_table(x.astype(np.uint8), y.astype(np.int32))]
    for tx, ty, w in tables:
        assert np.array_equal(tx, tables[0][0]) and np.array_equal(ty, tables[0][1])
        assert np.array_equal(w, tables[0][2]) and w.sum() == x.size
    tx, ty, w = tables[0]
    assert np.all(np.diff(tx * 9 + ty) > 0)              # distinct, in (x, y) order
    assert dict(zip(zip(tx.tolist(), ty.tolist()), w.tolist())) == Counter(zip(x.tolist(), y.tolist()))
    # a key range far wider than the sample, and negative values, go through np.unique
    tx, ty, w = pair_table(np.array([10**12, 0, 10**12]), np.array([-1, 5, -1]))
    assert tx.tolist() == [0, 10**12] and ty.tolist() == [5, -1] and w.tolist() == [1, 2]
    with pytest.raises(ValueError):
        pair_table(np.array([1]), np.array([1, 2]))


def test_pair_table_of_joined_tables_is_the_table_of_the_joined_samples():
    """Tables of consecutive pieces of a sample, joined with their weights
    piece by piece as diagnose joins its read blocks, give the whole sample's
    table: the same pairs in the same order, the same weights and dtypes."""
    rng = np.random.default_rng(12)
    for _ in range(40):
        n = int(rng.integers(1, 3000))
        x = np.floor(rng.pareto(rng.uniform(0.5, 3.0), n) * rng.uniform(1, 30)).astype(np.int64)
        y = np.floor(rng.pareto(rng.uniform(0.5, 3.0), n) * rng.uniform(1, 30)).astype(np.int64)
        cuts = np.sort(rng.integers(1, n, int(rng.integers(0, 6)))) if n > 1 else []
        table = None
        for px, py in zip(np.split(x, cuts), np.split(y, cuts)):
            if len(px) == 0:
                continue
            piece = pair_table(px, py)
            table = piece if table is None else pair_table(
                *(np.concatenate(pair) for pair in zip(table, piece)))
        for got, want in zip(table, pair_table(x, y)):
            assert got.dtype == want.dtype == np.int64 and np.array_equal(got, want)
        assert all(np.array_equal(a, b) for a, b in zip(pair_table(*table), table))
        folded, whole = DegreeDataset(*table), DegreeDataset(x=x, y=y)
        for name in ("x", "y", "weight"):
            assert np.array_equal(getattr(folded, name), getattr(whole, name))
        assert folded.n == whole.n == n
    with pytest.raises(ValueError):
        pair_table(np.array([1, 2]), np.array([1, 2]), np.array([1]))


@pytest.mark.parametrize("chunk", [5, 64, tails.SWEEP_CHUNK])
def test_chunked_sweep_sums_equal_cumsum_of_the_expanded_sample(monkeypatch, chunk):
    """The sweep's running log sums, taken chunk by chunk, equal np.cumsum
    over the expanded sample bit for bit, and so does every sweep row: small
    chunks cross many chunk edges, inside a row's run and at its ends."""
    monkeypatch.setattr(tails, "SWEEP_CHUNK", chunk)
    rng = np.random.default_rng(chunk)
    for _ in range(25):
        rows = int(rng.integers(1, 200))
        logs = np.sort(np.log1p(rng.pareto(1.0, rows) * 50.0))[::-1]
        counts = rng.integers(0, 40, rows)
        counts[0] += 2                    # at least two entries
        cum = np.concatenate([[0], np.cumsum(counts)])
        total = int(cum[-1])
        expanded = np.cumsum(np.repeat(logs, counts)[:-1])
        for ks in (np.arange(1, total), hill_sweep_ks(total - 1, int(rng.integers(1, total)))):
            assert np.array_equal(tails._running_sums(logs, cum, ks), expanded[ks - 1])
        values, k = np.exp(logs), int(rng.integers(1, total))
        try:
            want = expanded_hill_estimator(np.repeat(values, counts), k, sweep=True)
        except DegenerateTail:
            continue
        got = hill_estimator(values, k, sweep=True, weights=counts)
        assert np.array_equal(got.k_sweep, want.k_sweep)


def test_weighted_quantile_and_median_match_numpy():
    rng = np.random.default_rng(8)
    for n_rows in (1, 2, 3, 7, 40):
        for _ in range(30):
            values = rng.integers(0, 6, n_rows) + rng.choice([0.0, 0.25, 1 / 3], n_rows)
            weights = rng.integers(1, 5, n_rows)
            sample = np.repeat(values, weights)
            assert weighted_median(values, weights) == np.median(sample)
            for q in (0.0, 0.1, 0.5, 0.77, 0.999, 1.0, rng.uniform()):
                assert weighted_quantile(values, weights, q) == np.quantile(sample, q), q


def test_weighted_hill_matches_expanded_sample():
    rng = np.random.default_rng(4)
    values = np.floor(rng.pareto(1.5, 400) * 10.0)          # ties and zeros
    weights = rng.integers(1, 50, 400)
    sample = np.repeat(values, weights)
    for k in (1, 2, 17, 300, int((sample > 0).sum()) - 1):
        try:
            want = expanded_hill_estimator(sample, k, sweep=True)
        except DegenerateTail:
            with pytest.raises(DegenerateTail):
                hill_estimator(values, k, sweep=True, weights=weights)
            continue
        got = hill_estimator(values, k, sweep=True, weights=weights)
        assert got.index_estimate == pytest.approx(want.index_estimate, rel=1e-12, abs=0.0)
        assert np.array_equal(got.k_sweep[:, 0], want.k_sweep[:, 0])
        np.testing.assert_allclose(got.k_sweep[:, 1], want.k_sweep[:, 1], rtol=1e-12, atol=0)
    with pytest.raises(NonPositiveValues, match="have 3"):
        hill_estimator([0.0, 2.0], 3, weights=[5, 3])
    with pytest.raises(InsufficientData, match="n=8"):
        hill_estimator([0.0, 2.0], 8, weights=[5, 3])


ORACLE_MODELS = {
    "k1": dict(alpha=0.5, delta=1.0, pi=[1.0], rho=[[0.5]]),
    "k2": dict(alpha=0.5, delta=1.0, pi=[0.5, 0.5], rho=[[0.9, 0.9], [0.45, 0.45]]),
    "k3-degenerate": dict(alpha=0.5, delta=1.0, pi=[0.4, 0.3, 0.3],
                          rho=[[0.9] * 3, [0.45] * 3, [0.0] * 3]),
    "k4-three-rays": dict(alpha=0.5, delta=2.0, pi=[0.25] * 4,
                          rho=[[0.95] * 4, [0.7] * 4, [0.45] * 4, [0.1] * 4]),
}


@pytest.mark.parametrize("model, n_steps", [
    ("k1", 30_000), ("k2", 30_000), ("k3-degenerate", 30_000), ("k4-three-rays", 30_000),
    ("k2", 500_000)])
def test_tail_report_on_pair_table_matches_expanded_sample(model, n_steps):
    params = validate_params(**ORACLE_MODELS[model])
    sol, spectra = solve_equilibrium(params), all_spectra(params)
    ind, outd, _ = run(params, SimConfig(n_steps=n_steps, seed=11)).state.degrees()
    ds = DegreeDataset(x=ind, y=outd)
    assert ds.n == ind.size and ds.x.size < ind.size
    rep = tail_report(ds, sol, spectra)

    # the same statistics on the per-node sample
    x, y = ind.astype(float), outd.astype(float)
    k = int(math.isqrt(x.size))
    for got, vals in ((rep.hill_in, x), (rep.hill_out, y)):
        want = expanded_hill_estimator(vals, min(k, int((vals > 0).sum()) - 1), sweep=True)
        assert got.k == want.k
        assert got.index_estimate == pytest.approx(want.index_estimate, rel=1e-12, abs=0.0)
        assert np.array_equal(got.k_sweep[:, 0], want.k_sweep[:, 0])
        np.testing.assert_allclose(got.k_sweep[:, 1], want.k_sweep[:, 1], rtol=1e-12, atol=0)
    rad = x + y
    r_thr = np.quantile(rad, 0.999)
    assert rep.radius_threshold == r_thr
    counts, _ = np.histogram(y[rad > r_thr] / rad[rad > r_thr], bins=50, range=(0.0, 1.0))
    assert np.array_equal(rep.angular_counts, counts)
    assert rep.angular_counts.dtype == np.int64

    if model == "k1":
        assert rep.hrv is None
        return
    ranked = order_groups(spectra).ranked
    assert len(rep.hrv.rays) == {"k4-three-rays": 3}.get(model, 2)
    score, thr = rad, r_thr
    for j, ray in enumerate(rep.hrv.rays):
        if j:
            dist = np.abs(y - ranked[0].a * x)
            for i in range(1, j):
                dist = np.minimum(dist, np.abs(y - ranked[i].a * x))
            score, thr = dist, np.quantile(dist, 0.999)
        sel = score > thr
        assert ray.n_selected == int(sel.sum())
        assert ray.theta_median == float(np.median(y[sel] / rad[sel]))
        want = expanded_hill_estimator(score, min(ray.n_selected, int((score > 0).sum()) - 1))
        assert ray.index_estimate == pytest.approx(want.index_estimate, rel=1e-12, abs=0.0)
    assert rep.hrv.n_removed == x.size - rep.hrv.rays[1].n_selected
