import copy
from collections import Counter

import numpy as np
import pytest

from recipnet import (
    ResourceLimit,
    SimConfig,
    degree_histogram,
    enumerate_graph_law,
    init_graph,
    run,
    step,
    validate_params,
)
from recipnet.embedding import _chi_square_against
from conftest import random_params, run_k2, sha256s


class ScriptedRng:
    """Feeds predetermined uniforms to step(); mimics Generator.random."""

    def __init__(self, values):
        self.values = list(values)

    def random(self, size=None):
        if size is None:
            return self.values.pop(0)
        out = np.array([self.values.pop(0) for _ in range(size)])
        return out


def test_init_graph_self_loop(k1_ref):
    state = init_graph(k1_ref, np.random.default_rng(0))
    assert state.n_nodes == 1
    assert state.in_deg[1] == 1 and state.out_deg[1] == 1
    assert state.edge_count == 1
    assert np.array_equal(state.in_pool, [1]) and np.array_equal(state.out_pool, [1])
    state.check_invariants()


def test_init_group_deterministic_k1(k1_ref):
    for seed in range(5):
        state = init_graph(k1_ref, np.random.default_rng(seed))
        assert state.node_group[1] == 0


def test_init_group_reproducible():
    p = validate_params(alpha=0.5, delta=1.0, pi=[0.3, 0.7], rho=np.zeros((2, 2)))
    g1 = init_graph(p, np.random.default_rng(123)).node_group[1]
    g2 = init_graph(p, np.random.default_rng(123)).node_group[1]
    assert g1 == g2


def test_forced_scenario1_with_reciprocation(k1_ref):
    state = init_graph(k1_ref, np.random.default_rng(0))
    # scenario 1 (u0 < alpha), any mixture/index (single target), group 0,
    # reciprocation success (u4 < 0.5)
    step(state, k1_ref, ScriptedRng([0.0, 0.0, 0.0, 0.0, 0.0]))
    edges = state.edges()[1:].tolist()
    assert state.n == 1
    assert state.edge_count == 3
    assert (state.in_deg[1], state.out_deg[1]) == (2, 2)
    assert (state.in_deg[2], state.out_deg[2]) == (1, 1)
    assert [(source, target, bool(recip)) for _, source, target, recip in edges] == [
        (2, 1, False), (1, 2, True)]
    state.check_invariants()


def test_forced_scenario2_without_reciprocation(k1_ref):
    state = init_graph(k1_ref, np.random.default_rng(0))
    # scenario 2 (u0 >= alpha), reciprocation failure (u4 >= 0.5)
    step(state, k1_ref, ScriptedRng([0.9, 0.0, 0.0, 0.0, 0.9]))
    assert state.edge_count == 2
    assert (state.in_deg[1], state.out_deg[1]) == (1, 2)
    assert (state.in_deg[2], state.out_deg[2]) == (1, 0)
    state.check_invariants()


def test_always_reciprocate_edge_count():
    p = validate_params(alpha=0.5, delta=1.0, pi=[1.0], rho=[[1.0]])
    result = run(p, SimConfig(n_steps=200, seed=7))
    assert result.state.edge_count == 2 * 200 + 1


def test_never_reciprocate_edge_count():
    p = validate_params(alpha=0.5, delta=1.0, pi=[1.0], rho=[[0.0]])
    result = run(p, SimConfig(n_steps=200, seed=7))
    assert result.state.edge_count == 200 + 1
    assert result.state.reciprocal_count == 0


def test_run_deterministic_same_seed(k2_ref):
    a = run(k2_ref, SimConfig(n_steps=500, seed=42))
    b = run(k2_ref, SimConfig(n_steps=500, seed=42))
    assert np.array_equal(a.state.edges(), b.state.edges())
    assert np.array_equal(a.state.in_deg, b.state.in_deg)
    assert np.array_equal(a.state.node_group, b.state.node_group)


def test_run_matches_step_reference(k2_ref):
    n = 400
    result = run(k2_ref, SimConfig(n_steps=n, seed=9))
    rng = np.random.default_rng(9)
    state = init_graph(k2_ref, rng)
    for _ in range(n):
        step(state, k2_ref, rng)
    assert np.array_equal(state.in_deg, result.state.in_deg)
    assert np.array_equal(state.out_deg, result.state.out_deg)
    assert np.array_equal(state.node_group, result.state.node_group)
    assert state.edge_count == result.state.edge_count
    assert state.reciprocal_count == result.state.reciprocal_count
    assert np.array_equal(state.group_in_edges, result.state.group_in_edges)
    assert np.array_equal(state.group_out_edges, result.state.group_out_edges)
    assert np.array_equal(state.edges(), result.state.edges())


def test_invariants_random_params_and_seeds():
    rng = np.random.default_rng(77)
    for _ in range(40):
        p = random_params(rng)
        seed = int(rng.integers(0, 2**63))
        result = run(p, SimConfig(n_steps=120, seed=seed))
        result.state.check_invariants()
        # exact identity: extra edges beyond one-per-step are reciprocations
        st = result.state
        assert st.edge_count - (st.n + 1) == st.reciprocal_count


def test_invariants_after_every_step(k2_ref):
    rng = np.random.default_rng(5)
    state = init_graph(k2_ref, rng)
    for _ in range(60):
        step(state, k2_ref, rng)
        state.check_invariants()


def test_step_law_chi_square_against_enumeration(k2_ref):
    # init_graph + step Monte Carlo against the exact graph law, which
    # enumerate_graph_law derives independently of the pool sampler
    rng = np.random.default_rng(1234)
    replicates = 20_000
    for n in (1, 2, 3):
        observed = Counter()
        for _ in range(replicates):
            state = init_graph(k2_ref, rng)
            for _ in range(n):
                step(state, k2_ref, rng)
            cells = zip(state.node_group[1:], state.in_deg[1:], state.out_deg[1:])
            observed[(state.edge_count, tuple(sorted(cells)))] += 1
        _, _, p_value, _, impossible = _chi_square_against(
            enumerate_graph_law(k2_ref, n), observed, replicates)
        assert not impossible
        assert p_value > 1e-3


def _recip_trajectory(params, seed, n):
    snaps = tuple(range(1, n + 1))
    result = run(params, SimConfig(n_steps=n, seed=seed, snapshot_steps=snaps))
    # |E(k)| - (k+1) equals the reciprocation successes up to step k
    return result.trajectory.total_edges - (result.trajectory.steps + 1)


def test_monotone_coupling_k1():
    # same seed => shared uniforms; a single group compares the same rho
    # entry every step, so successes are pathwise monotone in rho
    for seed in (1, 2, 3, 4, 5):
        lo = validate_params(alpha=0.5, delta=1.0, pi=[1.0], rho=[[0.2]])
        hi = validate_params(alpha=0.5, delta=1.0, pi=[1.0], rho=[[0.6]])
        r_lo = _recip_trajectory(lo, seed, 300)
        r_hi = _recip_trajectory(hi, seed, 300)
        assert np.all(r_hi >= r_lo)


def test_monotone_coupling_constant_matrix():
    # constant matrices keep the comparison rho-entry independent of the
    # (possibly diverged) target group, so monotonicity is again pathwise
    rng = np.random.default_rng(10)
    for _ in range(5):
        K = int(rng.integers(2, 4))
        pi = rng.dirichlet(np.ones(K))
        c_lo = float(rng.uniform(0.0, 0.5))
        c_hi = float(rng.uniform(c_lo, 1.0))
        seed = int(rng.integers(0, 2**32))
        lo = validate_params(alpha=0.4, delta=0.7, pi=pi / pi.sum(),
                             rho=np.full((K, K), c_lo))
        hi = validate_params(alpha=0.4, delta=0.7, pi=pi / pi.sum(),
                             rho=np.full((K, K), c_hi))
        assert np.all(_recip_trajectory(hi, seed, 200) >= _recip_trajectory(lo, seed, 200))


def test_monotone_coupling_dominating_matrices():
    # max entry of the low matrix <= min entry of the high matrix
    rng = np.random.default_rng(11)
    for _ in range(5):
        K = 2
        pi = [0.5, 0.5]
        lo_m = rng.uniform(0.0, 0.4, (K, K))
        hi_m = rng.uniform(0.6, 1.0, (K, K))
        seed = int(rng.integers(0, 2**32))
        lo = validate_params(alpha=0.6, delta=1.5, pi=pi, rho=lo_m)
        hi = validate_params(alpha=0.6, delta=1.5, pi=pi, rho=hi_m)
        assert np.all(_recip_trajectory(hi, seed, 200) >= _recip_trajectory(lo, seed, 200))


def test_degree_histogram_init(k1_ref):
    state = init_graph(k1_ref, np.random.default_rng(0))
    hist = degree_histogram(state)
    assert hist.n_nodes == 1
    assert [tuple(p) for p in hist.pairs] == [(1, 1)]
    assert list(hist.counts) == [1]


def test_degree_histogram_forced_trace(k1_ref):
    state = init_graph(k1_ref, np.random.default_rng(0))
    step(state, k1_ref, ScriptedRng([0.0, 0.0, 0.0, 0.0, 0.0]))
    hist = degree_histogram(state)
    as_dict = {tuple(p): c for p, c in zip(hist.pairs, hist.counts)}
    assert as_dict == {(2, 2): 1, (1, 1): 1}


def test_degree_histogram_conservation(k2_ref):
    result = run(k2_ref, SimConfig(n_steps=500, seed=21))
    hist = degree_histogram(result.state)
    assert hist.counts.sum() == result.state.n + 1
    for g in range(k2_ref.K):
        assert hist.group_counts[g].sum() == result.state.group_node_counts[g]
    grid, overflow = hist.to_pmf(15, 15)
    assert abs(grid.sum() + overflow - 1.0) <= 1e-12


def test_resource_limit():
    p = validate_params(alpha=0.5, delta=1.0, pi=[1.0], rho=[[0.5]])
    with pytest.raises(ResourceLimit):
        run(p, SimConfig(n_steps=10_000, seed=0, max_edges=100))


def test_sim_config_rejects_zero_steps():
    with pytest.raises(ValueError):
        SimConfig(n_steps=0)


def test_single_step_run(k1_ref):
    result = run(k1_ref, SimConfig(n_steps=1, seed=0))
    st = result.state
    assert st.n_nodes == 2
    assert st.edge_count in (2, 3)


def test_snapshot_validation(k1_ref):
    with pytest.raises(ValueError):
        run(k1_ref, SimConfig(n_steps=10, seed=0, snapshot_steps=(11,)))


def test_trajectory_matches_state(k2_ref):
    n = 100
    result = run(k2_ref, SimConfig(n_steps=n, seed=13, snapshot_steps=(50, n)))
    assert list(result.trajectory.steps) == [50, n]
    assert result.trajectory.total_edges[-1] == result.state.edge_count
    assert np.array_equal(result.trajectory.group_in[-1], result.state.group_in_edges)
    assert np.array_equal(result.trajectory.group_out[-1], result.state.group_out_edges)


def test_step_does_not_mutate_on_copy(k1_ref):
    state = init_graph(k1_ref, np.random.default_rng(0))
    before = copy.deepcopy(state.__dict__)
    clone = copy.deepcopy(state)
    step(clone, k1_ref, np.random.default_rng(1))
    assert state.__dict__.keys() == before.keys()
    assert all(np.array_equal(value, before[key]) for key, value in state.__dict__.items())


# sha256 of the simulate artifacts for the config below, recorded from the
# reference implementation that kept one EdgeRecord per edge and a separate
# step() path. The run crosses the 65536-step uniform block boundary with a
# snapshot on each side of it. summary.json and the diagnose artifacts of its
# degrees.csv were recorded from the per-cell CSV writers that preceded
# io.write_table; the table crosses the 65536-row write chunk.
PARENT_DIGESTS = {
    "simulate": {
        "edges.csv": "f5056c44344ea20bc38e60b9205e467e19b7e265ce062fb8c05e15efa4314cd1",
        "degrees.csv": "42b52c5dc2721fb310399305eaef8cdd15c3008ad4e661173a6214f0114d2cac",
        "trajectory.csv": "3a20b0d92e69fd3d895c95313357527ad505d472b23dad2b1304791cfc8c26a4",
        "summary.json": "481f2a1a993c6d7ee493a54715841faceac4fee1b94f22b94e805d8d56de4ddd",
    },
    "diagnose": {
        "hill_sweep_in.csv": "2fd4f1f485c237879e6151874336618371db41c76a77f3514bfb972afad57f04",
        "hill_sweep_out.csv": "26d549cef4942ff48efd33a38fdfbff05e463526269890284006c6df70b9b03d",
        "angular_hist.csv": "9053685bf8e4a2f5a3a45d1642cf957e98bb2ba9bb7667b98016247210efc469",
        "report.json": "8e8bdd8e62180aaeb377b8876bb848a9af09a644d1230b0064ff21471ee92ab8",
    },
}


def test_artifacts_match_parent_digests(tmp_path):
    sim = run_k2(tmp_path, "simulate",
                 {"sim": {"n_steps": 70000, "seed": 55, "snapshots": [1, 65536, 65537, 70000],
                          "emit_edges": True}})
    out = run_k2(tmp_path, "diagnose", {}, "--input", str(sim / "degrees.csv"))
    digests = {"simulate": sha256s(sim, PARENT_DIGESTS["simulate"]),
               "diagnose": sha256s(out, PARENT_DIGESTS["diagnose"])}
    assert digests == PARENT_DIGESTS
