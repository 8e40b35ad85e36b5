import numpy as np
import pytest

from recipnet import (
    EquilibriumSolution,
    NoConvergence,
    all_spectra,
    build_jstar,
    group_rates,
    solve_equilibrium,
    validate_params,
)
from recipnet.equilibrium import _regularity, fixed_point_map, h_and_lambda, power_iteration
from recipnet.params import ModelParams
from conftest import random_params


def test_jstar_k1_hand_expansion(k1_ref):
    rep = build_jstar(k1_ref)
    assert np.allclose(rep.jstar, [[0.75, 0.25], [0.25, 0.75]], atol=1e-15)
    assert abs(rep.norm1 - 1.0) < 1e-15
    assert rep.delta_min == 0.0
    assert rep.satisfied


def test_jstar_zero_reciprocity():
    p = validate_params(alpha=0.3, delta=1.0, pi=[0.5, 0.5], rho=np.zeros((2, 2)))
    rep = build_jstar(p)
    expected = np.block([
        [0.3 * np.eye(2), np.zeros((2, 2))],
        [np.zeros((2, 2)), 0.7 * np.eye(2)],
    ])
    assert np.allclose(rep.jstar, expected, atol=1e-15)
    assert abs(rep.norm1 - 0.7) < 1e-15
    assert rep.delta_min == 0.0


def test_jstar_bounds_random():
    # column sums are at most max(alpha, gamma) * (2 + K): the diagonal
    # block contributes alpha*(1 + rho_row[j]) and the off-diagonal block a
    # constant column alpha*sum(rho_row); likewise on the gamma side
    rng = np.random.default_rng(3)
    for _ in range(300):
        p = random_params(rng)
        rep = build_jstar(p)
        assert np.all(rep.jstar >= 0.0)
        assert rep.norm1 <= max(p.alpha, p.gamma) * (2.0 + p.K) + 1e-12


def test_jstar_norm_bound_two_for_balanced_small_k():
    # the <= 2 bound holds in the balanced two-group regime of the examples
    rng = np.random.default_rng(4)
    for _ in range(100):
        K = int(rng.integers(1, 3))
        pi = rng.dirichlet(np.ones(K))
        p = validate_params(alpha=0.5, delta=1.0, pi=pi / pi.sum(),
                            rho=rng.uniform(0, 1, (K, K)))
        assert build_jstar(p).norm1 <= 2.0 + 1e-12


def test_solve_k1_forced_value(k1_ref):
    sol = solve_equilibrium(k1_ref)
    assert np.allclose(sol.x, [1.5], atol=1e-12)
    assert np.allclose(sol.y, [1.5], atol=1e-12)
    assert abs(sol.rho_star - 0.5) < 1e-12
    assert abs(sol.c_star - 2.5) < 1e-12


def test_solve_symmetric_two_groups():
    p = validate_params(alpha=0.5, delta=1.0, pi=[0.5, 0.5], rho=np.full((2, 2), 0.5))
    sol = solve_equilibrium(p)
    assert np.allclose(sol.x, [0.75, 0.75], atol=1e-12)
    assert np.allclose(sol.y, [0.75, 0.75], atol=1e-12)


def _reference_fixed_point(params, iters=5000):
    """Independent scalar-loop evaluation of the defining system, damped."""
    K = params.K
    a, g, d = params.alpha, params.gamma, params.delta
    pi = params.pi
    rho = params.rho
    x = [pi[m] * 1.2 for m in range(K)]
    y = [pi[m] * 1.2 for m in range(K)]
    for _ in range(iters):
        sx = sum(x) + d
        sy = sum(y) + d
        nx, ny = [], []
        for m in range(K):
            rc = sum(rho[r, m] * pi[r] for r in range(K))
            rr = sum(rho[m, r] * pi[r] for r in range(K))
            t1 = a * (x[m] + d * pi[m]) / sx
            t2 = g * rc * (y[m] + d * pi[m]) / sy
            t3 = g * pi[m]
            t4 = a * pi[m] * sum(rho[r, m] * (x[r] + d * pi[r]) / sx for r in range(K))
            nx.append(t1 + t2 + t3 + t4)
            s1 = g * (y[m] + d * pi[m]) / sy
            s2 = a * rr * (x[m] + d * pi[m]) / sx
            s3 = a * pi[m]
            s4 = g * pi[m] * sum(rho[m, r] * (y[r] + d * pi[r]) / sy for r in range(K))
            ny.append(s1 + s2 + s3 + s4)
        x = [0.5 * x[m] + 0.5 * nx[m] for m in range(K)]
        y = [0.5 * y[m] + 0.5 * ny[m] for m in range(K)]
    return np.array(x), np.array(y)


def test_solve_k2_reference_vs_independent_oracle(k2_ref):
    sol = solve_equilibrium(k2_ref)
    ox, oy = _reference_fixed_point(k2_ref)
    assert np.allclose(sol.x, ox, atol=1e-10)
    assert np.allclose(sol.y, oy, atol=1e-10)
    # frozen values from the damped oracle
    assert np.allclose(sol.x, [0.86040023, 0.81644699], atol=1e-7)
    assert np.allclose(sol.y, [0.98017101, 0.69667622], atol=1e-7)
    # substitution back into the defining equations
    fx, fy = fixed_point_map(k2_ref, sol.x, sol.y)
    assert np.abs(fx - sol.x).max() <= 1e-12
    assert np.abs(fy - sol.y).max() <= 1e-12


def test_solution_in_feasible_region_random():
    rng = np.random.default_rng(11)
    for _ in range(60):
        p = random_params(rng, contraction=True)
        sol = solve_equilibrium(p)
        assert np.all(sol.x >= 0) and np.all(sol.x <= 2)
        assert np.all(sol.y >= 0) and np.all(sol.y <= 2)
        assert sol.x.sum() >= 1.0 - 1e-12
        assert abs(sol.x.sum() - sol.y.sum()) <= 10 * 1e-12
        fx, fy = fixed_point_map(p, sol.x, sol.y)
        assert max(np.abs(fx - sol.x).max(), np.abs(fy - sol.y).max()) <= 1e-11
        # rho* equals C_delta (summing the system over groups)
        assert abs(sol.rho_star - sol.c_delta) <= 1e-9


def test_contraction_inequality_random():
    rng = np.random.default_rng(5)
    for _ in range(200):
        p = random_params(rng, contraction=True)
        rep = build_jstar(p)
        factor = rep.norm1 / (1.0 + p.delta)
        K = p.K
        for _ in range(2):
            z1 = rng.uniform(0.0, 2.0, size=2 * K)
            z2 = rng.uniform(0.0, 2.0, size=2 * K)
            for z in (z1, z2):
                # project into the feasible set: coordinate sums >= 1
                for lo, hi in ((0, K), (K, 2 * K)):
                    s = z[lo:hi].sum()
                    if s < 1.0:
                        z[lo:hi] += (1.0 - s) / K
            f1 = np.concatenate(fixed_point_map(p, z1[:K], z1[K:]))
            f2 = np.concatenate(fixed_point_map(p, z2[:K], z2[K:]))
            lhs = np.abs(f1 - f2).sum()
            rhs = factor * np.abs(z1 - z2).sum()
            assert lhs <= rhs + 1e-9


def test_h_and_lambda_k1_hand_values(k1_ref):
    sol = solve_equilibrium(k1_ref)
    rep = h_and_lambda(k1_ref, sol.x, sol.y)
    assert abs(rep.c_delta - 0.5) < 1e-12
    expected_h = np.array([
        [0.375, 0.125, 0.5],
        [0.125, 0.375, 0.5],
        [0.125, 0.125, 0.25],
    ])
    assert np.allclose(rep.H, expected_h, atol=1e-12)
    # hand ansatz (1, 1, 0.5) gives lambda = 0.75
    assert abs(rep.lambda_h - 0.75) < 1e-9
    assert rep.positive


def test_h_zero_reciprocity_flags_nonpositive():
    p = validate_params(alpha=0.5, delta=1.0, pi=[1.0], rho=[[0.0]])
    sol = solve_equilibrium(p)
    rep = h_and_lambda(p, sol.x, sol.y)
    assert rep.c_delta == 0.0
    assert not rep.positive
    assert rep.H[2, 2] == 0.0


def test_lambda_h_invariant_under_relabeling():
    rng = np.random.default_rng(19)
    for _ in range(25):
        p = random_params(rng, k_max=4, contraction=True)
        if p.K == 1:
            continue
        sol = solve_equilibrium(p)
        perm = rng.permutation(p.K)
        p2 = validate_params(alpha=p.alpha, delta=p.delta, pi=p.pi[perm],
                             rho=p.rho[np.ix_(perm, perm)])
        sol2 = solve_equilibrium(p2)
        assert abs(sol.lambda_h - sol2.lambda_h) <= 1e-9
        assert abs(sol.rho_star - sol2.rho_star) <= 1e-9


def test_power_iteration_vs_characteristic_polynomial():
    rng = np.random.default_rng(23)
    for _ in range(40):
        p = random_params(rng, contraction=True)
        sol = solve_equilibrium(p)
        # characteristic cubic det(H - t I) = 0 solved independently
        H = sol.H
        c2 = -np.trace(H)
        c1 = 0.5 * (np.trace(H) ** 2 - np.trace(H @ H))
        c0 = -np.linalg.det(H)
        roots = np.roots([1.0, c2, c1, c0])
        lam_poly = max(roots.real[np.abs(roots.imag) < 1e-9])
        assert abs(sol.lambda_h - lam_poly) <= 1e-9


def test_power_iteration_utility():
    lam, vec, its, conv = power_iteration(np.array([[2.0, 1.0], [1.0, 2.0]]))
    assert conv and abs(lam - 3.0) < 1e-9


def test_regularity_k1_reference(k1_ref):
    sol = solve_equilibrium(k1_ref)
    reg = sol.regular
    assert reg.star
    assert reg.mrv_condition           # lambda_1 = 0.75 >= log 2
    assert not reg.hrv_condition       # single group
    assert reg.margins["mrv"] == pytest.approx(0.75 - np.log(2), abs=1e-12)
    assert reg.margins["delta"] == pytest.approx(1.0, abs=1e-12)


def test_regularity_k2_reference(k2_ref):
    sol = solve_equilibrium(k2_ref)
    reg = sol.regular
    assert reg.star
    assert reg.mrv_condition and reg.hrv_condition and reg.distinct_eigenvalues
    spectra = all_spectra(k2_ref)
    lam1, lam2 = sorted((s.lam for s in spectra), reverse=True)
    assert abs(lam1 - 0.8897114) < 1e-6 and abs(lam2 - 0.7755676) < 1e-6
    assert lam2 > lam1 / 2 and lam2 >= np.log(2)
    # report recomputation is consistent
    reg2 = _regularity(k2_ref, group_rates(k2_ref), sol.contraction, sol.lambda_h,
                       spectra)
    assert reg2 == reg


def test_regularity_alpha_one_flag():
    # alpha=1 cannot pass validation; construct the dataclass directly
    p = ModelParams(alpha=1.0, gamma=0.0, delta=1.0, K=1,
                    pi=np.array([1.0]), rho=np.array([[0.5]]))
    contraction = build_jstar(p)
    spectra = all_spectra(p)
    sol = EquilibriumSolution(
        x=np.array([1.5]), y=np.array([1.5]), residual=0.0, iterations=0,
        damped=False, rho_star=0.5, c_star=2.5, c_delta=0.5,
        H=np.eye(3), lambda_h=0.5, h_positive=True,
        contraction=contraction, regular=None)
    reg = _regularity(p, group_rates(p), sol.contraction, sol.lambda_h, spectra)
    assert not reg.alpha_gamma_positive
    assert not reg.star


def test_no_convergence_carries_state(k2_ref):
    with pytest.raises(NoConvergence) as err:
        solve_equilibrium(k2_ref, tol=1e-12, max_iter=2)
    assert err.value.residual > 1e-12
    assert err.value.x.shape == (2,)


def test_damped_mode_outside_guarantee():
    # K=2 reference has ||J*||_1 - 1 = 0.625; delta below it triggers damping
    p = validate_params(alpha=0.5, delta=0.3, pi=[0.5, 0.5],
                        rho=[[0.9, 0.9], [0.45, 0.45]])
    with pytest.warns(RuntimeWarning):
        sol = solve_equilibrium(p)
    assert sol.damped
    fx, fy = fixed_point_map(p, sol.x, sol.y)
    assert max(np.abs(fx - sol.x).max(), np.abs(fy - sol.y).max()) <= 1e-11
