"""Check that the linked branching chain reproduces the graph law exactly.

For one and two growth steps the distribution of

    (edge count, sorted multiset of (group, in-degree, out-degree))

can be enumerated exactly under the graph dynamics. The linked chain is
built from competing exponential clocks, one type-I and one type-II
clock per branching process, and sampled by Monte Carlo in lockstep; it
is compared cell by cell with the enumeration. A healthy chain gives
chi-square p-values spread uniformly, not tiny.
"""

import numpy as np

from recipnet import (
    embedding_chains,
    enumerate_graph_law,
    group_rates,
    validate_params,
    verify_equivalence,
)

params = validate_params(alpha=0.5, delta=1.0, pi=[0.5, 0.5],
                         rho=[[0.9, 0.9], [0.45, 0.45]])
rho0 = group_rates(params).rho0

# first reciprocation indicator: the chain's R_1 is a rho0-coin; after one
# jump the type-I total is 2 + R_1
rng = np.random.default_rng(3)
n_chains = 50_000
_, n1, _ = embedding_chains(params, 1, n_chains, rng)
hits = int((n1.sum(axis=1) - 2).sum())
print(f"P(R_1 = 1) Monte Carlo: {hits / n_chains:.4f}  (rho0 = {rho0:.4f})")

for n in (1, 2):
    exact = enumerate_graph_law(params, n)
    print(f"\nn = {n}: exact support has {len(exact)} observables; "
          f"5 most likely:")
    for key, prob in sorted(exact.items(), key=lambda kv: -kv[1])[:5]:
        e, cells = key
        pretty = ", ".join(f"(g{g + 1}:{i},{o})" for g, i, o in cells)
        print(f"    P = {prob:.4f}  edges = {e}  degrees = [{pretty}]")

    print(f"  chi-square against 50k chain samples, 5 seeds:")
    for seed in range(5):
        rep = verify_equivalence(params, n=n, replicates=50_000, seed=seed)
        print(f"    seed {seed}: p = {rep.p_value:.3f}, "
              f"max cell deviation = {rep.max_abs_dev:.4f} "
              f"({rep.n_cells} cells, {rep.n_merged} merged)")
