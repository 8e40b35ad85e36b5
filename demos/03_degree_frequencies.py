"""Compare empirical degree frequencies with the branching-process limit.

Two estimates of the same joint pmf p_{k,l}: node frequencies from one
long graph run, and Monte Carlo draws of a two-type branching process
with immigration observed at an independent Exp(c*) time. The total
variation distance between them is the headline number. Writes both
grids under out/degree_frequencies/.
"""

from pathlib import Path

from recipnet import (
    SimConfig,
    compare_pmf,
    degree_histogram,
    estimate_pkl,
    run,
    solve_equilibrium,
    validate_params,
)
from recipnet import io as rio

GRID = 15

params = validate_params(alpha=0.5, delta=1.0, pi=[1.0], rho=[[0.5]])
sol = solve_equilibrium(params)
print(f"c* = {sol.c_star}, init distribution is (0,1)/(1,0)/(1,1) "
      f"w.p. 0.25/0.25/0.50 for this model")

n = 300_000
result = run(params, SimConfig(n_steps=n, seed=5))
hist = degree_histogram(result.state)
sim_grid, sim_overflow = hist.to_pmf(GRID, GRID)
print(f"graph run: n = {n}, nodes = {result.state.n_nodes}, "
      f"|E|/n = {result.state.edge_count / n:.4f}")

est = estimate_pkl(params, sol, replicates=300_000, kmax=GRID, lmax=GRID, seed=6)
print(f"branching estimate: {est.replicates} replicates, "
      f"overflow mass {est.overflow_mass:.5f}, failed {est.failed}")

tv = compare_pmf((sim_grid, sim_overflow), est)
print(f"\ntotal variation distance on the {GRID}x{GRID} grid: {tv:.4f}")

print("\njoint pmf near the origin (graph run | branching):")
for k in range(4):
    sim_row = " ".join(f"{sim_grid[k, l]:.4f}" for l in range(4))
    est_row = " ".join(f"{est.grid[k, l]:.4f}" for l in range(4))
    print(f"  k={k}: {sim_row}   |   {est_row}")

out_dir = Path("out/degree_frequencies")
out_dir.mkdir(parents=True, exist_ok=True)
rio.write_pmf(out_dir, est)
rio.write_pmf_grid(out_dir / "empirical.csv", sim_grid)
print(f"wrote grids under {out_dir}")
