"""Tail diagnostics: power-law indices, the dominant ray, and the hidden one.

Pools several seeds of the two-group reference model, then reads off
(1) the marginal Hill indices, (2) the angular location of the largest
in/out pairs against the predicted dominant ray, and (3) after ranking
points by distance to that ray, the hidden second regime with its own
index and ray. Plot-ready CSVs land in out/tail_structure/.
"""

from pathlib import Path

import numpy as np

from recipnet import (
    DegreeDataset,
    SimConfig,
    all_spectra,
    run,
    solve_equilibrium,
    tail_report,
    validate_params,
)
from recipnet import io as rio

params = validate_params(alpha=0.5, delta=1.0, pi=[0.5, 0.5],
                         rho=[[0.9, 0.9], [0.45, 0.45]])
sol = solve_equilibrium(params)
spectra = all_spectra(params)

n, seeds = 400_000, (21, 22, 23)
xs, ys, gs = [], [], []
for seed in seeds:
    result = run(params, SimConfig(n_steps=n, seed=seed))
    i, o, g = result.state.degrees()
    xs.append(i)
    ys.append(o)
    gs.append(g)
data = DegreeDataset(x=np.concatenate(xs).astype(float),
                     y=np.concatenate(ys).astype(float),
                     groups=np.concatenate(gs))
print(f"pooled {len(seeds)} runs of {n} steps: {data.n} nodes")

report = tail_report(data, params, sol, spectra)
print(f"\nmarginal Hill estimates (k = floor(sqrt(n))):")
print(f"  in-degree:  {report.hill_in.index_estimate:.4f} "
      f"(se {report.hill_in.se:.4f})")
print(f"  out-degree: {report.hill_out.index_estimate:.4f} "
      f"(se {report.hill_out.se:.4f})")
print(f"  predicted first index c*/lambda_(1) = {report.predicted_first_index:.4f}")

hrv = report.hrv
print(f"\nray structure ({hrv.removal_rule}):")
for ray in hrv.rays:
    print(f"  regime #{ray.rank} (group {ray.group + 1}): "
          f"index {ray.index_estimate:.4f} vs predicted {ray.index_predicted:.4f}; "
          f"theta median {ray.theta_median:.4f} vs predicted "
          f"{ray.theta_predicted:.4f} [{ray.n_selected} points]")
print(f"  removed (near dominant ray): {hrv.n_removed}, "
      f"peeled (far): {hrv.n_peeled}")

out_dir = Path("out/tail_structure")
out_dir.mkdir(parents=True, exist_ok=True)
rio.write_angular_hist(out_dir / "angular_hist.csv", report.angular_bins,
                       report.angular_counts)
rio.write_hill_sweep(out_dir / "hill_sweep_in.csv", report.hill_in.k_sweep[:5000])
print(f"\nwrote angular histogram and Hill sweep under {out_dir}")
