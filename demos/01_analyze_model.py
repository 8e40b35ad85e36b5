"""Walk through the closed-form analysis of a two-group model.

Everything here is deterministic: parameter validation, per-group
reciprocation rates, the branching matrices with their eigenstructure,
the edge-fraction fixed point, and the regularity flags that decide
whether the tail predictions apply.
"""

import numpy as np

from recipnet import (
    all_spectra,
    build_jstar,
    group_rates,
    order_groups,
    solve_equilibrium,
    validate_params,
)

# Two behavioral groups, equally likely. Group 1 replies to almost
# everything (rho row 0.9); group 2 replies about half the time.
params = validate_params(
    alpha=0.5,
    delta=1.0,
    pi=[0.5, 0.5],
    rho=[[0.9, 0.9], [0.45, 0.45]],
)
print(f"alpha={params.alpha}, gamma={params.gamma}, delta={params.delta}, K={params.K}")

rates = group_rates(params)
print("\nPer-group reciprocation rates:")
for m in range(params.K):
    print(f"  group {m + 1}: sends reciprocal w.p. {rates.rho_row[m]:.3f}, "
          f"receives w.p. {rates.rho_col[m]:.3f}")
print(f"  mixture rho0 = {rates.rho0:.3f}")

# The contraction condition guards uniqueness of the edge-fraction limit.
contraction = build_jstar(params)
print(f"\n||J*||_1 = {contraction.norm1:.4f}  (Frobenius {contraction.norm_fro:.4f})")
print(f"delta = {params.delta} > ||J*||_1 - 1 = {contraction.delta_min:.4f}? "
      f"{contraction.satisfied}")

sol = solve_equilibrium(params)
print(f"\nEdge-fraction fixed point ({sol.iterations} iterations, "
      f"residual {sol.residual:.2e}):")
print(f"  x = {np.round(sol.x, 6)}   (incoming side)")
print(f"  y = {np.round(sol.y, 6)}   (outgoing side)")
print(f"  edges per step -> 1 + rho* = {1 + sol.rho_star:.6f}")
print(f"  c* = 1 + rho* + delta = {sol.c_star:.6f}")
print(f"  lambda_H = {sol.lambda_h:.6f} (< 1 required)")

spectra = all_spectra(params, rates)
print("\nGroup spectral structure (sorted by lambda):")
for rank, s in enumerate(order_groups(spectra).ranked, start=1):
    print(f"  #{rank} group {s.group + 1}: lambda = {s.lam:.6f}, "
          f"lambda' = {s.lam_prime:.6f}, ray slope a = {s.a:.6f} "
          f"(theta = {s.a / (1 + s.a):.4f})")
    print(f"      predicted tail index c*/lambda = {sol.c_star / s.lam:.4f}")

reg = sol.regular
print("\nRegularity verdicts:")
for name in ("alpha_gamma_positive", "delta_condition", "max_row_rate_positive",
             "max_col_rate_positive", "lambda_h_lt_1", "mrv_condition",
             "hrv_condition", "distinct_eigenvalues"):
    print(f"  {name}: {getattr(reg, name)}")
print(f"  star verdict: {reg.star}")
print(f"  margins: { {k: round(v, 6) for k, v in reg.margins.items()} }")
