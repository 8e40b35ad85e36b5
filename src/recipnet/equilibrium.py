"""Limiting edge-fraction fixed point and its regularity diagnostics.

The scaled group edge counts |E_in_m(n)|/n and |E_out_m(n)|/n converge to
the unique solution (x, y) of a 2K-dimensional fixed-point system.  The
right-hand side is a contraction on

    Z = { z in [0,2]^{2K} : sum of first K >= 1, sum of last K >= 1 }

whenever delta > ||J*||_1 - 1, where J* is an explicit block matrix of
partial-derivative bounds.  This module solves the system by fixed-point
iteration, assembles J*, the constant C_delta and the 3x3 comparison
matrix H whose dominant eigenvalue lambda_H < 1 certifies convergence of
the expected edge counts, and reports all regularity flags the limit
theorems assume.

``attachment_law`` is the one statement of the limiting attachment law
(px, py), through which (x, y) reach the fixed-point map, C_delta and
the degree-limit sampler's initialization.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .params import GroupRates, ModelParams, group_rates
from .spectral import GroupSpectral, all_spectra, order_groups, regime_slack

DEFAULT_TOL = 1e-12
DEFAULT_MAX_ITER = 10_000


class NoConvergence(RuntimeError):
    """Fixed-point iteration exhausted max_iter above tolerance.

    Carries the last iterate so callers can inspect how close it got.
    """

    def __init__(self, x, y, residual, iterations):
        super().__init__(
            f"no convergence after {iterations} iterations, residual {residual:.3e}"
        )
        self.x = x
        self.y = y
        self.residual = residual
        self.iterations = iterations


@dataclass(frozen=True)
class ContractionReport:
    """J* block matrix with the norms controlling the contraction condition.

    norm1 is the max absolute column sum; the sufficient condition for a
    unique fixed point is delta > delta_min = max(norm1 - 1, 0).
    norm_fro is reported alongside for transparency.
    """

    jstar: np.ndarray
    norm1: float
    norm_fro: float
    delta_min: float
    satisfied: bool


@dataclass(frozen=True)
class HReport:
    """C_delta constant and comparison matrix H with its top eigenvalue.

    ``positive`` is False when some entry of H is zero, which breaks the
    Perron argument behind the lambda_H < 1 criterion; this happens iff a
    regularity flag fails (e.g. rho identically zero).
    """

    c_delta: float
    H: np.ndarray
    lambda_h: float
    positive: bool


@dataclass(frozen=True)
class RegularityReport:
    """Flags for every hypothesis the limit theorems use.

    ``star`` is the conjunction of the first five flags (the standing
    regularity assumptions); the mrv/hrv flags gate the tail predictions.
    ``margins`` carries signed numeric slack for each check.
    """

    alpha_gamma_positive: bool
    delta_condition: bool
    max_row_rate_positive: bool
    max_col_rate_positive: bool
    lambda_h_lt_1: bool
    mrv_condition: bool
    hrv_condition: bool
    distinct_eigenvalues: bool
    star: bool
    margins: dict


@dataclass(frozen=True)
class EquilibriumSolution:
    """Solved limiting edge fractions and derived constants.

    x[m], y[m] are the limits of |E_in_m(n)|/n and |E_out_m(n)|/n;
    rho_star = sum(x) - 1 is the limiting fraction of reciprocal edges per
    step and c_star = 1 + rho_star + delta the observation-time rate used
    by the degree-limit sampler.
    """

    x: np.ndarray
    y: np.ndarray
    residual: float
    iterations: int
    damped: bool
    rho_star: float
    c_star: float
    c_delta: float
    H: np.ndarray
    lambda_h: float
    h_positive: bool
    contraction: ContractionReport
    regular: RegularityReport


def build_jstar(params: ModelParams) -> ContractionReport:
    """Assemble the four J* blocks and the contraction condition."""
    K, alpha, gamma = params.K, params.alpha, params.gamma
    pi, rho = params.pi, params.rho
    ones = np.ones(K)
    rates = group_rates(params)

    j11 = alpha * (np.eye(K) + pi[:, None] * rho.T)
    j12 = gamma * np.outer(rates.rho_col, ones)
    j21 = alpha * np.outer(rates.rho_row, ones)
    j22 = gamma * (np.eye(K) + pi[:, None] * rho)
    jstar = np.block([[j11, j12], [j21, j22]])
    jstar.setflags(write=False)

    norm1 = float(np.abs(jstar).sum(axis=0).max())
    norm_fro = float(np.linalg.norm(jstar, "fro"))
    delta_min = max(norm1 - 1.0, 0.0)
    return ContractionReport(
        jstar=jstar,
        norm1=norm1,
        norm_fro=norm_fro,
        delta_min=delta_min,
        satisfied=params.delta > delta_min,
    )


def attachment_law(params: ModelParams, x: np.ndarray, y: np.ndarray):
    """Limiting attachment law px = (x + delta*pi)/(sum(x) + delta), py likewise from y."""
    delta, pi = params.delta, params.pi
    return ((x + delta * pi) / (x.sum() + delta),
            (y + delta * pi) / (y.sum() + delta))


def fixed_point_map(params: ModelParams, x: np.ndarray, y: np.ndarray):
    """One application of the edge-fraction fixed-point map.

    ``solve_equilibrium`` iterates it; tests use it to check the contraction
    inequality and to substitute solutions back into the defining system.
    """
    alpha, gamma = params.alpha, params.gamma
    pi, rho = params.pi, params.rho
    rates = group_rates(params)

    px, py = attachment_law(params, x, y)
    new_x = alpha * px + gamma * rates.rho_col * py + gamma * pi + alpha * pi * (rho.T @ px)
    new_y = gamma * py + alpha * rates.rho_row * px + alpha * pi + gamma * pi * (rho @ py)
    return new_x, new_y


def power_iteration(M: np.ndarray, tol: float = 1e-12, max_iter: int = 10_000):
    """Dominant eigenvalue of a small nonnegative matrix.

    Starts from the all-ones vector, normalizes in the sup norm and stops
    once the eigenvalue estimate is stable to relative tolerance ``tol``.
    Returns (lambda, vector, iterations, converged).
    """
    v = np.ones(M.shape[0])
    lam = 0.0
    converged = False
    its = 0
    for its in range(1, max_iter + 1):
        w = M @ v
        norm = np.abs(w).max()
        if norm == 0.0:
            return 0.0, v, its, True
        lam_new = float(v @ w / (v @ v))
        v = w / norm
        if abs(lam_new - lam) <= tol * max(1.0, abs(lam_new)):
            lam = lam_new
            converged = True
            break
        lam = lam_new
    return lam, v, its, converged


def h_and_lambda(params: ModelParams, x: np.ndarray, y: np.ndarray) -> HReport:
    """C_delta and the comparison matrix H evaluated at edge fractions (x, y)."""
    alpha, gamma, delta = params.alpha, params.gamma, params.delta
    rates = group_rates(params)
    rho_row, rho_col = rates.rho_row, rates.rho_col

    px, py = attachment_law(params, x, y)
    c_delta = float(alpha * (rho_row @ px) + gamma * (rho_col @ py))

    vr = float(rho_row.max())
    vc = float(rho_col.max())
    s = 1.0 + delta
    H = np.array([
        [alpha * (1.0 + vr) / s, gamma * vc / s, (alpha + c_delta) / s],
        [alpha * vr / s, gamma * (1.0 + vc) / s, (gamma + c_delta) / s],
        [alpha * vr / s, gamma * vc / s, c_delta / s],
    ])
    H.setflags(write=False)
    positive = bool(np.all(H > 0.0))
    lam, _, _, converged = power_iteration(H)
    if not converged:
        warnings.warn("power iteration on H did not converge", RuntimeWarning)
    return HReport(c_delta=c_delta, H=H, lambda_h=lam, positive=positive)


def _regularity(params: ModelParams, rates: GroupRates,
                contraction: ContractionReport, lambda_h: float,
                spectra: list[GroupSpectral]) -> RegularityReport:
    order = order_groups(spectra)
    lams = [s.lam for s in order.ranked]
    first = regime_slack(lams[0])

    alpha_gamma_positive = params.alpha > 0.0 and params.gamma > 0.0
    max_row = float(rates.rho_row.max())
    max_col = float(rates.rho_col.max())
    lambda_h_lt_1 = lambda_h < 1.0
    hrv = False

    margins = {
        "delta": params.delta - contraction.delta_min,
        "lambda_h": 1.0 - lambda_h,
        "mrv": first.moment,
    }
    if len(lams) > 1:
        second = regime_slack(lams[1], lams[0])
        hrv = second.ok
        margins["hrv_gap"] = second.gap
        margins["hrv_moment"] = second.moment
        margins["distinct"] = float(min(abs(a - b) for a, b in zip(lams, lams[1:])))

    star = (alpha_gamma_positive and contraction.satisfied and max_row > 0.0
            and max_col > 0.0 and lambda_h_lt_1)
    return RegularityReport(
        alpha_gamma_positive=alpha_gamma_positive,
        delta_condition=contraction.satisfied,
        max_row_rate_positive=max_row > 0.0,
        max_col_rate_positive=max_col > 0.0,
        lambda_h_lt_1=lambda_h_lt_1,
        mrv_condition=first.moment_ok,
        hrv_condition=hrv,
        distinct_eigenvalues=not order.non_distinct,
        star=star,
        margins=margins,
    )


def solve_equilibrium(params: ModelParams, tol: float = DEFAULT_TOL,
                      max_iter: int = DEFAULT_MAX_ITER) -> EquilibriumSolution:
    """Solve the edge-fraction system by fixed-point iteration.

    Starts from x = y = pi * (1 + rho0), which respects any symmetry of
    the parameters. Under the contraction condition the plain iteration
    is used; outside it a 0.5-damped iteration is attempted with a
    warning, since convergence is no longer guaranteed. Raises
    NoConvergence when max_iter is exhausted above tolerance.
    """
    rates = group_rates(params)
    contraction = build_jstar(params)
    damped = not contraction.satisfied
    if damped:
        warnings.warn(
            f"delta={params.delta} <= ||J*||_1 - 1 = {contraction.delta_min}: "
            "contraction not guaranteed, using damped iteration",
            RuntimeWarning,
        )

    x = params.pi * (1.0 + rates.rho0)
    y = x.copy()
    residual = math.inf
    its = 0
    for its in range(1, max_iter + 1):
        fx, fy = fixed_point_map(params, x, y)
        residual = max(np.abs(fx - x).max(), np.abs(fy - y).max())
        if damped:
            x = 0.5 * x + 0.5 * fx
            y = 0.5 * y + 0.5 * fy
        else:
            x, y = fx, fy
        if residual <= tol:
            break
    if residual > tol:
        raise NoConvergence(x, y, residual, its)

    x.setflags(write=False)
    y.setflags(write=False)
    rho_star = float(x.sum() - 1.0)
    c_star = 1.0 + rho_star + params.delta
    hrep = h_and_lambda(params, x, y)
    spectra = all_spectra(params, rates)
    regular = _regularity(params, rates, contraction, hrep.lambda_h, spectra)
    return EquilibriumSolution(
        x=x, y=y, residual=residual, iterations=its, damped=damped,
        rho_star=rho_star, c_star=c_star,
        c_delta=hrep.c_delta, H=hrep.H, lambda_h=hrep.lambda_h,
        h_positive=hrep.positive,
        contraction=contraction, regular=regular,
    )
