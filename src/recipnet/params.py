"""Model parameters for the reciprocal preferential attachment generator.

The generator is parameterized by the scenario-1 probability ``alpha``
(scenario 2 gets ``gamma = 1 - alpha``), a degree offset ``delta > 0``,
``K`` behavioral groups with membership probabilities ``pi``, and a K-by-K
matrix ``rho`` whose (m, r) entry is the probability that a group-m node
reciprocates an edge arriving from a group-r node.

``validate_params`` is the only supported way to build a checked
``ModelParams``; constructing the dataclass directly skips validation
(tests use this to probe out-of-domain behavior).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

SIMPLEX_TOL = 1e-12


class ParameterError(ValueError):
    """Base class for model parameter violations."""


class NonProbability(ParameterError):
    """alpha outside (0, 1) or a rho entry outside [0, 1]."""


class BadSimplex(ParameterError):
    """pi has a negative entry or does not sum to 1 within tolerance."""


class NonPositiveDelta(ParameterError):
    """Offset parameter delta must be strictly positive."""


class BadDimensions(ParameterError):
    """pi or rho shape inconsistent with the group count K."""


@dataclass(frozen=True)
class ModelParams:
    """Validated parameter tuple (alpha, gamma, delta, K, pi, rho).

    gamma is always derived as 1 - alpha; it is stored so downstream code
    never recomputes it inconsistently. Group indices are 0-based
    throughout the Python API.
    """

    alpha: float
    gamma: float
    delta: float
    K: int
    pi: np.ndarray
    rho: np.ndarray


@dataclass(frozen=True)
class GroupRates:
    """Per-group reciprocation rates.

    rho_row[m] is the probability that a group-m node sends a reciprocal
    edge (its row of rho mixed over pi); rho_col[m] the probability that
    it receives one. rho0 is the common pi-mixture of either.
    """

    rho_row: np.ndarray
    rho_col: np.ndarray
    rho0: float


def validate_params(alpha, delta, pi, rho, k=None) -> ModelParams:
    """Validate a raw parameter bundle and return an immutable ModelParams.

    Raises the most specific ParameterError naming the violated
    constraint, and ParameterError itself for a value that is not a finite
    number (a bool, a string, None, NaN or an infinity) or an array of
    them. ``k`` is optional; when given it is cross-checked against the
    shapes of ``pi`` and ``rho``.
    """
    alpha, delta = _finite("alpha", alpha, scalar=True), _finite("delta", delta, scalar=True)
    pi, rho = _finite("pi", pi), _finite("rho", rho)

    if not 0.0 < alpha < 1.0:
        raise NonProbability(f"alpha must lie in (0, 1), got {alpha}")
    if not delta > 0.0:
        raise NonPositiveDelta(f"delta must be > 0, got {delta}")

    if pi.ndim != 1 or pi.size == 0:
        raise BadDimensions(f"pi must be a non-empty vector, got shape {pi.shape}")
    K = int(pi.size)
    if k is not None and _finite("k", k, scalar=True) != K:
        raise BadDimensions(f"K={k} does not match len(pi)={K}")
    if rho.shape != (K, K):
        raise BadDimensions(f"rho must be {K}x{K}, got shape {rho.shape}")

    # written so that NaN fails each check
    if not np.all(pi >= 0.0):
        raise BadSimplex(f"pi has negative entries: {pi}")
    if not abs(pi.sum() - 1.0) <= SIMPLEX_TOL:
        raise BadSimplex(f"pi sums to {pi.sum()!r}, not 1 within {SIMPLEX_TOL}")
    if not np.all((rho >= 0.0) & (rho <= 1.0)):
        raise NonProbability("rho entries must lie in [0, 1]")

    pi.setflags(write=False)
    rho.setflags(write=False)
    return ModelParams(alpha=alpha, gamma=1.0 - alpha, delta=delta, K=K, pi=pi, rho=rho)


def _finite(name, value, scalar=False):
    """``value`` as a float, or as a float array unless ``scalar``; a bool,
    a string, None, a ragged array and a non-finite entry are refused."""
    try:
        a = np.asarray(value)
    except ValueError:   # a ragged array
        a = np.asarray(None)
    if a.dtype.kind not in "iuf" or (scalar and a.ndim) or not np.isfinite(a).all():
        what = "a finite number" if scalar else "an array of finite numbers"
        raise ParameterError(f"{name} must be {what}, got {value!r}")
    return float(a) if scalar else a.astype(float)   # a copy: the caller keeps theirs


def draw_groups(cum_pi: np.ndarray, u):
    """Inverse-CDF draw of a group from pi for each uniform in ``u``.

    ``cum_pi`` is ``np.cumsum(pi)``; the clamp keeps a uniform above a
    cumulative sum that ends just below 1 in the last group.
    """
    return np.minimum(np.searchsorted(cum_pi, u, side="right"), len(cum_pi) - 1)


def group_rates(params: ModelParams) -> GroupRates:
    """Reciprocation rates rho_row, rho_col and their common mixture rho0.

    The two mixtures pi.rho_row and pi.rho_col are equal analytically;
    both are computed and cross-checked to guard against indexing bugs.
    """
    rho_row = params.rho @ params.pi
    rho_col = params.rho.T @ params.pi
    rho0_row = float(params.pi @ rho_row)
    rho0_col = float(params.pi @ rho_col)
    if abs(rho0_row - rho0_col) > SIMPLEX_TOL:
        raise AssertionError(
            f"rho0 mixture mismatch: {rho0_row} vs {rho0_col}"
        )
    rho_row.setflags(write=False)
    rho_col.setflags(write=False)
    return GroupRates(rho_row=rho_row, rho_col=rho_col, rho0=rho0_row)
