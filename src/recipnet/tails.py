"""Heavy-tail diagnostics for joint in/out-degree data.

Implements the empirical side of the tail predictions: Hill estimation of
regular-variation indices, the L1 angular transform
theta = out/(in + out), distances to a predicted ray, and the two-stage
peel that first reads off the dominant ray (index c*/lambda_(1), slope
a(1)) from the largest radii and then, using the scaled distance
d'(x, y) = |y - a(1) x|, detects the hidden second regime (index
c*/lambda_(2), slope a(2)) among points far from the first ray. Later
rays are peeled while both regime conditions hold. The ranking of the
groups and the conditions come from ``spectral.order_groups`` and
``spectral.regime_slack``.

Everything here is deterministic given the dataset: medians, quantiles
and Hill ratios involve no randomness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .equilibrium import EquilibriumSolution
from .spectral import GroupSpectral, order_groups, regime_slack


HILL_SWEEP_POINTS = 256     # sweep grid: every k up to this many, then this many geometric


class InsufficientData(ValueError):
    """Fewer values than the requested number of order statistics."""


class NonPositiveValues(ValueError):
    """Fewer than k+1 strictly positive values after dropping zeros."""


class DegenerateTail(ValueError):
    """Top order statistics are all equal; no tail variation to measure."""


class EmptySelection(ValueError):
    """No data point exceeds the requested threshold."""


class ConditionsUnmet(ValueError):
    """Structural hypotheses of the second-regime analysis fail."""


class GridMismatch(ValueError):
    """Pmf grids have different shapes."""


@dataclass(frozen=True)
class DegreeDataset:
    """Joint degree sample: x = in-degrees, y = out-degrees."""

    x: np.ndarray
    y: np.ndarray
    groups: np.ndarray | None = None

    def __post_init__(self):
        if len(self.x) != len(self.y) or len(self.x) == 0:
            raise ValueError("x and y must be equal-length, non-empty")
        if self.groups is not None and len(self.groups) != len(self.x):
            raise ValueError("groups length mismatch")

    @property
    def n(self) -> int:
        return len(self.x)

    @classmethod
    def from_graph_state(cls, state) -> "DegreeDataset":
        ind, outd, grp = state.degrees()
        return cls(x=ind.astype(float), y=outd.astype(float), groups=grp)


@dataclass(frozen=True)
class HillReport:
    k: int
    index_estimate: float
    se: float
    k_sweep: np.ndarray | None = None


def hill_estimator(values, k: int, sweep: bool = False) -> HillReport:
    """Hill estimate of the tail index from the top k order statistics.

    With descending order statistics X_(1) >= ... >= X_(k+1), the inverse
    index is mean(log X_(i) - log X_(k+1), i <= k) and the estimate its
    reciprocal. Zeros are dropped before ranking; the reported standard
    error is the asymptotic index/sqrt(k).

    ``sweep`` also returns ``k_sweep``, rows (k, estimate at k) for the k
    of ``hill_sweep_ks``: every k up to HILL_SWEEP_POINTS, that many
    geometric points up to the positive count minus one, and ``k`` itself.
    A Hill plot is read on a log-k axis, so the grid resolves what one row
    per k would.
    """
    values = np.asarray(values, dtype=float)
    if k < 1 or k + 1 > values.size:
        raise InsufficientData(f"need k >= 1 and k+1 <= n, got k={k}, n={values.size}")
    pos = values[values > 0.0]
    if pos.size < k + 1:
        raise NonPositiveValues(
            f"need at least k+1={k + 1} positive values, have {pos.size}")
    top = np.sort(pos, kind="stable")[::-1]
    # ratio form: exactly scale-invariant under power-of-two rescaling
    inv = float(np.mean(np.log(top[:k] / top[k])))
    if inv == 0.0:
        raise DegenerateTail("top order statistics are identical")
    est = 1.0 / inv

    k_sweep = None
    if sweep:
        # running Hill estimate at the grid's k, for stability plots
        logs = np.log(top)
        ks = hill_sweep_ks(pos.size - 1, k)
        inv_ks = np.cumsum(logs[:-1])[ks - 1] / ks - logs[ks]
        with np.errstate(divide="ignore"):
            est_ks = np.where(inv_ks > 0.0, 1.0 / inv_ks, np.inf)
        k_sweep = np.stack([ks, est_ks], axis=1)
    return HillReport(k=k, index_estimate=est, se=est / math.sqrt(k), k_sweep=k_sweep)


def hill_sweep_ks(k_max: int, k: int) -> np.ndarray:
    """The sweep's k grid, increasing: 1..min(HILL_SWEEP_POINTS, k_max), then
    HILL_SWEEP_POINTS geometric points from 1 to ``k_max`` rounded, and ``k``."""
    geometric = np.rint(np.geomspace(1, k_max, HILL_SWEEP_POINTS)).astype(np.int64)
    return np.unique(np.concatenate(
        [np.arange(1, min(HILL_SWEEP_POINTS, k_max) + 1), geometric, [k]]))


def angular_transform(dataset: DegreeDataset, radius_threshold: float) -> np.ndarray:
    """theta = y/(x+y) for pairs with x + y above the threshold (0 drops only the origin)."""
    if radius_threshold < 0.0:
        raise ValueError("radius threshold must be nonnegative")
    rad = dataset.x + dataset.y
    keep = rad > radius_threshold
    if not keep.any():
        raise EmptySelection(f"no pair has x+y > {radius_threshold}")
    return dataset.y[keep] / rad[keep]


def ray_distance(pairs, a: float):
    """Scaled L1 distance |y - a*x| to the ray y = a*x.

    Accepts one (x, y) pair or an (N, 2) array; absolutely homogeneous in
    the pair.
    """
    if a <= 0.0:
        raise ValueError("ray slope must be positive")
    arr = np.asarray(pairs, dtype=float)
    if arr.ndim == 1:
        return float(abs(arr[1] - a * arr[0]))
    return np.abs(arr[:, 1] - a * arr[:, 0])


@dataclass(frozen=True)
class PeelOptions:
    radius_quantile: float = 0.999
    distance_quantile: float = 0.999


@dataclass(frozen=True)
class RayEstimate:
    """One detected regime: Hill index + angular location vs predictions."""

    rank: int                  # 1 = dominant ray
    group: int                 # 0-based group index the ray belongs to
    index_estimate: float
    index_predicted: float
    theta_median: float
    theta_predicted: float
    n_selected: int


@dataclass(frozen=True)
class HrvReport:
    a1_used: float
    removal_rule: str
    predicted: tuple           # (c*/lam_(1), a(1), c*/lam_(2), a(2))
    n_removed: int
    n_peeled: int
    degraded: tuple = ()
    rays: tuple = ()           # RayEstimate per detected regime

    # the first two rays' Hill indices and median angles
    first_index = property(lambda self: self.rays[0].index_estimate)
    second_index = property(lambda self: self.rays[1].index_estimate)
    first_ray_estimate = property(lambda self: self.rays[0].theta_median)
    second_ray_estimate = property(lambda self: self.rays[1].theta_median)


def hrv_peel(dataset: DegreeDataset, spectra: list[GroupSpectral],
             sol: EquilibriumSolution, options: PeelOptions = PeelOptions(),
             radius_threshold: float | None = None) -> HrvReport:
    """Two-stage (or iterated) ray detection.

    Stage 1 reads the dominant regime from radius exceedances; stage j>=2
    ranks points by distance to the already-identified rays and reads the
    next regime from the distance exceedances. ``radius_threshold`` is the
    ``options.radius_quantile`` of the radii x + y when the caller has
    already taken it; None takes it here. Raises ConditionsUnmet
    when fewer than two non-degenerate, distinct-eigenvalue groups exist.
    The second regime is always attempted, and a failed regime condition
    at rank 2 only degrades the report; ray j >= 3 is peeled while both
    conditions hold at every rank from 2 to j.
    """
    order = order_groups(spectra)
    ranked = order.ranked
    n_usable = sum(not s.degenerate for s in ranked)
    if n_usable < 2:
        raise ConditionsUnmet(
            f"need >= 2 non-degenerate groups for a second regime, have {n_usable}")
    if order.tied(n_usable):
        raise ConditionsUnmet("eigenvalues are not distinct; rays are not separated")

    lam1, lam2 = ranked[0].lam, ranked[1].lam
    slack = regime_slack(lam2, lam1)
    degraded = []
    if not slack.gap_ok:
        degraded.append("gap: lam_(2) <= lam_(1)/2")
    if not slack.moment_ok:
        degraded.append("moment: lam_(2) < log 2")

    c_star = sol.c_star
    x, y = dataset.x, dataset.y
    rad = x + y

    def read_ray(j, score, threshold, name):
        """Ray j+1 from the pairs whose ``score`` exceeds ``threshold``."""
        sel = score > threshold
        if not sel.any():
            raise EmptySelection(f"{name} quantile leaves no exceedances")
        k = int(sel.sum())
        hill = hill_estimator(score, k=min(k, int((score > 0).sum()) - 1))
        return RayEstimate(
            rank=j + 1, group=int(ranked[j].group),
            index_estimate=hill.index_estimate,
            index_predicted=c_star / ranked[j].lam,
            theta_median=float(np.median(y[sel] / rad[sel])),
            theta_predicted=ranked[j].theta,
            n_selected=k,
        )

    # stage 1: dominant regime from radius exceedances
    if radius_threshold is None:
        radius_threshold = float(np.quantile(rad, options.radius_quantile))
    rays = [read_ray(0, rad, radius_threshold, "radius")]

    # stages 2..: distance to the union of identified rays; one more ray
    # per leading rank where both conditions hold, and the second always
    n_rays = 1
    while n_rays < n_usable and regime_slack(ranked[n_rays].lam, ranked[n_rays - 1].lam).ok:
        n_rays += 1
    n_rays = max(n_rays, 2)
    a1 = ranked[0].a
    dist = ray_distance(np.stack([x, y], axis=1), a1)
    for j in range(1, n_rays):
        if not np.any(dist > 0.0):
            raise DegenerateTail("every pair lies on the identified ray(s)")
        rays.append(read_ray(j, dist, float(np.quantile(dist, options.distance_quantile)),
                             "distance"))
        if j + 1 < n_rays:
            dist = np.minimum(dist, ray_distance(np.stack([x, y], axis=1), ranked[j].a))

    return HrvReport(
        a1_used=a1,
        removal_rule=(f"rank pairs by d'(x,y)=|y-a(1)x|; keep the upper "
                      f"{1.0 - options.distance_quantile:.4%} as the hidden regime"),
        predicted=(c_star / lam1, a1, c_star / lam2, ranked[1].a),
        n_removed=dataset.n - rays[1].n_selected,
        n_peeled=rays[1].n_selected,
        degraded=tuple(degraded),
        rays=tuple(rays),
    )


@dataclass(frozen=True)
class TailReport:
    hill_in: HillReport | None
    hill_out: HillReport | None
    angular_bins: np.ndarray
    angular_counts: np.ndarray
    radius_threshold: float
    hrv: HrvReport | None
    hrv_skip_reason: str | None
    predicted_first_index: float
    predicted_rays: tuple      # (group, lam, a, theta) per non-degenerate group
    marginal_skip: dict = field(default_factory=dict)


def default_hill_k(n: int) -> int:
    """Conventional bias/variance compromise: k = floor(sqrt(n)).

    ``n`` is the dataset size (zeros included); callers cap the result to
    the number of positive values minus one where zeros are dropped.
    """
    return max(1, int(math.isqrt(n)))


def tail_report(dataset: DegreeDataset, sol: EquilibriumSolution,
                spectra: list[GroupSpectral],
                options: PeelOptions = PeelOptions(),
                bins: int = 50, hill_k: int | None = None) -> TailReport:
    """Marginal Hill estimates, angular histogram and the ray peel.

    Zero degrees are excluded from the marginal Hill inputs but kept for
    the angular histogram (theta = 0 or 1 are genuine axis points).
    ``hill_k`` fixes the number of order statistics; None uses
    ``default_hill_k``. Either is capped at the positive count minus one.
    """
    ranked = order_groups(spectra).ranked

    reports = {}
    skips = {}
    for name, vals in (("in", dataset.x), ("out", dataset.y)):
        pos = int((vals > 0).sum())
        k = default_hill_k(dataset.n) if hill_k is None else hill_k
        k = min(k, max(pos - 1, 1))
        try:
            reports[name] = hill_estimator(vals, k=k, sweep=True)
        except (InsufficientData, NonPositiveValues, DegenerateTail) as exc:
            reports[name] = None
            skips[name] = str(exc)

    rad = dataset.x + dataset.y
    r_thr = float(np.quantile(rad, options.radius_quantile))
    theta = angular_transform(dataset, r_thr)
    counts, edges = np.histogram(theta, bins=bins, range=(0.0, 1.0))

    hrv = None
    skip_reason = None
    try:
        hrv = hrv_peel(dataset, spectra, sol, options, radius_threshold=r_thr)
    except (ConditionsUnmet, EmptySelection, DegenerateTail, InsufficientData) as exc:
        skip_reason = str(exc)

    predicted_rays = tuple(
        (int(s.group), s.lam, s.a, s.theta)
        for s in ranked if not s.degenerate
    )
    return TailReport(
        hill_in=reports["in"], hill_out=reports["out"],
        angular_bins=edges, angular_counts=counts,
        radius_threshold=r_thr,
        hrv=hrv, hrv_skip_reason=skip_reason,
        predicted_first_index=sol.c_star / ranked[0].lam,
        predicted_rays=predicted_rays,
        marginal_skip=skips,
    )


def _as_grid(p):
    if hasattr(p, "grid"):
        return np.asarray(p.grid, dtype=float), float(p.overflow_mass)
    grid, overflow = p
    return np.asarray(grid, dtype=float), float(overflow)


def compare_pmf(p, q) -> float:
    """Total variation distance between two gridded pmfs.

    Accepts JointPmfEstimate-like objects (``.grid`` / ``.overflow_mass``)
    or plain (grid, overflow) pairs. Grids must share a shape; the
    overflow masses are compared as a single extra cell.
    """
    gp, op = _as_grid(p)
    gq, oq = _as_grid(q)
    if gp.shape != gq.shape:
        raise GridMismatch(f"grid shapes differ: {gp.shape} vs {gq.shape}")
    return float(0.5 * np.abs(gp - gq).sum() + 0.5 * abs(op - oq))
