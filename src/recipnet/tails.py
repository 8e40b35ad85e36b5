"""Heavy-tail diagnostics for joint in/out-degree data.

Implements the empirical side of the tail predictions: Hill estimation of
regular-variation indices, the L1 angular transform
theta = out/(in + out), distances to a predicted ray, and the two-stage
peel that first reads off the dominant ray (index c*/lambda_(1), slope
a(1)) from the largest radii and then, using the scaled distance
d'(x, y) = |y - a(1) x|, detects the hidden second regime (index
c*/lambda_(2), slope a(2)) among points far from the first ray.

Everything here is deterministic given the dataset: medians, quantiles
and Hill ratios involve no randomness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .equilibrium import LOG2, EquilibriumSolution
from .params import ModelParams
from .spectral import TIE_TOL, GroupSpectral, order_groups


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
        # running Hill estimate for every usable k, for stability plots
        logs = np.log(top)
        partial = np.cumsum(logs[:-1]) / np.arange(1, pos.size)
        inv_all = partial - logs[1:]
        with np.errstate(divide="ignore"):
            est_all = np.where(inv_all > 0.0, 1.0 / inv_all, np.inf)
        k_sweep = np.stack([np.arange(1, pos.size), est_all], axis=1)
    return HillReport(k=k, index_estimate=est, se=est / math.sqrt(k), k_sweep=k_sweep)


def angular_transform(dataset: DegreeDataset, radius_threshold: float) -> np.ndarray:
    """theta = y/(x+y) for pairs with x + y above the threshold."""
    if radius_threshold <= 0.0:
        raise ValueError("radius threshold must be positive")
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
    max_rays: int | None = None     # None: as many as the per-ray conditions allow


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


def _eligible_rays(spectra_sorted: list[GroupSpectral], max_rays: int | None):
    """Rays 2.. are admitted while lam_m > lam_{m-1}/2 and lam_m >= log 2."""
    count = 1
    for prev, cur in zip(spectra_sorted, spectra_sorted[1:]):
        if cur.degenerate or not (cur.lam > prev.lam / 2.0 and cur.lam >= LOG2):
            break
        count += 1
    if max_rays is not None:
        count = min(count, max_rays)
    return count


def hrv_peel(dataset: DegreeDataset, spectra: list[GroupSpectral],
             sol: EquilibriumSolution, options: PeelOptions = PeelOptions()) -> HrvReport:
    """Two-stage (or iterated) ray detection.

    Stage 1 reads the dominant regime from radius exceedances; stage j>=2
    ranks points by distance to the already-identified rays and reads the
    next regime from the distance exceedances. Raises ConditionsUnmet
    when fewer than two non-degenerate, distinct-eigenvalue groups exist;
    failed statistical hypotheses (the per-ray growth conditions) only
    degrade the report.
    """
    order = order_groups(spectra)
    spectra_sorted = [spectra[i] for i in order.order]
    usable = [s for s in spectra_sorted if not s.degenerate]
    if len(usable) < 2:
        raise ConditionsUnmet(
            f"need >= 2 non-degenerate groups for a second regime, have {len(usable)}")
    usable_lams = [s.lam for s in usable]
    if min(abs(a - b) for a, b in zip(usable_lams, usable_lams[1:])) < TIE_TOL:
        raise ConditionsUnmet("eigenvalues are not distinct; rays are not separated")

    degraded = []
    lam1, lam2 = spectra_sorted[0].lam, spectra_sorted[1].lam
    if not (lam2 > lam1 / 2.0):
        degraded.append("gap: lam_(2) <= lam_(1)/2")
    if not (lam2 >= LOG2):
        degraded.append("moment: lam_(2) < log 2")

    c_star = sol.c_star
    x, y = dataset.x, dataset.y
    rad = x + y

    # stage 1: dominant regime from radius exceedances
    r_thr = float(np.quantile(rad, options.radius_quantile))
    sel1 = rad > r_thr
    if not sel1.any():
        raise EmptySelection("radius quantile leaves no exceedances")
    k1 = int(sel1.sum())
    first_hill = hill_estimator(rad, k=min(k1, int((rad > 0).sum()) - 1))
    theta1 = float(np.median(y[sel1] / rad[sel1]))
    a1 = spectra_sorted[0].a

    rays = [RayEstimate(
        rank=1, group=int(spectra_sorted[0].group),
        index_estimate=first_hill.index_estimate,
        index_predicted=c_star / lam1,
        theta_median=theta1,
        theta_predicted=spectra_sorted[0].theta,
        n_selected=k1,
    )]

    # stages 2..: distance to the union of identified rays
    n_rays = _eligible_rays(spectra_sorted, options.max_rays)
    n_rays = max(n_rays, 2)            # always attempt the second regime
    n_rays = min(n_rays, len(usable))
    dist = ray_distance(np.stack([x, y], axis=1), a1)
    n_removed = 0
    n_peeled = 0
    for j in range(1, n_rays):
        spec_j = spectra_sorted[j]
        if not np.any(dist > 0.0):
            raise DegenerateTail("every pair lies on the identified ray(s)")
        d_thr = float(np.quantile(dist, options.distance_quantile))
        selj = dist > d_thr
        if not selj.any():
            raise EmptySelection("distance quantile leaves no exceedances")
        kj = int(selj.sum())
        hill_j = hill_estimator(dist, k=min(kj, int((dist > 0).sum()) - 1))
        theta_j = float(np.median(y[selj] / rad[selj]))
        rays.append(RayEstimate(
            rank=j + 1, group=int(spec_j.group),
            index_estimate=hill_j.index_estimate,
            index_predicted=c_star / spec_j.lam,
            theta_median=theta_j,
            theta_predicted=spec_j.theta,
            n_selected=kj,
        ))
        if j == 1:
            n_removed = int((~selj).sum())
            n_peeled = kj
        if j + 1 < n_rays:
            dist = np.minimum(dist, ray_distance(np.stack([x, y], axis=1), spec_j.a))

    return HrvReport(
        a1_used=a1,
        removal_rule=(f"rank pairs by d'(x,y)=|y-a(1)x|; keep the upper "
                      f"{1.0 - options.distance_quantile:.4%} as the hidden regime"),
        predicted=(c_star / lam1, a1, c_star / lam2, spectra_sorted[1].a),
        n_removed=n_removed,
        n_peeled=n_peeled,
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


def tail_report(dataset: DegreeDataset, params: ModelParams,
                sol: EquilibriumSolution, spectra: list[GroupSpectral],
                options: PeelOptions = PeelOptions(),
                bins: int = 50, hill_k: int | None = None) -> TailReport:
    """Marginal Hill estimates, angular histogram and the ray peel.

    Zero degrees are excluded from the marginal Hill inputs but kept for
    the angular histogram (theta = 0 or 1 are genuine axis points).
    ``hill_k`` fixes the number of order statistics; None uses
    ``default_hill_k``. Either is capped at the positive count minus one.
    """
    order = order_groups(spectra)
    spectra_sorted = [spectra[i] for i in order.order]
    lam1 = spectra_sorted[0].lam

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
        hrv = hrv_peel(dataset, spectra, sol, options)
    except (ConditionsUnmet, EmptySelection, DegenerateTail, InsufficientData) as exc:
        skip_reason = str(exc)

    predicted_rays = tuple(
        (int(s.group), s.lam, s.a, s.theta)
        for s in spectra_sorted if not s.degenerate
    )
    return TailReport(
        hill_in=reports["in"], hill_out=reports["out"],
        angular_bins=edges, angular_counts=counts,
        radius_threshold=r_thr,
        hrv=hrv, hrv_skip_reason=skip_reason,
        predicted_first_index=sol.c_star / lam1,
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
