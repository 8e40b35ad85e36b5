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

A dataset is its table of distinct (in, out) pairs with their counts
(``pair_table``): a snapshot of 5e5 nodes has a few hundred. Each
statistic reads the rows with their weights, and gives what it gives on
the per-node sample, bit for bit: quantiles and medians are numpy's rules
read from the cumulative counts, and the Hill sums add the same terms in
the same order.

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
PAIR_KEY_SPAN = 4           # pair_table bincounts keys spanning up to this many per row
SWEEP_CHUNK = 1 << 14       # sample entries per chunk of the Hill sweep's running sums
ANGULAR_BINS = 50           # equal bins of tail_report's angular histogram on [0, 1]


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


def pair_table(x, y, weights=None):
    """The distinct (x, y) pairs of two equal-length arrays, in increasing
    (x, y) order, and the total weight of each: ``(x, y, weight)``. Each row
    weighs its entry of the int64 ``weights``, or 1 when it is None.

    Unweighted non-negative integer arrays whose key ``x*(max y + 1) + y``
    spans at most PAIR_KEY_SPAN times their length are tallied by one
    ``np.bincount``; other input (weights, floats, negative values, wide key
    ranges) by a sort. So the tables of two samples, joined with their
    weights, give the table of the joined samples.
    """
    x, y = np.asarray(x), np.asarray(y)
    if len(x) != len(y) or len(x) == 0 or weights is not None and len(weights) != len(x):
        raise ValueError("x, y and weights must be equal-length, non-empty")
    if (weights is None
            and all(a.dtype.kind in "iu" and np.can_cast(a.dtype, np.int64) for a in (x, y))
            and x.min() >= 0 and y.min() >= 0):
        width = int(y.max()) + 1
        span = (int(x.max()) + 1) * width
        if span <= PAIR_KEY_SPAN * len(x):
            key = x.astype(np.int64)
            key *= width
            key += y
            counts = np.bincount(key, minlength=span)
            key = np.flatnonzero(counts)
            return key // width, key % width, counts[key]
    order = np.lexsort((y, x))
    x, y = x[order], y[order]
    first = np.flatnonzero(np.concatenate([[True], (x[1:] != x[:-1]) | (y[1:] != y[:-1])]))
    weight = (np.diff(first, append=len(x)) if weights is None
              else np.add.reduceat(np.asarray(weights, dtype=np.int64)[order], first))
    return x[first], y[first], weight


@dataclass(frozen=True)
class DegreeDataset:
    """Joint degree sample as its pair table: the distinct pairs of x =
    in-degrees and y = out-degrees (as floats), ``weight``, the number of
    nodes with each pair, and ``n``, the number of nodes.

    ``weight`` (default 1 per row) counts the nodes of each given row, so a
    pair table built elsewhere, such as one folded block by block, gives
    itself. Every statistic below reads the rows with their weights and
    equals the same statistic on the sample with each pair repeated
    ``weight`` times.
    """

    x: np.ndarray
    y: np.ndarray
    weight: np.ndarray | None = None
    n: int = field(init=False)

    def __post_init__(self):
        x, y, weight = pair_table(self.x, self.y, self.weight)
        for name, value in (("x", x.astype(float)), ("y", y.astype(float)),
                            ("weight", weight), ("n", int(weight.sum()))):
            object.__setattr__(self, name, value)

    def to_pmf(self, kmax: int, lmax: int):
        """The pmf on the grid {0..kmax} x {0..lmax}, weight / n per pair,
        and the mass outside it."""
        inside = (self.x <= kmax) & (self.y <= lmax)
        grid = np.zeros((kmax + 1, lmax + 1))
        grid[self.x[inside].astype(int), self.y[inside].astype(int)] = self.weight[inside] / self.n
        return grid, float(self.weight[~inside].sum()) / self.n


def degree_histogram(state) -> DegreeDataset:
    """The joint (in, out) degree counts N_{k,l} of a graph state's nodes."""
    ind, outd, _ = state.degrees()
    return DegreeDataset(x=ind, y=outd)


def _order_stats(values, weights, ranks):
    """The order statistics of 0-based ``ranks`` (ascending) of the sample
    that holds each of ``values`` as many times as its weight."""
    order = np.argsort(values, kind="stable")
    return values[order][np.searchsorted(np.cumsum(weights[order]), ranks, side="right")]


def weighted_quantile(values, weights, q: float) -> float:
    """``np.quantile(sample, q)`` of that sample: numpy's default linear rule."""
    n = int(weights.sum())
    h = (n - 1) * q
    lo = min(math.floor(h), n - 1)
    a, b = _order_stats(values, weights, [lo, min(lo + 1, n - 1)])
    t = h - lo
    # numpy's _lerp, which interpolates from the nearer end
    return float(b - (b - a) * (1 - t) if t >= 0.5 else a + (b - a) * t)


def weighted_median(values, weights) -> float:
    """``np.median(sample)`` of that sample: the middle order statistic, or
    the mean of the middle two."""
    n = int(weights.sum())
    if n % 2:
        return float(_order_stats(values, weights, [n // 2])[0])
    a, b = _order_stats(values, weights, [n // 2 - 1, n // 2])
    return float((a + b) / 2)


@dataclass(frozen=True)
class HillReport:
    k: int
    index_estimate: float
    se: float
    k_sweep: np.ndarray | None = None


def hill_estimator(values, k: int, sweep: bool = False, weights=None) -> HillReport:
    """Hill estimate of the tail index from the top k order statistics.

    With descending order statistics X_(1) >= ... >= X_(k+1), the inverse
    index is mean(log X_(i) - log X_(k+1), i <= k) and the estimate its
    reciprocal. Zeros are dropped before ranking; the reported standard
    error is the asymptotic index/sqrt(k). ``weights`` (default 1 each)
    counts how often each value occurs in the sample, as in a pair table.

    ``sweep`` also returns ``k_sweep``, rows (k, estimate at k) for the k
    of ``hill_sweep_ks``: every k up to HILL_SWEEP_POINTS, that many
    geometric points up to the positive count minus one, and ``k`` itself.
    A Hill plot is read on a log-k axis, so the grid resolves what one row
    per k would.
    """
    values = np.asarray(values, dtype=float)
    weights = np.ones(values.size, dtype=np.int64) if weights is None else np.asarray(weights)
    n = int(weights.sum())
    if k < 1 or k + 1 > n:
        raise InsufficientData(f"need k >= 1 and k+1 <= n, got k={k}, n={n}")
    pos = values > 0.0
    n_pos = int(weights[pos].sum())
    if n_pos < k + 1:
        raise NonPositiveValues(
            f"need at least k+1={k + 1} positive values, have {n_pos}")
    order = np.argsort(values[pos], kind="stable")[::-1]
    desc, counts = values[pos][order], weights[pos][order]
    # X_(1..k+1): each value repeated by its weight, the last one cut at k+1
    cum = np.concatenate([[0], np.cumsum(counts)])
    top = np.repeat(desc, np.diff(np.minimum(cum, k + 1)))
    # ratio form: exactly scale-invariant under power-of-two rescaling
    inv = float(np.mean(np.log(top[:k] / top[k])))
    if inv == 0.0:
        raise DegenerateTail("top order statistics are identical")
    est = 1.0 / inv

    k_sweep = None
    if sweep:
        # running Hill estimate at the grid's k, for stability plots
        logs = np.log(desc)
        ks = hill_sweep_ks(n_pos - 1, k)
        # logs[r] is the log of the sorted sample's entries cum[r] to cum[r+1] - 1
        inv_ks = _running_sums(logs, cum, ks) / ks - logs[np.searchsorted(cum, ks, "right") - 1]
        with np.errstate(divide="ignore"):
            est_ks = np.where(inv_ks > 0.0, 1.0 / inv_ks, np.inf)
        k_sweep = np.stack([ks, est_ks], axis=1)
    return HillReport(k=k, index_estimate=est, se=est / math.sqrt(k), k_sweep=k_sweep)


def _running_sums(logs, cum, ks) -> np.ndarray:
    """The sum of the first k entries of the sample that repeats ``logs[r]``
    from entry ``cum[r]`` to ``cum[r+1] - 1``, for each k of the increasing
    ``ks``: ``np.cumsum`` of that sample at k - 1, to the bit.

    The sample is expanded SWEEP_CHUNK entries at a time, and each chunk's
    ``np.cumsum`` starts from the last sum of the chunk before. numpy
    accumulates one entry at a time, so every sum is the whole sample's.
    """
    sums = np.empty(len(ks))
    end = int(ks[-1])
    for lo in range(0, end, SWEEP_CHUNK):
        hi = min(lo + SWEEP_CHUNK, end)
        # the rows that hold entries lo to hi - 1
        r0, r1 = np.searchsorted(cum, lo, "right") - 1, np.searchsorted(cum, hi)
        run = np.repeat(logs[r0:r1], np.diff(np.clip(cum[r0:r1 + 1], lo, hi)))
        if lo:
            run[0] += last      # the seed: the one addition np.cumsum makes at entry lo
        np.cumsum(run, out=run)
        i0, i1 = np.searchsorted(ks, [lo, hi], "right")
        sums[i0:i1] = run[ks[i0:i1] - 1 - lo]
        last = run[-1]
    return sums


def hill_sweep_ks(k_max: int, k: int) -> np.ndarray:
    """The sweep's k grid, increasing: 1..min(HILL_SWEEP_POINTS, k_max), then
    HILL_SWEEP_POINTS geometric points from 1 to ``k_max`` rounded, and ``k``."""
    geometric = np.rint(np.geomspace(1, k_max, HILL_SWEEP_POINTS)).astype(np.int64)
    ks = np.sort(np.concatenate([np.arange(1, min(HILL_SWEEP_POINTS, k_max) + 1), geometric, [k]]))
    # not np.unique, whose first call imports numpy.ma (about 20 ms)
    return ks[np.diff(ks, prepend=0) > 0]


def angular_transform(dataset: DegreeDataset, radius_threshold: float) -> np.ndarray:
    """theta = y/(x+y) of every node whose pair has x + y above the threshold
    (0 drops only the origin), in increasing order."""
    if radius_threshold < 0.0:
        raise ValueError("radius threshold must be nonnegative")
    rad = dataset.x + dataset.y
    keep = rad > radius_threshold
    if not keep.any():
        raise EmptySelection(f"no pair has x+y > {radius_threshold}")
    theta = dataset.y[keep] / rad[keep]
    order = np.argsort(theta, kind="stable")
    return np.repeat(theta[order], dataset.weight[keep][order])


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
    x, y, w = dataset.x, dataset.y, dataset.weight
    rad = x + y

    def read_ray(j, score, threshold, name):
        """Ray j+1 from the nodes whose ``score`` exceeds ``threshold``."""
        sel = score > threshold
        if not sel.any():
            raise EmptySelection(f"{name} quantile leaves no exceedances")
        k = int(w[sel].sum())
        hill = hill_estimator(score, k=min(k, int(w[score > 0].sum()) - 1), weights=w)
        return RayEstimate(
            rank=j + 1, group=int(ranked[j].group),
            index_estimate=hill.index_estimate,
            index_predicted=c_star / ranked[j].lam,
            theta_median=weighted_median(y[sel] / rad[sel], w[sel]),
            theta_predicted=ranked[j].theta,
            n_selected=k,
        )

    # stage 1: dominant regime from radius exceedances
    if radius_threshold is None:
        radius_threshold = weighted_quantile(rad, w, options.radius_quantile)
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
        rays.append(read_ray(j, dist, weighted_quantile(dist, w, options.distance_quantile),
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
                hill_k: int | None = None) -> TailReport:
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
        pos = int(dataset.weight[vals > 0].sum())
        k = default_hill_k(dataset.n) if hill_k is None else hill_k
        k = min(k, max(pos - 1, 1))
        try:
            reports[name] = hill_estimator(vals, k=k, sweep=True, weights=dataset.weight)
        except (InsufficientData, NonPositiveValues, DegenerateTail) as exc:
            reports[name] = None
            skips[name] = str(exc)

    r_thr = weighted_quantile(dataset.x + dataset.y, dataset.weight, options.radius_quantile)
    counts, edges = np.histogram(angular_transform(dataset, r_thr), bins=ANGULAR_BINS,
                                 range=(0.0, 1.0))

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
