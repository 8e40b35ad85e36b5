"""Per-group branching matrices, eigenstructure and ray slopes.

Each group m carries a 2x2 nonnegative mean matrix

    A_m = [[alpha,            alpha * rho_row[m]],
           [gamma * rho_col[m],            gamma]]

whose dominant eigenvalue lambda_m governs the exponential growth rate of
the group's in/out-degree pair and whose positive left eigenvector v(m)
gives the direction the pair aligns with. The ray slope
a(m) = v2(m)/v1(m) predicts out-degree ~ a(m) * in-degree for extreme
group-m nodes.

Conventions: v(m) is the left eigenvector (v^T A = lambda v^T) and u(m)
the right one (A u = lambda u), normalized so u.1 = 1 then u.v = 1.
``order_groups`` is the one ranking of the groups by lambda and
``regime_slack`` the one statement of the regime conditions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .params import GroupRates, ModelParams, group_rates

TIE_TOL = 1e-9
LOG2 = math.log(2.0)


@dataclass(frozen=True)
class GroupSpectral:
    """Spectral summary of one group's branching matrix.

    For degenerate groups (rho_row[m] == 0 or rho_col[m] == 0 so A_m is
    reducible, or so nearly reducible that the eigenvector ratios or their
    product overflow) only the eigenvalues are reported: u, v and the slope
    a are None and ``degenerate`` is True. Such groups simulate fine but are
    excluded from ray and hidden-regular-variation predictions.
    """

    group: int
    A: np.ndarray
    lam: float
    lam_prime: float
    D0: float
    u: np.ndarray | None
    v: np.ndarray | None
    a: float | None
    degenerate: bool

    @property
    def theta(self) -> float | None:
        """Angle a/(1 + a) of the ray on the L1 sphere, theta = out/(in + out)."""
        return None if self.a is None else self.a / (1.0 + self.a)


@dataclass(frozen=True)
class GroupOrder:
    """Groups by descending lambda: ``order[j]`` is the 0-based index of the
    group ranked j+1 and ``ranked[j]`` its spectrum. Degenerate groups rank
    last: their lambda, max(alpha, gamma), is below every non-degenerate one.
    """

    order: np.ndarray
    ranked: tuple

    def tied(self, top: int | None = None) -> bool:
        """Whether two of the ``top`` largest lambdas (all if None) lie within TIE_TOL."""
        lams = [s.lam for s in self.ranked[:top]]
        return any(a - b < TIE_TOL for a, b in zip(lams, lams[1:]))

    non_distinct = property(tied)    # ray separation assumes strict ordering


@dataclass(frozen=True)
class RegimeSlack:
    """Slack of the gap condition, which holds when ``gap`` > 0, and of the
    moment condition, which holds when ``moment`` >= 0, at one rank."""

    gap: float
    moment: float

    gap_ok = property(lambda self: self.gap > 0.0)
    moment_ok = property(lambda self: self.moment >= 0.0)
    ok = property(lambda self: self.gap_ok and self.moment_ok)


def regime_slack(lam: float, lam_prev: float = 0.0) -> RegimeSlack:
    """Slack of lambda ranked right after lam_prev: the gap condition is
    lam > lam_prev/2 and the moment condition lam >= log 2. The top rank has
    no predecessor; its default lam_prev = 0 voids its gap condition."""
    return RegimeSlack(gap=lam - lam_prev / 2.0, moment=lam - LOG2)


def spectral(params: ModelParams, rates: GroupRates, m: int) -> GroupSpectral:
    """Closed-form eigenstructure of A_m for group m (0-based)."""
    alpha, gamma = params.alpha, params.gamma
    rr = float(rates.rho_row[m])
    rc = float(rates.rho_col[m])

    A = np.array([[alpha, alpha * rr], [gamma * rc, gamma]])
    A.setflags(write=False)
    D0 = (alpha - gamma) ** 2 + 4.0 * alpha * gamma * rr * rc
    root = math.sqrt(D0)
    lam = 0.5 * (1.0 + root)
    lam_prime = 0.5 * (1.0 - root)

    a = w = math.inf
    if rr > 0.0 and rc > 0.0 and alpha > 0.0 and gamma > 0.0:
        # Left eigenvector ratio: a = (lam - alpha) / (gamma * rc), the
        # general-slope form (gamma - alpha + sqrt(D0)) / (2 gamma rc).
        a = (gamma - alpha + root) / (2.0 * gamma * rc)
        # Right eigenvector ratio, written with the conjugate to stay positive
        # for any alpha: w = (gamma - alpha + sqrt(D0)) / (2 alpha rr).
        w = (gamma - alpha + root) / (2.0 * alpha * rr)
    if not math.isfinite(a * w):
        # A_m reducible, or numerically so: eigenvectors are not strictly positive
        return GroupSpectral(
            group=m, A=A, lam=lam, lam_prime=lam_prime, D0=D0,
            u=None, v=None, a=None, degenerate=True,
        )
    u = np.array([1.0, w])
    u = u / u.sum()                      # u . 1 = 1
    v = np.array([1.0, a])
    v = v / float(u @ v)                 # u . v = 1
    u.setflags(write=False)
    v.setflags(write=False)
    return GroupSpectral(
        group=m, A=A, lam=lam, lam_prime=lam_prime, D0=D0,
        u=u, v=v, a=a, degenerate=False,
    )


def all_spectra(params: ModelParams, rates: GroupRates | None = None) -> list[GroupSpectral]:
    if rates is None:
        rates = group_rates(params)
    return [spectral(params, rates, m) for m in range(params.K)]


def order_groups(spectra: list[GroupSpectral]) -> GroupOrder:
    """Rank groups by descending lambda.

    The sort is stable, so tied groups keep their original relative order.
    """
    order = np.argsort([-s.lam for s in spectra], kind="stable")
    order.setflags(write=False)
    return GroupOrder(order=order, ranked=tuple(spectra[i] for i in order))
