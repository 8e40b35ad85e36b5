import math

import numpy as np
import pytest

from recipnet import (
    GroupSpectral,
    all_spectra,
    group_rates,
    order_groups,
    spectral,
    validate_params,
)
from recipnet.spectral import LOG2, regime_slack
from conftest import random_params


def test_reference_group_closed_form(k2_ref):
    # group 0 of the two-group reference has rho_row=0.9, rho_col=0.675
    rates = group_rates(k2_ref)
    s = spectral(k2_ref, rates, 0)
    assert abs(s.D0 - 0.6075) < 1e-12
    assert abs(s.lam - 0.88971) < 5e-6
    assert abs(s.lam_prime - 0.11029) < 5e-6
    assert abs(s.a - 1.15470) < 5e-6
    assert not s.degenerate


def test_degenerate_group_reports_eigenvalues_only():
    p = validate_params(alpha=0.3, delta=1.0, pi=[1.0], rho=[[0.0]])
    s = spectral(p, group_rates(p), 0)
    assert s.degenerate
    assert abs(s.lam - max(p.alpha, p.gamma)) < 1e-15
    assert abs(s.lam_prime - min(p.alpha, p.gamma)) < 1e-15
    assert s.u is None and s.v is None and s.a is None


def test_group_whose_eigenvector_ratio_overflows_is_degenerate():
    # a = (gamma - alpha + sqrt(D0)) / (2 gamma rho_col) = 0.8 / 1.4e-310 and
    # its right counterpart pass 1.8e308: A_m is reducible in floats
    p = validate_params(alpha=0.3, delta=1.0, pi=[1.0], rho=[[1e-310]])
    s = spectral(p, group_rates(p), 0)
    assert s.degenerate
    assert s.u is None and s.v is None and s.a is None and s.theta is None
    assert math.isfinite(s.lam) and math.isfinite(s.lam_prime)


def test_symmetric_slope_is_one():
    for rho in (0.2, 0.5, 0.9):
        p = validate_params(alpha=0.5, delta=1.0, pi=[1.0], rho=[[rho]])
        s = spectral(p, group_rates(p), 0)
        assert abs(s.a - 1.0) < 1e-14


def test_eigen_identities_random():
    rng = np.random.default_rng(7)
    for _ in range(300):
        p = random_params(rng)
        rates = group_rates(p)
        for m in range(p.K):
            s = spectral(p, rates, m)
            assert abs(s.lam + s.lam_prime - 1.0) <= 1e-12
            assert max(p.alpha, p.gamma) <= s.lam <= 1.0 + 1e-15
            assert -1e-15 <= s.lam_prime <= min(p.alpha, p.gamma) + 1e-15
            # closed form vs generic eigensolver
            eigs = np.linalg.eigvals(s.A)
            assert abs(s.lam - max(eigs.real)) <= 1e-10
            if not s.degenerate:
                assert np.all(s.u > 0) and np.all(s.v > 0)
                assert abs(s.u.sum() - 1.0) <= 1e-10
                assert abs(float(s.u @ s.v) - 1.0) <= 1e-10
                # v is the left eigenvector, u the right one
                assert np.allclose(s.v @ s.A, s.lam * s.v, atol=1e-10)
                assert np.allclose(s.A @ s.u, s.lam * s.u, atol=1e-10)
                # general slope formula agrees with the eigenvector ratio
                slope = (p.gamma - p.alpha + math.sqrt(s.D0)) / (
                    2.0 * p.gamma * rates.rho_col[m])
                assert abs(slope - s.v[1] / s.v[0]) <= 1e-10


def _fake_spec(group, lam):
    return GroupSpectral(group=group, A=np.eye(2), lam=lam, lam_prime=1 - lam,
                         D0=0.0, u=None, v=None, a=None, degenerate=True)


def test_order_groups_sorts_descending():
    order = order_groups([_fake_spec(0, 0.77), _fake_spec(1, 0.89)])
    assert list(order.order) == [1, 0]
    assert not order.non_distinct


def test_order_groups_single():
    order = order_groups([_fake_spec(0, 0.8)])
    assert list(order.order) == [0]
    assert not order.non_distinct


def test_order_groups_tie_flag():
    order = order_groups([_fake_spec(0, 0.75), _fake_spec(1, 0.75)])
    assert list(order.order) == [0, 1]  # stable
    assert order.non_distinct


def test_order_groups_ranked_and_tied_prefix():
    spectra = [_fake_spec(0, 0.7), _fake_spec(1, 0.9), _fake_spec(2, 0.7)]
    order = order_groups(spectra)
    assert [s.group for s in order.ranked] == list(order.order) == [1, 0, 2]
    assert order.non_distinct and order.tied(3)
    assert not order.tied(2)


def test_regime_slack_boundaries():
    # the gap condition is strict, the moment condition is not
    at_gap = regime_slack(0.8, 1.6)
    assert at_gap.gap == 0.0 and not at_gap.gap_ok and at_gap.moment_ok and not at_gap.ok
    at_log2 = regime_slack(LOG2, 1.0)
    assert at_log2.moment == 0.0 and at_log2.moment_ok and at_log2.ok
    assert not regime_slack(0.69, 1.0).moment_ok
    # the top rank has no predecessor, so only the moment condition applies
    assert regime_slack(LOG2).ok and not regime_slack(0.69).ok


def test_all_spectra_matches_groupwise(k2_ref):
    rates = group_rates(k2_ref)
    spectra = all_spectra(k2_ref)
    assert len(spectra) == 2
    for m, s in enumerate(spectra):
        assert s.group == m
        assert s.lam == spectral(k2_ref, rates, m).lam
