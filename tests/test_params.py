import numpy as np
import pytest

from recipnet import (
    BadDimensions,
    BadSimplex,
    NonPositiveDelta,
    NonProbability,
    ParameterError,
    group_rates,
    validate_params,
)
from conftest import random_params


def test_wellformed_k1():
    p = validate_params(alpha=0.5, delta=1.0, pi=[1.0], rho=[[0.5]])
    assert p.gamma == 0.5
    assert p.K == 1
    assert p.alpha + p.gamma == 1.0


def test_gamma_always_derived():
    p = validate_params(alpha=0.3, delta=0.5, pi=[0.2, 0.8], rho=np.zeros((2, 2)))
    assert p.gamma == 0.7


@pytest.mark.parametrize("alpha", [1.2, -0.1, 0.0, 1.0])
def test_alpha_out_of_domain(alpha):
    with pytest.raises(NonProbability):
        validate_params(alpha=alpha, delta=1.0, pi=[1.0], rho=[[0.5]])


def test_rho_out_of_domain():
    with pytest.raises(NonProbability):
        validate_params(alpha=0.5, delta=1.0, pi=[1.0], rho=[[1.5]])
    with pytest.raises(NonProbability):
        validate_params(alpha=0.5, delta=1.0, pi=[1.0], rho=[[-0.01]])


def test_bad_simplex():
    with pytest.raises(BadSimplex):
        validate_params(alpha=0.5, delta=1.0, pi=[0.6, 0.5], rho=np.zeros((2, 2)))
    with pytest.raises(BadSimplex):
        validate_params(alpha=0.5, delta=1.0, pi=[-0.2, 1.2], rho=np.zeros((2, 2)))


@pytest.mark.parametrize("delta", [0.0, -1.0])
def test_nonpositive_delta(delta):
    with pytest.raises(NonPositiveDelta):
        validate_params(alpha=0.5, delta=delta, pi=[1.0], rho=[[0.5]])


def test_bad_dimensions():
    with pytest.raises(BadDimensions):
        validate_params(alpha=0.5, delta=1.0, pi=[0.5, 0.5], rho=np.zeros((3, 2)))
    with pytest.raises(BadDimensions):
        validate_params(alpha=0.5, delta=1.0, pi=[0.5, 0.5], rho=np.zeros((2, 2)), k=3)
    with pytest.raises(BadDimensions):
        validate_params(alpha=0.5, delta=1.0, pi=[[0.5, 0.5]], rho=np.zeros((2, 2)))


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("key, value", [
    ("alpha", "0.5"), ("alpha", [0.5]), ("alpha", True), ("alpha", NAN),
    ("delta", None), ("delta", INF), ("delta", NAN),
    ("pi", [NAN]), ("pi", [[0.5], [0.5, 0.5]]), ("pi", [True]), ("pi", ["1.0"]),
    ("rho", [[NAN]]), ("rho", [[-INF]]), ("rho", [["a"]]), ("rho", [[None]]),
    ("k", "x"), ("k", True),
])
def test_non_numbers_and_non_finite_values_name_their_key(key, value):
    # the type check comes before every range check, and is not a subclass's
    model = dict(alpha=0.5, delta=1.0, pi=[1.0], rho=[[0.5]])
    model[key] = value
    with pytest.raises(ParameterError, match=f"^{key} must be") as info:
        validate_params(**model)
    assert type(info.value) is ParameterError


def test_params_arrays_are_readonly():
    pi, rho = np.array([0.5, 0.5]), np.full((2, 2), 0.5)
    p = validate_params(alpha=0.5, delta=1.0, pi=pi, rho=rho, k=2.0)
    with pytest.raises(ValueError):
        p.pi[0] = 0.9
    with pytest.raises(ValueError):
        p.rho[0, 0] = 0.9
    pi[0], rho[0, 0] = 0.9, 0.9     # copies: the caller's arrays stay theirs
    assert p.pi[0] == 0.5 and p.rho[0, 0] == 0.5 and p.K == 2


def test_group_rates_hand_example():
    # rho_row = rho @ pi and rho_col = rho^T @ pi, evaluated by hand
    p = validate_params(alpha=0.5, delta=1.0, pi=[0.5, 0.5],
                        rho=[[0.8, 0.2], [0.4, 0.6]])
    r = group_rates(p)
    assert np.allclose(r.rho_row, [0.5, 0.5], atol=1e-15)
    assert np.allclose(r.rho_col, [0.6, 0.4], atol=1e-15)
    assert abs(r.rho0 - 0.5) < 1e-15


def test_group_rates_zero_and_single():
    p0 = validate_params(alpha=0.5, delta=1.0, pi=[0.5, 0.5], rho=np.zeros((2, 2)))
    r0 = group_rates(p0)
    assert np.all(r0.rho_row == 0) and np.all(r0.rho_col == 0) and r0.rho0 == 0

    p1 = validate_params(alpha=0.5, delta=1.0, pi=[1.0], rho=[[0.5]])
    r1 = group_rates(p1)
    assert r1.rho_row[0] == 0.5 and r1.rho_col[0] == 0.5 and r1.rho0 == 0.5


def test_simplex_tolerance_accepts_near_one():
    # cumulative rounding within 1e-12 must not be rejected
    pi = np.array([1.0 / 3.0] * 3)
    p = validate_params(alpha=0.5, delta=1.0, pi=pi, rho=np.zeros((3, 3)))
    assert p.K == 3


def test_rho0_mixture_identity_random():
    rng = np.random.default_rng(42)
    for _ in range(300):
        p = random_params(rng)
        r = group_rates(p)
        assert abs(float(p.pi @ r.rho_row) - float(p.pi @ r.rho_col)) <= 1e-12
        assert np.all(r.rho_row >= 0) and np.all(r.rho_row <= 1)
        assert np.all(r.rho_col >= 0) and np.all(r.rho_col <= 1)
