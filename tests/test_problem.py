"""Spectral regression problems, samplers, and the closed-form risk oracle."""

import dataclasses
import math
import warnings

import numpy as np
import pytest

from gossipgd import (
    effective_dimension,
    excess_risk,
    make_problem,
    moment_certificate,
    sample_agent_data,
)

# sum 1/(1 + 0.1 i) for i = 1..16, evaluated with exact rationals
EFFDIM_D16_G1_LAM01 = 9.254514622467914

# (R^2/d) sum tau_i^2 for d=4, gamma=1/2, r=1, R=1 (tau = 1, 1/16, 1/81, 1/256)
EXCESS_AT_ZERO_D4 = 0.26968798225308643


def test_spectrum_d4_gamma_half():
    prob = make_problem(4, 0.5, 1.0)
    assert np.allclose(prob.tau, [1.0, 1.0 / 4.0, 1.0 / 9.0, 1.0 / 16.0], rtol=1e-15)
    # r=1 target: (R/2) sqrt(tau) = 1/(2i)
    assert np.allclose(prob.target, [1 / 2, 1 / 4, 1 / 6, 1 / 8], rtol=1e-15)


def test_single_coordinate_problem():
    prob = make_problem(1, 0.7, 1.0, R=2.0)
    assert prob.tau.tolist() == [1.0]
    assert prob.target.tolist() == [2.0]
    assert prob.kappa_sq == 1.0


@pytest.mark.parametrize("d", [1, 3, 16, 200])
@pytest.mark.parametrize("gamma,r", [(1.0, 0.5), (0.5, 1.0), (0.25, 2.0)])
def test_smoothness_budget_saturated(d, gamma, r):
    prob = make_problem(d, gamma, r, R=1.7)
    budget = float(np.sum(prob.tau ** (1.0 - 2.0 * r) * prob.target**2))
    assert budget == pytest.approx(1.7**2, rel=1e-12)
    assert prob.kappa_sq == float(d)


def test_excess_risk_values():
    prob = make_problem(1, 1.0, 1.0, R=2.0)
    assert excess_risk(prob, prob.target) == 0.0
    assert excess_risk(prob, np.array([1.0])) == pytest.approx(1.0, abs=1e-15)

    prob4 = make_problem(4, 0.5, 1.0)
    assert excess_risk(prob4, np.zeros(4)) == pytest.approx(EXCESS_AT_ZERO_D4, rel=1e-14)
    with pytest.raises(ValueError):
        excess_risk(prob4, np.zeros(5))


def test_effective_dimension_values():
    prob = make_problem(16, 1.0, 0.5)
    assert effective_dimension(prob, 0.1) == pytest.approx(EFFDIM_D16_G1_LAM01, rel=1e-13)

    prob1 = make_problem(1, 1.0, 0.5)
    assert effective_dimension(prob1, 1.0) == pytest.approx(0.5, abs=1e-15)

    # large-lambda dominance and monotone decay
    assert effective_dimension(prob, 1e6) < prob.d * 1e-6
    lams = np.geomspace(1e-4, 1e2, 30)
    vals = [effective_dimension(prob, lam) for lam in lams]
    assert np.all(np.diff(vals) < 0.0)
    with pytest.raises(ValueError):
        effective_dimension(prob, 0.0)


def test_capacity_constant_bounds_effective_dimension():
    prob = make_problem(256, 0.5, 1.0)
    c = prob.capacity_constant
    lams = np.geomspace(prob.tau[-1], prob.tau[0], 401)
    vals = np.array([effective_dimension(prob, lam) * lam**prob.gamma for lam in lams])
    # the fit uses a coarser grid, so allow a sliver above c on refinement
    assert vals.max() <= c * 1.001
    assert vals.max() >= c * 0.999
    assert math.isfinite(c) and c > 1.0


def test_moment_certificate_values():
    # signal-dominated: B = R * tau_1^r = R
    prob = make_problem(16, 0.5, 1.0, R=2.0)
    cert = moment_certificate(prob)
    assert cert.M == pytest.approx(16.0, abs=1e-12)
    assert cert.nu == 2.0

    # noise-dominated: M = 8 sigma^2
    noisy = make_problem(16, 0.5, 1.0, R=1.0, noise_sigma=2.0)
    assert moment_certificate(noisy).M == pytest.approx(32.0, abs=1e-12)

    gauss = make_problem(16, 0.5, 1.0, sampler="gaussian")
    with pytest.raises(ValueError):
        moment_certificate(gauss)


# ---------------------------------------------------------------- samplers


def test_coordinate_sampler_structure():
    for d in (1, 4, 5, 16, 512):
        prob = make_problem(d, 0.5, 1.0)
        data = sample_agent_data(prob, 50, agent_id=0, seed=11)
        assert data.x.shape == (50, d)
        nonzero = np.count_nonzero(data.x, axis=1)
        assert np.all(nonzero == 1)
        # each hit is sqrt(d tau_j) on its coordinate, and y is exact
        magnitudes = np.sqrt(d * prob.tau)
        picks = data.x.argmax(axis=1)
        assert np.all(data.x[np.arange(50), picks] == magnitudes[picks])
        assert np.array_equal(data.y, data.x @ prob.target)
        # the draw is kept as (picks, vals): the one nonzero of each row of x
        assert np.array_equal(data.picks, picks)
        assert np.array_equal(data.vals, data.x[np.arange(50), picks])
        assert data.d == d and data.agent_id == 0


def test_coordinate_sampler_law():
    prob = make_problem(4, 0.5, 1.0)
    m = 100000
    data = sample_agent_data(prob, m, agent_id=0, seed=2024)
    cov = data.x.T @ data.x / m
    off_diag = cov - np.diag(np.diag(cov))
    assert np.all(off_diag == 0.0)  # single-coordinate rows, exactly diagonal
    assert np.abs(np.diag(cov) - prob.tau).max() <= 3.0 / math.sqrt(m)


def test_gaussian_sampler_law():
    prob = make_problem(6, 1.0, 1.0, noise_sigma=0.7, sampler="gaussian")
    m = 100000
    data = sample_agent_data(prob, m, agent_id=1, seed=55)
    cov = data.x.T @ data.x / m
    assert np.abs(cov - np.diag(prob.tau)).max() <= 4.0 / math.sqrt(m)
    resid = data.y - data.x @ prob.target
    assert resid.std() == pytest.approx(0.7, rel=0.05)


def test_noise_enters_only_when_positive():
    clean = make_problem(3, 1.0, 1.0)
    data = sample_agent_data(clean, 20, agent_id=0, seed=3)
    assert np.array_equal(data.y, data.x @ clean.target)

    noisy = make_problem(3, 1.0, 1.0, noise_sigma=0.5)
    data_n = sample_agent_data(noisy, 20, agent_id=0, seed=3)
    assert not np.array_equal(data_n.y, data_n.x @ noisy.target)
    # the x draw is unchanged by adding response noise
    assert np.array_equal(data.x, data_n.x)


def test_sampler_determinism():
    prob = make_problem(5, 0.5, 1.0, noise_sigma=0.2)
    a = sample_agent_data(prob, 40, agent_id=3, seed=7)
    b = sample_agent_data(prob, 40, agent_id=3, seed=7)
    assert a.x.tobytes() == b.x.tobytes()
    assert a.y.tobytes() == b.y.tobytes()
    other = sample_agent_data(prob, 40, agent_id=4, seed=7)
    assert not np.array_equal(a.x, other.x)


def test_sampled_arrays_are_frozen():
    prob = make_problem(3, 1.0, 1.0)
    data = sample_agent_data(prob, 5, agent_id=0, seed=1)
    with pytest.raises(ValueError):
        data.x[0, 0] = 9.0
    for kept in (data.picks, data.vals, data.y):
        with pytest.raises(ValueError):
            kept[0] = 1
    with pytest.raises(dataclasses.FrozenInstanceError):
        data.d = 4
    with pytest.raises(ValueError):
        prob.tau[0] = 2.0


# -------------------------------------------------------------- validation


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(d=0, gamma=1.0, r=1.0),
        dict(d=4, gamma=0.0, r=1.0),
        dict(d=4, gamma=1.5, r=1.0),
        dict(d=4, gamma=1.0, r=0.4),
        dict(d=4, gamma=1.0, r=1.0, R=0.0),
        dict(d=4, gamma=1.0, r=1.0, noise_sigma=-0.1),
        dict(d=4, gamma=1.0, r=1.0, sampler="cauchy"),
        dict(d=4, gamma=1.0, r=1.0, R=float("inf")),
        dict(d=4, gamma=1.0, r=float("inf")),
    ],
)
def test_make_problem_rejects(kwargs):
    with pytest.raises(ValueError):
        make_problem(**kwargs)


@pytest.mark.parametrize(
    "kwargs",
    [
        pytest.param(dict(d=4, gamma=1e-5, r=1.0), id="gamma-1e-5"),
        pytest.param(dict(d=16, gamma=0.5, r=100.0), id="r-100"),
        pytest.param(dict(d=4, gamma=0.5, r=1.0, R=1e300), id="R-1e300"),
    ],
)
def test_budget_out_of_float_range_is_a_value_error(kwargs):
    # a check that holds under python -O too, and without NumPy's warnings
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="leave the float range"):
            make_problem(**kwargs)


def test_sample_rejects_empty():
    prob = make_problem(3, 1.0, 1.0)
    with pytest.raises(ValueError):
        sample_agent_data(prob, 0, agent_id=0, seed=1)
