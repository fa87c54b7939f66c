"""Stopping rules, mixing cutoffs, rate terms and the speed-up model."""

import math

import numpy as np
import pytest

from gossipgd import RuntimeModel, mixing_cutoff, rate_terms, speedup, tune_plan

CYCLE16_SIGMA2 = 0.9619397662556434  # (1 + cos(pi/8)) / 2

# independent evaluation of the displayed terms at
# n=8, m=100, r=1, gamma=1/2, eta=0.05, t=400, sigma2=0.6
RATE_ORACLE = dict(
    t_star=30,
    bias=0.0025,
    sample_variance=0.00905974579597119,
    network=0.6126363100161375,
    higher_order=120.06815574637665,
)


# -------------------------------------------------------------- tune_plan


def test_single_machine_example_exact():
    plan = tune_plan(1, 1024, 1.0, 0.5, 0.0, kappa_sq=1.0)
    assert plan.t_stop == 17
    assert plan.eta == pytest.approx(16.0 / 17.0, abs=1e-12)
    assert plan.regime == "big_data_concentration"
    assert plan.t_star == 6  # ceil(2 ln 17)
    assert all(plan.preconditions.values())

    scaled = tune_plan(1, 1024, 1.0, 0.5, 0.0, kappa_sq=4.0)
    assert scaled.t_stop == 17
    assert scaled.eta == pytest.approx(4.0 / 17.0, abs=1e-12)


def test_complete_graph_boundary_case():
    # m = n^(2r/gamma) exactly: the concentration factor saturates at 1 and
    # (nm)^0.4 = 16 needs the float-dust snap before the floor
    plan = tune_plan(4, 256, 1.0, 0.5, 0.0, kappa_sq=1.0)
    assert plan.t_stop == 17
    assert plan.regime == "concentration_limited"  # below the big-data bar 4^9


def test_consensus_limited_frozen_case():
    plan = tune_plan(16, 4, 1.0, 1.0, CYCLE16_SIGMA2, kappa_sq=1.0)
    assert plan.regime == "consensus_limited"
    assert plan.t_stop == 211
    assert plan.eta * plan.t_stop == pytest.approx(64.0 ** (1.0 / 3.0), rel=1e-12)


def test_regime_progression_in_m():
    # n=8, r=1, gamma=1/2: concentration bar at 8^4 = 4096, big-data bar at 8^9
    labels = {
        100: ("consensus_limited", 211),
        10**4: ("concentration_limited", 641),
        10**9: ("big_data_concentration", 9147),
    }
    for m, (regime, t_stop) in labels.items():
        plan = tune_plan(8, m, 1.0, 0.5, 0.9, kappa_sq=1.0)
        assert plan.regime == regime
        assert plan.t_stop == t_stop


def test_t_stop_approaches_single_machine_count():
    # once the factor saturates, t_stop is the smallest integer above (nm)^(1/(2r+gamma))
    plan = tune_plan(4, 10**6, 1.0, 0.5, 0.5, kappa_sq=1.0)
    single = (4 * 10**6) ** 0.4
    assert plan.regime == "big_data_concentration"
    assert 1.0 < plan.t_stop / single <= 1.01


@pytest.mark.parametrize("n", [1, 4, 16])
@pytest.mark.parametrize("m", [3, 64, 4096])
@pytest.mark.parametrize("r,gamma", [(0.5, 0.5), (1.0, 0.5), (2.0, 1.0)])
@pytest.mark.parametrize("sigma2", [0.0, 0.5, 0.96])
def test_step_times_stop_invariant(n, m, r, gamma, sigma2):
    kappa_sq = 7.3
    plan = tune_plan(n, m, r, gamma, sigma2, kappa_sq)
    single = float(n * m) ** (1.0 / (2.0 * r + gamma))
    assert plan.eta * plan.t_stop * kappa_sq == pytest.approx(single, rel=1e-12)
    assert plan.t_stop >= 1
    assert plan.regime in (
        "big_data_concentration",
        "concentration_limited",
        "consensus_limited",
    )
    assert set(plan.preconditions) == {
        "m >= n^((2r+2+gamma)/(2r+gamma-2))",
        "n >= 2(1+r) log(n/(1-sigma2))",
        "2r+gamma > 2",
        "t_stop/2 >= t_star",
    }


def test_out_of_scope_smoothness_flagged():
    # 2r + gamma = 2 leaves the fast-rate scope; the flag must say so
    plan = tune_plan(4, 10, 0.5, 1.0, 0.3, kappa_sq=1.0)
    assert plan.preconditions["2r+gamma > 2"] is False
    assert plan.t_stop >= 1


def test_thresholds_past_the_float_range_are_infinite():
    # gamma = 0.01, r = 1: n^((2r+2+gamma)/(2r+gamma-2)) = 8^401 and, at n = 64,
    # n^(2r/gamma) = 64^200 overflow a float; no m reaches either threshold
    plan = tune_plan(8, 100, 1.0, 0.01, 0.5, kappa_sq=8.0)
    assert plan.preconditions["m >= n^((2r+2+gamma)/(2r+gamma-2))"] is False
    assert plan.regime == "consensus_limited"
    assert tune_plan(64, 100, 1.0, 0.01, 0.5, kappa_sq=8.0).regime == "consensus_limited"
    # below the float range the threshold still counts: 4^401 is a float
    assert tune_plan(4, 10**6, 1.0, 0.01, 0.5, kappa_sq=8.0).t_stop >= 1


@pytest.mark.parametrize(
    "args",
    [
        (0, 10, 1.0, 0.5, 0.0, 1.0),
        (2, 0, 1.0, 0.5, 0.0, 1.0),
        (2, 10, 0.4, 0.5, 0.0, 1.0),
        (2, 10, 1.0, 0.0, 0.0, 1.0),
        (2, 10, 1.0, 1.5, 0.0, 1.0),
        (2, 10, 1.0, 0.5, 1.0, 1.0),
        (2, 10, 1.0, 0.5, 0.0, 0.0),
    ],
)
def test_tune_plan_rejects(args):
    with pytest.raises(ValueError):
        tune_plan(*args)


# --------------------------------------------------------- mixing_cutoff


def test_mixing_cutoff_examples():
    assert mixing_cutoff(1.0, 100, 0.5) == 19
    assert mixing_cutoff(1.0, math.e**2, 0.0) == 4
    assert mixing_cutoff(0.5, 2, 0.0) == 2


def test_mixing_cutoff_monotone():
    ts = [2, 5, 20, 100, 500]
    vals = [mixing_cutoff(1.0, t, 0.3) for t in ts]
    assert vals == sorted(vals)
    sigmas = [0.0, 0.3, 0.6, 0.9]
    vals = [mixing_cutoff(1.0, 50, s) for s in sigmas]
    assert vals == sorted(vals)
    assert mixing_cutoff(2.0, 50, 0.3) >= mixing_cutoff(0.5, 50, 0.3)


def test_mixing_cutoff_rejects():
    with pytest.raises(ValueError):
        mixing_cutoff(1.0, 1, 0.5)
    with pytest.raises(ValueError):
        mixing_cutoff(0.4, 10, 0.5)
    with pytest.raises(ValueError):
        mixing_cutoff(1.0, 10, 1.0)


# ------------------------------------------------------------- rate_terms


def test_rate_terms_frozen_oracle():
    terms = rate_terms(8, 100, 1.0, 0.5, eta=0.05, t=400, sigma2=0.6)
    assert terms.t_star == RATE_ORACLE["t_star"]
    assert terms.bias == pytest.approx(RATE_ORACLE["bias"], rel=1e-12)
    assert terms.sample_variance == pytest.approx(RATE_ORACLE["sample_variance"], rel=1e-12)
    assert terms.network == pytest.approx(RATE_ORACLE["network"], rel=1e-12)
    assert terms.higher_order == pytest.approx(RATE_ORACLE["higher_order"], rel=1e-12)
    assert terms.total == pytest.approx(sum(v for k, v in RATE_ORACLE.items() if k != "t_star"))


def test_bias_at_matched_horizon():
    # eta t = (nm)^(1/(2r+gamma)) makes the bias term the statistical rate
    n, m, r, gamma, t = 4, 1000, 1.0, 0.5, 100
    nm = float(n * m)
    eta = nm ** (1.0 / 2.5) / t
    terms = rate_terms(n, m, r, gamma, eta, t, sigma2=0.4)
    assert terms.bias == pytest.approx(nm ** (-0.8), rel=1e-12)
    assert terms.sample_variance == pytest.approx(nm ** (-0.8), rel=1e-12)


def test_network_term_halves_when_m_doubles():
    # pick a point where the dominant branch carries no extra 1/m
    kw = dict(r=1.0, gamma=1.0, eta=1.0, t=100, sigma2=0.9)
    one = rate_terms(4, 64, **kw)
    two = rate_terms(4, 128, **kw)
    assert two.network == pytest.approx(one.network / 2.0, rel=1e-12)
    assert two.t_star == one.t_star


def test_single_agent_has_no_network_term():
    terms = rate_terms(1, 100, 1.0, 0.5, eta=0.1, t=50, sigma2=0.0)
    assert terms.network == 0.0
    assert terms.higher_order == 0.0


def test_network_line_crosses_past_regime_boundary():
    # n=3, gamma=1, r=1: tuning switches regimes at m = n^(2r/gamma) = 9,
    # while the log-laden network line only dips below bias + variance much
    # deeper into the big-data side; before the boundary it never does
    n, r, gamma, sigma2 = 3, 1.0, 1.0, 0.5
    boundary = float(n) ** (2.0 * r / gamma)
    cross = None
    ratios = []
    for k in range(2, 31):
        m = 2**k
        plan = tune_plan(n, m, r, gamma, sigma2, kappa_sq=1.0)
        terms = rate_terms(n, m, r, gamma, plan.eta, plan.t_stop, sigma2)
        ratio = terms.network / (terms.bias + terms.sample_variance)
        ratios.append(ratio)
        if m < boundary:
            assert ratio > 1.0
        if ratio < 1.0 and cross is None:
            cross = m
    assert cross == 2**26
    assert cross > boundary
    tail = ratios[-8:]
    assert all(b < a for a, b in zip(tail, tail[1:]))


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(eta=0.0, t=10, sigma2=0.0),
        dict(eta=0.1, t=1, sigma2=0.0),
        dict(eta=0.1, t=10, sigma2=0.0, theta=0.75),
        dict(eta=0.1, t=10, sigma2=0.0, alpha=0.6),
        dict(eta=0.1, t=10, sigma2=0.0, gamma_prime=0.3),
    ],
)
def test_rate_terms_rejects(kwargs):
    with pytest.raises(ValueError):
        rate_terms(4, 100, 1.0, 0.5, **kwargs)


# ---------------------------------------------------------------- speedup


def test_speedup_values():
    assert speedup(50, 50, 8, 100, 0.0, 0) == pytest.approx(8.0, abs=1e-12)
    # communication as expensive as the gradients: half the ideal gain
    assert speedup(50, 50, 8, 100, 96.0, 4) == pytest.approx(4.0, abs=1e-12)
    assert speedup(100, 250, 16, 512, 32.0, 4) == pytest.approx(5.979562043795621, rel=1e-12)


def test_speedup_monotone_in_delay():
    vals = [speedup(50, 60, 8, 100, tau, 2) for tau in (0.0, 10.0, 100.0)]
    assert vals == sorted(vals, reverse=True)
    with pytest.raises(ValueError):
        speedup(0, 50, 8, 100, 0.0, 0)
    with pytest.raises(ValueError):
        speedup(50, 50, 8, 100, -1.0, 0)


def test_runtime_model():
    model = RuntimeModel.per_link_transmit(3.0, 4)
    assert model.tau_delay == 12.0
    assert model.deg == 4
    assert model.iteration_time(100) == pytest.approx(116.0, abs=1e-15)
    slow = RuntimeModel(tau_delay=12.0, deg=4, grad_cost=2.0)
    assert slow.iteration_time(100) == pytest.approx(216.0, abs=1e-15)
    with pytest.raises(ValueError):
        RuntimeModel(tau_delay=-1.0, deg=0)
