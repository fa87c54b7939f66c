"""Error decomposition, popcov accumulators, and the path-sum cross-check."""

import numpy as np
import pytest

from gossipgd import (
    StepSchedule,
    Topology,
    bruteforce_network_error,
    build_gossip_matrix,
    build_topology,
    fit_loglog_slope,
    make_problem,
    popcov_step,
    run,
    sample_agent_data,
)
from gossipgd.diagnostics import decompose
from gossipgd.engine import TrainState


def matrix(kind, n, scheme="metropolis_lazy", **kw):
    return build_gossip_matrix(build_topology(Topology(kind, n, **kw)), scheme)


def small_instance(seed, n=3, d=3, m=4, noise=0.5, sampler="coordinate"):
    prob = make_problem(d, 0.5, 1.0, noise_sigma=noise, sampler=sampler)
    data = [sample_agent_data(prob, m, v, seed) for v in range(n)]
    P = matrix("cycle", 3) if n == 3 else matrix("complete", n)
    return prob, data, P


# --------------------------------------------------------------- decompose


def test_decompose_matches_direct_formulas():
    prob = make_problem(2, 1.0, 0.5)
    tau, target = prob.tau, prob.target
    local = np.array([[0.3, -0.2], [1.1, 0.4]])
    pooled = np.array([0.6, 0.1])
    population = np.array([0.5, 0.25])
    pc_state = np.array([[0.05, 0.0], [-0.02, 0.01]])
    pc_avg = np.array([0.01, 0.002])
    state = TrainState(
        t=7,
        local=local,
        pooled=pooled,
        population=population,
        popcov_state=pc_state,
        popcov_avg=pc_avg,
    )
    rec = decompose([state], prob)[0]  # a block of one state
    assert rec.t == 7
    for v in range(2):
        assert rec.excess[v] == pytest.approx(tau @ (local[v] - target) ** 2, rel=1e-15)
        assert rec.network_err[v] == pytest.approx(tau @ (local[v] - pooled) ** 2, rel=1e-15)
        pvec = pc_state[v] - pc_avg
        assert rec.popcov_err[v] == pytest.approx(tau @ pvec**2, rel=1e-15)
        rvec = (local[v] - pooled) - pvec
        assert rec.residual_err[v] == pytest.approx(tau @ rvec**2, rel=1e-15)
    assert rec.bias_sq == pytest.approx(tau @ (population - target) ** 2, rel=1e-15)
    assert rec.sample_var == pytest.approx(tau @ (pooled - population) ** 2, rel=1e-15)
    center = local.mean(axis=0)
    worst = max(np.linalg.norm(local[v] - center) for v in range(2))
    assert rec.consensus_err == pytest.approx(worst, rel=1e-15)


def test_decompose_zero_state():
    prob = make_problem(4, 0.5, 1.0)
    state = TrainState(
        t=1,
        local=np.zeros((3, 4)),
        pooled=np.zeros(4),
        population=np.zeros(4),
        popcov_state=np.zeros((3, 4)),
        popcov_avg=np.zeros(4),
    )
    rec = decompose([state], prob)[0]  # a block of one state
    start_risk = float(prob.tau @ prob.target**2)
    assert rec.bias_sq == pytest.approx(start_risk, rel=1e-15)
    assert np.allclose(rec.excess, start_risk, rtol=1e-15)
    assert rec.sample_var == 0.0
    assert rec.consensus_err == 0.0
    assert np.all(rec.network_err == 0.0)
    assert np.all(rec.popcov_err == 0.0)
    assert np.all(rec.residual_err == 0.0)


@pytest.mark.parametrize("d", [16, 64, 512])
def test_decompose_scalars_equal_one_dot_per_row(d):
    # bias_sq and sample_var come from one batched product; each row keeps
    # the bits of np.dot(tau, row), the form it replaced
    prob = make_problem(d, 0.5, 1.0)
    rng = np.random.default_rng(d)
    states = [
        TrainState(
            t=t,
            local=rng.standard_normal((2, d)),
            pooled=rng.standard_normal(d) * rng.random(),
            population=rng.standard_normal(d) * rng.random(),
            popcov_state=np.zeros((2, d)),
            popcov_avg=np.zeros(d),
        )
        for t in range(1, 501)
    ]
    records = decompose(states, prob)
    gap_pop = np.array([s.population for s in states]) - prob.target
    gap_pool = np.array([s.pooled - s.population for s in states])
    assert np.array_equal(records.bias_sq, [np.dot(prob.tau, g * g) for g in gap_pop])
    assert np.array_equal(records.sample_var, [np.dot(prob.tau, g * g) for g in gap_pool])


def test_records_are_read_only_columns_with_rows():
    prob, data, P = small_instance(seed=1)
    records = run(prob, data, P, StepSchedule(0.05), T=20, stride=3).records
    assert records.t.tolist() == [3, 6, 9, 12, 15, 18, 20]
    assert records.excess.shape == (7, 3) and records.bias_sq.shape == (7,)
    assert len(records) == 7 and len(list(records)) == 7
    last = records[-1]
    assert type(last.t) is int and last.t == 20
    for name in ("bias_sq", "sample_var", "consensus_err"):
        assert type(getattr(last, name)) is float
        assert getattr(last, name) == getattr(records, name)[-1]
    assert np.array_equal(last.excess, records.excess[-1])
    with pytest.raises(ValueError):
        records.excess[0, 0] = 0.0
    with pytest.raises(IndexError):
        records[7]


def test_risk_bound_combination():
    prob, data, P = small_instance(seed=1)
    result = run(prob, data, P, StepSchedule(0.05), T=20)
    rec = result.records[-1]
    expect = 2.0 * rec.bias_sq + 4.0 * rec.sample_var + 4.0 * rec.network_err
    assert np.allclose(rec.risk_bound(), expect, rtol=1e-15)


# ------------------------------------------------------------ popcov steps


def test_popcov_single_step_from_zero():
    n, d = 3, 2
    rng = np.random.default_rng(0)
    noise = rng.standard_normal((n, d))
    P = matrix("cycle", 3)
    tau = np.array([1.0, 0.25])
    eta = 0.1
    u, u_avg = popcov_step(np.zeros((n, d)), np.zeros(d), noise, P.entries, tau, eta)
    assert np.allclose(u, eta * (P.entries @ noise), atol=1e-16)
    assert np.allclose(u_avg, eta * noise.mean(axis=0), atol=1e-16)
    # one more step exercises the contraction term
    noise2 = rng.standard_normal((n, d))
    u2, avg2 = popcov_step(u, u_avg, noise2, P.entries, tau, eta)
    assert np.allclose(u2, P.entries @ ((1 - eta * tau) * u + eta * noise2), atol=1e-16)
    assert np.allclose(avg2, (1 - eta * tau) * u_avg + eta * noise2.mean(axis=0), atol=1e-16)


def test_popcov_uniform_averaging_leaves_no_gap():
    n, d = 4, 3
    P = matrix("complete", n, scheme="uniform_complete")
    tau = np.array([1.0, 0.5, 0.25])
    rng = np.random.default_rng(3)
    u, u_avg = np.zeros((n, d)), np.zeros(d)
    for _ in range(5):
        u, u_avg = popcov_step(u, u_avg, rng.standard_normal((n, d)), P.entries, tau, 0.2)
        assert np.abs(u - u_avg[None, :]).max() <= 1e-15


# ---------------------------------------------------------------- path sum


def test_path_sum_base_case():
    prob, data, P = small_instance(seed=4)
    eta = [0.08]
    # one update: deviation is eta * sum_w (P_vw - 1/n) N_w with N_w the
    # gradient gap at the zero start
    xy = np.stack([d.x.T @ d.y / d.x.shape[0] for d in data])
    noise = (prob.tau * (0.0 - prob.target))[None, :] + xy
    for v in range(3):
        want = eta[0] * ((P.entries[v] - 1.0 / 3.0) @ noise)
        got = bruteforce_network_error(data, P.entries, eta, prob, t=1, v=v)
        assert np.allclose(got, want, atol=1e-15)


def test_path_sum_single_agent_is_zero():
    prob = make_problem(2, 1.0, 1.0, noise_sigma=0.4)
    data = [sample_agent_data(prob, 3, 0, seed=8)]
    P = matrix("complete", 1)
    out = bruteforce_network_error(data, P.entries, [0.1, 0.1, 0.1], prob, t=3, v=0)
    assert np.all(out == 0.0)


@pytest.mark.parametrize("seed", [11, 12, 13, 14, 15])
def test_path_sum_matches_engine(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 4))
    d = int(rng.integers(1, 5))
    m = int(rng.integers(1, 6))
    t = int(rng.integers(1, 5))
    sampler = "coordinate" if seed % 2 else "gaussian"
    prob = make_problem(d, 0.5, 1.0, noise_sigma=0.3, sampler=sampler)
    data = [sample_agent_data(prob, m, v, seed) for v in range(n)]
    P = matrix("complete", 2) if n == 2 else matrix("cycle", 3)
    sched = StepSchedule(float(rng.uniform(0.02, 0.3)) / prob.kappa_sq, theta=0.25)
    etas = [sched.at(k) for k in range(1, t + 1)]

    final = run(prob, data, P, sched, T=t + 1, stride=t + 1).final
    for v in range(n):
        dev = final.local[v] - final.pooled
        bf = bruteforce_network_error(data, P.entries, etas, prob, t, v)
        assert np.linalg.norm(bf - dev) <= 1e-12 * (1.0 + np.linalg.norm(dev))

        # the population-operator variant reproduces the popcov accumulator
        bf_pop = bruteforce_network_error(data, P.entries, etas, prob, t, v, operator="population")
        pvec = final.popcov_state[v] - final.popcov_avg
        assert np.linalg.norm(bf_pop - pvec) <= 1e-12 * (1.0 + np.linalg.norm(pvec))
        rvec = dev - pvec
        assert np.linalg.norm((bf - bf_pop) - rvec) <= 1e-12 * (1.0 + np.linalg.norm(rvec))


def test_path_sum_guards():
    prob, data, P = small_instance(seed=2)
    etas = [0.1] * 6
    with pytest.raises(ValueError):
        bruteforce_network_error(data, P.entries, etas, prob, t=6, v=0)
    with pytest.raises(ValueError):
        bruteforce_network_error(data, P.entries, [0.1], prob, t=2, v=0)
    with pytest.raises(ValueError):
        bruteforce_network_error(data, P.entries, etas, prob, t=2, v=5)
    with pytest.raises(ValueError):
        bruteforce_network_error(data, P.entries, etas, prob, t=2, v=0, operator="legendre")
    big = [data[0]] * 4
    with pytest.raises(ValueError):
        bruteforce_network_error(big, np.eye(4), etas, prob, t=2, v=0)


# ------------------------------------------------------------- slope fits


def test_fit_loglog_exact_lines():
    xs = np.array([1.0, 2.0, 4.0, 8.0, 16.0])
    slope, intercept, r_sq = fit_loglog_slope(xs, xs)
    assert slope == pytest.approx(1.0, abs=1e-14)
    assert intercept == pytest.approx(0.0, abs=1e-14)
    assert r_sq == pytest.approx(1.0, abs=1e-14)

    slope, intercept, r_sq = fit_loglog_slope(xs, 3.0 * xs**-0.8)
    assert slope == pytest.approx(-0.8, abs=1e-12)
    assert intercept == pytest.approx(np.log(3.0), abs=1e-12)
    assert r_sq == pytest.approx(1.0, abs=1e-12)


def test_fit_loglog_rejects():
    with pytest.raises(ValueError):
        fit_loglog_slope([1.0, 2.0], [1.0, 2.0])
    with pytest.raises(ValueError):
        fit_loglog_slope([1.0, 2.0, 3.0], [1.0, -2.0, 3.0])
    with pytest.raises(ValueError):
        fit_loglog_slope([1.0, 2.0, 3.0], [1.0, 2.0])
