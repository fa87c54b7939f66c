"""Lockstep iteration of the distributed, pooled and population processes."""

import copy
import dataclasses
import inspect
import math
import tracemalloc
import warnings

import numpy as np
import pytest

import gossipgd
from gossipgd import (
    AgentData,
    CoordinateData,
    DivergenceError,
    StepSchedule,
    Topology,
    build_gossip_matrix,
    build_topology,
    make_problem,
    run,
    sample_agent_data,
)
from gossipgd import diagnostics, engine
from gossipgd.diagnostics import decompose, popcov_step
from gossipgd.engine import AgentStats, population_step
from test_diagnostics import stack


def matrix(kind, n, scheme="metropolis_lazy", **kw):
    return build_gossip_matrix(build_topology(Topology(kind, n, **kw)), scheme)


def hand_data(x_rows, y_vals, agent_id=0):
    x = np.array(x_rows, dtype=float)
    y = np.array(y_vals, dtype=float)
    return AgentData(x=x, y=y, agent_id=agent_id)


# --------------------------------------------------------------- gradients


@pytest.mark.parametrize("sampler,m", [("coordinate", 8), ("gaussian", 8), ("gaussian", 2)])
def test_agent_stats_match_direct_computation(sampler, m):
    # m = 8 >= d exercises the dense path, m = 2 < d the streaming path,
    # coordinate data the diagonal path; all must agree with x^T(xw - y)/m
    n, d = 3, 5
    prob = make_problem(d, 0.5, 1.0, noise_sigma=0.4, sampler=sampler)
    datasets = [sample_agent_data(prob, m, v, seed=31) for v in range(n)]
    stats = AgentStats.from_data(datasets, n)
    # an iterator of the same agents, consumed once, gives the same bits
    streamed = AgentStats.from_data(iter(datasets), n)
    for f in dataclasses.fields(AgentStats):
        got, want = getattr(streamed, f.name), getattr(stats, f.name)
        assert (got is None) == (want is None), f.name
        assert want is None or np.array_equal(got, want), f.name
    w = np.linspace(-1.0, 1.0, d)
    W = np.outer([1.0, -0.5, 2.0], w)

    # a point shared by all agents, and its pooled (agent-averaged) gradient
    direct = np.stack([(a.x.T @ (a.x @ w - a.y)) / m for a in datasets])
    assert np.allclose(stats.gradients(w), direct, atol=1e-13)
    pooled_x = np.concatenate([a.x for a in datasets])
    pooled_y = np.concatenate([a.y for a in datasets])
    pooled = pooled_x.T @ (pooled_x @ w - pooled_y) / (n * m)
    assert np.allclose(stats.gradients(w).mean(axis=0), pooled, atol=1e-13)
    # one point per agent
    direct_rows = np.stack([(a.x.T @ (a.x @ Wv - a.y)) / m for a, Wv in zip(datasets, W)])
    assert np.allclose(stats.gradients(W), direct_rows, atol=1e-13)
    # a shared point goes through the same formula as its per-agent copies
    assert np.array_equal(stats.gradients(w), stats.gradients(np.broadcast_to(w, (n, d))))


def test_agent_stats_mode_selection():
    coord = make_problem(4, 0.5, 1.0)
    gauss = make_problem(4, 0.5, 1.0, sampler="gaussian")
    assert AgentStats.from_data([sample_agent_data(coord, 6, 0, 1)], 1).mode == "diag"
    assert AgentStats.from_data([sample_agent_data(gauss, 6, 0, 1)], 1).mode == "dense"
    assert AgentStats.from_data([sample_agent_data(gauss, 2, 0, 1)], 1).mode == "stream"


def stacked_moments(datasets):
    """The (n, m, d) reductions that the diag statistics reproduce bit for bit."""
    xs = np.stack([a.x for a in datasets])
    ys = np.stack([a.y for a in datasets])
    m = xs.shape[1]
    return np.einsum("nmd,nm->nd", xs, ys) / m, (xs * xs).sum(axis=1) / m


def bits(a):
    # a uint64 view, so that the sign of a zero counts
    return np.ascontiguousarray(a).view(np.uint64)


def assert_dense_carries_diag_bits(coords):
    """The dense statistics of the same rows as AgentData carry the diag bits."""
    diag = AgentStats.from_data(coords, len(coords))
    dense = [AgentData(x=a.x, y=a.y, agent_id=a.agent_id) for a in coords]
    dense = AgentStats.from_data(dense, len(dense))
    assert diag.mode == "diag" and dense.mode == "dense"
    assert np.array_equal(bits(dense.xy), bits(diag.xy))
    assert np.array_equal(bits(np.diagonal(dense.cov, axis1=1, axis2=2)), bits(diag.cov_diag))


@pytest.mark.parametrize("d", [1, 5, 16, 512])
@pytest.mark.parametrize("noise_sigma", [0.0, 0.5])
def test_diag_stats_equal_stacked_reductions(d, noise_sigma):
    prob = make_problem(d, 0.5, 1.0, noise_sigma=noise_sigma)
    datasets = [sample_agent_data(prob, 1000, v, seed=7) for v in range(3)]
    stats = AgentStats.from_data(datasets, 3)
    if d > 1:
        xy, cov_diag = stacked_moments(datasets)
    else:  # one column per agent, each summed in row order
        xy = np.array([[np.cumsum(a.x[:, 0] * a.y)[-1]] for a in datasets]) / 1000
        cov_diag = np.array([[np.cumsum(a.x[:, 0] * a.x[:, 0])[-1]] for a in datasets]) / 1000
    assert stats.mode == "diag"
    assert np.array_equal(stats.xy, xy)
    assert np.array_equal(stats.cov_diag, cov_diag)
    # the same rows as AgentData are reduced densely; for d > 1 the dense
    # x^T y and the diagonal of x^T x keep the diag bits
    assert all(isinstance(a, CoordinateData) for a in datasets)
    if d > 1:
        assert_dense_carries_diag_bits(datasets)
    else:  # one contiguous column: the dense sums add in another order
        dense = [AgentData(x=a.x, y=a.y, agent_id=a.agent_id) for a in datasets]
        assert AgentStats.from_data(dense, 3).mode == "dense"


def test_diag_stats_on_negative_entries_and_zero_rows():
    rng = np.random.default_rng(3)
    m, d = 200, 6
    datasets = []
    for v in range(3):
        vals = rng.standard_normal(m)  # about half negative
        vals[::7] = 0.0  # rows without a nonzero
        picks = rng.integers(0, d, m)
        y = rng.standard_normal(m)
        datasets.append(CoordinateData(picks=picks, vals=vals, y=y, d=d, agent_id=v))
    stats = AgentStats.from_data(datasets, 3)
    xy, cov_diag = stacked_moments(datasets)
    assert stats.mode == "diag"
    assert np.array_equal(stats.xy, xy)
    assert np.array_equal(stats.cov_diag, cov_diag)


@pytest.mark.parametrize(
    "feed", [list, lambda agents: (a for a in agents)], ids=["list", "generator"]
)
@pytest.mark.parametrize(
    "coordinate_first", [True, False], ids=["coordinate-first", "agentdata-first"]
)
def test_mixed_sample_types_are_rejected(coordinate_first, feed):
    # the type of the samples picks the mode, so one iterable holds one type
    prob = make_problem(5, 0.5, 1.0, noise_sigma=0.3)
    coords = [sample_agent_data(prob, 8, v, seed=2) for v in range(3)]
    dense = [AgentData(x=a.x, y=a.y, agent_id=a.agent_id) for a in coords]
    first, other = (coords, dense) if coordinate_first else (dense, coords)
    agents = first[:2] + other[2:]
    odd = type(agents[2]).__name__
    with pytest.raises(ValueError, match=f"{odd} for agent 2"):
        AgentStats.from_data(feed(agents), 3)


# the (d, m) grid: m at, just above and twice d, and at least 1024
ONE_NONZERO_GRID = [
    (d, m) for d in (2, 3, 5, 16, 64, 512) for m in sorted({d, d + 1, 2 * d, max(1024, d)})
]


@pytest.mark.parametrize("d,m", ONE_NONZERO_GRID)
def test_dense_reduction_of_coordinate_rows_carries_diag_bits(d, m):
    # coordinate agents' rows as AgentData are reduced densely, and the dense
    # x^T y and diagonal of x^T x carry the diag bits
    prob = make_problem(d, 0.5, 1.0, noise_sigma=0.5)
    assert_dense_carries_diag_bits([sample_agent_data(prob, m, v, seed=d + m) for v in range(3)])


@pytest.mark.parametrize("d,m", ONE_NONZERO_GRID)
def test_one_hot_agent_data_reduces_densely_bit_for_bit(d, m):
    # one-hot rows by hand: negative entries, zero rows and -0.0 entries; the
    # last agent has one two-nonzero row.  The dense reduction is, bit for
    # bit, each agent's own einsum reductions, from a list and a generator
    rng = np.random.default_rng(d + m)
    agents = []
    for v in range(3):
        x = np.zeros((m, d))
        x[np.arange(m), rng.integers(0, d, m)] = rng.standard_normal(m)
        x[::7] = 0.0
        x[(x == 0.0) & (rng.random((m, d)) < 0.5)] = -0.0
        agents.append(AgentData(x=x, y=rng.standard_normal(m), agent_id=v))
    agents[-1].x[-1, :2] = [1.0, -2.0]
    xy = np.stack([np.einsum("md,m->d", a.x, a.y) for a in agents]) / m
    cov = np.stack([np.einsum("md,me->de", a.x, a.x) for a in agents]) / m
    for stats in (AgentStats.from_data(agents, 3), AgentStats.from_data((a for a in agents), 3)):
        assert stats.mode == "dense"
        assert np.array_equal(bits(stats.xy), bits(xy))
        assert np.array_equal(bits(stats.cov), bits(cov))


def test_coordinate_sampling_never_builds_the_samples():
    m, d = 16384, 512
    prob = make_problem(d, 0.5, 1.0, noise_sigma=0.5)
    tracemalloc.start()
    try:
        datasets = [sample_agent_data(prob, m, v, seed=9) for v in range(4)]
        stats = AgentStats.from_data(datasets, 4)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert stats.mode == "diag"
    # one agent's dense x alone takes m * d * 8 bytes
    assert peak < m * d * 8 / 8


@pytest.mark.parametrize(
    "sampler,mode,n,m,d,copies",
    [
        pytest.param("gaussian", "dense", 8, 4096, 64, 1, id="gaussian-dense"),
        pytest.param("coordinate", "diag", 8, 4096, 64, 1, id="coordinate-diag"),
        # with d > m the statistics outweigh the samples; each agent's moments
        # go into the statistics as it arrives, so past the drawing of one
        # agent the peak is the statistics and one agent's moments, 1.1x them
        # (1.8x when every agent's moments were held until they were stacked)
        pytest.param("coordinate", "diag", 8, 2048, 4096, 1.2, id="coordinate-diag-d-above-m"),
        # 130 KiB of statistics, below the 256 KiB from which NumPy elides a
        # division's temporary: statistics divided in place are 1.0x
        # themselves, divided out of place 2.0x, and the drawing of the last
        # agent, 2 * samples, is 1.0x; the same at n = 3 and 5
        pytest.param("gaussian", "dense", 4, 128, 64, 1.2, id="gaussian-dense-in-place"),
        pytest.param("gaussian", "dense", 3, 128, 64, 1.2, id="gaussian-dense-in-place-n3"),
        pytest.param("gaussian", "dense", 5, 128, 64, 1.2, id="gaussian-dense-in-place-n5"),
    ],
)
def test_stats_hold_one_agent_at_a_time(sampler, mode, n, m, d, copies):
    # each agent is reduced and dropped before the next one is drawn,
    # whether m >= d or not
    prob = make_problem(d, 0.5, 1.0, noise_sigma=0.5, sampler=sampler)
    first = sample_agent_data(prob, m, 0, seed=9)
    samples = sum(a.nbytes for a in vars(first).values() if isinstance(a, np.ndarray))
    del first
    tracemalloc.start()
    try:
        stats = AgentStats.from_data((sample_agent_data(prob, m, v, seed=9) for v in range(n)), n)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert stats.mode == mode and stats.n == n
    # the held samples alone would take n * samples
    statistics = sum(a.nbytes for a in vars(stats).values() if isinstance(a, np.ndarray))
    assert peak < 2 * samples + copies * statistics


@pytest.mark.parametrize(
    "sampler,mode,n,m,d",
    [
        ("coordinate", "diag", 3, 64, 16),
        ("gaussian", "dense", 3, 64, 16),
        ("gaussian", "stream", 3, 16, 64),
        pytest.param("gaussian", "dense", 32, 128, 64, id="gaussian-dense-1MiB"),
    ],
)
def test_stats_start_on_cache_lines(sampler, mode, n, m, d):
    # every statistic is stacked once into a buffer on a 64-byte boundary,
    # and is, bit for bit, the per-agent moments stacked and divided by m
    prob = make_problem(d, 0.5, 1.0, noise_sigma=0.5, sampler=sampler)
    agents = [sample_agent_data(prob, m, v, seed=4) for v in range(n)]
    stats = AgentStats.from_data(agents, n)
    assert stats.mode == mode
    if mode == "diag":
        xy, second = zip(*map(engine._diag_moments, agents))
    else:
        xy, second = zip(*(engine._moments(a, mode == "dense") for a in agents))
    want = {"xy": np.stack(xy) / m}
    if mode == "stream":
        want["x"] = np.stack(second)
    else:
        want["cov_diag" if mode == "diag" else "cov"] = np.stack(second) / m
    for name, a in vars(stats).items():
        if isinstance(a, np.ndarray):
            assert a.ctypes.data % 64 == 0, name
            assert np.array_equal(bits(a), bits(want.pop(name))), name
    assert not want


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 9])
@pytest.mark.parametrize(
    "sampler,mode,m,d", [("coordinate", "diag", 64, 16), ("gaussian", "dense", 64, 16),
                         ("gaussian", "stream", 16, 64)]
)
def test_stats_grown_from_a_generator_keep_the_stacked_bits(sampler, mode, m, d, n):
    # a generator of n agents, given n, fills the same n rows as the list:
    # they start on a cache line and hold the list's bits
    prob = make_problem(d, 0.5, 1.0, noise_sigma=0.5, sampler=sampler)
    agents = [sample_agent_data(prob, m, v, seed=4) for v in range(n)]
    stats = AgentStats.from_data((a for a in agents), n)
    want = AgentStats.from_data(agents, n)
    assert stats.mode == want.mode == mode and stats.n == n
    for name, a in vars(stats).items():
        if isinstance(a, np.ndarray):
            assert a.ctypes.data % 64 == 0, name
            assert np.array_equal(bits(a), bits(getattr(want, name))), name


def test_stats_of_mixed_precision_agents_take_the_widest_type():
    # every row is written as float64, whichever agents are float32
    prob = make_problem(8, 0.5, 1.0, noise_sigma=0.5, sampler="gaussian")
    agents = [sample_agent_data(prob, 16, v, seed=4) for v in range(3)]
    narrow = [AgentData(x=a.x.astype(np.float32), y=a.y.astype(np.float32), agent_id=a.agent_id)
              for a in agents[:2]]
    stats = AgentStats.from_data(iter(narrow + agents[2:]), 3)
    moments = [engine._moments(a, True) for a in narrow + agents[2:]]
    for got, want in zip((stats.xy, stats.cov), zip(*moments)):
        assert got.dtype == np.float64 and got.ctypes.data % 64 == 0
        assert np.array_equal(bits(got), bits(np.stack(want) / 16))


@pytest.mark.parametrize("m,mode", [(16, "dense"), (4, "stream")])
def test_stats_of_float32_agents_are_float64(m, mode):
    # every statistic is float64: the float32 moments stacked as float64, divided by m
    prob = make_problem(8, 0.5, 1.0, noise_sigma=0.5, sampler="gaussian")
    agents = [sample_agent_data(prob, m, v, seed=4) for v in range(3)]
    narrow = [AgentData(x=a.x.astype(np.float32), y=a.y.astype(np.float32), agent_id=a.agent_id)
              for a in agents]
    stats = AgentStats.from_data(iter(narrow), 3)
    assert stats.mode == mode
    xy, second = zip(*(engine._moments(a, mode == "dense") for a in narrow))
    want = {"xy": np.stack(xy, dtype=np.float64) / m}
    if mode == "dense":
        want["cov"] = np.stack(second, dtype=np.float64) / m
    else:
        want["x"] = np.stack(second, dtype=np.float64)
    for name, a in want.items():
        got = getattr(stats, name)
        assert got.dtype == np.float64 and got.ctypes.data % 64 == 0, name
        assert np.array_equal(bits(got), bits(a)), name


def test_diag_moments_do_not_copy_the_picks():
    # one agent's reduction holds one m-long temporary at a time and no copy
    # of the sampler's read-only picks
    m, d = 2**20, 16
    prob = make_problem(d, 0.5, 1.0, noise_sigma=0.5)
    agent = sample_agent_data(prob, m, 0, seed=9)
    assert not agent.picks.flags.writeable
    tracemalloc.start()
    try:
        stats = AgentStats.from_data([agent], 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    statistics = sum(a.nbytes for a in vars(stats).values() if isinstance(a, np.ndarray))
    assert peak - statistics < 1.5 * m * 8


def test_agent_stats_rejects_mismatched_shapes():
    a = hand_data([[1.0, 0.0]], [1.0], 0)
    b = hand_data([[1.0, 0.0], [0.0, 1.0]], [1.0, 2.0], 1)
    with pytest.raises(ValueError):
        AgentStats.from_data([a, b], 2)
    with pytest.raises(ValueError):
        AgentStats.from_data([], 1)
    # a y that does not hold one response per sample names its agent, on
    # the diag and the dense path alike
    def coordinate(y, agent_id):
        return CoordinateData(np.array([0, 1]), np.array([1.0, -1.0]), np.array(y), 2, agent_id)

    def dense(y, agent_id):
        return AgentData(x=np.array([[1.0, 2.0], [3.0, 4.0]]), y=np.array(y), agent_id=agent_id)

    for agent in (coordinate, dense):
        for y in ([1.0], [1.0, 2.0, 3.0], [[1.0, 2.0]], [[1.0], [2.0]]):
            with pytest.raises(ValueError, match="agent 7"):
                AgentStats.from_data([agent([1.0, 2.0], 0), agent(y, 7)], 2)
    with pytest.raises(ValueError, match="agent 3"):
        AgentStats.from_data([AgentData(x=np.ones(2), y=np.ones(2), agent_id=3)], 1)
    # an agent with no samples would give nan statistics, so it is an input error
    empty = np.array([], dtype=int)
    for agent in (CoordinateData(empty, np.ones(0), np.ones(0), 2, 4),
                  AgentData(x=np.ones((0, 2)), y=np.ones(0), agent_id=4)):
        with pytest.raises(ValueError, match="agent 4 holds no samples"):
            AgentStats.from_data([agent], 1)


@pytest.mark.parametrize("feed", [list, iter], ids=["list", "generator"])
def test_agent_stats_need_exactly_n_agents(feed):
    prob = make_problem(4, 0.5, 1.0, noise_sigma=0.5)
    agents = [sample_agent_data(prob, 8, v, seed=2) for v in range(3)]
    for n in (0, -1):
        with pytest.raises(ValueError, match=f"n >= 1 agents, got n = {n}"):
            AgentStats.from_data(feed(agents), n)
    with pytest.raises(ValueError, match="expected 2 agents, got at least 3"):
        AgentStats.from_data(feed(agents), 2)
    with pytest.raises(ValueError, match="expected 4 agents, got 3"):
        AgentStats.from_data(feed(agents), 4)
    with pytest.raises(ValueError, match="expected 1 agents, got 0"):
        AgentStats.from_data(feed([]), 1)
    assert AgentStats.from_data(feed(agents), 3).n == 3


@pytest.mark.parametrize("count", [3, 5])
def test_run_needs_one_agent_per_gossip_node(count):
    # a generator of P.n +- 1 agents is rejected; it is drawn no further
    # than one agent past P.n
    prob = make_problem(4, 0.5, 1.0, noise_sigma=0.5)
    drawn = []

    def agents():
        for v in range(count):
            drawn.append(v)
            yield sample_agent_data(prob, 8, v, seed=2)

    want = "got at least 5" if count > 4 else "got 3"
    with pytest.raises(ValueError, match=f"expected 4 agents, {want}"):
        run(prob, agents(), matrix("cycle", 4), StepSchedule(0.05), T=3)
    assert drawn == list(range(count))


# ------------------------------------------------------------ single steps


def test_two_agent_hand_instance():
    # x = 1 on both agents, y = 1 and 3, eta = 0.5, uniform averaging:
    # local gradients at 0 are -1 and -3, post-gradient 0.5 and 1.5,
    # gossip brings both agents to exactly 1
    prob = make_problem(1, 1.0, 0.5)
    datasets = [hand_data([[1.0]], [1.0], 0), hand_data([[1.0]], [3.0], 1)]
    P = matrix("complete", 2)
    assert np.all(P.entries == 0.5)
    result = run(prob, datasets, P, StepSchedule(0.5), T=2)
    assert np.allclose(result.final.local, 1.0, atol=1e-15)


def test_first_step_is_gossiped_gradient_at_zero():
    prob = make_problem(3, 1.0, 1.0, noise_sigma=0.5)
    datasets = [sample_agent_data(prob, 4, v, seed=17) for v in range(4)]
    P = matrix("cycle", 4)
    eta = 0.07
    result = run(prob, datasets, P, StepSchedule(eta), T=2)
    xy_bar = np.stack([d.x.T @ d.y / 4 for d in datasets])
    assert np.allclose(result.final.local, eta * (P.entries @ xy_bar), atol=1e-15)
    assert np.allclose(result.final.pooled, eta * xy_bar.mean(axis=0), atol=1e-15)


def test_population_closed_form_scalar():
    # d=1, tau=1, target=1: mu_{t+1} = 1 - (1-eta)^t
    prob = make_problem(1, 1.0, 1.0)
    mu = np.zeros(1)
    eta = 0.3
    for t in range(1, 21):
        mu = population_step(mu, prob, eta)
        assert mu[0] == pytest.approx(1.0 - (1.0 - eta) ** t, abs=1e-14)


def test_population_first_step_and_monotone_approach():
    prob = make_problem(4, 0.5, 1.0)
    eta = 0.2
    mu = population_step(np.zeros(4), prob, eta)
    assert np.allclose(mu, eta * prob.tau * prob.target, atol=1e-16)
    prev = mu
    for _ in range(200):
        nxt = population_step(prev, prob, eta)
        assert np.all(nxt - prev >= -1e-16)
        assert np.all(nxt <= prob.target + 1e-12)
        prev = nxt


def test_scalar_trajectories_coincide():
    # coordinate sampler at d=1 yields x=1, y=target exactly, so the
    # distributed, pooled and population recursions are the same scalar map
    prob = make_problem(1, 1.0, 1.0)
    datasets = [sample_agent_data(prob, 3, v, seed=2) for v in range(2)]
    P = matrix("complete", 2)
    eta = 0.25
    seen = []
    run(prob, datasets, P, StepSchedule(eta), T=20, observer=lambda s: seen.append(s))
    for state in seen:
        want = 1.0 - (1.0 - eta) ** (state.t - 1)
        assert np.allclose(state.local, want, atol=1e-14)
        assert state.pooled[0] == pytest.approx(want, abs=1e-14)
        assert state.population[0] == pytest.approx(want, abs=1e-14)


# ------------------------------------------------------------- trajectories


def test_identical_data_keeps_agents_identical():
    prob = make_problem(3, 0.5, 1.0, noise_sigma=0.2)
    shared = sample_agent_data(prob, 5, 0, seed=13)
    datasets = [AgentData(x=shared.x, y=shared.y, agent_id=v) for v in range(4)]
    P = matrix("cycle", 4)
    for variant in ("gossip_after_gradient", "gossip_before_gradient"):
        result = run(prob, datasets, P, StepSchedule(0.1), T=30, variant=variant)
        spread = np.abs(result.final.local - result.final.local[0]).max()
        assert spread <= 1e-14
        assert np.allclose(result.final.local[0], result.final.pooled, atol=1e-13)


def test_protocol_variants_differ_on_generic_data():
    prob = make_problem(3, 0.5, 1.0, noise_sigma=0.5)
    datasets = [sample_agent_data(prob, 4, v, seed=21) for v in range(4)]
    P = matrix("cycle", 4)
    after = run(prob, datasets, P, StepSchedule(0.1), T=5)
    before = run(prob, datasets, P, StepSchedule(0.1), T=5, variant="gossip_before_gradient")
    assert not np.allclose(after.final.local, before.final.local, atol=1e-12)


def test_single_agent_equals_pooled():
    prob = make_problem(3, 1.0, 1.0, noise_sigma=0.3)
    datasets = [sample_agent_data(prob, 6, 0, seed=9)]
    P = matrix("complete", 1)
    result = run(prob, datasets, P, StepSchedule(0.1), T=50)
    assert np.allclose(result.final.local[0], result.final.pooled, atol=1e-14)
    assert np.all(result.records.network_err[:, 0] <= 1e-28)


# (sampler, n, m, d, the machine's mode): diag; dense; stream agents whose
# n * m samples reach d (above it and at it), so the machine is dense; and
# stream agents whose n * m samples stay below d, so the machine streams too
SINGLE_MACHINES = [
    ("coordinate", 4, 32, 16, "diag"),
    ("gaussian", 4, 32, 16, "dense"),
    ("gaussian", 4, 8, 16, "dense"),
    ("gaussian", 4, 4, 16, "dense"),
    ("gaussian", 3, 4, 16, "stream"),
]


@pytest.mark.parametrize("sampler,n,m,d,mode", SINGLE_MACHINES)
def test_single_machine_holds_the_concatenated_samples(sampler, n, m, d, mode):
    # the pooled machine's statistics are those of one agent holding every
    # agent's samples, up to rounding
    prob = make_problem(d, 0.5, 1.0, noise_sigma=0.5, sampler=sampler)
    agents = [sample_agent_data(prob, m, v, seed=5) for v in range(n)]
    stats = AgentStats.from_data(agents, n)
    machine = stats._single_machine
    def stacked(name):
        return np.concatenate([getattr(a, name) for a in agents])

    if sampler == "coordinate":
        one = CoordinateData(stacked("picks"), stacked("vals"), stacked("y"), d, agent_id=0)
    else:
        one = AgentData(stacked("x"), stacked("y"), agent_id=0)
    want = AgentStats.from_data([one], 1)
    assert machine.mode == want.mode == mode and machine.n == 1
    for name in ("xy", "cov_diag", "cov", "x"):
        got, ref = getattr(machine, name), getattr(want, name)
        assert (got is None) == (ref is None), name
        if ref is not None:
            assert got.shape == ref.shape, name
            assert np.allclose(got, ref, rtol=1e-12, atol=0.0), name
    if mode == "stream":
        assert np.shares_memory(machine.x, stats.x)


def pooled_by_agent_means(stats, sched, T):
    """The pooled iterates from the mean of the n agents' gradients, t = 1 .. T."""
    p, path = np.zeros(stats.xy.shape[1]), []
    for t in range(1, T + 1):
        path.append(p)
        p = p - sched.at(t) * (np.add.reduce(stats.gradients(p), 0) / stats.n)
    return path


@pytest.mark.parametrize("sampler,n,m,d,mode", SINGLE_MACHINES)
def test_pooled_iterate_stays_with_the_agent_mean_recursion(sampler, n, m, d, mode):
    # the single machine's gradient rounds apart from the mean of the agents'
    # n gradients, and over 200 steps the two pooled paths stay together
    prob = make_problem(d, 0.5, 1.0, noise_sigma=0.5, sampler=sampler)
    agents = [sample_agent_data(prob, m, v, seed=5) for v in range(n)]
    stats = AgentStats.from_data(agents, n)
    sched = StepSchedule(min(0.05, 1.0 / prob.kappa_sq))
    states = []
    run(prob, agents, matrix("cycle", n), sched, T=200, observer=states.append)
    for state, want in zip(states, pooled_by_agent_means(stats, sched, 200), strict=True):
        gap = np.linalg.norm(state.pooled - want)
        assert gap <= 1e-13 * np.linalg.norm(want), state.t


@pytest.mark.parametrize("sampler,m", [("coordinate", 32), ("gaussian", 32), ("gaussian", 8)])
def test_one_agent_pooled_iterate_keeps_the_agent_mean_bits(sampler, m):
    # at n = 1 the machine is the agent, and the pooled step keeps its bits
    prob = make_problem(16, 0.5, 1.0, noise_sigma=0.5, sampler=sampler)
    agents = [sample_agent_data(prob, m, 0, seed=5)]
    stats = AgentStats.from_data(agents, 1)
    sched = StepSchedule(0.05, 0.5)
    states = []
    run(prob, agents, matrix("complete", 1), sched, T=200, observer=states.append)
    for state, want in zip(states, pooled_by_agent_means(stats, sched, 200), strict=True):
        assert np.array_equal(bits(state.pooled), bits(want)), state.t


def test_noiseless_excess_is_monotone():
    prob = make_problem(6, 0.5, 1.0)
    datasets = [sample_agent_data(prob, 12, v, seed=5) for v in range(4)]
    P = matrix("complete", 4, scheme="uniform_complete")
    result = run(prob, datasets, P, StepSchedule(0.05), T=150)
    excess = result.records.excess.mean(axis=1)
    assert np.all(np.diff(excess) <= 1e-15)


# ---------------------------------------------------------------- plumbing


def test_record_stride_semantics():
    prob = make_problem(2, 1.0, 1.0)
    datasets = [sample_agent_data(prob, 3, v, seed=1) for v in range(2)]
    P = matrix("complete", 2)
    sched = StepSchedule(0.1)

    single = run(prob, datasets, P, sched, T=1)
    assert single.records.t.tolist() == [1]
    assert single.records.sample_var[0] == 0.0
    assert np.all(single.final.local == 0.0)

    spaced = run(prob, datasets, P, sched, T=100, stride=10)
    assert spaced.records.t.tolist() == list(range(10, 101, 10))

    ragged = run(prob, datasets, P, sched, T=7, stride=3)
    assert ragged.records.t.tolist() == [3, 6, 7]


def assert_same_bits(records, row, ref, ref_row):
    # row `row` of records holds, column by column, the bits of row `ref_row` of ref
    for name, column in vars(records).items():
        assert column[row].tobytes() == getattr(ref, name)[ref_row].tobytes(), (name, row)


# (sampler, m, eta that diverges within 200 updates) on a 6-cycle with d = 16:
# diag, dense and stream statistics
STRIDE_MODES = [("coordinate", 32, 2.0), ("gaussian", 32, 3.0), ("gaussian", 8, 3.0)]


@pytest.mark.parametrize("sampler,m,diverging_eta", STRIDE_MODES)
def test_stride_records_equal_stride_one_records(sampler, m, diverging_eta):
    prob = make_problem(16, 0.5, 1.0, noise_sigma=0.5, sampler=sampler)
    datasets = [sample_agent_data(prob, m, v, seed=3) for v in range(6)]
    P = matrix("cycle", 6)

    every = run(prob, datasets, P, StepSchedule(0.05), T=60).records
    spaced = run(prob, datasets, P, StepSchedule(0.05), T=60, stride=7).records
    assert spaced.t.tolist() == list(range(7, 57, 7)) + [60]
    for row, t in enumerate(spaced.t.tolist()):
        assert_same_bits(spaced, row, every, t - 1)

    # a diverged run's records end at the last finite state, whatever the stride
    errors = []
    for stride in (1, 7):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            with pytest.raises(DivergenceError) as info:
                run(prob, datasets, P, StepSchedule(diverging_eta), T=200, stride=stride)
        errors.append(info.value)
    every, spaced = errors
    last = every.iteration - 1
    assert spaced.iteration == every.iteration and last % 7 != 0
    assert spaced.records.t.tolist() == list(range(7, last, 7)) + [last]
    for row, t in enumerate(spaced.records.t.tolist()):
        assert_same_bits(spaced.records, row, every.records, t - 1)


# (mode, eta) at n = 17, d = 256, where the local iterates fill 34,816 bytes
# and a block holds one state: they diverge at iteration 27 and 32, after a
# state that stride 3 skips
ONE_STATE_DIVERGENCE = [("diag", 1.0), ("dense", 3.5)]


@pytest.mark.parametrize("mode,diverging_eta", ONE_STATE_DIVERGENCE)
def test_one_state_blocks_end_a_diverged_run_at_its_last_state(monkeypatch, mode, diverging_eta):
    # a one-state block alternates between two rows; a diverged run's
    # records end at its last finite state, which stride 3 did not record,
    # and every row keeps the bits of its state scored alone
    n, d = 17, 256
    m, sampler = (32, "coordinate") if mode == "diag" else (d + 3, "gaussian")
    prob = make_problem(d, 0.5, 1.0, noise_sigma=0.5, sampler=sampler)
    datasets = [sample_agent_data(prob, m, v, seed=3) for v in range(n)]
    stats = AgentStats.from_data(datasets, n)
    assert stats.mode == mode and engine._BLOCK_BYTES // (n * d * 8) == 0
    monkeypatch.setattr(AgentStats, "from_data", staticmethod(lambda agents, n: stats))
    P = matrix("cycle", n)
    sched = StepSchedule(diverging_eta)
    errors, states = [], []
    for stride in (1, 3):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            with pytest.raises(DivergenceError) as info:
                run(prob, datasets, P, sched, T=200, stride=stride, observer=states.append)
        errors.append(info.value)
    every, spaced = errors
    last = every.iteration - 1
    assert spaced.iteration == every.iteration and last % 3 != 0
    assert every.records.t.tolist() == list(range(1, last + 1))
    assert spaced.records.t.tolist() == list(range(3, last, 3)) + [last]
    states = states[:last]  # the stride-3 run saw the same states again
    with np.errstate(all="ignore"):
        assert_states_follow_the_reference(states, stats, prob, P, sched, "gossip_after_gradient")
    for row, state in enumerate(states):
        assert_same_bits(every.records, row, decompose(stack([state]), prob), 0)
    for row, t in enumerate(spaced.records.t.tolist()):
        assert_same_bits(spaced.records, row, every.records, t - 1)


def test_stride_one_run_builds_no_state_but_its_final_one(monkeypatch):
    # states are computed into the rows of the record block and scored
    # there: besides one block per decompose call, the run builds one
    # TrainState, the final one (it built one per iteration before)
    built, scored = [], []

    class Counted(engine.TrainState):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)

    def counted(states, problem):
        scored.append(states)
        return decompose(states, problem)

    monkeypatch.setattr(engine, "TrainState", Counted)
    monkeypatch.setattr(engine.diagnostics, "decompose", counted)
    prob = make_problem(16, 0.5, 1.0, noise_sigma=0.5)
    datasets = [sample_agent_data(prob, 32, v, seed=3) for v in range(6)]
    T = 200
    result = run(prob, datasets, matrix("cycle", 6), StepSchedule(0.05), T=T)
    assert len(result.records) == T and len(scored) == math.ceil(T / (engine._BLOCK_BYTES // 768))
    assert [s for s in built if np.ndim(s.t) == 0] == [result.final]
    assert [s for s in built if np.ndim(s.t) == 1] == scored


@pytest.mark.parametrize("stride", [1, 3])
def test_states_handed_out_keep_their_values(stride):
    # the run reuses the rows its states are computed into; the states the
    # observer and RunResult.final receive are copies that stay as they were
    prob = make_problem(16, 0.5, 1.0, noise_sigma=0.5)
    datasets = [sample_agent_data(prob, 32, v, seed=3) for v in range(6)]
    states, seen = [], []

    def observe(state):
        states.append(state)
        seen.append(copy.deepcopy(state))

    T = 3 * engine._BLOCK_BYTES // (6 * 16 * 8) + 5  # the rows are reused twice over
    final = run(prob, datasets, matrix("cycle", 6), StepSchedule(0.05), T=T, stride=stride,
                observer=observe).final
    assert [s.t for s in states] == list(range(1, T + 1)) and final.t == T
    for state, then in zip([*states, final], [*seen, seen[-1]]):
        for f in dataclasses.fields(state)[1:]:
            assert bits(getattr(state, f.name)).tobytes() == bits(getattr(then, f.name)).tobytes()
    assert not np.shares_memory(final.local, states[-1].local)


def test_objects_holding_arrays_compare_and_hash_by_identity():
    # field-by-field equality would compare arrays and raise; these compare,
    # and hash, as the objects they are
    def build():
        prob = make_problem(4, 0.5, 1.0, noise_sigma=0.5)
        coordinates = [sample_agent_data(prob, 8, v, seed=3) for v in range(3)]
        gaussian = sample_agent_data(make_problem(4, 0.5, 1.0, sampler="gaussian"), 8, 0, seed=3)
        P = matrix("cycle", 3)
        result = run(prob, coordinates, P, StepSchedule(0.05), T=3)
        stats = AgentStats.from_data(coordinates, 3)
        return prob, P, coordinates[0], gaussian, stats, result.records, result.final, result

    for one, two in zip(build(), build()):
        assert type(one) is type(two)
        assert one == one and one != two and not one == two, type(one).__name__
        assert hash(one) == hash(one)
        assert {one: 1, two: 2}[one] == 1


def reference_step(state, stats, prob, P, eta, variant):
    """The state after ``state`` by the public one-step helpers."""
    noise = engine.noise_terms(state.population, stats, prob)
    popcov_state, popcov_avg = popcov_step(
        state.popcov_state, state.popcov_avg, noise, P.entries, prob.tau, eta
    )
    return engine.TrainState(
        t=state.t + 1,
        local=engine.dgd_step(state.local, stats, P.entries, eta, variant),
        pooled=engine.single_machine_step(state.pooled, stats, eta),
        population=population_step(state.population, prob, eta),
        popcov_state=popcov_state,
        popcov_avg=popcov_avg,
    )


def assert_states_follow_the_reference(states, stats, prob, P, sched, variant):
    for prev, state in zip(states, states[1:]):
        want = reference_step(prev, stats, prob, P, sched.at(prev.t), variant)
        assert state.t == want.t
        for f in dataclasses.fields(state)[1:]:
            got = getattr(state, f.name)
            assert np.array_equal(bits(got), bits(getattr(want, f.name))), (state.t, f.name)


@pytest.mark.parametrize("theta", [0.0, 0.5])
@pytest.mark.parametrize("variant", engine.PROTOCOL_VARIANTS)
@pytest.mark.parametrize("sampler,m,mode", [("coordinate", 32, "diag"), ("gaussian", 32, "dense"),
                                            ("gaussian", 8, "stream")])
def test_fused_step_equals_the_reference_helpers(sampler, m, mode, variant, theta):
    # run() advances every lockstep iterate in one fused step; each state it
    # reaches must be the helpers' step from the state before, bit for bit
    prob = make_problem(16, 0.5, 1.0, noise_sigma=0.5, sampler=sampler)
    datasets = [sample_agent_data(prob, m, v, seed=3) for v in range(6)]
    stats = AgentStats.from_data(datasets, 6)
    assert stats.mode == mode
    P = matrix("cycle", 6)
    sched = StepSchedule(0.05, theta)
    states = []
    run(prob, datasets, P, sched, T=40, variant=variant, observer=states.append)
    assert [s.t for s in states] == list(range(1, 41))
    assert_states_follow_the_reference(states, stats, prob, P, sched, variant)


@pytest.mark.parametrize("sampler,m,mode", [("coordinate", 32, "diag"), ("gaussian", 32, "dense"),
                                            ("gaussian", 8, "stream")])
def test_pooled_machine_takes_a_gradient_per_step_outside_diag_mode(monkeypatch, sampler, m, mode):
    # in diag mode the pooled machine advances with the population, a block
    # ahead, without calling gradients; the other modes step it once per update
    prob = make_problem(16, 0.5, 1.0, noise_sigma=0.5, sampler=sampler)
    datasets = [sample_agent_data(prob, m, v, seed=3) for v in range(6)]
    assert AgentStats.from_data(datasets, 6).mode == mode
    gradients, calls = AgentStats.gradients, []

    def counted(stats, W):
        calls.append(stats.n)
        return gradients(stats, W)

    monkeypatch.setattr(AgentStats, "gradients", counted)
    T = 40
    run(prob, datasets, matrix("cycle", 6), StepSchedule(0.05), T=T)
    assert calls.count(1) == (0 if mode == "diag" else T - 1)
    assert calls.count(6) > 0


# (d, n, T): one-step blocks; then several blocks with T - 1 updates not a
# multiple of the block, at d = 1 also with n past 8, where a sum over
# agents could switch to pairwise summation
BLOCK_SHAPES = [(512, 17, 4), (16, 6, 100), (1, 9, 1000), (1, 17, 500)]

# every shape in every mode (stream needs m < d, so not d = 1), protocol and
# theta; the dense d = 512 statistics take a second to build, so that shape
# runs once, at theta = 0 after the gradient
BLOCK_CASES = [
    pytest.param(d, n, T, mode, variant, theta, id=f"d{d}-n{n}-{mode}-{variant}-{theta}")
    for d, n, T in BLOCK_SHAPES
    for mode in ("diag", "dense", "stream")
    for variant in engine.PROTOCOL_VARIANTS
    for theta in (0.0, 0.5)
    if not (mode == "stream" and d == 1)
    and not (mode == "dense" and d == 512 and (theta or variant != "gossip_after_gradient"))
]


@pytest.mark.parametrize("d,n,T,mode,variant,theta", BLOCK_CASES)
def test_population_blocks_keep_the_reference_bits(monkeypatch, d, n, T, mode, variant, theta):
    # run() computes the half of the step that reads no iterate a block of
    # steps ahead; every state, on both sides of each block boundary, must
    # still be the helpers' step from the state before, bit for bit
    m = {"diag": 32, "dense": d + 3, "stream": d // 2}[mode]
    sampler = "coordinate" if mode == "diag" else "gaussian"
    prob = make_problem(d, 0.5, 1.0, noise_sigma=0.5, sampler=sampler)
    datasets = [sample_agent_data(prob, m, v, seed=3) for v in range(n)]
    stats = AgentStats.from_data(datasets, n)
    assert stats.mode == mode
    if d == 512:
        # the d = 512 statistics and pooled machine take a second to build:
        # run() and the helpers share these statistics, and so the machine
        # they keep (the fused-step test builds anew)
        monkeypatch.setattr(AgentStats, "from_data", staticmethod(lambda agents, n: stats))
    block = max(1, engine._BLOCK_BYTES // (n * d * 8))
    assert block == 1 if d == 512 else (T - 1 > block and (T - 1) % block != 0)
    P = matrix("cycle", n)
    sched = StepSchedule(min(0.05, 1.0 / prob.kappa_sq), theta)
    states = []
    run(prob, datasets, P, sched, T=T, variant=variant, observer=states.append)
    assert [s.t for s in states] == list(range(1, T + 1))
    assert_states_follow_the_reference(states, stats, prob, P, sched, variant)


# (sampler, m, kind) at d = 8 and eta = 1e6: the local iterates diverge
# within 20 updates, and the population path would overflow inside the block
# computed ahead at the divergence
OVERFLOWING_AHEAD = [
    ("coordinate", 8, "cycle"),
    ("coordinate", 8, "complete"),
    ("gaussian", 16, "cycle"),
    ("gaussian", 4, "cycle"),
]


@pytest.mark.parametrize("sampler,m,kind", OVERFLOWING_AHEAD)
def test_diverged_run_warns_only_about_the_steps_it_reached(sampler, m, kind):
    # the only warning is the step size's: nothing computed ahead of the
    # divergence may overflow aloud
    d, eta, T = 8, 1e6, 200
    prob = make_problem(d, 0.5, 1.0, noise_sigma=0.2, sampler=sampler)
    datasets = [sample_agent_data(prob, m, v, seed=5) for v in range(4)]
    P = matrix(kind, 4, scheme="uniform_complete" if kind == "complete" else "metropolis_lazy")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(DivergenceError) as info:
            run(prob, datasets, P, StepSchedule(eta), T=T)
    assert [(w.category, str(w.message).split(" > ")[0]) for w in caught] == [
        (RuntimeWarning, f"eta * kappa_sq = {eta * prob.kappa_sq:.3g}")
    ]
    # the population path overflows within one block of the last state
    reached = info.value.iteration - 1
    assert reached <= 20
    population = np.zeros(d)
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(min(T - 1, reached + engine._BLOCK_BYTES // (4 * d * 8))):
            population = population_step(population, prob, eta)
    assert not np.isfinite(population).all()


@pytest.mark.parametrize("d", [3, 600])  # blocks of many steps, and of one
def test_population_overflow_warns_from_the_step_that_overflows(d):
    # no agent samples coordinate 0, so the local iterates stay finite while
    # the population path, at eta * tau_1 = 1000, overflows.  The population
    # side, computed a block ahead, warns from the step whose helpers first
    # warn, never before it, and the states keep the helpers' bits through
    # the infs and nans
    prob = make_problem(d, 0.5, 1.0)
    picks = np.array([1, 2, 2, 1, 2])
    datasets = [
        CoordinateData(picks, np.full(5, 0.01), np.linspace(-1.0, 1.0, 5) + v, d, v)
        for v in range(4)
    ]
    P = matrix("cycle", 4)
    sched = StepSchedule(1000.0)
    stats = AgentStats.from_data(datasets, 4)
    population = np.zeros(d)
    for first in range(1, 500):  # the first step whose population side warns
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            noise = engine.noise_terms(population, stats, prob)
            sched.at(first) * noise, sched.at(first) * noise.mean(axis=0)
            population = population_step(population, prob, sched.at(first))
        if caught:
            break
    assert 50 < first < 400
    code, start = inspect.getsourcelines(engine._population_block)

    def warned(T, states=None):
        # the lines of the population block that warned
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            run(prob, datasets, P, sched, T=T, observer=None if states is None else states.append)
        return {w.lineno for w in caught if w.filename == engine.__file__} & set(
            range(start, start + len(code))
        )

    assert warned(first) == set()  # the updates up to t = first stay quiet
    assert warned(first + 1)
    states = []
    warned(first + 20, states)
    assert not np.isfinite(states[-1].population).all()
    assert np.isfinite(states[-1].local).all()
    with np.errstate(all="ignore"):
        assert_states_follow_the_reference(states, stats, prob, P, sched, "gossip_after_gradient")


@pytest.mark.parametrize("sampler,m,diverging_eta", STRIDE_MODES)
def test_diverged_run_follows_the_reference_to_its_last_state(sampler, m, diverging_eta):
    prob = make_problem(16, 0.5, 1.0, noise_sigma=0.5, sampler=sampler)
    datasets = [sample_agent_data(prob, m, v, seed=3) for v in range(6)]
    P = matrix("cycle", 6)
    sched = StepSchedule(diverging_eta)
    states = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        with pytest.raises(DivergenceError) as info:
            run(prob, datasets, P, sched, T=200, observer=states.append)
        assert states[-1].t == info.value.iteration - 1
        stats = AgentStats.from_data(datasets, 6)
        assert_states_follow_the_reference(states, stats, prob, P, sched, "gossip_after_gradient")
        # the helpers' next step from the last state leaves the trust region
        last = engine.dgd_step(states[-1].local, stats, P.entries, diverging_eta)
    assert not np.linalg.norm(last) <= engine.DIVERGENCE_NORM


# (sampler, m, eta that diverges after more than one block of records)
BLOCK_MODES = [("coordinate", 32, 1.5), ("gaussian", 32, 2.8), ("gaussian", 8, 2.2)]


@pytest.mark.parametrize("sampler,m,diverging_eta", BLOCK_MODES)
def test_block_records_equal_states_scored_alone(sampler, m, diverging_eta):
    # records are scored in blocks; each row must be the block of its state alone
    prob = make_problem(16, 0.5, 1.0, noise_sigma=0.5, sampler=sampler)
    datasets = [sample_agent_data(prob, m, v, seed=3) for v in range(6)]
    P = matrix("cycle", 6)
    block = engine._BLOCK_BYTES // (6 * 16 * 8)

    states = []
    records = run(prob, datasets, P, StepSchedule(0.05), T=100, observer=states.append).records
    assert len(records) == len(states) == 100
    assert len(records) > block and len(records) % block != 0
    for row, state in enumerate(states):
        assert_same_bits(records, row, decompose(stack([state]), prob), 0)

    states = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        with pytest.raises(DivergenceError) as info:
            run(prob, datasets, P, StepSchedule(diverging_eta), T=400, observer=states.append)
    records = info.value.records
    assert len(records) > block and len(records) % block != 0  # diverged mid-block
    assert records.t.tolist() == list(range(1, info.value.iteration))
    assert len(states) == len(records)
    for row, state in enumerate(states):
        assert_same_bits(records, row, decompose(stack([state]), prob), 0)


def test_run_holds_its_records_once():
    # the record columns are allocated once and each scored block is copied
    # in; blocks joined at the end would hold every record twice
    n, d = 16, 16
    prob = make_problem(d, 0.5, 1.0, noise_sigma=0.5)
    datasets = [sample_agent_data(prob, 256, v, seed=1) for v in range(n)]
    P = matrix("cycle", n)
    tracemalloc.start()
    try:
        records = run(prob, datasets, P, StepSchedule(0.05), T=2001).records
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(records) == 2001
    assert peak < 1.5 * sum(column.nbytes for column in vars(records).values())


@pytest.mark.parametrize("sampler,m", [mode[:2] for mode in STRIDE_MODES])
def test_one_agent_has_no_network_error(sampler, m):
    prob = make_problem(16, 0.5, 1.0, noise_sigma=0.5, sampler=sampler)
    datasets = [sample_agent_data(prob, m, 0, seed=3)]
    P = matrix("complete", 1, scheme="uniform_complete")
    records = run(prob, datasets, P, StepSchedule(0.05), T=60).records
    assert len(records) == 60
    assert np.all(records.network_err == 0.0), records.t[records.network_err.any(axis=1)]


SQUARED_ERRORS = ("excess", "bias_sq", "sample_var", "network_err", "popcov_err", "residual_err")


@pytest.mark.parametrize("sampler,m", [mode[:2] for mode in STRIDE_MODES])
def test_doubling_the_radius_scales_noiseless_errors_exactly(sampler, m):
    # at zero noise every response, iterate and deviation scales with R, so
    # the squared errors scale by exactly 4 and the consensus norm by 2
    runs = []
    for R in (1.0, 2.0):
        prob = make_problem(16, 0.5, 1.0, R=R, sampler=sampler)
        datasets = [sample_agent_data(prob, m, v, seed=3) for v in range(6)]
        runs.append(run(prob, datasets, matrix("cycle", 6), StepSchedule(0.05), T=60).records)
    one, two = runs
    assert np.array_equal(two.t, one.t)
    for name in SQUARED_ERRORS:
        assert np.array_equal(getattr(two, name), 4.0 * getattr(one, name)), name
    assert np.array_equal(two.consensus_err, 2.0 * one.consensus_err)


@pytest.mark.parametrize("sampler,m", [mode[:2] for mode in STRIDE_MODES])
def test_relabelling_agents_permutes_the_records(sampler, m):
    # agent i of the relabelled run is agent perm[i] of the original; only the
    # summation order over agents changes (P @ and the agent means), so the
    # fields agree to rounding: the worst field measured 1e-13 of its maximum,
    # excess 2e-15 relative
    prob = make_problem(16, 0.5, 1.0, noise_sigma=0.5, sampler=sampler)
    datasets = [sample_agent_data(prob, m, v, seed=3) for v in range(6)]
    P = matrix("cycle", 6)
    perm = np.array([3, 0, 5, 1, 4, 2])  # not an automorphism of the cycle
    relabelled = dataclasses.replace(P, entries=P.entries[np.ix_(perm, perm)])
    assert not np.array_equal(relabelled.entries, P.entries)

    one = run(prob, datasets, P, StepSchedule(0.05), T=60).records
    two = run(prob, [datasets[v] for v in perm], relabelled, StepSchedule(0.05), T=60).records
    assert np.array_equal(two.t, one.t)
    assert np.array_equal(two.bias_sq, one.bias_sq)  # the population path has no agents
    for name in ("excess", "network_err", "popcov_err", "residual_err"):
        want = getattr(one, name)[:, perm]
        assert np.abs(getattr(two, name) - want).max() <= 1e-11 * np.abs(want).max(), name
    assert np.allclose(two.excess, one.excess[:, perm], rtol=1e-14, atol=0.0)
    for name in ("sample_var", "consensus_err"):
        want = getattr(one, name)
        assert np.abs(getattr(two, name) - want).max() <= 1e-11 * want.max(), name


def test_observer_sees_every_state():
    prob = make_problem(2, 1.0, 1.0)
    datasets = [sample_agent_data(prob, 3, v, seed=1) for v in range(2)]
    P = matrix("complete", 2)
    ts = []
    run(prob, datasets, P, StepSchedule(0.1), T=9, observer=lambda s: ts.append(s.t))
    assert ts == list(range(1, 10))


def test_initial_local_offsets_the_start():
    prob = make_problem(2, 1.0, 1.0)
    datasets = [sample_agent_data(prob, 3, v, seed=1) for v in range(2)]
    P = matrix("complete", 2)
    start = np.array([[1.0, -1.0], [0.5, 2.0]])
    result = run(prob, datasets, P, StepSchedule(0.1), T=1, initial_local=start)
    assert np.all(result.final.local == start)
    with pytest.raises(ValueError):
        run(prob, datasets, P, StepSchedule(0.1), T=2, initial_local=np.zeros((3, 2)))


def test_run_validation():
    prob = make_problem(2, 1.0, 1.0)
    datasets = [sample_agent_data(prob, 3, v, seed=1) for v in range(2)]
    P = matrix("complete", 2)
    sched = StepSchedule(0.1)
    with pytest.raises(ValueError):
        run(prob, datasets, P, sched, T=0)
    with pytest.raises(ValueError):
        run(prob, datasets, P, sched, T=5, stride=0)
    with pytest.raises(ValueError):
        run(prob, datasets, P, sched, T=5, variant="telepathy")
    with pytest.raises(ValueError):
        run(prob, datasets[:1], P, sched, T=5)
    with pytest.raises(ValueError):
        run(make_problem(3, 1.0, 1.0), datasets, P, sched, T=5)
    stats = AgentStats.from_data(datasets, 2)
    with pytest.raises(ValueError, match=r"^unknown protocol variant 'telepathy'$"):
        engine.dgd_step(np.zeros((2, 2)), stats, P.entries, 0.1, variant="telepathy")


def test_reference_steps_are_not_package_exports():
    # they live where the fused step's tests and the benchmark's tracer read them
    steps = {"dgd_step": engine, "single_machine_step": engine, "population_step": engine,
             "popcov_step": diagnostics}
    for name, module in steps.items():
        assert callable(getattr(module, name))
        assert not hasattr(gossipgd, name) and name not in gossipgd.__all__


def test_divergence_raises_with_partial_records():
    prob = make_problem(1, 1.0, 1.0)
    datasets = [sample_agent_data(prob, 3, v, seed=1) for v in range(2)]
    P = matrix("complete", 2)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        with pytest.raises(DivergenceError) as info:
            run(prob, datasets, P, StepSchedule(3.5), T=200)
    err = info.value
    assert err.iteration > 1
    assert len(err.records) == err.iteration - 1  # stride 1 up to the blow-up


@pytest.mark.parametrize("start", [np.nan, np.inf, 2e12])
def test_nonfinite_or_huge_iterates_diverge_at_the_next_iteration(start):
    # the first update from a nan, inf or huge start fails the norm test, so
    # the run raises at iteration 2 and keeps the one record of the start
    prob = make_problem(2, 1.0, 1.0)
    datasets = [sample_agent_data(prob, 3, v, seed=1) for v in range(2)]
    P = matrix("complete", 2)
    with np.errstate(all="ignore"), pytest.raises(DivergenceError) as info:
        run(prob, datasets, P, StepSchedule(0.1), T=5, initial_local=np.full((2, 2), start))
    assert info.value.iteration == 2
    assert info.value.records.t.tolist() == [1]
    # a start of norm 0.5e12 stays under DIVERGENCE_NORM and runs through
    result = run(prob, datasets, P, StepSchedule(0.1), T=5, initial_local=np.full((2, 2), 0.25e12))
    assert result.records.t.tolist() == [1, 2, 3, 4, 5]


def test_large_step_warns_and_boundary_does_not():
    prob = make_problem(4, 1.0, 1.0)  # kappa_sq = 4
    datasets = [sample_agent_data(prob, 5, v, seed=1) for v in range(2)]
    P = matrix("complete", 2)
    with pytest.warns(RuntimeWarning):
        run(prob, datasets, P, StepSchedule(0.3), T=3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        run(prob, datasets, P, StepSchedule(0.25), T=3)


@pytest.mark.parametrize("eta", [math.nan, math.inf])
def test_step_schedule_rejects_a_non_finite_eta(eta):
    with pytest.raises(ValueError, match="eta must be positive and finite"):
        StepSchedule(eta)


def test_step_schedule():
    sched = StepSchedule(0.4, theta=0.5)
    assert sched.at(1) == 0.4
    assert sched.at(4) == pytest.approx(0.2, abs=1e-15)
    assert StepSchedule(0.4).at(10) == 0.4
    with pytest.raises(ValueError):
        StepSchedule(0.0)
    with pytest.raises(ValueError):
        StepSchedule(0.1, theta=0.8)
    with pytest.raises(ValueError):
        StepSchedule(0.1, theta=0.75)  # the rates cover [0, 3/4) only
