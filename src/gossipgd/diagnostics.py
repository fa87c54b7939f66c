"""Error decomposition and cross-checking tools for simulated runs.

The per-agent excess risk splits into three tracked pieces: the bias of the
noiseless population recursion, the sample variance of the pooled
single-machine recursion around it, and a per-agent network error measuring
how far gossip has left each agent from the pooled iterate.  The network
error further splits into a "popcov" part driven by the population
covariance operator (computable by an exact linear recursion) and a
residual coupling term.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .problem import AgentData, CoordinateData, SpectralProblem


@dataclass(frozen=True)
class DecompositionRecord:
    """Snapshot of the error decomposition at one iteration.

    ``excess``, ``network_err``, ``popcov_err``, ``residual_err`` are
    per-agent arrays; the rest are scalars shared by all agents.
    """

    t: int
    excess: np.ndarray = field(repr=False)
    bias_sq: float
    sample_var: float
    network_err: np.ndarray = field(repr=False)
    consensus_err: float
    popcov_err: np.ndarray = field(repr=False)
    residual_err: np.ndarray = field(repr=False)

    def risk_bound(self) -> np.ndarray:
        """Per-agent certified bound 2*bias + 4*variance + 4*network."""
        return 2.0 * self.bias_sq + 4.0 * self.sample_var + 4.0 * self.network_err


@dataclass(frozen=True)
class Records:
    """Decomposition records as read-only columns, one row per recorded iteration.

    ``t`` and the scalar fields are ``(R,)`` columns and the per-agent
    fields ``(R, n)`` columns, named as in :class:`DecompositionRecord`.
    ``len``, indexing and iteration give :class:`DecompositionRecord` rows
    with Python scalars and per-agent views.
    """

    t: np.ndarray
    excess: np.ndarray = field(repr=False)
    bias_sq: np.ndarray = field(repr=False)
    sample_var: np.ndarray = field(repr=False)
    network_err: np.ndarray = field(repr=False)
    consensus_err: np.ndarray = field(repr=False)
    popcov_err: np.ndarray = field(repr=False)
    residual_err: np.ndarray = field(repr=False)

    def __post_init__(self):
        for column in vars(self).values():
            column.setflags(write=False)

    def __len__(self) -> int:
        return len(self.t)

    def __getitem__(self, i: int) -> DecompositionRecord:
        return DecompositionRecord(
            **{name: col[i] if col.ndim == 2 else col.item(i) for name, col in vars(self).items()}
        )

    def __iter__(self):
        return map(self.__getitem__, range(len(self)))


def decompose(states, problem: SpectralProblem) -> Records:
    """Score a non-empty block of :class:`~gossipgd.engine.TrainState` against the oracle.

    Row r scores ``states[r]``, bit for bit as a block of that state alone:
    the per-agent fields are one matrix-vector product per state and
    ``bias_sq`` and ``sample_var`` one ``(1, d) @ (d,)`` product per state,
    which gives the bits of ``np.dot(tau, row)``.
    """
    tau = problem.tau
    target = problem.target
    local = np.array([s.local for s in states])  # (R, n, d)
    pooled = np.array([s.pooled for s in states])  # (R, d)
    population = np.array([s.population for s in states])

    dev_target = local - target
    excess = (dev_target * dev_target) @ tau

    gap_pop = population - target
    bias_sq = ((gap_pop * gap_pop)[:, None, :] @ tau)[:, 0]
    gap_pool = pooled - population
    sample_var = ((gap_pool * gap_pool)[:, None, :] @ tau)[:, 0]

    dev = local - pooled[:, None, :]
    network_err = (dev * dev) @ tau

    center = local.mean(axis=1)
    off = local - center[:, None, :]
    consensus_err = np.sqrt((off * off).sum(axis=-1).max(axis=-1))

    popcov_avg = np.array([s.popcov_avg for s in states])
    pvec = np.array([s.popcov_state for s in states]) - popcov_avg[:, None, :]
    popcov_err = (pvec * pvec) @ tau
    rvec = dev - pvec
    residual_err = (rvec * rvec) @ tau

    return Records(
        t=np.array([s.t for s in states]),
        excess=excess,
        bias_sq=bias_sq,
        sample_var=sample_var,
        network_err=network_err,
        consensus_err=consensus_err,
        popcov_err=popcov_err,
        residual_err=residual_err,
    )


def popcov_step(
    u: np.ndarray,
    u_avg: np.ndarray,
    noise: np.ndarray,
    P_entries: np.ndarray,
    tau: np.ndarray,
    eta: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Advance the popcov accumulators one iteration.

    ``u`` tracks, per agent, the gossip-weighted accumulation of the local
    noise terms pushed through the population covariance contraction; the
    noise enters inside the gossip average.  ``u_avg`` runs the identical
    recursion under exact averaging, so ``u - u_avg`` isolates what gossip
    failed to mix.
    """
    contracted = (1.0 - eta * tau)[None, :] * u + eta * noise
    return P_entries @ contracted, (1.0 - eta * tau) * u_avg + eta * noise.mean(axis=0)


def _local_noise_history(datasets, etas, problem, t):
    """Per-iteration noise terms N[k][w] for k = 1..t along the noiseless path."""
    tau, target = problem.tau, problem.target
    ops = []
    xys = []
    for data in datasets:
        x = data.x  # built anew on each access for coordinate samples
        m = x.shape[0]
        ops.append(x.T @ x / m)
        xys.append(x.T @ data.y / m)
    pop = np.zeros(problem.d)
    noise = []
    for k in range(1, t + 1):
        pop_grad = tau * (pop - target)
        noise.append([pop_grad - (ops[w] @ pop - xys[w]) for w in range(len(datasets))])
        pop = pop - etas[k - 1] * pop_grad
    return ops, noise


def bruteforce_network_error(
    datasets: list[AgentData | CoordinateData],
    P_entries: np.ndarray,
    etas,
    problem: SpectralProblem,
    t: int,
    v: int,
    operator: str = "empirical",
) -> np.ndarray:
    """Exact per-path expansion of agent v's deviation from the pooled run.

    Enumerates every communication path of every length, weighting each by
    how much its gossip probability exceeds the uniform average, and pushes
    the corresponding noise term through the chain of gradient contractions.
    The result equals ``local_v - pooled`` after ``t`` updates of the
    default protocol.  With ``operator="population"`` the contraction chain
    uses the population covariance instead, which reproduces the popcov
    accumulator; the difference of the two calls is the residual part.

    Exponential in ``t``: restricted to n <= 3 and t <= 5.
    """
    n = len(datasets)
    if n > 3 or t > 5:
        raise ValueError(f"brute force limited to n <= 3, t <= 5; got n={n}, t={t}")
    if not 0 <= v < n:
        raise ValueError(f"agent index {v} out of range")
    etas = np.asarray(etas, dtype=float)
    if etas.shape[0] < t:
        raise ValueError(f"need at least {t} step sizes, got {etas.shape[0]}")
    if operator not in ("empirical", "population"):
        raise ValueError(f"unknown operator {operator!r}")

    ops, noise = _local_noise_history(datasets, etas, problem, t)
    if operator == "population":
        ops = [np.diag(problem.tau)] * n

    total = np.zeros(problem.d)
    for k in range(1, t + 1):
        length = t - k + 1  # hops: v <- w_t <- ... <- w_k
        uniform = float(n) ** (-length)
        for path in itertools.product(range(n), repeat=length):
            # path = (w_t, w_{t-1}, ..., w_k)
            weight = P_entries[v, path[0]]
            for a, b in zip(path, path[1:]):
                weight *= P_entries[a, b]
            vec = noise[k - 1][path[-1]]
            # apply (I - eta_j T_{w_j}) for j = k+1 .. t, innermost first
            for j, node in zip(range(k + 1, t + 1), reversed(path[:-1])):
                vec = vec - etas[j - 1] * (ops[node] @ vec)
            total += etas[k - 1] * (weight - uniform) * vec
    return total


def fit_loglog_slope(xs, ys) -> tuple[float, float, float]:
    """Least-squares line through (log xs, log ys): (slope, intercept, r^2)."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.shape != ys.shape or xs.ndim != 1:
        raise ValueError("xs and ys must be 1-d arrays of equal length")
    if xs.shape[0] < 3:
        raise ValueError("need at least 3 points for a slope fit")
    if np.any(xs <= 0.0) or np.any(ys <= 0.0):
        raise ValueError("log-log fit needs positive values")
    lx, ly = np.log(xs), np.log(ys)
    slope, intercept = np.polyfit(lx, ly, 1)
    resid = ly - (slope * lx + intercept)
    ss_tot = float(np.sum((ly - ly.mean()) ** 2))
    ss_res = float(np.sum(resid**2))
    r_sq = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return float(slope), float(intercept), float(r_sq)
