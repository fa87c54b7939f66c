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

# a sweep job's per-agent record rows wait for their reduction over agents in
# a buffer of at most this many bytes (see _Summary), under glibc's mmap
# threshold, so it is not mapped and page-faulted anew for every job
_STAGE_BYTES = 64 * 1024


@dataclass(frozen=True, eq=False)
class Records:
    """Decomposition records as read-only columns, one row per recorded iteration.

    ``t`` and the agent-shared scalars ``bias_sq``, ``sample_var`` and
    ``consensus_err`` are ``(R,)`` columns; the per-agent ``excess``,
    ``network_err``, ``popcov_err`` and ``residual_err`` are ``(R, n)``
    columns.  ``len`` gives the row count R.
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

    def risk_bound(self) -> np.ndarray:
        """Per-agent certified bound 2*bias + 4*variance + 4*network, ``(R, n)``."""
        return 2.0 * self.bias_sq[:, None] + 4.0 * self.sample_var[:, None] + 4.0 * self.network_err


def decompose(states, problem: SpectralProblem) -> Records:
    """Score a block of recorded states against the oracle.

    ``states`` is a :class:`~gossipgd.engine.TrainState` whose fields carry
    a leading record axis of R >= 1 rows: ``t`` (R,), ``local`` and
    ``popcov_state`` (R, n, d), and ``pooled``, ``population`` and
    ``popcov_avg`` (R, d), of any strides.  Returns one :class:`Records`
    table whose row r scores state r, bit for bit as a block of that state
    alone: the per-agent fields are one matrix-vector product per state and
    ``bias_sq`` and ``sample_var`` one ``(1, d) @ (d,)`` product per state,
    which gives the bits of ``np.dot(tau, row)``.  The records share no
    memory with ``states``.
    """
    tau = problem.tau
    target = problem.target
    local, pooled, population = states.local, states.pooled, states.population

    sq = local - target  # (R, n, d); squared in place, then reused
    sq *= sq
    excess = sq @ tau

    gap = population - target
    gap *= gap
    bias_sq = (gap[:, None, :] @ tau)[:, 0]
    gap = pooled - population
    gap *= gap
    sample_var = (gap[:, None, :] @ tau)[:, 0]

    dev = local - pooled[:, None, :]
    pvec = states.popcov_state - states.popcov_avg[:, None, :]
    rvec = np.subtract(dev, pvec, out=sq)
    rvec *= rvec
    residual_err = rvec @ tau
    dev *= dev
    network_err = dev @ tau
    pvec *= pvec
    popcov_err = pvec @ tau

    center = np.add.reduce(local, 1) / local.shape[1]  # the bits of local.mean(axis=1)
    off = np.subtract(local, center[:, None, :], out=sq)
    off *= off
    consensus_err = np.sqrt(off.sum(axis=-1).max(axis=-1))

    return Records(
        t=np.array(states.t),
        excess=excess,
        bias_sq=bias_sq,
        sample_var=sample_var,
        network_err=network_err,
        consensus_err=consensus_err,
        popcov_err=popcov_err,
        residual_err=residual_err,
    )


class _Columns:
    """:func:`~gossipgd.engine.run`'s record columns, allocated on the first scored block."""

    def __init__(self, rows):
        self.rows, self.filled, self.columns = rows, 0, {}

    def __call__(self, block):
        scored = vars(block)
        if not self.columns:
            self.columns = {
                name: np.empty((self.rows, *col.shape[1:]), col.dtype)
                for name, col in scored.items()
            }
        start = self.filled
        self.filled += len(block)
        for name, col in scored.items():
            self.columns[name][start : self.filled] = col

    def records(self):
        return Records(**{name: col[: self.filled] for name, col in self.columns.items()})


class _Summary:
    """A run's records reduced over agents as each scored block arrives.

    ``t`` holds the recorded iterations and ``table`` one row for each of
    ``COLUMNS``: each per-agent column's mean over agents, then its max,
    then the agent-shared columns; ``filled`` rows of both are set once
    :meth:`records` has returned.  The per-agent columns are staged and
    reduced when the stage is full, in two NumPy calls for many blocks (a
    block holds as few as two states at n = 4, d = 512).  Each row is
    reduced over the contiguous agent axis, which has the bits of the whole
    column's reduction.
    """

    PER_AGENT = ("excess", "network_err", "popcov_err", "residual_err")
    SHARED = ("bias_sq", "sample_var", "consensus_err")
    COLUMNS = (*(f"{c}_mean" for c in PER_AGENT), *(f"{c}_max" for c in PER_AGENT), *SHARED)

    def __init__(self, rows):
        self.rows, self.table = rows, None
        self.filled = self.staged = 0  # rows copied, and rows of them still staged

    def __call__(self, block):
        k, cols = len(block), vars(block)
        if self.table is None:
            self._allocate(k, cols["excess"].shape[1])
        elif self.staged + k > self.stage.shape[1]:
            self._reduce()
        start, staged = self.filled, self.staged
        self.filled, self.staged = start + k, staged + k
        self.t[start : self.filled] = cols["t"]
        for row, name in zip(self.shared, self.SHARED):
            row[start : self.filled] = cols[name]
        for plane, name in zip(self.planes, self.PER_AGENT):
            plane[staged : self.staged] = cols[name]

    def _allocate(self, k, n):
        # on the first block, after the statistics build and its peak; no
        # later block of a run holds more rows than its first
        self.t = np.empty(self.rows, np.int64)
        self.table = np.empty((len(self.COLUMNS), self.rows))
        self.shared = list(self.table[-len(self.SHARED) :])
        stage_rows = max(k, _STAGE_BYTES // (len(self.PER_AGENT) * n * 8))
        self.stage = np.empty((len(self.PER_AGENT), min(stage_rows, self.rows), n))
        self.planes = list(self.stage)

    def _reduce(self):
        staged, rows = self.stage[:, : self.staged], slice(self.filled - self.staged, self.filled)
        p = len(self.PER_AGENT)
        staged.mean(axis=2, out=self.table[:p, rows])
        staged.max(axis=2, out=self.table[p : 2 * p, rows])
        self.staged = 0

    def records(self):
        """Reduce what is still staged; the summary stands in for the records."""
        if self.staged:
            self._reduce()
        return self


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
    if not np.all((0.0 < xs) & (xs < np.inf) & (0.0 < ys) & (ys < np.inf)):  # also false for nan
        raise ValueError("log-log fit needs positive finite values")
    lx, ly = np.log(xs), np.log(ys)
    slope, intercept = np.polyfit(lx, ly, 1)
    resid = ly - (slope * lx + intercept)
    ss_tot = float(np.sum((ly - ly.mean()) ** 2))
    ss_res = float(np.sum(resid**2))
    r_sq = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return float(slope), float(intercept), float(r_sq)
