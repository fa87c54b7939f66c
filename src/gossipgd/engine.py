"""Distributed gradient descent engine with synchronized reference processes.

Each iteration advances four coupled recursions on the same step sequence:

* ``local``: the per-agent gossip iterates (the algorithm under study),
* ``pooled``: single-machine gradient descent on the union of all samples,
* ``population``: noiseless descent on the exact covariance,
* ``popcov``: linear accumulators that isolate the covariance-driven part
  of each agent's deviation from the pooled iterate.

Keeping them in lockstep is what makes the error decomposition in
:mod:`gossipgd.diagnostics` exact rather than estimated.

:func:`run` advances all four in one fused step per iteration, computing
the step-size factors once per step size (once per run when ``theta = 0``).
The public one-step helpers (:func:`dgd_step`, :func:`single_machine_step`,
:func:`population_step`, :func:`noise_terms` and
:func:`gossipgd.diagnostics.popcov_step`) are its reference: the fused step
evaluates each of their expressions in the same order, so every state
:func:`run` reaches is their step from the state before, bit for bit.
"""

from __future__ import annotations

import math
import warnings
from collections.abc import Iterable
from dataclasses import dataclass, field

import numpy as np

from . import diagnostics
from .problem import AgentData, CoordinateData, SpectralProblem
from .topology import GossipMatrix
from .tuning import check_theta

PROTOCOL_VARIANTS = ("gossip_after_gradient", "gossip_before_gradient")

DIVERGENCE_NORM = 1e12

# recorded states are scored by diagnostics.decompose in blocks of at most
# this many bytes of (n, d) local iterates (and at least one state)
_BLOCK_BYTES = 32 * 1024


class DivergenceError(RuntimeError):
    """Iterates left the trust region; carries the failing iteration and the records."""

    def __init__(self, iteration: int, records: diagnostics.Records):
        super().__init__(f"iterate norm exceeded {DIVERGENCE_NORM:.0e} at iteration {iteration}")
        self.iteration = iteration
        self.records = records


@dataclass(frozen=True)
class StepSchedule:
    """Polynomially decaying step sizes ``eta * t**-theta``."""

    eta: float
    theta: float = 0.0

    def __post_init__(self):
        if self.eta <= 0.0:
            raise ValueError("eta must be positive")
        check_theta(self.theta)

    def at(self, t: int) -> float:
        return self.eta if self.theta == 0.0 else self.eta * float(t) ** (-self.theta)

    def partial_sum(self, t: int) -> float:
        """sum of the first t step sizes."""
        if self.theta == 0.0:
            return self.eta * t
        return float(self.eta * np.sum(np.arange(1, t + 1, dtype=float) ** (-self.theta)))


@dataclass(frozen=True)
class AgentStats:
    """Per-agent sufficient statistics for least-squares gradients.

    The gradient of the local empirical risk at w is ``C_v w - b_v`` with
    ``C_v`` the empirical second moment and ``b_v`` the response
    cross-moment.  ``C_v`` is kept as an exact diagonal when every sample
    touches a single coordinate, as a dense matrix when m >= d, and
    implicitly (re-multiplying through the sample matrix) when d > m.
    :class:`~gossipgd.problem.CoordinateData` is reduced from its picks and
    values; only the dense and stream modes read the sample matrix, and only
    the stream mode keeps it.
    """

    xy: np.ndarray = field(repr=False)  # (n, d)
    mode: str
    cov_diag: np.ndarray | None = field(default=None, repr=False)  # (n, d)
    cov: np.ndarray | None = field(default=None, repr=False)  # (n, d, d)
    x: np.ndarray | None = field(default=None, repr=False)  # (n, m, d)

    @classmethod
    def from_data(cls, datasets: Iterable[AgentData | CoordinateData]) -> "AgentStats":
        """Reduce any iterable of agents in one pass, each agent as it arrives.

        Every agent is checked and reduced when it arrives and then dropped,
        except while every row seen so far has one nonzero and m < d: those
        agents are held, so that an agent with a two-nonzero row can hand
        their ``x`` to the stream mode.  When m >= d the dense fallback
        rebuilds each earlier agent's moments from its diag ones, bit for
        bit as if no diag attempt had been made.
        """
        shape = None
        diag = True  # every row so far has one nonzero
        held = []  # while diag and m < d: every agent so far, for the stream fallback
        moments = []  # per agent: x^T y, and diag(x^T x), x^T x or x by mode
        for data in datasets:
            agent_shape = _sample_shape(data)
            if shape is None:
                shape = agent_shape
            elif agent_shape != shape:
                raise ValueError(
                    f"agents must hold equally shaped samples, got {agent_shape}"
                    f" for agent {data.agent_id} after {shape}"
                )
            m, d = shape
            if np.shape(data.y) != (m,):
                raise ValueError(
                    f"agent {data.agent_id} holds {m} samples but y has shape {np.shape(data.y)}"
                )
            if diag:
                coords = _coordinates(data)
                if coords is not None:
                    moments.append(_diag_moments(*coords, data.y, d))
                    if m < d:
                        held.append(data)
                    del data, coords  # the next agent is drawn without this one alive
                    continue
                # a row with two nonzeros: the dense second moment of a
                # one-nonzero agent is its diag one on the diagonal, bit for
                # bit (each off-diagonal sum adds only zero products);
                # the stream mode needs each agent's x again
                if m >= d:
                    moments = [(xy, np.diag(second)) for xy, second in moments]
                else:
                    moments = [_moments(agent, False) for agent in held]
                diag, held = False, None
            moments.append(_moments(data, m >= d))
            del data  # the next agent is drawn without this one alive
        if shape is None:
            raise ValueError("need at least one agent")
        m, d = shape
        # an unnamed stack is divided in place (NumPy reuses the temporary),
        # so the statistics are not copied a third time
        xy, second = zip(*moments)
        xy = np.stack(xy) / m
        if diag:
            return cls(xy=xy, mode="diag", cov_diag=np.stack(second) / m)
        if m >= d:
            return cls(xy=xy, mode="dense", cov=np.stack(second) / m)
        return cls(xy=xy, mode="stream", x=np.stack(second))

    @property
    def n(self) -> int:
        return self.xy.shape[0]

    def gradients(self, W: np.ndarray) -> np.ndarray:
        """Per-agent gradients (n, d) at per-agent points W (n, d) or one shared point W (d,)."""
        if self.mode == "diag":
            return self.cov_diag * W - self.xy
        if self.mode == "dense":
            return (self.cov @ W[..., None])[..., 0] - self.xy
        m = self.x.shape[1]
        return (self.x.transpose(0, 2, 1) @ (self.x @ W[..., None]))[..., 0] / m - self.xy


def _sample_shape(data: AgentData | CoordinateData) -> tuple[int, int]:
    if isinstance(data, CoordinateData):
        return data.picks.size, data.d
    if np.ndim(data.x) != 2:
        raise ValueError(f"agent {data.agent_id} holds x of shape {np.shape(data.x)}, not (m, d)")
    return data.x.shape


def _coordinates(data: AgentData | CoordinateData):
    """An agent's rows as (picks, vals), one nonzero each, or None if a row has two."""
    if isinstance(data, CoordinateData):
        return data.picks, data.vals
    x = data.x
    nonzero = x != 0.0
    if np.count_nonzero(nonzero, axis=1).max(initial=0) > 1:
        return None
    picks = nonzero.argmax(axis=1)  # an all-zero row picks 0 with value 0
    return picks, x[np.arange(len(picks)), picks]


def _diag_moments(picks, vals, y, d):
    """One agent's x^T y and diag(x^T x) from its rows' one nonzero each.

    Each row adds its one nonzero to its own coordinate in row order; for
    d > 1 that is the order the dense reductions over samples add them in,
    so the sums keep their bits.
    """
    return np.bincount(picks, vals * y, d), np.bincount(picks, vals * vals, d)


def _moments(data: AgentData | CoordinateData, dense: bool):
    """One agent's x^T y, and its x^T x if ``dense`` or else its x."""
    x = data.x
    return np.einsum("md,m->d", x, data.y), (np.einsum("md,me->de", x, x) if dense else x)


@dataclass
class TrainState:
    """All lockstep iterates at iteration ``t`` (1-based, all-zero start)."""

    t: int
    local: np.ndarray  # (n, d)
    pooled: np.ndarray  # (d,)
    population: np.ndarray  # (d,)
    popcov_state: np.ndarray  # (n, d)
    popcov_avg: np.ndarray  # (d,)


@dataclass
class RunResult:
    records: diagnostics.Records
    final: TrainState


def dgd_step(
    local: np.ndarray,
    stats: AgentStats,
    P_entries: np.ndarray,
    eta: float,
    variant: str = "gossip_after_gradient",
) -> np.ndarray:
    """One distributed step: local gradient moves combined by gossip.

    ``gossip_after_gradient`` averages the post-gradient iterates (the
    default protocol); ``gossip_before_gradient`` averages first and then
    applies each agent's own gradient taken at its pre-average iterate.
    """
    if variant == "gossip_after_gradient":
        return P_entries @ (local - eta * stats.gradients(local))
    if variant == "gossip_before_gradient":
        return P_entries @ local - eta * stats.gradients(local)
    raise ValueError(f"unknown protocol variant {variant!r}")


def single_machine_step(pooled: np.ndarray, stats: AgentStats, eta: float) -> np.ndarray:
    """Gradient descent on all nm samples pooled into one machine."""
    return pooled - eta * stats.gradients(pooled).mean(axis=0)


def population_step(population: np.ndarray, problem: SpectralProblem, eta: float) -> np.ndarray:
    """Noiseless descent on the exact covariance (pure bias dynamics)."""
    return population - eta * problem.tau * (population - problem.target)


def noise_terms(population: np.ndarray, stats: AgentStats, problem: SpectralProblem) -> np.ndarray:
    """Per-agent gap between the population gradient and each local one.

    Evaluated along the population path these are mean-zero over the data
    draw; they are the inputs the popcov accumulators integrate.
    """
    pop_grad = problem.tau * (population - problem.target)
    return pop_grad[None, :] - stats.gradients(population)


def run(
    problem: SpectralProblem,
    datasets: Iterable[AgentData | CoordinateData],
    P: GossipMatrix,
    sched: StepSchedule,
    T: int,
    *,
    variant: str = "gossip_after_gradient",
    stride: int = 1,
    initial_local: np.ndarray | None = None,
    observer=None,
) -> RunResult:
    """Advance all processes in lockstep for T iterations.

    ``datasets`` is any iterable of agents, consumed once by
    :meth:`AgentStats.from_data`.  Iteration t is recorded whenever
    ``t % stride == 0``, plus always the last state reached: the records end
    at ``t = T``, or, if the update to ``t + 1`` sends the local iterates
    past ``DIVERGENCE_NORM`` (or to nan), at ``t``, and
    :class:`DivergenceError` is raised carrying them.  The
    recorded states are scored in blocks by
    :func:`gossipgd.diagnostics.decompose`, whose rows do not depend on the
    block, and copied into the run's record columns, which are allocated
    once; they are returned as one columnar
    :class:`~gossipgd.diagnostics.Records`.
    """
    if T < 1:
        raise ValueError("T must be >= 1")
    if stride < 1:
        raise ValueError("stride must be >= 1")
    if variant not in PROTOCOL_VARIANTS:
        raise ValueError(f"unknown protocol variant {variant!r}")

    stats = AgentStats.from_data(datasets)
    n, d = stats.n, problem.d
    if P.n != n:
        raise ValueError(f"gossip matrix is {P.n}x{P.n} but there are {n} agents")
    if stats.xy.shape[1] != d:
        raise ValueError("agent data dimension does not match the problem")
    if sched.at(1) * problem.kappa_sq > 1.0 + 1e-12:
        warnings.warn(
            f"eta * kappa_sq = {sched.at(1) * problem.kappa_sq:.3g} > 1; "
            "contraction of the local steps is not guaranteed",
            RuntimeWarning,
            stacklevel=2,
        )

    if initial_local is None:
        local = np.zeros((n, d))
    else:
        local = np.array(initial_local, dtype=float)
        if local.shape != (n, d):
            raise ValueError(f"initial_local must have shape {(n, d)}")
    state = TrainState(
        t=1,
        local=local,
        pooled=np.zeros(d),
        population=np.zeros(d),
        popcov_state=np.zeros((n, d)),
        popcov_avg=np.zeros(d),
    )

    block = max(1, _BLOCK_BYTES // local.nbytes)
    rows = T // stride + (T % stride != 0)  # the states a run that reaches T records
    columns, pending = {}, []  # the run's record columns, and recorded states not yet scored
    filled = 0  # rows of the columns scored so far

    def flush():
        nonlocal filled
        if not pending:
            return
        scored = vars(diagnostics.decompose(pending, problem))
        if not columns:
            columns.update(
                (name, np.empty((rows, *col.shape[1:]), col.dtype)) for name, col in scored.items()
            )
        for name, col in scored.items():
            columns[name][filled : filled + len(pending)] = col
        filled += len(pending)
        pending.clear()

    def records():
        return diagnostics.Records(**{name: col[:filled] for name, col in columns.items()})

    tau, target, gossip = problem.tau, problem.target, P.entries
    gradients = stats.gradients
    after = variant == "gossip_after_gradient"
    eta = None  # the step size the factors below were computed for
    for t in range(1, T + 1):
        if observer is not None:
            observer(state)
        if t % stride == 0 or t == T:
            pending.append(state)
            if len(pending) == block:
                flush()
        if t == T:
            break
        # each expression keeps its reference helper's order of evaluation
        eta_t = sched.at(t)
        if eta_t != eta:
            eta = eta_t
            eta_tau = eta * tau
            decay = 1.0 - eta_tau
            decay_rows = np.tile(decay, (n, 1))
        local, population = state.local, state.population
        if after:
            new_local = gossip @ (local - eta * gradients(local))
        else:
            new_local = gossip @ local - eta * gradients(local)
        if not math.sqrt(np.vdot(new_local, new_local)) <= DIVERGENCE_NORM:  # also true for nan
            if t % stride != 0:
                pending.append(state)
            flush()
            raise DivergenceError(t + 1, records())
        gap = population - target
        noise = tau * gap - gradients(population)
        state = TrainState(
            t=t + 1,
            local=new_local,
            pooled=state.pooled - eta * (np.add.reduce(gradients(state.pooled), 0) / n),
            population=population - eta_tau * gap,
            popcov_state=gossip @ (decay_rows * state.popcov_state + eta * noise),
            popcov_avg=decay * state.popcov_avg + eta * (np.add.reduce(noise, 0) / n),
        )
    flush()
    return RunResult(records=records(), final=state)
