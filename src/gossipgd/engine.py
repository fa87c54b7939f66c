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
The half of the step that reads no iterate (population, noise terms,
popcov_avg increments) is computed a block of steps ahead.  The public
one-step helpers (:func:`dgd_step`, :func:`single_machine_step`,
:func:`population_step`, :func:`noise_terms` and
:func:`gossipgd.diagnostics.popcov_step`) are its reference: the fused step
evaluates each of their expressions in the same order, in a block or not,
so every state :func:`run` reaches is their step from the state before,
bit for bit.
"""

from __future__ import annotations

import math
import operator
import warnings
from collections.abc import Iterable
from contextlib import nullcontext
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


@dataclass(frozen=True)
class AgentStats:
    """Per-agent sufficient statistics for least-squares gradients.

    The gradient of the local empirical risk at w is ``C_v w - b_v`` with
    ``C_v`` the empirical second moment and ``b_v`` the response
    cross-moment.  The type of the samples picks how ``C_v`` is kept:
    :class:`~gossipgd.problem.CoordinateData` as an exact diagonal, reduced
    from its picks and values (``diag``); :class:`~gossipgd.problem.AgentData`
    as a dense matrix when m >= d (``dense``), and implicitly, re-multiplying
    through the sample matrix, when d > m (``stream``).  Only the stream mode
    keeps the sample matrix.

    Each array starts on a 64-byte boundary: the batched gemv of the dense
    gradient at n = 32, d = 64 took 18.6 us there against 23.9 us at a
    16-byte offset (2-core Xeon VM), with the same bits at every offset.
    """

    xy: np.ndarray = field(repr=False)  # (n, d)
    mode: str
    cov_diag: np.ndarray | None = field(default=None, repr=False)  # (n, d)
    cov: np.ndarray | None = field(default=None, repr=False)  # (n, d, d)
    x: np.ndarray | None = field(default=None, repr=False)  # (n, m, d)

    @classmethod
    def from_data(cls, datasets: Iterable[AgentData | CoordinateData]) -> "AgentStats":
        """Reduce any iterable of agents in one pass, each agent as it arrives.

        The type of the agents picks the mode: ``CoordinateData`` gives
        ``diag``, ``AgentData`` gives ``dense`` when m >= d and ``stream``
        otherwise.  Mixing the two types is an error.  Every agent is checked
        and reduced when it arrives, written into the stacks and dropped;
        only the stream mode keeps its ``x``.  Each stack is allocated for
        the iterable's ``operator.length_hint`` on a 64-byte boundary and
        divided by m in place at the end: the bits of ``np.stack(...) / m``
        at a peak of one stack and one agent, not two stacks.
        """
        shape = coordinate = stacks = None
        capacity = operator.length_hint(datasets)
        for data in datasets:
            agent_shape = _sample_shape(data)
            if shape is None:
                shape, coordinate = agent_shape, isinstance(data, CoordinateData)
            elif isinstance(data, CoordinateData) != coordinate:
                first = "CoordinateData" if coordinate else "AgentData"
                raise ValueError(
                    f"agents must all be of one type, got {type(data).__name__}"
                    f" for agent {data.agent_id} after {first}"
                )
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
            # x^T y, and diag(x^T x), x^T x or x by mode; only x is not divided by m
            moments = _diag_moments(data) if coordinate else _moments(data, m >= d)
            if stacks is None:
                divisors = (m, m if coordinate or m >= d else None)
                stacks = [_Stack(row, capacity, q) for row, q in zip(moments, divisors)]
            for stack, row in zip(stacks, moments):
                stack.append(row)
            del data, moments, row  # the next agent is drawn without this one alive
        if shape is None:
            raise ValueError("need at least one agent")
        m, d = shape
        xy, second = (stack.done() for stack in stacks)
        if coordinate:
            return cls(xy=xy, mode="diag", cov_diag=second)
        if m >= d:
            return cls(xy=xy, mode="dense", cov=second)
        return cls(xy=xy, mode="stream", x=second)

    @property
    def n(self) -> int:
        return self.xy.shape[0]

    def gradients(self, W: np.ndarray) -> np.ndarray:
        """Per-agent gradients (n, d) at per-agent points W (n, d) or one shared point W (d,).

        A stack of K shared points W (K, 1, d) gives (K, n, d), each of the
        K slices with the bits of its point's own call.
        """
        if self.mode == "diag":
            return self.cov_diag * W - self.xy
        if self.mode == "dense":
            return (self.cov @ W[..., None])[..., 0] - self.xy
        m = self.x.shape[1]
        return (self.x.transpose(0, 2, 1) @ (self.x @ W[..., None]))[..., 0] / m - self.xy


# the boundary AgentStats' arrays start on (see its docstring)
_CACHE_LINE = 64


class _Stack:
    """One statistic, stacked a row at a time on a cache line.

    A full buffer doubles by reallocation (``ndarray.resize``), so old and
    new are never both held; :meth:`done` cuts it to its rows and moves
    them back onto the boundary if a reallocation moved the buffer.  The
    dtype is the one ``np.stack(rows) / divisor`` would have.
    """

    def __init__(self, row, capacity, divisor=None):
        self.shape, self.rows, self.capacity, self.divisor = row.shape, 0, max(capacity, 1), divisor
        self.dtype = np.result_type(row.dtype, 1.0) if divisor is not None else row.dtype
        self._allocate()

    def _nbytes(self, rows):
        return rows * math.prod(self.shape) * self.dtype.itemsize

    def _allocate(self):
        self.raw = np.empty(self._nbytes(self.capacity) + _CACHE_LINE, np.uint8)
        self.start = -self.raw.ctypes.data % _CACHE_LINE

    def _view(self, rows):
        raw = self.raw[self.start : self.start + self._nbytes(rows)]
        return raw.view(self.dtype).reshape(rows, *self.shape)

    def append(self, row):
        dtype = np.result_type(self.dtype, row.dtype)
        full = self.rows == self.capacity
        if full:
            self.capacity *= 2
        if dtype != self.dtype:  # a wider row recasts the rows so far, as np.stack would
            rows, self.dtype = self._view(self.rows), dtype
            self._allocate()
            self._view(self.rows)[...] = rows
        elif full:
            self.raw.resize(self._nbytes(self.capacity) + _CACHE_LINE)
        self._view(self.rows + 1)[-1] = row
        self.rows += 1

    def done(self):
        nbytes = self._nbytes(self.rows)
        self.raw.resize(nbytes + _CACHE_LINE)
        start = -self.raw.ctypes.data % _CACHE_LINE
        if start != self.start:  # an overlapping one-dimensional copy moves the bytes in place
            self.raw[start : start + nbytes] = self.raw[self.start : self.start + nbytes]
            self.start = start
        out = self._view(self.rows)
        if self.divisor is not None:
            out /= self.divisor
        return out


def _sample_shape(data: AgentData | CoordinateData) -> tuple[int, int]:
    if isinstance(data, CoordinateData):
        return data.picks.size, data.d
    if np.ndim(data.x) != 2:
        raise ValueError(f"agent {data.agent_id} holds x of shape {np.shape(data.x)}, not (m, d)")
    return data.x.shape


def _diag_moments(data: CoordinateData):
    """One agent's x^T y and diag(x^T x) from its rows' one nonzero each.

    Each row adds its one nonzero to its own coordinate in row order; for
    d > 1 that is the order the dense reductions over samples add them in,
    so the sums keep their bits.  ``np.add.at`` reads ``picks`` in place
    (``np.bincount`` would copy the sampler's read-only array).
    """
    picks, vals = data.picks, data.vals
    xy, second = np.zeros(data.d), np.zeros(data.d)
    np.add.at(xy, picks, vals * data.y)
    np.add.at(second, picks, vals * vals)
    return xy, second


def _moments(data: AgentData, dense: bool):
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


class _Counted:
    """Agents whose count is known before they are drawn (``operator.length_hint``)."""

    def __init__(self, agents, count):
        self.agents, self.count = agents, count

    def __iter__(self):
        return iter(self.agents)

    def __length_hint__(self):
        return self.count


def _population_block(stats, problem, population, steps):
    """The half of K = ``len(steps)`` fused steps that reads no iterate.

    Returns the population after each step (K, d), each step's
    ``eta * noise`` (K, n, d) and popcov_avg increment (K, d).  The path is
    its own sequential recursion and one ``gradients`` call on its stacked
    (K, 1, d) points gives every step's noise, each expression as the
    fused step has it, so no bit moves.
    """
    tau, target, K = problem.tau, problem.target, len(steps)
    if steps.count(steps[0]) == K:  # one step size: its factors are scalars, computed once
        eta = eta_rows = steps[0]
        eta_taus = [eta * tau] * K
    else:
        eta = np.array(steps)[:, None, None]
        eta_rows = eta[:, :, 0]
        eta_taus = eta_rows * tau
    path = np.empty((K + 1, problem.d))
    path[0] = population
    gap = np.empty((K, problem.d))
    for now, later, gap_now, eta_tau in zip(path, path[1:], gap, eta_taus):
        np.subtract(now, target, out=gap_now)
        np.subtract(now, eta_tau * gap_now, out=later)
    noise = stats.gradients(path[:-1, None, :])
    np.subtract((tau * gap)[:, None, :], noise, out=noise)
    increment = eta_rows * (np.add.reduce(noise, 1) / stats.n)
    noise *= eta
    return path[1:], noise, increment


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

    The population side of the step, which reads no iterate, is computed
    by :func:`_population_block` as many steps ahead as a record block
    holds (at least one, never past T); the states keep their bits.  A
    block that raises a floating-point overflow or invalid operation is
    dropped, and the run goes on a step at a time, so it warns about the
    steps it reaches and no others.
    """
    if T < 1:
        raise ValueError("T must be >= 1")
    if stride < 1:
        raise ValueError("stride must be >= 1")
    if variant not in PROTOCOL_VARIANTS:
        raise ValueError(f"unknown protocol variant {variant!r}")

    stats = AgentStats.from_data(_Counted(datasets, P.n))
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

    tau, gossip = problem.tau, P.entries
    gradients = stats.gradients
    after = variant == "gossip_after_gradient"
    eta = None  # the step size the factors below were computed for
    first = end = 1  # the population side is computed for steps first .. end - 1
    errors = []  # floating-point errors a block computed ahead raised

    def note(kind, flag):
        errors.append(kind)

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
            decay = 1.0 - eta * tau
            decay_rows = np.tile(decay, (n, 1))
        local = state.local
        if after:
            new_local = gossip @ (local - eta * gradients(local))
        else:
            new_local = gossip @ local - eta * gradients(local)
        if not math.sqrt(np.vdot(new_local, new_local)) <= DIVERGENCE_NORM:  # also true for nan
            if t % stride != 0:
                pending.append(state)
            flush()
            raise DivergenceError(t + 1, records())
        if t == end:
            # the run may stop before the steps computed ahead, so a block
            # that overflows is dropped, and from then on each step is
            # computed as the run reaches it and warns as a lone step does
            quiet = not errors
            steps = [sched.at(s) for s in range(t, min(t + block, T) if quiet else t + 1)]
            with np.errstate(call=note, over="call", invalid="call") if quiet else nullcontext():
                ahead = _population_block(stats, problem, state.population, steps)
            if quiet and errors:
                steps = steps[:1]
                ahead = _population_block(stats, problem, state.population, steps)
            population, eta_noise, increment = ahead
            first, end = t, t + len(steps)
        k = t - first
        state = TrainState(
            t=t + 1,
            local=new_local,
            pooled=state.pooled - eta * (np.add.reduce(gradients(state.pooled), 0) / n),
            population=population[k],
            popcov_state=gossip @ (decay_rows * state.popcov_state + eta_noise[k]),
            popcov_avg=decay * state.popcov_avg + increment[k],
        )
    flush()
    return RunResult(records=records(), final=state)
