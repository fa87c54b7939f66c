"""Distributed gradient descent engine with synchronized reference processes.

Each iteration advances four coupled recursions on the same step sequence:

* ``local``: the per-agent gossip iterates (the algorithm under study),
* ``pooled``: single-machine gradient descent on the union of all samples,
  one gradient per step on their pooled statistics,
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

import contextvars
import math
import operator
import warnings
from collections.abc import Iterable
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field

import numpy as np

from . import diagnostics
from .problem import AgentData, CoordinateData, SpectralProblem
from .topology import GossipMatrix
from .tuning import check_theta

PROTOCOL_VARIANTS = ("gossip_after_gradient", "gossip_before_gradient")

DIVERGENCE_NORM = 1e12

# recorded states are scored by diagnostics.decompose in blocks of at most
# this many bytes of (n, d) local iterates (and at least one state); the
# population side is computed as many steps ahead.  Larger blocks, or a floor
# in steps, lose where blocks are smallest (n = 4, d = 512: two states).
# There 64 and 96 KiB read +13% and +17% sweep time and +0.25 and +0.7 MB
# peak RSS, and at eight states decompose's temporaries reach 128 KiB,
# glibc's mmap threshold, so each is mapped and page-faulted anew on every
# call: 600 us a call, against 280 us with the threshold raised (2-core
# Xeon VM)
_BLOCK_BYTES = 32 * 1024

# a sweep job's per-agent record rows wait for their reduction over agents in
# a buffer of at most this many bytes (see _Summary), under glibc's mmap
# threshold, so it is not mapped and page-faulted anew for every job
_STAGE_BYTES = 64 * 1024


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

    Each array :meth:`from_data` builds starts on a 64-byte boundary: the
    batched gemv of the dense gradient at n = 32, d = 64 took 18.6 us there
    against 23.9 us at a 16-byte offset (2-core Xeon VM), with the same bits
    at every offset.
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

    def _single_machine(self) -> AgentStats:
        """The pooled machine: one agent that holds all n·m samples.

        Its ``xy`` and ``cov_diag`` or ``cov`` are the agents' averaged over
        agents; from stream agents it keeps ``X^T X / (n m)`` of the stacked
        ``x`` when n·m >= d, else the ``(1, n m, d)`` view of ``x``.
        """
        xy, x = self.xy.mean(0, keepdims=True), self.x
        if x is None:
            second = (
                None if a is None else a.mean(0, keepdims=True) for a in (self.cov_diag, self.cov)
            )
            return AgentStats(xy, self.mode, *second)
        x = x.reshape(-1, x.shape[2])
        if len(x) < x.shape[1]:
            return AgentStats(xy, "stream", x=x[None])
        return AgentStats(xy, "dense", cov=np.einsum("md,me->de", x, x)[None] / len(x))

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

    A full buffer grows by half its rows, rounded up, by reallocation
    (``ndarray.resize``), so old and new are never both held; :meth:`done`
    cuts it to its rows and moves them back onto the boundary if a
    reallocation moved the buffer.  The dtype is the one
    ``np.stack(rows) / divisor`` would have.
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
            self.capacity += (self.capacity + 1) // 2
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
    """Gradient descent on all nm samples pooled into one machine.

    One gradient of :meth:`AgentStats._single_machine`, as in :func:`run`;
    its bits are not those of the mean of the agents' gradients.
    """
    return pooled - eta * stats._single_machine().gradients(pooled)[0]


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
    store = _STORE.get()  # a sweep job's own store, or else the record columns
    if store is None:
        store = _Columns(_recorded_rows(T, stride))
    pending = []  # recorded states not yet scored

    def flush():
        if pending:
            store(diagnostics.decompose(pending, problem))
            pending.clear()

    tau, gossip, machine = problem.tau, P.entries, stats._single_machine()
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
            raise DivergenceError(t + 1, store.records())
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
            pooled=state.pooled - eta * machine.gradients(state.pooled)[0],
            population=population[k],
            popcov_state=gossip @ (decay_rows * state.popcov_state + eta_noise[k]),
            popcov_avg=decay * state.popcov_avg + increment[k],
        )
    flush()
    return RunResult(records=store.records(), final=state)


def _recorded_rows(T: int, stride: int) -> int:
    """The states a run that reaches T records: every stride-th one and the last."""
    return T // stride + (T % stride != 0)


class _Columns:
    """:func:`run`'s record columns: allocated once, on the first scored block."""

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
        return diagnostics.Records(
            **{name: col[: self.filled] for name, col in self.columns.items()}
        )


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

# where run() puts its scored blocks when not in its own record columns
_STORE = contextvars.ContextVar("store", default=None)


@contextmanager
def _records_to(store):
    """Have :func:`run`, in this context, hand its scored blocks to ``store``.

    ``store`` is called with each scored block of
    :class:`~gossipgd.diagnostics.Records`, in order, and what its
    ``records()`` returns takes the record columns' place in the
    :class:`RunResult` or :class:`DivergenceError`; ``None`` restores the
    columns.  A sweep job keeps only a :class:`_Summary` this way and still
    goes through :func:`run`, the name the benchmark's tracer wraps.
    """
    token = _STORE.set(store)
    try:
        yield
    finally:
        _STORE.reset(token)
