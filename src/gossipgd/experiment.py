"""Config-driven sweeps: run replicated simulations and tabulate results.

A config file (INI-style, one section per concern) fixes the problem,
topology, sweep axes, schedule and run budget.  Every (sweep point,
replicate) pair derives its own seed from the master seed by a stable
hash, so runs are reproducible one at a time, in any order, and adding
replicates never changes existing ones.
"""

from __future__ import annotations

import ast
import configparser
import hashlib
import math
import os
from dataclasses import dataclass, field, fields as dataclass_fields
from functools import cached_property
from itertools import chain, product, repeat
from pathlib import Path

import numpy as np

from . import diagnostics, engine, topology
from .diagnostics import fit_loglog_slope
from .problem import make_problem, sample_agent_data
from .topology import Topology, build_gossip_matrix, build_topology, chebyshev_accelerate
from .tuning import tune_plan

SCHEMA_VERSION = 1

ETA_AUTO = "auto"

_REQUIRED = object()  # default of a key the config must set


def _key(section, parse, default=_REQUIRED, check=None, key=None):
    """Declare one config key: its section, INI name, parser, default and check.

    ``key`` is the INI name where it differs from the field name; ``check``
    raises ValueError for a parsed value outside the allowed range.
    """
    meta = {"section": section, "key": key, "parse": parse, "default": default, "check": check}
    return field(metadata=meta)


def _rule(ok, allowed):
    def check(value):
        if not ok(value):
            raise ValueError(f"must be {allowed}")

    return check


def _one_of(options):
    return _rule(lambda v: v in options, f"one of {options}")


def _at_least(lo):
    return _rule(lambda v: v >= lo, f">= {lo}")


def _int_list(text: str) -> tuple[int, ...]:
    values = tuple(int(v) for v in text.replace(",", " ").split())
    if not values:
        raise ValueError("empty list")
    return values


def _parse_edges(text: str) -> tuple[tuple[int, int], ...]:
    edges = []
    for chunk in text.replace(",", " ").split():
        a, sep, b = chunk.partition("-")
        if not sep:
            raise ValueError(f"edge {chunk!r} is not of the form v-w")
        edges.append((int(a), int(b)))
    return tuple(edges)


def _parse_eta(text: str) -> str | float:
    return ETA_AUTO if text == ETA_AUTO else float(text)


@dataclass(frozen=True)
class ExperimentConfig:
    """A sweep config; each field declares its INI key, parser and default.

    A key that the problem, a gossip matrix or the step schedule takes is
    checked by building that object at load; any other key declares its own
    check.  The field order is the order of the CSV's config echo.
    :attr:`problem` and :attr:`gossip` are built on first access and kept;
    not being fields, they are built anew for a ``dataclasses.replace`` copy.
    """

    # problem: checked by make_problem
    d: int = _key("problem", int)
    gamma: float = _key("problem", float)
    r: float = _key("problem", float)
    R: float = _key("problem", float, 1.0)
    noise_sigma: float = _key("problem", float, 0.0)
    sampler: str = _key("problem", str, "coordinate")
    # topology: a name is checked on its own, the rest by building every
    # sweep n's gossip matrix, whose errors name the n
    kind: str = _key("topology", str, check=_one_of(topology.TOPOLOGY_KINDS))
    weight_scheme: str = _key("topology", str, "metropolis_lazy", _one_of(topology.WEIGHT_SCHEMES))
    rows: int | None = _key("topology", int, None)
    cols: int | None = _key("topology", int, None)
    degree: int | None = _key("topology", int, None)
    topology_seed: int = _key("topology", int, 0, key="seed")
    edges: tuple[tuple[int, int], ...] | None = _key("topology", _parse_edges, None)
    chebyshev_k: int = _key("topology", int, 0, _at_least(0))  # 0 disables acceleration
    # sweep
    sweep_n: tuple[int, ...] = _key("sweep", _int_list, key="n")
    sweep_m: tuple[int, ...] = _key(
        "sweep", _int_list, check=_rule(lambda ms: min(ms) >= 1, "all >= 1"), key="m"
    )
    # schedule: eta is either the token "auto" (tuned per sweep point) or a
    # number; a number and theta are checked by building the step schedule
    theta: float = _key("schedule", float, 0.0)
    eta: str | float = _key("schedule", _parse_eta)
    # run
    t_max: int = _key("run", int, check=_at_least(1), key="T_max")
    stride: int = _key("run", int, 0, _at_least(0))  # 0 means the default max(1, updates // 200)
    replicates: int = _key("run", int, 1, _at_least(1))
    master_seed: int = _key("run", int, 0, _at_least(0))
    protocol: str = _key("run", str, "gossip_after_gradient", _one_of(engine.PROTOCOL_VARIANTS))
    output: str = _key(
        "run", str, "results.csv", _rule(lambda v: Path(v).name not in ("", ".."), "a file name")
    )

    @cached_property
    def problem(self):
        """The sweep's problem; a bad one raises ValueError prefixed ``[problem]``."""
        try:
            return make_problem(self.d, self.gamma, self.r, self.R, self.noise_sigma, self.sampler)
        except ValueError as exc:
            raise ValueError(f"[problem] {exc}") from None

    @cached_property
    def gossip(self):
        """Sweep n -> its gossip matrix, Chebyshev at ``chebyshev_k >= 2``; errors name the n."""
        gossip = {}
        for n in dict.fromkeys(self.sweep_n):
            top = Topology(
                self.kind, n, self.rows, self.cols, self.degree, self.edges, self.topology_seed
            )
            try:
                P = build_gossip_matrix(build_topology(top), self.weight_scheme)
                gossip[n] = P if self.chebyshev_k < 2 else chebyshev_accelerate(P, self.chebyshev_k)
            except ValueError as exc:
                raise ValueError(f"[topology] kind = {self.kind} at sweep n = {n}: {exc}") from None
        return gossip


# the CSV column order: one line per recorded iteration of one run
RUN_RECORD_COLUMNS = (
    "sweep_index", "n", "m", "replicate",  # the job
    "t", "excess_mean", "excess_max", "bias_sq", "sample_var",  # the recorded iteration
    "network_err_mean", "network_err_max", "consensus_err",
    "popcov_err_mean", "popcov_err_max", "residual_err_mean", "residual_err_max",
    "eta", "theta", "t_stop", "t_star", "regime", "sigma2",  # the job's schedule and graph
    "diverged_at",  # -1 when the run completed
)

# CSV lines are formatted this many rows at a time, so a job's Python floats
# are never all alive at once
_CHUNK_ROWS = 256


def derive_seed(master_seed: int, sweep_index: int, replicate: int) -> int:
    """Stable 64-bit run seed; independent of all other (point, replicate) pairs."""
    payload = f"{master_seed}:{sweep_index}:{replicate}".encode("ascii")
    return int.from_bytes(hashlib.sha256(payload).digest()[:8], "big")


def load_config(path) -> ExperimentConfig:
    """Parse and validate an experiment config file.

    A malformed INI file raises ValueError naming its line; ``%`` is
    literal.  Every key is parsed, and checked where its field declares a
    check; then load builds what the sweep builds: the config's problem
    and gossip matrices, kept for the sweep, and, unless eta is auto, the
    step schedule.  So a config that loads cannot fail on any of them
    mid-sweep, and each error names its section.
    """
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",), interpolation=None)
    parser.optionxform = str  # keys like T_max and R are case sensitive
    try:
        read = parser.read(os.fspath(path))
    except configparser.Error as exc:  # its message names the file and the line
        raise ValueError(" ".join(str(exc).split())) from None
    if not read:
        raise ValueError(f"config file not found: {path}")
    schema = dataclass_fields(ExperimentConfig)
    known = dict.fromkeys(f.metadata["section"] for f in schema)
    extra = set(parser.sections()) - set(known)
    if extra:
        raise ValueError(f"unknown config sections: {sorted(extra)}")
    for section in known:
        if not parser.has_section(section):
            raise ValueError(f"missing config section [{section}]")

    unread = {section: dict(parser[section]) for section in known}
    values = {}
    for f in schema:
        meta = f.metadata
        section, key = meta["section"], meta["key"] or f.name
        if key not in unread[section]:
            if meta["default"] is _REQUIRED:
                raise ValueError(f"[{section}] missing required key {key!r}")
            values[f.name] = meta["default"]
            continue
        raw = unread[section].pop(key)
        try:
            values[f.name] = meta["parse"](raw)
            if meta["check"] is not None:
                meta["check"](values[f.name])
        except ValueError as exc:
            raise ValueError(f"[{section}] {key} = {raw!r}: {exc}") from None
    for section, stray in unread.items():
        if stray:
            raise ValueError(f"[{section}] unknown keys: {', '.join(sorted(stray))}")
    cfg = ExperimentConfig(**values)

    if cfg.eta == ETA_AUTO and cfg.theta != 0.0:
        raise ValueError("[schedule] eta = auto requires theta = 0 (constant steps)")
    cfg.problem, cfg.gossip  # built here, and kept for the sweep
    if cfg.eta != ETA_AUTO:
        try:
            engine.StepSchedule(cfg.eta, cfg.theta)
        except ValueError as exc:
            raise ValueError(f"[schedule] {exc}") from None
    return cfg


def _config_echo(cfg: ExperimentConfig) -> list[str]:
    """Canonical comment-block echo; fixed order so reruns are byte-identical."""
    lines = [f"# schema_version = {SCHEMA_VERSION}"]
    for f in dataclass_fields(cfg):
        value = _format_cell(getattr(cfg, f.name))
        lines.append(f"# config.{f.metadata['section']}.{f.name} = {value}")
    return lines


def _run_one(cfg: ExperimentConfig, sweep_index: int, n: int, m: int, replicate: int):
    """Execute one replicate on ``cfg.problem`` and n's gossip matrix ``cfg.gossip[n]``.

    Returns an iterator over its records' CSV lines.  Each scored block of
    records is reduced over agents as it arrives, so no per-agent record
    column is held, and the lines are formatted a chunk of rows at a time.
    A diverged run keeps its partial records, which end at the last finite
    state.
    """
    problem, P = cfg.problem, cfg.gossip[n]
    seed = derive_seed(cfg.master_seed, sweep_index, replicate)
    plan = tune_plan(n, m, cfg.r, cfg.gamma, P.sigma2, problem.kappa_sq)
    if cfg.eta == ETA_AUTO:
        eta, updates = plan.eta, min(cfg.t_max, plan.t_stop)
    else:
        eta, updates = float(cfg.eta), cfg.t_max
    sched = engine.StepSchedule(eta=eta, theta=cfg.theta)
    # drawn one agent at a time as the statistics build consumes them
    datasets = (sample_agent_data(problem, m, v, seed) for v in range(n))
    T, stride = updates + 1, cfg.stride or max(1, updates // 200)

    diverged_at = -1
    try:
        summary = engine.run(
            problem, datasets, P, sched, T, variant=cfg.protocol, stride=stride,
            store=diagnostics._Summary,
        ).records
    except engine.DivergenceError as err:
        summary, diverged_at = err.records, err.iteration

    fixed = dict(
        sweep_index=sweep_index, n=n, m=m, replicate=replicate, eta=eta, theta=cfg.theta,
        t_stop=plan.t_stop, t_star=plan.t_star, regime=plan.regime, sigma2=P.sigma2,
        diverged_at=diverged_at,
    )
    return _lines(summary, fixed)


def _lines(summary, fixed):
    """Yield a job's CSV lines from its records' summary, a chunk of rows at a time.

    ``fixed`` maps the per-job columns to their values.  Float cells are the
    repr of Python floats, so each chunk of a column goes through ``tolist()``.
    """
    columns = {name: repeat(_format_cell(value)) for name, value in fixed.items()}
    for start in range(0, summary.filled, _CHUNK_ROWS):
        rows = slice(start, min(start + _CHUNK_ROWS, summary.filled))
        columns["t"] = map(str, summary.t[rows].tolist())
        floats = (map(repr, row.tolist()) for row in summary.table[:, rows])
        columns.update(zip(summary.COLUMNS, floats))
        yield from (",".join(row) + "\n" for row in zip(*map(columns.get, RUN_RECORD_COLUMNS)))


def _format_cell(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def run_experiment(cfg: ExperimentConfig, out_dir=".", threads: int = 1) -> Path:
    """Run the full sweep and write one CSV; returns the output path.

    Jobs run in sweep order on the calling thread, and each job's
    randomness is fixed by its derived seed.  The jobs share
    ``cfg.problem`` and ``cfg.gossip``.  ``threads`` has no effect; it
    must be >= 1.
    """
    if threads < 1:
        raise ValueError("threads must be >= 1")
    # a config that load_config did not build, such as a dataclasses.replace
    # copy, builds them here, so a bad one fails before anything is written
    cfg.problem, cfg.gossip
    jobs = (
        _run_one(cfg, sweep_index, n, m, replicate)
        for sweep_index, (n, m) in enumerate(product(cfg.sweep_n, cfg.sweep_m))
        for replicate in range(cfg.replicates)
    )

    out_path = Path(out_dir) / cfg.output
    out_path.parent.mkdir(parents=True, exist_ok=True)
    # rows stream to a temp file in sweep order; it replaces out_path only
    # once every job has finished, so a failed sweep leaves no truncated CSV
    tmp_path = out_path.with_name(f".{out_path.name}.tmp")
    try:
        with open(tmp_path, "w", encoding="utf-8", newline="\n") as fh:
            for line in _config_echo(cfg):
                fh.write(line + "\n")
            fh.write(",".join(RUN_RECORD_COLUMNS) + "\n")
            # each job's lines are written as they are joined, and dropped
            # before the next job runs
            fh.writelines(chain.from_iterable(jobs))
        os.replace(tmp_path, out_path)
    except BaseException:
        tmp_path.unlink(missing_ok=True)
        raise
    return out_path


@dataclass(frozen=True)
class SummaryTable:
    group_by: tuple[str, ...]
    rows: list[dict] = field(repr=False)
    slope_axis: str | None
    slope: tuple[float, float, float] | None

    def render(self) -> str:
        headers = list(self.group_by) + ["runs", "excess_mean", "excess_std"]
        table = [headers]
        for row in self.rows:
            table.append(
                [str(row[k]) for k in self.group_by]
                + [str(row["runs"]), f"{row['excess_mean']:.6e}", f"{row['excess_std']:.6e}"]
            )
        widths = [max(len(line[j]) for line in table) for j in range(len(headers))]
        out = []
        for line in table:
            out.append("  ".join(cell.rjust(w) for cell, w in zip(line, widths)))
        if self.slope is not None:
            slope, intercept, r_sq = self.slope
            out.append(
                f"log-log slope vs {self.slope_axis}: {slope:.4f} "
                f"(intercept {intercept:.4f}, r^2 {r_sq:.4f})"
            )
        return "\n".join(out)


# echoed config keys that fix which (sweep_index, replicate) blocks a CSV
# holds and the t of each complete block's last row
_BLOCK_KEYS = (
    "config.sweep.sweep_n", "config.sweep.sweep_m", "config.run.replicates", "config.run.t_max",
)


def _read_csv(path):
    """Parse one results CSV to (schema_version, column names, last rows).

    The last rows are each (sweep_index, replicate) block's final row, in
    sweep order.  Raises ValueError for a row whose cell count differs from
    the header's, and for a block that the echoed config implies but that
    is missing or lost its last rows: a complete block ends after its last
    update, a diverged one at the last finite state, ``diverged_at - 1``.
    """
    header = None
    echo = {}  # comment lines "# name = value"
    last = {}  # (sweep_index, replicate) -> the block's last row so far
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.rstrip("\n")
            if not line:
                continue
            if line.startswith("#"):
                name, _, value = line[1:].partition("=")
                echo[name.strip()] = value.strip()
                continue
            cells = line.split(",")
            if header is None:
                header = cells
            elif len(cells) != len(header):
                raise ValueError(f"{path}: line {lineno} has {len(cells)} of {len(header)} cells")
            else:
                row = dict(zip(header, cells))
                last[row.get("sweep_index"), row.get("replicate")] = row
    required = {"schema_version", "config.schedule.eta", *_BLOCK_KEYS}
    columns = {"sweep_index", "replicate", "t", "t_stop", "diverged_at"}
    if header is None or not required <= echo.keys() or not columns <= set(header):
        raise ValueError(f"{path}: not a results CSV (missing schema, config echo or columns)")
    sweep_n, sweep_m, replicates, t_max = (ast.literal_eval(echo[key]) for key in _BLOCK_KEYS)
    auto = echo["config.schedule.eta"] == ETA_AUTO
    finals = []
    for point, replicate in product(range(len(sweep_n) * len(sweep_m)), range(replicates)):
        block = f"sweep_index {point}, replicate {replicate}"
        row = last.get((str(point), str(replicate)))
        if row is None:
            raise ValueError(f"{path}: no rows for {block}")
        finals.append(row)
        if row["diverged_at"].isdigit():
            # the update to t = diverged_at >= 2 failed; the last row is the state before it
            diverged_at = int(row["diverged_at"])
            if diverged_at < 2 or row["t"] != str(diverged_at - 1):
                raise ValueError(
                    f"{path}: {block} diverged at {diverged_at} but ends at t = {row['t']};"
                    f" a run diverged there ends at t = {diverged_at - 1}"
                )
            continue
        # a complete run records its final state after its last update, at t = updates + 1
        updates = min(t_max, int(row["t_stop"])) if auto else t_max
        if (row["t"], row["diverged_at"]) != (str(updates + 1), "-1"):
            raise ValueError(
                f"{path}: {block} ends at t = {row['t']}, diverged_at = {row['diverged_at']!r};"
                f" a complete run ends at t = {updates + 1}"
            )
    return int(echo["schema_version"]), header, finals


def _as_number(text: str):
    try:
        return int(text)
    except ValueError:
        try:
            return float(text)
        except ValueError:
            return text


def summarize(paths, group_by=("n", "m"), slope_axis: str | None = None) -> SummaryTable:
    """Final-iterate excess risk per group: mean and std over replicates.

    ``slope_axis`` fits a log-log slope of the group means against one of
    'nm', 'm', or 'n' (groups must expose the needed columns).
    """
    group_by = tuple(group_by)
    if slope_axis is not None:
        if slope_axis not in ("nm", "m", "n"):
            raise ValueError("slope_axis must be one of 'nm', 'm', 'n'")
        axis_columns = ("n", "m") if slope_axis == "nm" else (slope_axis,)  # x is their product
        if not set(axis_columns) <= set(group_by):
            needed = " and ".join(axis_columns)
            raise ValueError(f"slope over {slope_axis} needs {needed} in group_by")

    finals = []
    schema = None
    for path in paths:
        version, header, last_rows = _read_csv(path)
        if schema is None:
            schema = version
        elif schema != version:
            raise ValueError(f"mixed schema versions: {schema} vs {version} in {path}")
        missing = [k for k in group_by if k not in header]
        if missing:
            raise ValueError(f"{path}: missing grouping columns {missing}")
        finals.extend(last_rows)

    groups: dict[tuple, list[dict]] = {}
    for row in finals:
        key = tuple(_as_number(row[k]) for k in group_by)
        groups.setdefault(key, []).append(row)

    out_rows = []
    for key in sorted(groups):
        rows = groups[key]
        values = np.array([float(row["excess_mean"]) for row in rows])
        entry = dict(zip(group_by, key))
        entry["runs"] = len(values)
        entry["excess_mean"] = float(values.mean())
        entry["excess_std"] = float(values.std(ddof=1)) if len(values) > 1 else 0.0
        out_rows.append(entry)

    slope = None
    if slope_axis is not None:
        xs = [math.prod(entry[k] for k in axis_columns) for entry in out_rows]
        ys = [entry["excess_mean"] for entry in out_rows]
        slope = fit_loglog_slope(xs, ys)

    return SummaryTable(group_by=group_by, rows=out_rows, slope_axis=slope_axis, slope=slope)
