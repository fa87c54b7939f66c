"""In-memory span tracer that wraps gossipgd's public functions by name.

Each function is wrapped at the name its caller looks up (``experiment``
imported ``build_topology`` by name, so the wrapper goes on the
``experiment`` module, not on ``topology``).  A span records its id, its
parent's id, its layer name and its start and end; a layer's self time is
its span time minus the time its child spans cover, so the self times of a
call tree add up to the root span.  A wrapped name that no longer exists is
reported as absent, and its time then shows in the caller's self time.

Spans stay in memory and are written out by :meth:`Tracer.write` after the
measured call has returned.
"""

from __future__ import annotations

import inspect
from collections import defaultdict
from itertools import count
from time import perf_counter

# (owner path relative to the gossipgd package, attribute, layer)
WRAPPED = (
    ("experiment", "load_config", "experiment.load_config"),
    ("experiment", "run_experiment", "experiment.run_experiment"),
    ("experiment", "build_topology", "topology.build"),
    ("experiment", "build_gossip_matrix", "topology.build"),
    ("experiment", "chebyshev_accelerate", "topology.build"),
    ("experiment", "make_problem", "problem.make"),
    ("experiment", "sample_agent_data", "problem.sample"),
    ("experiment", "tune_plan", "tuning.plan"),
    ("engine", "run", "engine.run"),
    ("engine.AgentStats", "from_data", "engine.stats_build"),
    ("engine.AgentStats", "gradients", "engine.gradient"),
    ("engine.AgentStats", "gradients_at", "engine.gradient"),
    ("engine.AgentStats", "mean_gradient", "engine.gradient"),
    ("engine", "dgd_step", "engine.dgd_step"),
    ("engine", "single_machine_step", "engine.pooled_step"),
    ("engine", "population_step", "engine.population_step"),
    ("engine", "noise_terms", "engine.noise"),
    ("diagnostics", "popcov_step", "diagnostics.popcov_step"),
    ("diagnostics", "decompose", "diagnostics.decompose"),
)

# per-layer self-time metric of each layer
SELF_METRICS = {
    "topology.build": "topology.build_s",
    "problem.make": "problem.make_s",
    "problem.sample": "problem.sample_s",
    "tuning.plan": "tuning.plan_s",
    "engine.stats_build": "engine.stats_build_s",
    "engine.gradient": "engine.gradient_s",
    "engine.dgd_step": "engine.dgd_step_s",
    "engine.pooled_step": "engine.pooled_step_s",
    "engine.population_step": "engine.population_step_s",
    "engine.noise": "engine.noise_s",
    "engine.run": "engine.loop_self_s",
    "diagnostics.popcov_step": "diagnostics.popcov_step_s",
    "diagnostics.decompose": "diagnostics.decompose_s",
    "experiment.run_experiment": "experiment.self_s",
}

STATS_MODES = ("diag", "dense", "stream")


def _resolve(package, path):
    obj = package
    for part in path.split("."):
        obj = getattr(obj, part)
    return obj


class Tracer:
    """Wraps the names in :data:`WRAPPED` and accumulates spans and counts."""

    def __init__(self):
        self.spans = []  # (id, parent id or -1, layer, start, end)
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.outer_calls = defaultdict(int)
        self.counts = defaultdict(int)
        self.present = set()
        self.absent_counts = set()
        self._stack = []  # [id, layer, child time]
        self._ids = count()

    def install(self, package):
        """Wrap every name in WRAPPED that exists on ``package``."""
        hooks = {
            "problem.sample": self._on_sample,
            "engine.stats_build": self._on_stats,
            "engine.run": self._on_run,
        }
        for owner_path, attr, layer in WRAPPED:
            try:
                owner = _resolve(package, owner_path)
                raw = inspect.getattr_static(owner, attr)
            except AttributeError:
                continue
            hook = hooks.get(layer)
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped = type(raw)(self._wrap(raw.__func__, layer, hook))
            elif callable(raw):
                wrapped = self._wrap(raw, layer, hook)
            else:
                continue
            setattr(owner, attr, wrapped)
            self.present.add(layer)
        if "engine.stats_build" in self.present:
            for mode in STATS_MODES:
                self.counts.setdefault(f"engine.jobs_{mode}", 0)
        if "engine.run" in self.present:
            self.counts.setdefault("engine.divergences", 0)

    def _wrap(self, fn, layer, hook):
        stack = self._stack
        spans = self.spans
        ids = self._ids
        self_s = self.self_s
        total_s = self.total_s
        outer_calls = self.outer_calls

        def traced(*args, **kwargs):
            sid = next(ids)
            if stack:
                parent, parent_layer = stack[-1][0], stack[-1][1]
            else:
                parent, parent_layer = -1, None
            frame = [sid, layer, 0.0]
            stack.append(frame)
            result = None
            error = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as exc:
                error = exc
                raise
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                self_s[layer] += duration - frame[2]
                total_s[layer] += duration
                if stack:
                    stack[-1][2] += duration
                if parent_layer != layer:
                    outer_calls[layer] += 1
                spans.append((sid, parent, layer, start, end))
                if hook is not None:
                    hook(fn, args, kwargs, result, error)

        traced.__wrapped__ = fn
        return traced

    def _on_sample(self, fn, args, kwargs, result, error):
        try:
            self.counts["problem.sample_bytes"] += result.x.nbytes + result.y.nbytes
        except AttributeError:
            self.absent_counts.add("problem.sample_bytes")

    def _on_stats(self, fn, args, kwargs, result, error):
        try:
            fields = vars(result).values()
        except TypeError:
            self.absent_counts.add("engine.stats_bytes")
            return
        self.counts["engine.stats_bytes"] += sum(getattr(v, "nbytes", 0) for v in fields)
        mode = getattr(result, "mode", None)
        if mode in STATS_MODES:
            self.counts[f"engine.jobs_{mode}"] += 1

    def _on_run(self, fn, args, kwargs, result, error):
        if error is not None and type(error).__name__ == "DivergenceError":
            self.counts["engine.divergences"] += 1
        try:
            bound = inspect.signature(fn).bind(*args, **kwargs)
            T = int(bound.arguments["T"])
            n = int(bound.arguments["P"].n)
        except (TypeError, KeyError, AttributeError, ValueError):
            self.absent_counts.update(("engine.iterations", "engine.agent_iters"))
            return
        self.counts["engine.iterations"] += T
        self.counts["engine.agent_iters"] += T * n

    def metrics(self):
        """Per-layer metrics of everything traced so far: name -> value."""
        out = {}
        for layer, name in SELF_METRICS.items():
            if layer in self.present:
                out[name] = self.self_s[layer]
        if "engine.gradient" in self.present:
            out["engine.gradient_calls"] = self.outer_calls["engine.gradient"]
        if "diagnostics.decompose" in self.present:
            out["diagnostics.records"] = self.outer_calls["diagnostics.decompose"]
        if "experiment.load_config" in self.present:
            out["experiment.load_config_s"] = self.total_s["experiment.load_config"]
        for name, value in self.counts.items():
            if name not in self.absent_counts:
                out[name] = value
        agent_iters = out.get("engine.agent_iters")
        if agent_iters and "engine.run" in self.present:
            out["engine.us_per_agent_iter"] = 1e6 * self.total_s["engine.run"] / agent_iters
        return out

    def write(self, path):
        """Write every span as CSV rows: id, parent, layer, start_s, end_s."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,parent,layer,start_s,end_s\n")
            for sid, parent, layer, start, end in self.spans:
                fh.write(f"{sid},{parent},{layer},{start!r},{end!r}\n")
