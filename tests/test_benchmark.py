"""The benchmark's traced run still reports every per-layer metric it declares.

The tracer wraps public names and silently drops a metric whose name went
away; this runs ``perfbench/child.py traced`` on two tiny sweeps and checks
that each per-layer metric in ``BENCHMARK.json`` comes back, finite, and
that every name the tracer wraps still exists on the package.  It also
keeps every module of the package below the token count past which
compiling it, which every benchmark process does, peaks higher.
"""

import importlib.util
import inspect
import json
import math
import subprocess
import sys
import time
import tokenize
from pathlib import Path

import pytest

import gossipgd

ROOT = Path(__file__).resolve().parents[1]

# parser tokens a module of the package stays below; see the test that uses it
TOKEN_BUDGET = 4090

# per-layer metrics that perfbench/run.py adds itself, not the traced child
ADDED_BY_RUNNER = {
    "wall.sweep_s",
    "wall.ref_s",
    "wall.setup_s",
    "experiment.rows",
    "experiment.csv_bytes",
    "trace.overhead_frac",
}

# names in perfbench/tracer.WRAPPED that no longer exist: the gradient
# methods folded into AgentStats.gradients, whose layer keeps reporting
STALE_WRAPPED = {("engine.AgentStats", "gradients_at"), ("engine.AgentStats", "mean_gradient")}

TINY_CONFIG = """
[problem]
d = 8
gamma = 0.5
r = 1.0
noise_sigma = 0.5
sampler = {sampler}

[topology]
kind = cycle

[sweep]
n = 3 4
m = {m}

[schedule]
eta = 0.02

[run]
T_max = 30
stride = 5
master_seed = 1
output = tiny.csv
"""


@pytest.mark.parametrize("sampler,m", [("coordinate", "16"), ("gaussian", "4 16")])
def test_traced_child_reports_every_per_layer_metric(tmp_path, sampler, m):
    config = tmp_path / "tiny.ini"
    config.write_text(TINY_CONFIG.format(sampler=sampler, m=m))
    argv = [sys.executable, str(ROOT / "perfbench" / "child.py"), "traced", str(config)]
    argv += [str(tmp_path / "out"), repr(time.monotonic())]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    layers = json.loads(proc.stdout.strip().splitlines()[-1])["layers"]

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    wanted = {metric["name"] for metric in declared} - ADDED_BY_RUNNER
    missing = sorted(wanted - layers.keys())
    assert not missing, f"traced run lacks {missing}"
    assert all(math.isfinite(layers[name]) for name in wanted), layers


def test_every_wrapped_name_resolves():
    # a wrapped name that went away is skipped by the tracer and its time
    # moves to the caller's self time, which no other check would notice
    spec = importlib.util.spec_from_file_location("tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    absent = set()
    for owner_path, attr, _layer in tracer.WRAPPED:
        try:
            owner = gossipgd
            for part in owner_path.split("."):
                owner = getattr(owner, part)
            inspect.getattr_static(owner, attr)
        except AttributeError:
            absent.add((owner_path, attr))
    missing = sorted(absent - STALE_WRAPPED)
    assert not missing, f"perfbench/tracer.py wraps names that do not exist: {missing}"


MODULES = sorted((ROOT / "src" / "gossipgd").glob("*.py"))


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_module_stays_below_the_compile_step(path):
    """Each module compiles below the ~4,096-token step in ``compile()``'s peak.

    The benchmark's processes compile the package from source, so its peak
    RSS includes the compiler's: tracemalloc read 1,541 KB for ``compile()``
    of a module padded to 4,093 parser tokens and 1,786 KB at 4,133, a step
    that showed as +0.3 MB in ``peak_rss_mb``.  A change that takes a module
    past it fails here rather than in the benchmark.  Tokens are counted as
    ``tokenize`` yields them, leaving out comments and blank lines (COMMENT
    and NL).
    """
    with path.open(encoding="utf-8") as fh:
        tokens = tokenize.generate_tokens(fh.readline)
        count = sum(t.type not in (tokenize.COMMENT, tokenize.NL) for t in tokens)
    assert count < TOKEN_BUDGET, f"{path.name} holds {count} parser tokens"
