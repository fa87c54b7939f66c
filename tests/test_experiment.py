"""Config parsing, the sweep runner, CSV output, and summaries."""

import configparser
import csv
import dataclasses
import os
import random
import re
import subprocess
import sys
import tracemalloc
import warnings
from contextlib import nullcontext
from itertools import repeat
from pathlib import Path

import numpy as np
import pytest

from gossipgd import (
    cli, derive_seed, experiment, load_config, run_experiment, summarize, tune_plan
)
from gossipgd.experiment import RUN_RECORD_COLUMNS, SCHEMA_VERSION

DEMOS = Path(__file__).resolve().parents[1] / "demos"
SRC = DEMOS.parent / "src"

BASE_CONFIG = """
[problem]
d = 4
gamma = 0.5
r = 1.0
noise_sigma = 0.2

[topology]
kind = complete
weight_scheme = uniform_complete

[sweep]
n = 4 8
m = 8 16

[schedule]
eta = 0.05

[run]
T_max = 3
stride = 1
replicates = 3
master_seed = 5
output = results.csv
"""


def write_config(tmp_path, text=BASE_CONFIG, name="exp.ini"):
    path = tmp_path / name
    path.write_text(text)
    return path


def read_rows(path):
    lines = [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]
    return list(csv.DictReader(lines))


# ------------------------------------------------------------------ seeds


def test_derive_seed_frozen_values():
    assert derive_seed(1234, 0, 0) == 17573452352415789018
    assert derive_seed(7, 1, 2) == 4592688105058823564
    seen = {derive_seed(5, i, j) for i in range(20) for j in range(20)}
    assert len(seen) == 400


# ----------------------------------------------------------------- config


def test_load_config_full_roundtrip(tmp_path):
    text = """
[problem]
d = 16
gamma = 0.5
r = 2.0
R = 1.5
noise_sigma = 0.3
sampler = gaussian

[topology]
kind = grid2d
weight_scheme = max_degree
rows = 2
cols = 4
seed = 9
chebyshev_k = 3

[sweep]
n = 8
m = 32, 64

[schedule]
theta = 0.25
eta = 0.004

[run]
T_max = 50
stride = 5
replicates = 2
master_seed = 11
protocol = gossip_before_gradient
output = grid.csv
"""
    cfg = load_config(write_config(tmp_path, text))
    assert (cfg.d, cfg.gamma, cfg.r, cfg.R) == (16, 0.5, 2.0, 1.5)
    assert cfg.noise_sigma == 0.3 and cfg.sampler == "gaussian"
    assert cfg.kind == "grid2d" and cfg.weight_scheme == "max_degree"
    assert (cfg.rows, cfg.cols, cfg.topology_seed, cfg.chebyshev_k) == (2, 4, 9, 3)
    assert cfg.sweep_n == (8,) and cfg.sweep_m == (32, 64)
    assert cfg.theta == 0.25 and cfg.eta == 0.004
    assert (cfg.t_max, cfg.stride, cfg.replicates, cfg.master_seed) == (50, 5, 2, 11)
    assert cfg.protocol == "gossip_before_gradient"
    assert cfg.output == "grid.csv"


def test_load_config_defaults_and_edges(tmp_path):
    text = """
[problem]
d = 3
gamma = 1.0
r = 0.5

[topology]
kind = custom_edge_list
edges = 0-1, 1-2

[sweep]
n = 3
m = 4

[schedule]
eta = auto

[run]
T_max = 10
"""
    cfg = load_config(write_config(tmp_path, text))
    assert cfg.R == 1.0 and cfg.noise_sigma == 0.0 and cfg.sampler == "coordinate"
    assert cfg.weight_scheme == "metropolis_lazy"
    assert cfg.edges == ((0, 1), (1, 2))
    assert cfg.eta == "auto" and cfg.theta == 0.0
    assert cfg.stride == 0 and cfg.replicates == 1 and cfg.master_seed == 0
    assert cfg.protocol == "gossip_after_gradient"
    assert cfg.output == "results.csv"


COMPLETE = "kind = complete\nweight_scheme = uniform_complete"


@pytest.mark.parametrize(
    "mutate",
    [
        lambda t: t.replace("[schedule]\neta = 0.05", "[schedule]\n"),  # missing eta
        lambda t: t.replace("[run]", "[walk]"),  # missing section
        lambda t: t + "\n[extra]\nfoo = 1\n",  # unknown section
        lambda t: t.replace("T_max = 3", "T_max = 3\nbudget = 9"),  # unknown key
        lambda t: t.replace("eta = 0.05", "eta = auto\ntheta = 0.25"),
        lambda t: t.replace("eta = 0.05", "eta = -0.05"),
        lambda t: t.replace("eta = 0.05", "eta = sometimes"),
        lambda t: t.replace("T_max = 3", "T_max = 0"),
        lambda t: t.replace("replicates = 3", "replicates = 0"),
        lambda t: t.replace("kind = complete", "kind = hypercube"),
        lambda t: t.replace("uniform_complete", "doubly_lazy"),
        lambda t: t.replace("d = 4", "d = 4.5"),
        lambda t: t.replace("m = 8 16", "m ="),
        lambda t: t.replace("m = 8 16", "m = 8 0"),
        lambda t: t.replace("r = 1.0", "r = 0.25"),
        lambda t: t.replace("eta = 0.05", "eta = 0.05\ntheta = 0.9"),
        lambda t: t.replace("eta = 0.05", "eta = 0.05\ntheta = 0.75"),
        # graphs are built for every sweep n at load time
        lambda t: t.replace(COMPLETE, "kind = cycle").replace("n = 4 8", "n = 2 4"),
        lambda t: t.replace(COMPLETE, "kind = grid2d"),  # n = 8 is not square
        lambda t: t.replace(COMPLETE, "kind = random_regular\ndegree = 5"),  # degree >= n = 4
        # uniform_complete weights need the complete graph at every sweep n
        lambda t: t.replace("kind = complete", "kind = cycle"),
        # float keys must be finite
        lambda t: t.replace("r = 1.0", "r = 1.0\nR = inf"),
        lambda t: t.replace("r = 1.0", "r = inf"),
        lambda t: t.replace("eta = 0.05", "eta = inf"),
        lambda t: t.replace("noise_sigma = 0.2", "noise_sigma = inf"),
        # the ranges of the keys that the problem and the step schedule check
        lambda t: t.replace("gamma = 0.5", "gamma = 0"),
        lambda t: t.replace("gamma = 0.5", "gamma = 1.5"),
        lambda t: t.replace("d = 4", "d = 0"),
        lambda t: t.replace("r = 1.0", "r = 1.0\nR = 0"),
        lambda t: t.replace("noise_sigma = 0.2", "noise_sigma = -1"),
        lambda t: t.replace("noise_sigma = 0.2", "noise_sigma = 0.2\nsampler = x"),
        lambda t: t.replace("eta = 0.05", "eta = 0.05\ntheta = -0.1"),
        lambda t: t.replace("eta = 0.05", "eta = nan"),
        # the output must name a file, not a directory
        pytest.param(lambda t: t.replace("output = results.csv", "output ="), id="empty"),
        pytest.param(lambda t: t.replace("output = results.csv", "output = ."), id="dot"),
        pytest.param(lambda t: t.replace("output = results.csv", "output = .."), id="dotdot"),
        # text that is not INI
        pytest.param(lambda t: t.replace("d = 4", "d = 4\nd = 5"), id="duplicate-key"),
        pytest.param(lambda t: t + "\n[run]\nstride = 2\n", id="duplicate-section"),
        pytest.param(lambda t: "d = 4\n" + t, id="outside-a-section"),
        pytest.param(lambda t: t.replace("T_max = 3", "T_max = 3\nbudget"), id="not-key-value"),
    ],
)
def test_load_config_rejects(tmp_path, mutate):
    path = write_config(tmp_path, mutate(BASE_CONFIG))
    with pytest.raises(ValueError):
        load_config(path)


@pytest.mark.parametrize(
    "problem",
    [
        pytest.param("d = 4\ngamma = 1e-5\nr = 1.0", id="gamma-1e-5"),  # tau underflows to 0
        pytest.param("d = 16\ngamma = 0.5\nr = 100", id="r-100"),  # tau^(1-2r) overflows
        pytest.param("d = 4\ngamma = 0.5\nr = 1.0\nR = 1e300", id="R-1e300"),  # R^2 overflows
    ],
)
def test_problem_out_of_float_range_fails_at_load(tmp_path, problem):
    # the problem is built once at load, so the first job cannot fail on it
    text = BASE_CONFIG.replace("d = 4\ngamma = 0.5\nr = 1.0", problem)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"^\[problem\] .* leave the float range"):
            load_config(write_config(tmp_path, text))


def test_tiny_gamma_sweep_runs(tmp_path):
    # at gamma = 0.01 and r = 1 the threshold n^((2r+2+gamma)/(2r+gamma-2)) is
    # 8^401 at n = 8, past the float range: no m reaches it, and the sweep runs
    text = BASE_CONFIG.replace("gamma = 0.5", "gamma = 0.01").replace("eta = 0.05", "eta = auto")
    out = run_experiment(load_config(write_config(tmp_path, text)), out_dir=tmp_path)
    rows = read_rows(out)
    assert {row["n"] for row in rows} == {"4", "8"}
    assert all(row["diverged_at"] == "-1" for row in rows)


@pytest.mark.parametrize(
    "old,new,message",
    [
        # an unknown name is at fault at every n: its error names it, and no kind or n
        pytest.param(
            "uniform_complete", "doubly_lazy",
            r"\[topology\] weight_scheme = 'doubly_lazy': must be one of \('metropolis_lazy'",
            id="scheme",
        ),
        pytest.param(
            "kind = complete", "kind = hypercube",
            r"\[topology\] kind = 'hypercube': must be one of \('complete'",
            id="kind",
        ),
        # an error that depends on n names the first sweep n at fault
        pytest.param(
            f"{COMPLETE}\n\n[sweep]\nn = 4 8", "kind = cycle\n\n[sweep]\nn = 4 2",
            r"\[topology\] kind = cycle at sweep n = 2: cycle needs n >= 3",
            id="kind-at-n",
        ),
        pytest.param(
            "kind = complete", "kind = cycle",
            r"\[topology\] kind = cycle at sweep n = 4: uniform_complete weights need the complete",
            id="scheme-at-n",
        ),
    ],
)
def test_topology_load_errors_name_what_is_at_fault(tmp_path, old, new, message):
    assert old in BASE_CONFIG
    with pytest.raises(ValueError, match=f"^{message}") as info:
        load_config(write_config(tmp_path, BASE_CONFIG.replace(old, new)))
    assert ("sweep n" in str(info.value)) == ("sweep n" in message)


def test_percent_in_a_value_is_literal(tmp_path):
    text = BASE_CONFIG.replace("output = results.csv", "output = 100%.csv")
    assert load_config(write_config(tmp_path, text)).output == "100%.csv"


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ValueError):
        load_config(tmp_path / "absent.ini")


def test_custom_edges_reject_malformed(tmp_path):
    text = BASE_CONFIG.replace("kind = complete", "kind = custom_edge_list\nedges = 0-1 2")
    with pytest.raises(ValueError):
        load_config(write_config(tmp_path, text))


# ----------------------------------------------------------------- runner


def test_sweep_counts_and_order(tmp_path):
    cfg = load_config(write_config(tmp_path))
    out = run_experiment(cfg, out_dir=tmp_path)
    assert out == tmp_path / "results.csv"
    rows = read_rows(out)
    # 4 sweep points x 3 replicates, T_max=3 updates -> 4 recorded states each
    assert len(rows) == 12 * 4
    blocks = {(r["sweep_index"], r["replicate"]) for r in rows}
    assert len(blocks) == 12
    # n is the outer sweep axis
    point = {r["sweep_index"]: (int(r["n"]), int(r["m"])) for r in rows}
    assert point == {"0": (4, 8), "1": (4, 16), "2": (8, 8), "3": (8, 16)}
    assert all(r["diverged_at"] == "-1" for r in rows)


def test_sweep_builds_its_fixed_inputs_once(tmp_path, monkeypatch):
    # loading builds one problem and one gossip matrix per n; the 12 jobs
    # over n = 4 and 8, or the spectrum, read them and build nothing more
    path = write_config(tmp_path, BASE_CONFIG.replace(COMPLETE, "kind = cycle\nchebyshev_k = 2"))
    builds = []
    for name in ("make_problem", "build_gossip_matrix", "chebyshev_accelerate"):
        def counted(*args, build=getattr(experiment, name), name=name, **kwargs):
            builds.append(name)
            return build(*args, **kwargs)

        monkeypatch.setattr(experiment, name, counted)
    for argv in (["run", str(path), "--out", str(tmp_path)], ["spectrum", str(path)]):
        builds.clear()
        assert cli.main(argv) == 0
        assert {name: builds.count(name) for name in builds} == {
            "make_problem": 1, "build_gossip_matrix": 2, "chebyshev_accelerate": 2
        }, argv[0]
    rows = read_rows(tmp_path / "results.csv")
    assert len({(r["sweep_index"], r["replicate"]) for r in rows}) == 12


def test_csv_header_schema_and_float_roundtrip(tmp_path):
    cfg = load_config(write_config(tmp_path))
    out = run_experiment(cfg, out_dir=tmp_path)
    lines = out.read_text().splitlines()
    assert lines[0] == f"# schema_version = {SCHEMA_VERSION}"
    assert "# config.problem.d = 4" in lines
    assert "# config.run.master_seed = 5" in lines
    header_idx = next(i for i, ln in enumerate(lines) if not ln.startswith("#"))
    assert lines[header_idx] == ",".join(RUN_RECORD_COLUMNS)
    float_cols = ("excess_mean", "bias_sq", "eta", "sigma2")
    for row in read_rows(out):
        for col in float_cols:
            assert repr(float(row[col])) == row[col]


def test_rerun_and_threads_are_byte_identical(tmp_path):
    for sub in ("a", "b", "c"):
        (tmp_path / sub).mkdir()
    cfg = load_config(write_config(tmp_path))
    first = run_experiment(cfg, out_dir=tmp_path / "a")
    second = run_experiment(cfg, out_dir=tmp_path / "b")
    threaded = run_experiment(cfg, out_dir=tmp_path / "c", threads=3)
    assert first.read_bytes() == second.read_bytes()
    assert first.read_bytes() == threaded.read_bytes()


def test_auto_schedule_follows_tuning(tmp_path):
    text = """
[problem]
d = 4
gamma = 0.5
r = 1.0

[topology]
kind = complete
weight_scheme = uniform_complete

[sweep]
n = 4
m = 16

[schedule]
eta = auto

[run]
T_max = 500
stride = 1
"""
    cfg = load_config(write_config(tmp_path, text))
    out = run_experiment(cfg, out_dir=tmp_path)
    rows = read_rows(out)
    plan = tune_plan(4, 16, 1.0, 0.5, 0.0, kappa_sq=4.0)
    assert int(rows[-1]["t"]) == plan.t_stop + 1  # final state carries t_stop updates
    assert float(rows[0]["eta"]) == plan.eta
    assert int(rows[0]["t_stop"]) == plan.t_stop
    assert rows[0]["regime"] == plan.regime

    capped = load_config(write_config(tmp_path, text.replace("T_max = 500", "T_max = 2"), "cap.ini"))
    out2 = run_experiment(capped, out_dir=tmp_path)
    assert int(read_rows(out2)[-1]["t"]) == 3


def test_fixed_schedule_runs_t_max_updates(tmp_path):
    cfg = load_config(write_config(tmp_path))
    rows = read_rows(run_experiment(cfg, out_dir=tmp_path))
    ts = sorted({int(r["t"]) for r in rows})
    assert ts == [1, 2, 3, 4]


def test_default_stride_keeps_around_200_records(tmp_path):
    text = BASE_CONFIG.replace("stride = 1\n", "").replace("T_max = 3", "T_max = 400")
    text = text.replace("n = 4 8", "n = 2").replace("m = 8 16", "m = 4").replace(
        "replicates = 3", "replicates = 1"
    )
    cfg = load_config(write_config(tmp_path, text))
    rows = read_rows(run_experiment(cfg, out_dir=tmp_path))
    ts = [int(r["t"]) for r in rows]
    assert ts == list(range(2, 401, 2)) + [401]


def test_divergence_is_recorded_not_raised(tmp_path):
    text = BASE_CONFIG.replace("eta = 0.05", "eta = 50.0").replace("T_max = 3", "T_max = 30")
    text = text.replace("n = 4 8", "n = 4").replace("m = 8 16", "m = 8").replace(
        "replicates = 3", "replicates = 1"
    )
    cfg = load_config(write_config(tmp_path, text))
    with pytest.warns(RuntimeWarning):
        out = run_experiment(cfg, out_dir=tmp_path)
    rows = read_rows(out)
    assert rows, "partial records must still be written"
    assert all(int(r["diverged_at"]) > 1 for r in rows)
    assert max(int(r["t"]) for r in rows) < 31


@pytest.mark.parametrize("threads", [1, 2])
def test_rate_sweep_demo_matches_golden_csv(tmp_path, threads):
    cfg = load_config(DEMOS / "configs" / "rate_sweep.ini")
    out = run_experiment(cfg, out_dir=tmp_path, threads=threads)
    assert out.read_bytes() == (DEMOS / "output" / "rate_sweep.csv").read_bytes()


def test_gaussian_cycle_demo_matches_golden_csv(tmp_path):
    # gossip on a sparse graph, with dense (m = 32) and stream (m = 8) statistics
    cfg = load_config(DEMOS / "configs" / "gaussian_cycle.ini")
    out = run_experiment(cfg, out_dir=tmp_path)
    assert out.read_bytes() == (DEMOS / "output" / "gaussian_cycle.csv").read_bytes()


def test_option_surface_demo_matches_golden_csv(tmp_path):
    """Pins options the other goldens leave open, byte for byte.

    A grid2d graph (3 x 3, rows and cols set), Chebyshev-accelerated
    gossip (chebyshev_k = 4), decaying steps (theta = 0.5) and the
    gossip_before_gradient protocol, on coordinate samples in diag mode
    at m = 16 and 64 with the metropolis_lazy weights.
    """
    cfg = load_config(DEMOS / "configs" / "option_surface.ini")
    out = run_experiment(cfg, out_dir=tmp_path)
    assert out.read_bytes() == (DEMOS / "output" / "option_surface.csv").read_bytes()


@pytest.mark.parametrize("name", ["star", "edge_list"])
def test_star_and_edge_list_demos_match_golden_csv(tmp_path, name):
    """Pins the two topology kinds no other golden builds, byte for byte.

    A star (a hub and its leaves, metropolis_lazy weights, n = 3 and 6)
    and a custom_edge_list graph (a path of five agents with the chord
    1-3, max_degree weights), each on coordinate samples at small n.
    """
    cfg = load_config(DEMOS / "configs" / f"{name}.ini")
    assert cfg.kind == {"star": "star", "edge_list": "custom_edge_list"}[name]
    out = run_experiment(cfg, out_dir=tmp_path)
    assert out.read_bytes() == (DEMOS / "output" / f"{name}.csv").read_bytes()


def test_sparse_auto_demo_matches_golden_csv(tmp_path):
    """Pins tuned steps on a sparse random graph, byte for byte.

    A random_regular graph (degree 3, topology seed 4) with the max_degree
    weights and eta = auto, so each (n, m) point's step and stopping time
    come from tune_plan on that graph's spectral gap, at n = 6 and 8, on
    gaussian samples in stream (m = 8 < d) and dense (m = 32 >= d) mode.
    """
    cfg = load_config(DEMOS / "configs" / "sparse_auto.ini")
    out = run_experiment(cfg, out_dir=tmp_path)
    assert out.read_bytes() == (DEMOS / "output" / "sparse_auto.csv").read_bytes()


def test_config_not_loaded_fails_before_writing(tmp_path):
    # a replaced config builds and checks its own inputs, before the first job
    cfg = load_config(write_config(tmp_path))
    cfg = dataclasses.replace(cfg, kind="cycle", sweep_n=(2, 4))
    with pytest.raises(ValueError, match=r"^\[topology\] kind = cycle at sweep n = 2: "):
        run_experiment(cfg, out_dir=tmp_path / "out")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("threads", [1, 2])
def test_failed_sweep_keeps_previous_csv(tmp_path, monkeypatch, threads):
    cfg = load_config(write_config(tmp_path))
    previous = tmp_path / "results.csv"
    previous.write_text("previous results\n")
    run_one = experiment._run_one
    last = (3, 8, 16, 2)  # (sweep_index, n, m, replicate) of the final job

    def fail_last(cfg, *job):
        if job == last:
            raise RuntimeError("job failed")
        return run_one(cfg, *job)

    monkeypatch.setattr(experiment, "_run_one", fail_last)
    with pytest.raises(RuntimeError, match="job failed"):
        run_experiment(cfg, out_dir=tmp_path, threads=threads)
    assert previous.read_text() == "previous results\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["exp.ini", "results.csv"]


def test_sweep_holds_one_jobs_lines_at_a_time(tmp_path):
    # each job's lines are written as they are joined, so a second job adds
    # nothing to the peak of one job alone; a held line list adds about the
    # job's CSV bytes
    text = (
        BASE_CONFIG.replace("d = 4", "d = 16")
        .replace("kind = complete\nweight_scheme = uniform_complete", "kind = cycle")
        .replace("n = 4 8", "n = 4")
        .replace("m = 8 16", "m = 256")
        .replace("T_max = 3", "T_max = 400")
    )
    peaks = []
    for replicates in (1, 2):
        path = write_config(tmp_path, text.replace("replicates = 3", f"replicates = {replicates}"))
        cfg = load_config(path)
        if not peaks:
            run_experiment(cfg, out_dir=tmp_path)  # lazy imports and caches settle first
        tracemalloc.start()
        try:
            out = run_experiment(cfg, out_dir=tmp_path)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    one_job, two_jobs = peaks
    assert len(read_rows(out)) == 2 * 401
    assert two_jobs < one_job + out.stat().st_size / 2 / 8


def test_one_thread_builds_no_pool(tmp_path):
    # threads = 1, the default here and on the command line, runs the jobs in
    # the calling thread without importing concurrent.futures
    config = write_config(tmp_path)
    script = (
        "import sys\n"
        "import gossipgd\n"
        "from gossipgd import load_config, run_experiment\n"
        f"run_experiment(load_config({str(config)!r}), {str(tmp_path)!r}, threads=1)\n"
        "print(sorted(name for name in sys.modules if name.startswith('concurrent')))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, cwd=tmp_path
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"
    assert len(read_rows(tmp_path / "results.csv")) == 4 * 3 * 4  # points x replicates x rows


def test_run_experiment_rejects_bad_threads(tmp_path):
    cfg = load_config(write_config(tmp_path))
    with pytest.raises(ValueError):
        run_experiment(cfg, out_dir=tmp_path, threads=0)


# -------------------------------------------------------------- summarize


def slope_config(tmp_path):
    text = BASE_CONFIG.replace("n = 4 8", "n = 4").replace("m = 8 16", "m = 4 8 16")
    return write_config(tmp_path, text, "slope.ini")


def test_summarize_group_means(tmp_path):
    cfg = load_config(write_config(tmp_path))
    out = run_experiment(cfg, out_dir=tmp_path)
    table = summarize([out])
    rows = read_rows(out)
    finals = {}
    for r in rows:
        key = (r["sweep_index"], r["replicate"])
        if key not in finals or int(r["t"]) > int(finals[key]["t"]):
            finals[key] = r
    for entry in table.rows:
        vals = [
            float(r["excess_mean"])
            for r in finals.values()
            if int(r["n"]) == entry["n"] and int(r["m"]) == entry["m"]
        ]
        assert entry["runs"] == 3
        assert entry["excess_mean"] == pytest.approx(np.mean(vals), rel=1e-15)
        assert entry["excess_std"] == pytest.approx(np.std(vals, ddof=1), rel=1e-12)
    assert [(e["n"], e["m"]) for e in table.rows] == [(4, 8), (4, 16), (8, 8), (8, 16)]


def test_summarize_slope_and_render(tmp_path):
    cfg = load_config(slope_config(tmp_path))
    out = run_experiment(cfg, out_dir=tmp_path)
    table = summarize([out], slope_axis="m")
    assert table.slope is not None
    slope, _, r_sq = table.slope
    assert np.isfinite(slope) and 0.0 <= r_sq <= 1.0
    text = table.render()
    assert "excess_mean" in text and "log-log slope vs m" in text

    single = summarize([out], group_by=("m",))
    assert [e["m"] for e in single.rows] == [4, 8, 16]


def test_summarize_rejects_bad_requests(tmp_path):
    cfg = load_config(write_config(tmp_path))
    out = run_experiment(cfg, out_dir=tmp_path)
    with pytest.raises(ValueError):
        summarize([out], slope_axis="d")
    with pytest.raises(ValueError):
        summarize([out], group_by=("flavor",))
    with pytest.raises(ValueError):
        summarize([out], group_by=("m",), slope_axis="nm")
    junk = tmp_path / "junk.csv"
    junk.write_text("a,b\n1,2\n")
    with pytest.raises(ValueError):
        summarize([junk])


# how each damaged file is rejected
DAMAGE = {
    "block": "no rows for sweep_index 2, replicate 1",
    "last_row": "sweep_index 2, replicate 1 ends at t = 3,",
    "short_line": r"line \d+ has \d+ of 23 cells",
    "short_cell": "sweep_index 3, replicate 2 ends at t = 4, diverged_at = '-'",
    "column": "not a results CSV",
    "diverged_cell": "sweep_index 0, replicate 0 diverged at 1 but ends at t = 18",
    "diverged_row": "sweep_index 0, replicate 0 diverged at 19 but ends at t = 16",
    "diverged_early": "no rows for sweep_index 0, replicate 0",
}

# one job whose update to t = 19 diverges, so at stride 4 its rows end at t = 16 and 18
DIVERGING_CONFIG = (
    BASE_CONFIG.replace("eta = 0.05", "eta = 8.0").replace("T_max = 3", "T_max = 200")
    .replace("n = 4 8", "n = 4").replace("m = 8 16", "m = 8")
    .replace("replicates = 3", "replicates = 1").replace("stride = 1", "stride = 4")
)

# one job whose update to t = 3 diverges before its first stride-4 record
EARLY_DIVERGING_CONFIG = (
    DIVERGING_CONFIG.replace("eta = 8.0", "eta = 1e6").replace("d = 4", "d = 8")
    .replace(COMPLETE, "kind = cycle")
)


@pytest.mark.parametrize("damage", DAMAGE)
def test_summarize_rejects_missing_block(tmp_path, damage):
    diverging, early = damage.startswith("diverged"), damage == "diverged_early"
    text = EARLY_DIVERGING_CONFIG if early else DIVERGING_CONFIG if diverging else BASE_CONFIG
    cfg = load_config(write_config(tmp_path, text))
    with pytest.warns(RuntimeWarning, match=r"eta \* kappa_sq") if diverging else nullcontext():
        out = run_experiment(cfg, out_dir=tmp_path)
    if diverging:
        ends = [(r["t"], r["diverged_at"]) for r in read_rows(out)][-2:]
        assert ends == ([("2", "3")] if early else [("16", "19"), ("18", "19")])
        summarize([out])  # the undamaged file is read
    lines = out.read_text().splitlines(keepends=True)
    header = next(ln for ln in lines if not ln.startswith("#")).rstrip("\n").split(",")
    point, replicate = header.index("sweep_index"), header.index("replicate")

    def in_block(line):
        cells = line.split(",")
        return len(cells) == len(header) and (cells[point], cells[replicate]) == ("2", "1")

    if damage == "block":
        lines = [ln for ln in lines if not in_block(ln)]
    elif damage == "last_row":
        del lines[max(i for i, ln in enumerate(lines) if in_block(ln))]
    elif damage == "short_line":
        lines[-1] = lines[-1][: len(lines[-1]) // 2]
    elif damage in ("short_cell", "diverged_cell"):  # the final "-1" or "19" loses its last digit
        lines[-1] = lines[-1][:-2]
    elif damage in ("diverged_row", "diverged_early"):
        del lines[-1]
    else:  # the header and every row lose the t_stop column
        col = header.index("t_stop")
        for i, ln in enumerate(lines):
            if not ln.startswith("#"):
                lines[i] = ",".join(c for j, c in enumerate(ln.split(",")) if j != col)
    out.write_text("".join(lines))
    with pytest.raises(ValueError, match=DAMAGE[damage]):
        summarize([out])


def test_sweep_columns_reduce_each_record_in_dense_and_stream_mode(tmp_path, monkeypatch):
    text = BASE_CONFIG.replace("d = 4", "d = 8\nsampler = gaussian")
    text = text.replace("kind = complete\nweight_scheme = uniform_complete", "kind = cycle")
    text = text.replace("n = 4 8", "n = 3 9").replace("m = 8 16", "m = 4 16")
    text = text.replace("replicates = 3", "replicates = 1")
    cfg = load_config(write_config(tmp_path, text))
    run = experiment.engine.run
    modes, records = [], []

    def capture(problem, datasets, *args, **kwargs):
        datasets = list(datasets)  # an iterable of agents, read three times here
        modes.append(experiment.engine.AgentStats.from_data(datasets, len(datasets)).mode)
        # a run that keeps its record columns
        columns = dict(kwargs, store=experiment.diagnostics._Columns)
        records.append(run(problem, datasets, *args, **columns).records)
        return run(problem, datasets, *args, **kwargs)

    monkeypatch.setattr(experiment.engine, "run", capture)
    rows = read_rows(run_experiment(cfg, out_dir=tmp_path))
    assert modes == ["stream", "dense", "stream", "dense"]
    cells = [(recs, r) for recs in records for r in range(len(recs))]  # in CSV order
    assert len(rows) == len(cells) == 4 * 4
    for row, (recs, r) in zip(rows, cells):
        assert row["t"] == str(recs.t[r])
        for name in ("excess", "network_err", "popcov_err", "residual_err"):
            values = getattr(recs, name)[r]
            assert row[f"{name}_mean"] == repr(float(values.mean()))
            assert row[f"{name}_max"] == repr(float(values.max()))


def reference_lines(records, line):
    """A job's CSV lines as its whole record columns format them.

    Each per-agent column is reduced over agents for the whole job at once;
    the per-job cells are copied from ``line``, one line of the job.
    """
    cells = dict(zip(RUN_RECORD_COLUMNS, line.rstrip("\n").split(",")))
    columns = {name: repeat(cell) for name, cell in cells.items()}
    columns["t"] = map(str, records.t.tolist())
    for name in ("bias_sq", "sample_var", "consensus_err"):
        columns[name] = map(repr, getattr(records, name).tolist())
    for name in ("excess", "network_err", "popcov_err", "residual_err"):
        column = getattr(records, name)
        columns[f"{name}_mean"] = map(repr, column.mean(axis=1).tolist())
        columns[f"{name}_max"] = map(repr, column.max(axis=1).tolist())
    return [",".join(row) + "\n" for row in zip(*(columns[c] for c in RUN_RECORD_COLUMNS))]


# config edits of BASE_CONFIG: block boundaries (32 KiB of local iterates),
# stage boundaries (64 KiB of per-agent rows) and 256-row formatting chunks
# all fall inside the jobs
STREAMED_JOBS = {
    "diag-stride1": {"d = 4": "d = 16", "n = 4 8": "n = 4 7", "m = 8 16": "m = 32",
                     "kind = complete\nweight_scheme = uniform_complete": "kind = cycle",
                     "T_max = 3": "T_max = 1200"},
    "diag-stride7": {"d = 4": "d = 16", "n = 4 8": "n = 4 7", "m = 8 16": "m = 32",
                     "kind = complete\nweight_scheme = uniform_complete": "kind = cycle",
                     "T_max = 3": "T_max = 1200", "stride = 1": "stride = 7"},
    "dense-stream-stride1": {"d = 4": "d = 8\nsampler = gaussian", "n = 4 8": "n = 3 9",
                             "m = 8 16": "m = 4 16", "T_max = 3": "T_max = 300"},
    "dense-stream-stride7": {"d = 4": "d = 8\nsampler = gaussian", "n = 4 8": "n = 3 9",
                             "m = 8 16": "m = 4 16", "T_max = 3": "T_max = 300",
                             "stride = 1": "stride = 7"},
    "one-agent": {"d = 4": "d = 16", "n = 4 8": "n = 1", "m = 8 16": "m = 64",
                  "T_max = 3": "T_max = 600"},
    "d-1": {"d = 4": "d = 1", "n = 4 8": "n = 2", "T_max = 3": "T_max = 2500"},
    "diverging-stride1": {"d = 4": "d = 16", "n = 4 8": "n = 6", "m = 8 16": "m = 32",
                          "kind = complete\nweight_scheme = uniform_complete": "kind = cycle",
                          "eta = 0.05": "eta = 1.5", "T_max = 3": "T_max = 400"},
    "diverging-stride7": {"d = 4": "d = 16", "n = 4 8": "n = 6", "m = 8 16": "m = 32",
                          "kind = complete\nweight_scheme = uniform_complete": "kind = cycle",
                          "eta = 0.05": "eta = 1.5", "T_max = 3": "T_max = 400",
                          "stride = 1": "stride = 7"},
}


@pytest.mark.parametrize("case", STREAMED_JOBS)
def test_streamed_lines_equal_the_lines_of_the_whole_records(tmp_path, monkeypatch, case):
    # each job's lines, reduced block by block as the run scores them, equal
    # byte for byte the lines of engine.run's record columns for that job
    text = BASE_CONFIG.replace("replicates = 3", "replicates = 1")
    for old, new in STREAMED_JOBS[case].items():
        assert old in text
        text = text.replace(old, new)
    cfg = load_config(write_config(tmp_path, text))
    run = experiment.engine.run
    jobs = []

    def capture(problem, datasets, *args, **kwargs):
        datasets = list(datasets)  # an iterable of agents, read twice here
        # a run that keeps its record columns
        columns = dict(kwargs, store=experiment.diagnostics._Columns)
        try:
            jobs.append((run(problem, datasets, *args, **columns).records, -1))
        except experiment.engine.DivergenceError as err:
            jobs.append((err.records, err.iteration))
        return run(problem, datasets, *args, **kwargs)

    monkeypatch.setattr(experiment.engine, "run", capture)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        out = run_experiment(cfg, out_dir=tmp_path)
    lines = [ln for ln in out.read_text().splitlines(keepends=True) if not ln.startswith("#")][1:]
    diverged = case.startswith("diverging")
    assert len(jobs) == len(cfg.sweep_n) * len(cfg.sweep_m)
    for records, diverged_at in jobs:
        job, lines = lines[: len(records)], lines[len(records) :]
        assert job == reference_lines(records, job[0])
        assert job[-1].endswith(f",{diverged_at}\n")
        assert (diverged_at > 0) == diverged
        if diverged:
            assert records.t[-1] == diverged_at - 1
    assert lines == []


def test_sweep_job_holds_no_per_agent_columns(tmp_path):
    # diag-cycle-stride1's n = 16 job: its four per-agent record columns of
    # 2,001 x 16 doubles take 1 MB, and the job peaks below that
    text = BASE_CONFIG.replace("d = 4", "d = 16").replace("noise_sigma = 0.2", "noise_sigma = 0.5")
    text = text.replace("kind = complete\nweight_scheme = uniform_complete", "kind = cycle")
    text = text.replace("n = 4 8", "n = 16").replace("m = 8 16", "m = 256")
    text = text.replace("T_max = 3", "T_max = 2000").replace("replicates = 3", "replicates = 1")
    cfg = load_config(write_config(tmp_path, text))
    per_agent_bytes = 4 * 2001 * 16 * 8
    job = (0, 16, 256, 0)
    lines = list(experiment._run_one(cfg, *job))  # imports what a first job imports
    tracemalloc.start()
    try:
        for row, line in enumerate(experiment._run_one(cfg, *job)):
            assert line == lines[row]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert row + 1 == len(lines) == 2001
    assert peak < per_agent_bytes, peak / per_agent_bytes


def test_summarize_rejects_mixed_schema(tmp_path):
    cfg = load_config(write_config(tmp_path))
    out = run_experiment(cfg, out_dir=tmp_path)
    other = tmp_path / "other.csv"
    other.write_text(out.read_text().replace("# schema_version = 1", "# schema_version = 2"))
    with pytest.raises(ValueError):
        summarize([out, other])


def test_summarize_merges_multiple_files(tmp_path):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    cfg = load_config(write_config(tmp_path))
    one = run_experiment(cfg, out_dir=tmp_path / "a")
    two = run_experiment(cfg, out_dir=tmp_path / "b")
    table = summarize([one, two])
    assert all(entry["runs"] == 6 for entry in table.rows)


# ------------------------------------------------------------------- fuzz

# values a fuzzed key takes: in and out of every key's range, non-finite,
# malformed, and each kind of name the schema knows; no path separators, so
# a fuzzed output stays in its directory, and no integer above 3, so every
# config that loads runs in milliseconds
FUZZ_TOKENS = (
    "0", "1", "2", "3", "-1", "0.5", "1.5", "0.75", "1e-300", "1e308", "-0.0",
    "nan", "inf", "-inf", "", "x", "1 2", "2, 3", "0-1 1-2 2-0", "0-0", "1-",
    "auto", "coordinate", "gaussian", "cycle", "complete", "star", "grid2d",
    "random_regular", "custom_edge_list", "metropolis_lazy", "max_degree",
    "uniform_complete", "gossip_before_gradient", "..", "out.csv",
)


def fuzz_cases(count, seed):
    """``count`` (config, section, key, token) cases drawn without replacement."""
    schema = [(f.metadata["section"], f.metadata["key"] or f.name)
              for f in dataclasses.fields(experiment.ExperimentConfig)]
    configs = sorted((DEMOS / "configs").glob("*.ini"))
    cases = [(c, *k, t) for c in configs for k in schema for t in FUZZ_TOKENS]
    return random.Random(seed).sample(cases, count)


def test_fuzzed_configs_fail_at_load_or_run(tmp_path):
    # each committed config at T_max = 5 and one replicate, with one key set
    # to one token: it is rejected at load with a ValueError that names its
    # section, or its sweep runs
    failures = []
    for i, (config, section, key, token) in enumerate(fuzz_cases(800, seed=31)):
        parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
        parser.optionxform = str
        parser.read(config)
        parser["run"].update(T_max="5", replicates="1")
        parser[section][key] = token
        path = tmp_path / f"{i}.ini"
        with open(path, "w") as fh:
            parser.write(fh)
        try:
            cfg = load_config(path)
        except ValueError as exc:
            if not re.match(r"\[(problem|topology|sweep|schedule|run)\] ", str(exc)):
                failures.append(f"{config.name} [{section}] {key} = {token!r}: {exc}")
            continue
        except Exception as exc:
            failures.append(f"{config.name} [{section}] {key} = {token!r} at load: {exc!r}")
            continue
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)  # diverging steps warn
                run_experiment(cfg, out_dir=tmp_path / str(i))
        except Exception as exc:
            failures.append(f"{config.name} [{section}] {key} = {token!r} in the sweep: {exc!r}")
    assert not failures, "\n".join(failures)


def test_truncated_golden_csvs_fail_or_summarise_alike(tmp_path):
    # a results CSV cut at any byte, inside a line or after one, is rejected
    # with ValueError, or summarises exactly as the whole file does
    rng = random.Random(7)
    failures = []
    for golden in sorted((DEMOS / "output").glob("*.csv")):
        data = golden.read_bytes()
        if not data.startswith(b"# schema_version"):
            continue  # not a results CSV
        whole = summarize([golden])
        cut = tmp_path / golden.name
        line_ends = [i + 1 for i, byte in enumerate(data) if byte == ord("\n")]
        sizes = {0, len(data) - 1, *rng.sample(range(len(data)), 40)}
        sizes.update(rng.sample(line_ends, min(40, len(line_ends))))
        for size in sorted(sizes):
            cut.write_bytes(data[:size])
            try:
                if summarize([cut]) != whole:
                    failures.append(f"{golden.name} cut at byte {size}: another summary")
            except ValueError:
                pass
            except Exception as exc:
                failures.append(f"{golden.name} cut at byte {size}: {exc!r}")
    assert not failures, "\n".join(failures)
