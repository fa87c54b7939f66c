"""Config parsing, the sweep runner, CSV output, and summaries."""

import csv
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from gossipgd import derive_seed, experiment, load_config, run_experiment, summarize, tune_plan
from gossipgd.experiment import RUN_RECORD_COLUMNS, SCHEMA_VERSION

DEMOS = Path(__file__).resolve().parents[1] / "demos"

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
        # the output must name a file, not a directory
        pytest.param(lambda t: t.replace("output = results.csv", "output ="), id="empty"),
        pytest.param(lambda t: t.replace("output = results.csv", "output = ."), id="dot"),
        pytest.param(lambda t: t.replace("output = results.csv", "output = .."), id="dotdot"),
    ],
)
def test_load_config_rejects(tmp_path, mutate):
    path = write_config(tmp_path, mutate(BASE_CONFIG))
    with pytest.raises(ValueError):
        load_config(path)


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


@pytest.mark.parametrize("threads", [1, 2])
def test_failed_sweep_keeps_previous_csv(tmp_path, monkeypatch, threads):
    cfg = load_config(write_config(tmp_path))
    previous = tmp_path / "results.csv"
    previous.write_text("previous results\n")
    run_one = experiment._run_one
    last = (3, 8, 16, 2)  # (sweep_index, n, m, replicate) of the final job

    def fail_last(cfg, sweep_index, n, m, replicate):
        if (sweep_index, n, m, replicate) == last:
            raise RuntimeError("job failed")
        return run_one(cfg, sweep_index, n, m, replicate)

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
    out = run_experiment(load_config(write_config(tmp_path, text)), out_dir=tmp_path)
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
        datasets = list(datasets)  # an iterable of agents, read twice here
        modes.append(experiment.engine.AgentStats.from_data(datasets).mode)
        result = run(problem, datasets, *args, **kwargs)
        records.extend(result.records)
        return result

    monkeypatch.setattr(experiment.engine, "run", capture)
    rows = read_rows(run_experiment(cfg, out_dir=tmp_path))
    assert modes == ["stream", "dense", "stream", "dense"]
    assert len(rows) == len(records) == 4 * 4
    for row, rec in zip(rows, records):
        assert row["t"] == str(rec.t)
        for name in ("excess", "network_err", "popcov_err", "residual_err"):
            values = getattr(rec, name)
            assert row[f"{name}_mean"] == repr(float(values.mean()))
            assert row[f"{name}_max"] == repr(float(values.max()))


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
