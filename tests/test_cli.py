"""The gossipgd command line: run, summarize, tune, spectrum."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from gossipgd.cli import main

ROOT = Path(__file__).resolve().parents[1]

CONFIG = """
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


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "exp.ini"
    path.write_text(CONFIG)
    return path


def test_run_prints_output_path(config_path, tmp_path, capsys):
    assert main(["run", str(config_path), "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out.strip()
    assert out == str(tmp_path / "results.csv")
    assert (tmp_path / "results.csv").exists()


def test_run_threads_flag(config_path, tmp_path, capsys):
    assert main(["run", str(config_path), "--out", str(tmp_path), "--threads", "2"]) == 0
    assert (tmp_path / "results.csv").exists()


def test_summarize_prints_table_and_slope(config_path, tmp_path, capsys):
    main(["run", str(config_path), "--out", str(tmp_path)])
    capsys.readouterr()
    csv_path = str(tmp_path / "results.csv")
    assert main(["summarize", csv_path, "--slope-axis", "nm"]) == 0
    out = capsys.readouterr().out
    assert "excess_mean" in out and "excess_std" in out
    assert "log-log slope vs nm" in out


def test_summarize_group_by_flag(config_path, tmp_path, capsys):
    main(["run", str(config_path), "--out", str(tmp_path)])
    capsys.readouterr()
    assert main(["summarize", str(tmp_path / "results.csv"), "--group-by", "n"]) == 0
    lines = [ln for ln in capsys.readouterr().out.splitlines() if ln.strip()]
    assert len(lines) == 3  # header + one row per n


def test_tune_prints_plan(capsys):
    argv = ["tune", "--n", "1", "--m", "1024", "--r", "1", "--gamma", "0.5",
            "--sigma2", "0", "--kappa-sq", "1"]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "t_stop = 17" in out
    assert "regime = big_data_concentration" in out
    assert "VIOLATED" not in out and out.count("= ok") == 4


def test_tune_reports_violations(capsys):
    argv = ["tune", "--n", "64", "--m", "4", "--r", "1", "--gamma", "0.5",
            "--sigma2", "0.99", "--kappa-sq", "1"]
    assert main(argv) == 0
    assert "VIOLATED" in capsys.readouterr().out


def test_spectrum_reports_exact_uniform_gap(config_path, capsys):
    assert main(["spectrum", str(config_path)]) == 0
    out = capsys.readouterr().out
    assert "sigma2 = 0.0" in out
    assert "inverse_gap = 1.0" in out
    assert "n = 4" in out and "n = 8" in out


def test_missing_config_exits_2(tmp_path, capsys):
    assert main(["run", str(tmp_path / "nope.ini")]) == 2
    assert "error:" in capsys.readouterr().err


def test_malformed_config_exits_2(tmp_path, capsys):
    # configparser's error becomes one line that names the file and the line
    path = tmp_path / "dup.ini"
    path.write_text(CONFIG.replace("d = 4", "d = 4\nd = 5"))
    assert main(["run", str(path), "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == (
        f"error: While reading from {str(path)!r} [line 4]: option 'd' in section 'problem'"
        " already exists\n"
    )


def test_spectrum_of_a_bad_graph_exits_2(tmp_path, capsys):
    path = tmp_path / "cycle.ini"
    text = CONFIG.replace("kind = complete\nweight_scheme = uniform_complete", "kind = cycle")
    path.write_text(text.replace("n = 4 8", "n = 2 4"))
    assert main(["spectrum", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: [topology] kind = cycle at sweep n = 2:")


def test_bad_summarize_input_exits_2(tmp_path, capsys):
    junk = tmp_path / "junk.csv"
    junk.write_text("a,b\n1,2\n")
    assert main(["summarize", str(junk)]) == 2
    assert "error:" in capsys.readouterr().err


def test_bad_tune_arguments_exit_2(capsys):
    argv = ["tune", "--n", "0", "--m", "16", "--r", "1", "--gamma", "0.5",
            "--sigma2", "0", "--kappa-sq", "1"]
    assert main(argv) == 2
    assert "error:" in capsys.readouterr().err


def test_tune_names_a_non_finite_argument(capsys):
    argv = ["tune", "--n", "4", "--m", "16", "--r", "inf", "--gamma", "0.5",
            "--sigma2", "0", "--kappa-sq", "1"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err == "error: smoothness exponent r must be finite and >= 1/2, got inf\n"


def test_no_subcommand_is_usage_error():
    with pytest.raises(SystemExit):
        main([])


def test_console_script_is_installed():
    # the script itself only exists after `pip install`; check that it points
    # at cli.main and run that entry point the way `python -m gossipgd` does
    pyproject = (ROOT / "pyproject.toml").read_text()
    scripts = pyproject.split("[project.scripts]\n", 1)[1].split("\n[", 1)[0]
    assert 'gossipgd = "gossipgd.cli:main"' in scripts.splitlines()
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "gossipgd", "tune", "--n", "1", "--m", "1024", "--r", "1",
         "--gamma", "0.5", "--sigma2", "0", "--kappa-sq", "1"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0
    assert "t_stop = 17" in proc.stdout
