"""The study scripts still import, parse and run against the package's API."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = ["capacity_bound_study", "heuristic_comparison", "ordering_study"]


def run_script(name, *argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / f"{name}.py"), *argv],
        env=env, capture_output=True, text=True, timeout=120,
    )


@pytest.mark.parametrize("name", SCRIPTS)
def test_script_help(name):
    proc = run_script(name, "--help")
    assert proc.returncode == 0, proc.stderr
    assert "usage:" in proc.stdout


# One trial at one or two loads each: enough to drive every library call
# a script makes, end to end.
@pytest.mark.parametrize(
    "name, argv, expected",
    [
        (
            "capacity_bound_study",
            ["--k", "5", "--loads", "200,400", "--trials", "1", "--jobs", "1"],
            "-> gain",
        ),
        (
            "heuristic_comparison",
            ["by-k", "--heuristics", "ksp-ff", "--k-values", "2,3", "--trials", "1",
             "--jobs", "1"],
            "ksp-ff   k=  3 load=300: SBP",
        ),
        (
            "ordering_study",
            ["--topologies", "nsfnet", "--trials", "1", "--jobs", "1"],
            "5-sp-ff hops @ 260 E: SBP",
        ),
    ],
)
def test_script_runs_end_to_end(name, argv, expected):
    proc = run_script(name, *argv)
    assert proc.returncode == 0, proc.stderr
    assert expected in proc.stdout


# The scripts parse --seed, --jobs, --trials, --target-sbp, --k and --load
# with the CLI's argument types, so a bad value is a usage error before any trial runs.
@pytest.mark.parametrize(
    "name, argv, flag",
    [
        ("heuristic_comparison", ["by-k", "--seed", "-1"], "--seed"),
        ("heuristic_comparison", ["by-k", "--jobs", "0"], "--jobs"),
        ("ordering_study", ["--trials", "0"], "--trials"),
        ("capacity_bound_study", ["--target-sbp", "0"], "--target-sbp"),
        ("capacity_bound_study", ["--jobs", "-2"], "--jobs"),
        ("capacity_bound_study", ["--k", "0"], "--k"),
        ("heuristic_comparison", ["by-k", "--load", "nan"], "--load"),
        ("ordering_study", ["--load", "-1"], "--load"),
    ],
)
def test_script_rejects_bad_argument_values(name, argv, flag):
    proc = run_script(name, *argv)
    assert proc.returncode == 2
    assert flag in proc.stderr and "Traceback" not in proc.stderr
    assert "SBP" not in proc.stdout


def test_one_trial_point_has_no_nan_std(tmp_path):
    out = tmp_path / "points.csv"
    proc = run_script(
        "heuristic_comparison", "by-k", "--heuristics", "ksp-ff", "--k-values", "2",
        "--trials", "1", "--jobs", "1", "--out", str(out),
    )
    assert proc.returncode == 0, proc.stderr
    assert "± n/a" in proc.stdout and "nan" not in proc.stdout.lower()
    rows = out.read_text().splitlines()
    assert rows[0] == "heuristic,k,load_erlangs,mean_sbp,std_sbp"
    assert rows[1].startswith("ksp-ff,2,300.0,") and rows[1].endswith(",")
