"""Smoke test of the benchmark on tiny versions of its workloads.

    python -m pytest perfbench

Each workload shape runs with a few hundred requests, k=3 and one trial
at one load, untraced and traced.
"""
import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import harness  # noqa: E402
import run  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def tiny(wl: harness.Workload) -> harness.Workload:
    return replace(
        wl, k=3, loads=wl.loads[-1:], trials=1, warmup_requests=100, measured_requests=300
    )


@pytest.fixture(scope="module", params=sorted(harness.WORKLOADS))
def workload(request):
    return tiny(harness.WORKLOADS[request.param])


def test_workloads_match_spec():
    assert sorted(harness.WORKLOADS) == sorted(w["name"] for w in SPEC["workloads"])


@pytest.mark.parametrize("trace, section", [(False, "end_to_end"), (True, "per_layer")])
def test_every_metric_is_emitted_with_its_unit(workload, trace, section):
    result = harness.run_workload(workload, seed=5, seconds=0, trace=trace)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    record, line = run.result_lines(result)
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {name: m["unit"] for name, m in line["metrics"].items()} == expected
    assert all(isinstance(m["value"], (int, float)) for m in line["metrics"].values())
    assert record["checks"]["pinned"] == "skipped"
    if trace:
        assert record["checks"]["trace_invariance"] == "pass"
        assert record["rebuilds"] is not None
        expected_jobs = "pass" if workload.jobs > 1 else "skipped"
        assert record["checks"]["jobs_invariance"] == expected_jobs


def test_pinned_reference_is_checked(workload):
    reference = harness.pin(workload, seed=3)
    good = harness.run_workload(workload, seed=3, seconds=0, trace=True, reference=reference)
    assert good["correct"] and good["record"]["checks"]["pinned"] == "pass"

    label = workload.heuristics[0]
    reference["sweeps"][label]["csv_sha256"] = "0" * 64
    bad = harness.run_workload(workload, seed=3, seconds=0, trace=False, reference=reference)
    assert not bad["correct"]
    assert bad["record"]["checks"]["pinned"] == "fail"
    assert bad["failed"] == bad["attempted"] // len(workload.heuristics)

    other = harness.run_workload(workload, seed=4, seconds=0, trace=False, reference=reference)
    assert other["correct"] and other["record"]["checks"]["pinned"] == "skipped"


def test_a_raising_trial_counts_as_failed(monkeypatch):
    def broken(config, seed):
        raise RuntimeError("injected")

    monkeypatch.setattr(harness.simulator, "run_trial", broken)
    wl = tiny(harness.WORKLOADS["sweep-nsfnet-ksp"])
    result = harness.run_workload(wl, seed=1, seconds=0, trace=False)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] == wl.trials_per_sweep
    assert "error" in result["record"]["outputs"]["sweeps"]["ksp-ff"]


def test_mismatches_cover_counts_and_rebuilds():
    outputs = {"sweeps": {"a": {"blocked": [1, 2]}, "b": {"blocked": [3]}}, "rebuilds": 7}
    assert harness.mismatches(outputs, outputs) == set()
    changed = json.loads(json.dumps(outputs))
    changed["sweeps"]["b"]["blocked"] = [4]
    assert harness.mismatches(changed, outputs) == {"b"}
    changed = dict(outputs, rebuilds=8)
    assert harness.mismatches(changed, outputs) == {"a", "b"}
    untraced = {"sweeps": outputs["sweeps"]}
    assert harness.mismatches(untraced, changed) == set()


def test_fails_without_the_simulator_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "bound-nsfnet",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
