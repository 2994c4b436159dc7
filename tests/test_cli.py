import csv
import hashlib
import itertools
import json
import os
import re
import resource
import shlex
import signal
import string
import subprocess
import sys
from importlib import resources
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from eonsim import bounds, cli, simulator
from eonsim.cli import CliError, build_parser, main, parse_loads
from eonsim.presets import PRESETS, get_preset
from eonsim.topology import Topology
from eonsim.traffic import HOLDING_TIME_MEAN


def run(argv):
    return main(argv)


# --- loads grammar -----------------------------------------------------------

def test_parse_loads_range_inclusive():
    assert parse_loads("180:300:20") == [180, 200, 220, 240, 260, 280, 300]


def test_parse_loads_range_non_aligned_stop():
    assert parse_loads("10:19:4") == [10, 14, 18]


def test_parse_loads_comma_list():
    assert parse_loads("200,220.5,240") == [200.0, 220.5, 240.0]


@pytest.mark.parametrize(
    "bad",
    ["", "10:5:1", "1:10:0", "a,b", "1:2", "1:2:3:4",
     "100,nan", "100,inf", "nan,100", "0,100", "-5", ",",
     "nan:10:1", "1:inf:1", "-inf:10:1", "1:10:nan", "1:10:inf", "0:10:5"],
)
def test_parse_loads_rejects_malformed(bad):
    with pytest.raises(CliError):
        parse_loads(bad)


def test_parse_loads_caps_a_range_at_max_range_loads():
    assert len(parse_loads(f"1:{cli.MAX_RANGE_LOADS}:1")) == cli.MAX_RANGE_LOADS
    with pytest.raises(CliError, match="more than"):
        parse_loads(f"1:{cli.MAX_RANGE_LOADS + 1}:1")


def _limit_address_space():
    limit = 1 << 30
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


# A step below the float resolution of the value never moved it, and a huge
# range was built in full; in a child process with a timeout and a 1 GiB
# address-space limit, so a regression fails the test instead of the host.
@pytest.mark.parametrize(
    "spec,reason", [("1:2:1e-300", "does not advance"), ("1:1e9:1", "more than")]
)
def test_unending_or_huge_load_range_exits_2(tmp_path, spec, reason):
    proc = subprocess.run(
        [sys.executable, "-c", "import sys; from eonsim.cli import main; sys.exit(main())",
         "sweep", "--preset", "deeprmsa", "--topology", "nsfnet", "--loads", spec,
         "--trials", "1", "--jobs", "1", "--out", str(tmp_path / "never")],
        env={**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])},
        capture_output=True, text=True, timeout=60, preexec_fn=_limit_address_space,
    )
    assert proc.returncode == 2, proc.stderr
    assert "malformed --loads" in proc.stderr and reason in proc.stderr
    assert not (tmp_path / "never").exists()


# --- defaults -----------------------------------------------------------------

@pytest.mark.parametrize("sub", ["sweep", "bound"])
def test_jobs_default_is_cpus_in_affinity_mask(sub):
    args = build_parser().parse_args(
        f"{sub} --preset deeprmsa --topology nsfnet --loads 100 --out x".split()
    )
    assert args.jobs == len(os.sched_getaffinity(0))


def test_jobs_default_falls_back_to_cpu_count(monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    args = build_parser().parse_args(
        "sweep --preset deeprmsa --topology nsfnet --loads 100 --out x".split()
    )
    assert args.jobs == (os.cpu_count() or 1)


# --- error paths --------------------------------------------------------------

def test_unknown_preset_exits_2(tmp_path, capsys):
    with pytest.raises(SystemExit) as err:
        run(
            "sweep --preset nothere --topology nsfnet --loads 100 "
            f"--trials 1 --out {tmp_path}".split()
        )
    assert err.value.code == 2  # argparse rejects non-choices itself


def test_unknown_heuristic_exits_2(tmp_path):
    with pytest.raises(SystemExit) as err:
        run(
            "sweep --preset deeprmsa --topology nsfnet --heuristic magic "
            f"--loads 100 --trials 1 --out {tmp_path}".split()
        )
    assert err.value.code == 2


def test_unknown_topology_exits_2(tmp_path, capsys):
    code = run(
        "sweep --preset deeprmsa --topology atlantis --loads 100 "
        f"--trials 1 --out {tmp_path}".split()
    )
    assert code == 2
    assert "atlantis" in capsys.readouterr().err


def test_malformed_loads_exits_2(tmp_path, capsys):
    code = run(
        "sweep --preset deeprmsa --topology nsfnet --loads 10:1:5 "
        f"--trials 1 --out {tmp_path}".split()
    )
    assert code == 2
    assert "malformed" in capsys.readouterr().err


# --- truncation demo -------------------------------------------------------------

def test_truncation_demo_prints_ratio(capsys):
    code = run(["truncation-demo", "--samples", "200000", "--seed", "1"])
    assert code == 0
    out = capsys.readouterr().out
    ratio = float(next(l for l in out.splitlines() if l.startswith("mean ratio")).split()[2])
    assert abs(ratio - 0.6870) < 0.01


# --- presets self-check ------------------------------------------------------------

def test_presets_listing(capsys):
    assert run(["presets"]) == 0
    out = capsys.readouterr().out
    for name in PRESETS:
        assert name in out
    assert "slots=100" in out and "slots=40" in out and "slots=80" in out
    assert "truncation=on" in out and "truncation=off" in out


def test_preset_values_match_documented_settings():
    deeprmsa = get_preset("deeprmsa")
    assert deeprmsa.fiber_mode == "dual"
    assert deeprmsa.slots_per_fiber == 100
    assert deeprmsa.truncate_holding
    assert deeprmsa.rate_gbps_range == (25, 100)
    assert HOLDING_TIME_MEAN == 10.0
    for name in ("reward-rmsa", "gcn-rmsa"):
        other = get_preset(name)
        assert (other.fiber_mode, other.slots_per_fiber, other.truncate_holding) == (
            "dual", 100, True,
        )
    maskrsa = get_preset("maskrsa")
    assert maskrsa.fiber_mode == "single" and not maskrsa.truncate_holding
    assert maskrsa.rate_gbps_range == (25, 100)
    p40 = get_preset("ptrnet-40")
    assert (p40.fiber_mode, p40.slots_per_fiber, p40.rate_gbps_range) == ("single", 40, None)
    assert p40.fixed_slot_choices == (1,)
    p80 = get_preset("ptrnet-80")
    assert (p80.slots_per_fiber, p80.fixed_slot_choices) == (80, (1, 2, 3, 4))
    for name in ("ptrnet-40", "ptrnet-80"):
        aliases = get_preset(name).topology_aliases
        assert aliases["cost239"] == "cost239-ptrnet"
        assert aliases["usnet"] == "usnet-ptrnet"


def test_ptrnet_preset_resolves_variant_topology():
    p40 = get_preset("ptrnet-40")
    topo = p40.load_topology("cost239")
    assert topo.name == "cost239-ptrnet"
    assert topo.slots_per_fiber == 40
    assert topo.fiber_mode == "single"


def test_preset_grid_applies_to_topology_files(tmp_path):
    path = tmp_path / "usnet-ptrnet.json"
    path.write_bytes((resources.files("eonsim") / "data" / "usnet-ptrnet.json").read_bytes())
    doc = json.loads(path.read_text())
    assert (doc["slots_per_fiber"], doc["fiber_mode"]) == (80, "single")
    topo = get_preset("deeprmsa").load_topology(str(path))
    assert (topo.slots_per_fiber, topo.fiber_mode) == (100, "dual")
    topo = get_preset("deeprmsa").load_topology(str(path), slots_per_fiber=60)
    assert (topo.slots_per_fiber, topo.fiber_mode) == (60, "dual")


# --- sweep end to end ----------------------------------------------------------------

SWEEP_ARGS = (
    "sweep --preset deeprmsa --topology nsfnet --heuristic ksp-ff --k 3 "
    "--ordering hops --loads 300:340:40 --trials 2 --seed 7 "
    "--warmup 200 --measured 800 --jobs 1"
)


def test_sweep_writes_artifacts(tmp_path, capsys):
    out = tmp_path / "run1"
    code = run((SWEEP_ARGS + f" --out {out}").split())
    assert code == 0
    for name in ("trials.csv", "summary.csv", "manifest.json", "run_meta.json"):
        assert (out / name).is_file(), name
    trials = (out / "trials.csv").read_text().strip().splitlines()
    assert trials[0] == "load_erlangs,trial,seed,blocked,total,sbp"
    assert len(trials) == 1 + 2 * 2  # two loads x two trials
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["subcommand"] == "sweep"
    assert manifest["args"]["seed"] == 7
    assert "started_unix" not in manifest


def test_sweep_loads_row_count(tmp_path):
    out = tmp_path / "run7"
    args = (
        "sweep --preset deeprmsa --topology nsfnet --heuristic ksp-ff --k 2 "
        f"--ordering hops --loads 180:300:20 --trials 1 --seed 7 "
        f"--warmup 50 --measured 150 --jobs 1 --out {out}"
    )
    assert run(args.split()) == 0
    summary = (out / "summary.csv").read_text().strip().splitlines()
    assert len(summary) == 1 + 7  # header + one row per swept load


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_manifest_rerun_reproduces_outputs_byte_for_byte(tmp_path):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    assert run((SWEEP_ARGS + f" --out {out1}").split()) == 0
    assert run(["rerun", "--manifest", str(out1 / "manifest.json"), "--out", str(out2)]) == 0
    for name in ("trials.csv", "summary.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    # pinned, so a change to the trial records or writers cannot alter a byte
    assert sha256(out1 / "trials.csv") == (
        "8d61804e22cc1bd05835c424f9f8ef182ee45ab0170a689623b50c74c7a2ff4b"
    )
    assert sha256(out1 / "summary.csv") == (
        "32e9fadabad39a8946951e452040f54e39d8c3847199dbb1276eeaffc29a36ee"
    )
    m1 = json.loads((out1 / "manifest.json").read_text())
    m2 = json.loads((out2 / "manifest.json").read_text())
    assert m1["args"].keys() == m2["args"].keys()
    assert all(m1["args"][k] == m2["args"][k] for k in m1["args"] if k != "out")


def test_sweep_custom_modulation_and_guard(tmp_path):
    mods = tmp_path / "mods.json"
    mods.write_text(
        '{"formats": [{"name": "lone", "bits_per_symbol": 2, "max_reach_km": 9000}]}'
    )
    out = tmp_path / "custom"
    args = (
        "sweep --preset deeprmsa --topology nsfnet --heuristic ksp-ff --k 2 "
        f"--ordering hops --loads 280 --trials 1 --seed 7 --warmup 100 "
        f"--measured 400 --jobs 1 --guard-slots 1 --modulation-file {mods} --out {out}"
    )
    assert run(args.split()) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["args"]["guard_slots"] == 1
    assert manifest["args"]["modulation_file"] == str(mods)
    assert manifest["input_sha256"] == {
        "modulation_file": hashlib.sha256(mods.read_bytes()).hexdigest()
    }


def test_rerun_refuses_changed_topology_file(tmp_path, capsys):
    topo = tmp_path / "net.json"
    topo.write_bytes((resources.files("eonsim") / "data" / "nsfnet.json").read_bytes())
    out = tmp_path / "run"
    args = (
        f"sweep --preset deeprmsa --topology {topo} --k 2 --loads 300 --trials 1 "
        f"--warmup 50 --measured 200 --jobs 1 --out {out}"
    )
    assert run(args.split()) == 0
    manifest = out / "manifest.json"
    recorded = json.loads(manifest.read_text())["input_sha256"]
    assert recorded == {"topology": hashlib.sha256(topo.read_bytes()).hexdigest()}
    assert run(["rerun", "--manifest", str(manifest), "--out", str(tmp_path / "same")]) == 0

    doc = json.loads(topo.read_text())
    doc["links"][0]["length_km"] += 1
    topo.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run(["rerun", "--manifest", str(manifest), "--out", str(tmp_path / "edited")]) == 2
    assert f"--topology {topo}" in capsys.readouterr().err
    assert not (tmp_path / "edited").exists()


TINY_SWEEP = (
    "sweep --preset deeprmsa --topology nsfnet --k 2 --loads 300 --trials 1 "
    "--warmup 50 --measured 200 --jobs 1"
)


@pytest.mark.filterwarnings("ignore:load .* blocking events")
def test_manifest_records_numpy_version(tmp_path, capsys):
    out = tmp_path / "run"
    assert run(f"{TINY_SWEEP} --out {out}".split()) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["numpy_version"] == np.__version__
    capsys.readouterr()
    assert run(["rerun", "--manifest", str(out / "manifest.json"), "--out", str(tmp_path / "b")]) == 0
    assert "numpy" not in capsys.readouterr().err


@pytest.mark.filterwarnings("ignore:load .* blocking events")
def test_rerun_refuses_another_numpy_version(tmp_path, capsys):
    out = tmp_path / "run"
    assert run(f"{TINY_SWEEP} --out {out}".split()) == 0
    manifest = out / "manifest.json"
    doc = json.loads(manifest.read_text())
    doc["numpy_version"] = "1.24.0" if np.__version__ != "1.24.0" else "2.0.0"
    manifest.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run(["rerun", "--manifest", str(manifest), "--out", str(tmp_path / "other")]) == 2
    err = capsys.readouterr().err
    assert f"recorded {doc['numpy_version']}, installed {np.__version__}" in err
    assert not (tmp_path / "other").exists()


@pytest.mark.filterwarnings("ignore:load .* blocking events")
def test_rerun_of_a_manifest_without_numpy_version_warns_once(tmp_path, capsys):
    """A manifest written before numpy's version was recorded still reruns."""
    out = tmp_path / "run"
    assert run(f"{TINY_SWEEP} --out {out}".split()) == 0
    manifest = out / "manifest.json"
    doc = json.loads(manifest.read_text())
    del doc["numpy_version"]
    manifest.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run(["rerun", "--manifest", str(manifest), "--out", str(tmp_path / "old")]) == 0
    warned = [line for line in capsys.readouterr().err.splitlines() if "numpy" in line]
    assert warned == [
        f"warning: {manifest} records no numpy version; "
        f"its streams are reproduced only if it ran under numpy {np.__version__}"
    ]
    assert (out / "trials.csv").read_bytes() == (tmp_path / "old" / "trials.csv").read_bytes()


@pytest.mark.parametrize(
    "doc, reason",
    [
        ({}, "malformed manifest"),
        ([1, 2], "malformed manifest"),
        ({"subcommand": "sweep", "args": [1]}, "malformed manifest"),
        ({"subcommand": "paths", "args": {"topology": "nsfnet"}, "input_sha256": [1]},
         "malformed manifest"),
        # a manifest that replays itself would recurse without end
        ({"subcommand": "rerun", "args": {"manifest": "{manifest}"}}, "subcommand 'rerun'"),
    ],
)
def test_rerun_refuses_a_malformed_manifest(tmp_path, capsys, doc, reason):
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps(doc).replace("{manifest}", str(manifest)))
    out = tmp_path / "never"
    assert run(["rerun", "--manifest", str(manifest), "--out", str(out)]) == 2
    assert reason in capsys.readouterr().err
    assert not out.exists()


def test_sweep_on_a_topology_file_runs_on_the_preset_grid(tmp_path):
    """A file under a preset gets the preset's slots and fibers, as a bundled name does.

    The file stores 80 single-fiber slots; deeprmsa's grid is 100 dual-fiber
    slots, and the manifest records no override of either.
    """
    topo = tmp_path / "usnet-ptrnet.json"
    topo.write_bytes((resources.files("eonsim") / "data" / "usnet-ptrnet.json").read_bytes())
    common = (
        "sweep --preset deeprmsa --k 2 --loads 200 --trials 1 --warmup 50 "
        "--measured 300 --jobs 1"
    )
    assert run(f"{common} --topology {topo} --out {tmp_path / 'file'}".split()) == 0
    assert run(f"{common} --topology usnet-ptrnet --out {tmp_path / 'name'}".split()) == 0
    trials = [(tmp_path / d / "trials.csv").read_bytes() for d in ("file", "name")]
    assert trials[0] == trials[1]
    args = json.loads((tmp_path / "file" / "manifest.json").read_text())["args"]
    assert (args["preset"], args["slots"], args["fiber_mode"]) == ("deeprmsa", None, None)


# --- paths audit ------------------------------------------------------------------------

def test_paths_subcommand(tmp_path, capsys):
    out = tmp_path / "paths"
    code = run(
        f"paths --topology nsfnet --k 5 --ordering hops --diagnose-orderings --out {out}".split()
    )
    assert code == 0
    printed = capsys.readouterr().out
    assert "182 ordered pairs" in printed
    assert "pairs with k paths: 182/182" in printed
    assert "candidate paths: 910; hops 3.67±1.13, km 3529±1489 (mean±std)" in printed
    lines = (out / "paths.csv").read_text().strip().splitlines()
    assert lines[0] == "src,dst,paths,best_hops,best_km"
    assert len(lines) == 1 + 14 * 13


def test_path_statistics_are_population_mean_and_std(tmp_path, capsys):
    # In a triangle every ordered pair has exactly two simple paths: the
    # direct link and the two-hop detour.
    triangle = tmp_path / "triangle.json"
    triangle.write_text(json.dumps({
        "schema": "eonsim-topology/1", "name": "triangle", "fiber_mode": "dual",
        "slots_per_fiber": 10, "nodes": ["A", "B", "C"],
        "links": [
            {"src": "A", "dst": "B", "length_km": 100},
            {"src": "B", "dst": "C", "length_km": 100},
            {"src": "A", "dst": "C", "length_km": 300},
        ],
    }))
    assert run(f"paths --topology {triangle} --k 2".split()) == 0
    # hops: six 1s and six 2s; km per pair: AB 100+400, BC 100+400, AC 300+200.
    # The km std over n (not n-1) is sqrt(95000 / 6) = 125.8.
    assert "candidate paths: 12; hops 1.50±0.50, km 250±126 (mean±std)" in (
        capsys.readouterr().out
    )


def test_paths_csv_quotes_a_node_id_with_a_comma(tmp_path):
    pair = tmp_path / "pair.json"
    pair.write_text(json.dumps({
        "schema": "eonsim-topology/1", "name": "pair", "fiber_mode": "dual",
        "slots_per_fiber": 10, "nodes": ["A, north", "B"],
        "links": [{"src": "A, north", "dst": "B", "length_km": 100}],
    }))
    out = tmp_path / "paths"
    assert run(f"paths --topology {pair} --k 2 --out {out}".split()) == 0
    with open(out / "paths.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows == [
        ["src", "dst", "paths", "best_hops", "best_km"],
        ["A, north", "B", "1", "1", "100"],
        ["B", "A, north", "1", "1", "100"],
    ]


def test_paths_on_a_one_node_topology_exits_2(tmp_path, capsys):
    solo = tmp_path / "solo.json"
    solo.write_text(json.dumps({
        "schema": "eonsim-topology/1", "name": "solo", "fiber_mode": "dual",
        "slots_per_fiber": 10, "nodes": ["A"], "links": [],
    }))
    out = tmp_path / "never"
    assert run(f"paths --topology {solo} --k 2 --out {out}".split()) == 2
    assert "two nodes" in capsys.readouterr().err
    assert not out.exists()


def test_paths_on_a_length_no_float_holds_exits_2(tmp_path, capsys):
    # 2**53 + 1 km would be read as 2**53 km without a word
    pair = tmp_path / "pair.json"
    pair.write_text(json.dumps({
        "schema": "eonsim-topology/1", "name": "pair", "fiber_mode": "dual",
        "slots_per_fiber": 10, "nodes": ["A", "B"],
        "links": [{"src": "A", "dst": "B", "length_km": 2**53 + 1}],
    }))
    out = tmp_path / "never"
    assert run(f"paths --topology {pair} --k 2 --out {out}".split()) == 2
    err = capsys.readouterr().err
    assert "(A, B) has length 9007199254740993" in err and "Traceback" not in err
    assert not out.exists()


# SHA-256 of ``paths --k 5 --out`` for every bundled topology and ordering,
# recorded with the unoptimized Yen implementation that
# ``reference.reference_k_shortest_paths`` keeps.
PATHS_CSV_SHA256 = {
    ("cost239", "hops"): "4740ecc770f46be6fe345e57ec0c145237f6f19ee6156e2d7c4ed2225dae68ff",
    ("cost239", "km"): "8a861f616fb172a6a4f4a0a75a6488a8625df254872f963000902bb70b8a0a03",
    ("cost239-ptrnet", "hops"): "83e9198025b39dfcaf92bd22d5054553f09311f52d2adef85a711d8c22029fc8",
    ("cost239-ptrnet", "km"): "8b6e8b103fd6d0b74b6f4bbdfc20879fc08ff2537161ab1e4c17a1fccc68ee55",
    ("jpn48", "hops"): "673ce17f01ae71d5e7e8965eebe74e98d793cb631acad815b8143e47be7a4fce",
    ("jpn48", "km"): "034051d65350edc3a39c1dc775aa01845a7650abe587e9a2493853e19db6ea8b",
    ("nsfnet", "hops"): "9a9189c615ea47b2d12c35c6ca06d3384b2fc95ae148c1b27c1e9e5733d6c001",
    ("nsfnet", "km"): "650cd64e6ea5508c60f818ec3c14a4dfe501cff41e59097c1e232f797c510b6a",
    ("usnet", "hops"): "4d0a0981e788a49b8fc119065aa245d6879502c71c451facb390aa5449e4acc7",
    ("usnet", "km"): "126b12288f7e69e7ae2cced11a307deccfab60188d456c80dba33bc84165f6a8",
    ("usnet-ptrnet", "hops"): "1d884f23bbe0090cbf69dad343c1ad63aa75a17ccb6de34fbb8a58e4660168ca",
    ("usnet-ptrnet", "km"): "78c4840fcc85f36678abeddae42905c59dd7a4625639529954002f7c464c3258",
}


@pytest.mark.parametrize("topology,ordering", sorted(PATHS_CSV_SHA256))
def test_paths_csv_is_pinned(tmp_path, topology, ordering):
    out = tmp_path / "paths"
    assert run(f"paths --topology {topology} --k 5 --ordering {ordering} --out {out}".split()) == 0
    digest = hashlib.sha256((out / "paths.csv").read_bytes()).hexdigest()
    assert digest == PATHS_CSV_SHA256[topology, ordering]


# recorded when paths were compared by node sequence
@pytest.mark.parametrize("topology,fractions", [
    ("nsfnet", "mean 35.1%, max 88.9%"),  # dual fibers
    ("usnet-ptrnet", "mean 27.5%, max 88.9%"),  # single fibers
])
def test_ordering_diagnostic_is_pinned(capsys, topology, fractions):
    argv = f"paths --topology {topology} --k 5 --ordering hops --diagnose-orderings".split()
    assert run(argv) == 0
    assert f"ordering-unique path fraction (km vs hops): {fractions}\n" in capsys.readouterr().out


# --- warmup -----------------------------------------------------------------------------

def test_warmup_subcommand(tmp_path, capsys):
    out = tmp_path / "warm"
    code = run(f"warmup --loads 50:150:50 --trials 20 --seed 3 --out {out}".split())
    assert code == 0
    summary = (out / "warmup_summary.csv").read_text().strip().splitlines()
    assert summary[0] == "load_erlangs,q1,median,q3,whisker_max"
    assert len(summary) == 4
    fit = json.loads((out / "warmup_fit.json").read_text())
    assert "slope" in fit
    assert "requests per Erlang" in capsys.readouterr().out


# --- bound ------------------------------------------------------------------------------

BOUND_ARGS = (
    "bound --preset ptrnet-40 --topology nsfnet --heuristic ksp-ff --k 3 "
    "--ordering hops --loads 220,260,300 --trials 2 --seed 1 "
    "--warmup 200 --measured 900 --jobs 1 --target-sbp 0.01"
)
#: pinned, so a change to the trial records, the gain or the writers cannot alter a byte
BOUND_SHA256 = {
    "heuristic_trials.csv": "387469802314485144b2aec30f4aa5fa11177dfa2227d4fc3d06a01af30b8b29",
    "heuristic_summary.csv": "692f0a073b60ce24c328c629902c37d10d4c982994935570aeb4706bcd82c2db",
    "bound_trials.csv": "0a09a5a379ac776f1bcfe719e6d21357ea6fe1104184f74803a573562c3232be",
    "bound_summary.csv": "0c0b31f2a366e875ec0ba909181f57ac4f37accadbf94a46ba8d8cec0c4a8b47",
    "gain_report.json": "e0d49e060f14d9d7e082d55a70be079f9dec461be14adb4059133f855bffb53c",
}
BOUND_OUTPUTS = tuple(BOUND_SHA256)


def test_bound_subcommand_writes_gain(tmp_path, capsys, monkeypatch):
    calls = []
    real_trial = bounds.defrag_bound_trial

    def counted_trial(*args, **kwargs):
        calls.append(kwargs)
        return real_trial(*args, **kwargs)

    monkeypatch.setattr(bounds, "defrag_bound_trial", counted_trial)
    out = tmp_path / "bound"
    code = run(f"{BOUND_ARGS} --out {out}".split())
    assert code == 0
    for name in (*BOUND_OUTPUTS, "manifest.json"):
        assert (out / name).is_file(), name
    gain = json.loads((out / "gain_report.json").read_text())
    assert gain["bound_load_erlangs"] >= gain["heuristic_load_erlangs"]
    # one bound run per (load, trial)
    assert calls == [{}] * (3 * 2)


def test_bound_manifest_rerun_reproduces_outputs_byte_for_byte(tmp_path, capsys):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    assert run(f"{BOUND_ARGS} --out {out1}".split()) == 0
    assert run(["rerun", "--manifest", str(out1 / "manifest.json"), "--out", str(out2)]) == 0
    for name in BOUND_OUTPUTS:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name
    assert {name: sha256(out1 / name) for name in BOUND_OUTPUTS} == BOUND_SHA256


def test_rerun_of_an_old_bound_manifest_with_record_outcomes(tmp_path, capsys):
    """Bound manifests once stored ``record_outcomes`` for a per-request outcome dump.

    One storing ``false``, as every bound run without the dump did, reruns
    to the pinned outputs; one storing ``true`` asks for a dump that is no
    longer written, and exits 2 before writing anything, with one error line
    naming the manifest and the option and no usage text.
    """
    out = tmp_path / "run"
    assert run(f"{BOUND_ARGS} --out {out}".split()) == 0
    doc = json.loads((out / "manifest.json").read_text())
    for recorded in (False, True):
        doc["args"]["record_outcomes"] = recorded
        (tmp_path / f"{recorded}.json").write_text(json.dumps(doc))
    rerun = tmp_path / "rerun"
    assert run(["rerun", "--manifest", str(tmp_path / "False.json"), "--out", str(rerun)]) == 0
    assert {name: sha256(rerun / name) for name in BOUND_OUTPUTS} == BOUND_SHA256
    capsys.readouterr()
    refused = tmp_path / "refused"
    argv = ["rerun", "--manifest", str(tmp_path / "True.json"), "--out", str(refused)]
    assert exit_code(argv) == 2
    err = capsys.readouterr().err
    assert err.splitlines() == [
        f"error: manifest {tmp_path / 'True.json'} stores --record-outcomes, "
        "unknown to this eonsim"
    ]
    assert not refused.exists()


def test_bound_subcommand_unbracketed_exits_3(tmp_path, capsys):
    out = tmp_path / "bound2"
    code = run(
        "bound --preset ptrnet-40 --topology nsfnet --heuristic ksp-ff --k 3 "
        "--ordering hops --loads 5,8 --trials 1 --seed 1 "
        f"--warmup 50 --measured 300 --jobs 1 --target-sbp 0.01 --out {out}".split()
    )
    assert code == 3
    assert "bracket" in capsys.readouterr().err
    # curves are still written for inspection
    assert (out / "heuristic_summary.csv").is_file()


def test_bound_with_scan_all_policy_exits_2_before_any_trial(tmp_path, capsys, monkeypatch):
    def no_trials(*args, **kwargs):
        raise AssertionError("a trial ran")

    monkeypatch.setattr(simulator, "run_stream", no_trials)
    monkeypatch.setattr(bounds, "run_stream", no_trials)
    code = run(
        "bound --preset ptrnet-80 --topology usnet --heuristic kme-ff --k 10 "
        f"--ordering km --loads 160,200 --trials 2 --jobs 1 --out {tmp_path}".split()
    )
    assert code == 2
    assert "inner heuristic" in capsys.readouterr().err


@pytest.mark.parametrize(
    "sub,loads,existing",
    [
        pytest.param("sweep", "300", False, id="sweep-300"),
        pytest.param("bound", "5,40", False, id="bound-5,40"),
        pytest.param("sweep", "300", True, id="sweep-300-existing-out"),
        pytest.param("bound", "5,40", True, id="bound-5,40-existing-out"),
    ],
)
def test_a_stream_that_cannot_be_allocated_exits_3_with_one_line(
    tmp_path, capsys, monkeypatch, sub, loads, existing
):
    """numpy raises MemoryError for a stream too long to allocate; the run
    reports it as a runtime failure, not a traceback.  It removes the
    directories it made for --out, and leaves one that existed as it was."""
    def no_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 14.9 GiB for an array")

    monkeypatch.setattr(simulator, "generate_stream", no_memory)
    monkeypatch.setattr(bounds, "generate_stream", no_memory)
    out = tmp_path / "runs" / "run"
    if existing:
        out.mkdir(parents=True)
    code = run(
        f"{sub} --preset deeprmsa --topology nsfnet --k 2 --loads {loads} --trials 1 "
        f"--warmup 10 --measured 50 --jobs 1 --out {out}".split()
    )
    assert code == 3
    assert capsys.readouterr().err == "error: Unable to allocate 14.9 GiB for an array\n"
    if existing:
        assert out.is_dir() and list(out.iterdir()) == []
    else:
        assert list(tmp_path.iterdir()) == []


# ``eonsim`` that prints "trial" as each trial starts, so a test can stop a run mid-sweep.
ANNOUNCING_MAIN = """
import sys
from eonsim import cli, simulator
generate_stream = simulator.generate_stream
def announce(*args, **kwargs):
    print("trial", flush=True)
    return generate_stream(*args, **kwargs)
simulator.generate_stream = announce
sys.exit(cli.main())
"""


@pytest.mark.parametrize("sub", ["sweep", "bound"])
def test_a_run_stopped_by_sigterm_leaves_no_out(tmp_path, sub):
    """A signal ends the process before any clean-up could run, so a run
    that has written nothing must not have made --out either."""
    out = tmp_path / "runs" / "run"
    with subprocess.Popen(
        [sys.executable, "-c", ANNOUNCING_MAIN, sub, "--preset", "deeprmsa",
         "--topology", "nsfnet", "--k", "2", "--loads", "100:1000:100", "--trials", "2",
         "--warmup", "10", "--measured", "200000", "--jobs", "1", "--out", str(out)],
        env={**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])},
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    ) as proc:
        try:
            assert proc.stdout.readline() == "trial\n", proc.stderr.read()
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=60) == -signal.SIGTERM
        finally:
            proc.kill()
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv",
    [
        "sweep --preset deeprmsa --topology nsfnet --k 2 --loads 300 --trials 1 --jobs 1",
        "bound --preset deeprmsa --topology nsfnet --k 2 --loads 200,300 --trials 1 --jobs 1",
        "warmup --loads 100 --trials 2",
        "paths --topology nsfnet --k 2",
    ],
)
@pytest.mark.parametrize("blocker", ["file", "broken-link"])
@pytest.mark.parametrize("below", ["", "runs/run"])
def test_an_out_that_cannot_be_a_directory_exits_2_before_any_computation(
    tmp_path, capsys, monkeypatch, argv, blocker, below
):
    def no_work(*args, **kwargs):
        raise AssertionError("a trial or path computation ran")

    for owner, name in [(simulator, "run_stream"), (bounds, "run_stream"),
                        (cli, "estimate_warmup"), (Topology, "warm_path_cache"),
                        (Topology, "candidate_paths")]:
        monkeypatch.setattr(owner, name, no_work)
    blocked = tmp_path / blocker
    if blocker == "file":
        blocked.write_text("")
    else:
        blocked.symlink_to(tmp_path / "nowhere")
    assert run(f"{argv} --out {blocked / below}".split()) == 2
    assert "is not writable" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [blocked]


BAD_MODULATION_FILES = {
    "invalid.json": "{not json",
    "no-formats.json": '{"rates": []}',
    # no format at all would block every request
    "empty-formats.json": '{"formats": []}',
    "negative-reach.json": (
        '{"formats": [{"name": "lone", "bits_per_symbol": 2, "max_reach_km": -5}]}'
    ),
    "nan-reach.json": (
        '{"formats": [{"name": "lone", "bits_per_symbol": 2, "max_reach_km": NaN}]}'
    ),
    # each once read as a number it does not state: 2, 1 and 1.0
    "fractional-bits.json": (
        '{"formats": [{"name": "lone", "bits_per_symbol": 2.7, "max_reach_km": 9000}]}'
    ),
    "boolean-bits.json": (
        '{"formats": [{"name": "lone", "bits_per_symbol": true, "max_reach_km": 9000}]}'
    ),
    "boolean-reach.json": (
        '{"formats": [{"name": "lone", "bits_per_symbol": 2, "max_reach_km": true}]}'
    ),
    # integers, but no slot count follows from them
    "zero-bits.json": (
        '{"formats": [{"name": "lone", "bits_per_symbol": 0, "max_reach_km": 9000}]}'
    ),
    "negative-bits.json": (
        '{"formats": [{"name": "X", "bits_per_symbol": 2, "max_reach_km": 1000},'
        ' {"name": "Y", "bits_per_symbol": -1, "max_reach_km": 9000}]}'
    ),
    # an integer past the float range
    "huge-reach.json": (
        '{"formats": [{"name": "lone", "bits_per_symbol": 2, "max_reach_km": 1%s}]}' % ("0" * 400)
    ),
    "huge-bits.json": (
        '{"formats": [{"name": "lone", "bits_per_symbol": 1%s, "max_reach_km": 9000}]}' % ("0" * 400)
    ),
}


# An integer flag out of its range -> the flag its error must name.
BAD_INT_FLAGS = {
    # a zero override is an error, not a fall-back to the preset's grid
    "sweep --preset deeprmsa --topology nsfnet --loads 100 --trials 1 --warmup 10 "
    "--measured 50 --jobs 1 --slots 0": "--slots",
    "warmup --loads 100 --trials 0": "--trials",
    "sweep --preset deeprmsa --topology nsfnet --k 0 --loads 100 --trials 1 --jobs 1": "--k",
    "bound --preset deeprmsa --topology nsfnet --k 0 --loads 100,200 --trials 1 --jobs 1": "--k",
    "paths --topology nsfnet --k 0": "--k",
    "sweep --preset deeprmsa --topology nsfnet --k 2 --loads 100 --trials 0 --jobs 1": "--trials",
    "bound --preset deeprmsa --topology nsfnet --k 2 --loads 100,200 --trials 0 --jobs 1": "--trials",
    "sweep --preset deeprmsa --topology nsfnet --k 2 --loads 100 --trials 1 --measured 0 "
    "--jobs 1": "--measured",
    "sweep --preset deeprmsa --topology nsfnet --k 2 --loads 100 --trials 1 --warmup -5 "
    "--jobs 1": "--warmup",
    "bound --preset deeprmsa --topology nsfnet --k 2 --loads 100,200 --trials 1 "
    "--guard-slots -1 --jobs 1": "--guard-slots",
}


def exit_code(argv):
    """``main``'s return value, or the code of the SystemExit argparse raises."""
    try:
        return run(argv)
    except SystemExit as exc:
        return exc.code


# rejected loads whose error must name the flag, including those that fail only
# once trials draw their arrivals
LOADS_NAMED = (
    "warmup --loads 1e300",
    "warmup --loads 100,100",
    "warmup --loads 200,100",
    "warmup --loads 1e-310",
    "sweep --preset deeprmsa --topology nsfnet --k 2 --loads 1e-310 --trials 1 --jobs 1",
    "bound --preset deeprmsa --topology nsfnet --k 2 --loads 1e-310,100 --trials 1 --jobs 1",
    "sweep --preset deeprmsa --topology nsfnet --k 2 --loads 5e-324 --trials 1 --jobs 1",
    "bound --preset deeprmsa --topology nsfnet --k 2 --loads 5e-324 --trials 1 --jobs 1",
    "sweep --preset deeprmsa --topology nsfnet --k 2 --loads 2,1 --trials 1 --jobs 1",
    "bound --preset deeprmsa --topology nsfnet --k 2 --loads 2,1 --trials 1 --jobs 1",
)


@pytest.mark.parametrize(
    "argv",
    [
        "bound --preset ptrnet-80 --topology usnet --heuristic kme-ff --k 10 --ordering km "
        "--loads 160,200 --trials 2 --jobs 1",
        "sweep --preset deeprmsa --topology nsfnet --loads 300,200 --trials 1 --jobs 1",
        "warmup --loads 0",
        # a non-finite load is a usage error, not a simulated point
        "sweep --preset deeprmsa --topology nsfnet --loads 100,nan --trials 1 --jobs 1",
        "sweep --preset deeprmsa --topology nsfnet --loads 100,inf --trials 1 --jobs 1",
        "sweep --preset deeprmsa --topology nsfnet --loads nan,100 --trials 1 --jobs 1",
        "warmup --loads nan",
        # a load over the mean holding time that rounds to 0, and one whose arrival
        # times overflow: neither gives a finite arrival time
        "sweep --preset deeprmsa --topology nsfnet --k 2 --loads 5e-324 --trials 1 --jobs 1",
        "sweep --preset deeprmsa --topology nsfnet --k 2 --loads 1e-310 --trials 1 --jobs 1",
        "bound --preset deeprmsa --topology nsfnet --k 2 --loads 5e-324 --trials 1 --jobs 1",
        "warmup --loads 5e-324",
        "warmup --loads 1e-310",
        "bound --preset deeprmsa --topology nsfnet --k 2 --loads 1e-310,100 --trials 1 --jobs 1",
        # a horizon of 1.6e301 requests per trial cannot be allocated
        "warmup --loads 1e300",
        # one rule for every subcommand: loads strictly increase, so a fit sees distinct loads
        "warmup --loads 100,100",
        "warmup --loads 200,100",
        "sweep --preset deeprmsa --topology nsfnet --k 2 --loads 2,1 --trials 1 --jobs 1",
        "bound --preset deeprmsa --topology nsfnet --k 2 --loads 2,1 --trials 1 --jobs 1",
        # every load must be > 0, whichever subcommand parses it
        "sweep --preset deeprmsa --topology nsfnet --k 2 --loads -1 --trials 1 --jobs 1",
        "sweep --preset deeprmsa --topology nsfnet --k 2 --loads 0:40:20 --trials 1 --jobs 1",
        "bound --preset deeprmsa --topology nsfnet --k 2 --loads 0,200 --trials 1 --jobs 1",
        # {mods} is a directory holding BAD_MODULATION_FILES
        *(
            "sweep --preset deeprmsa --topology nsfnet --k 2 --loads 100 --trials 1 --jobs 1 "
            f"--modulation-file {{mods}}/{name}"
            for name in [*BAD_MODULATION_FILES, "missing.json"]
        ),
        *BAD_INT_FLAGS,
    ],
)
def test_rejected_run_leaves_no_output_dir(tmp_path, capsys, argv):
    for name, text in BAD_MODULATION_FILES.items():
        (tmp_path / name).write_text(text)
    out = tmp_path / "never"
    assert exit_code(f"{argv.format(mods=tmp_path)} --out {out}".split()) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    if "--modulation-file" in argv:
        assert "--modulation-file" in err
    if argv in LOADS_NAMED:
        spec = argv.split("--loads ")[1].split()[0]
        assert f"error: bad --loads '{spec}': " in err
    if argv in BAD_INT_FLAGS:
        assert f"argument {BAD_INT_FLAGS[argv]}:" in err


@pytest.mark.parametrize("sub", ["sweep", "bound"])
@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_non_positive_jobs_is_a_usage_error(tmp_path, capsys, sub, jobs):
    out = tmp_path / "never"
    with pytest.raises(SystemExit) as exc:
        run(
            f"{sub} --preset deeprmsa --topology nsfnet --k 2 --loads 100 --trials 1 "
            f"--warmup 10 --measured 50 --jobs {jobs} --out {out}".split()
        )
    assert exc.value.code == 2
    assert "--jobs" in capsys.readouterr().err
    assert not out.exists()


# --k is an int: a fractional K is refused, not truncated to a smaller one.
@pytest.mark.parametrize(
    "argv",
    [
        "sweep --preset deeprmsa --topology nsfnet --k 1.5 --loads 100 --trials 1 --jobs 1",
        "bound --preset deeprmsa --topology nsfnet --k 2.5 --loads 100,200 --trials 1 --jobs 1",
        "paths --topology nsfnet --k 1.5",
    ],
    ids=["sweep", "bound", "paths"],
)
def test_non_integer_k_is_a_usage_error(tmp_path, capsys, argv):
    out = tmp_path / "never"
    with pytest.raises(SystemExit) as exc:
        run(f"{argv} --out {out}".split())
    assert exc.value.code == 2
    assert "--k" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("target", ["0", "1", "-0.1", "1.5", "nan", "inf"])
def test_target_sbp_outside_open_unit_interval_is_a_usage_error(
    tmp_path, capsys, monkeypatch, target
):
    def no_trials(*args, **kwargs):
        raise AssertionError("a trial ran")

    monkeypatch.setattr(simulator, "run_stream", no_trials)
    monkeypatch.setattr(bounds, "run_stream", no_trials)
    out = tmp_path / "never"
    with pytest.raises(SystemExit) as exc:
        run(
            "bound --preset deeprmsa --topology nsfnet --k 2 --loads 100,200 --trials 1 "
            f"--warmup 10 --measured 50 --jobs 1 --target-sbp {target} --out {out}".split()
        )
    assert exc.value.code == 2
    assert "--target-sbp" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        "sweep --preset deeprmsa --topology nsfnet --k 2 --loads 100 --trials 1 "
        "--warmup 10 --measured 50 --jobs 1",
        "warmup --loads 100 --trials 2",
    ],
    ids=["sweep", "warmup"],
)
def test_negative_seed_is_a_usage_error(tmp_path, capsys, argv):
    out = tmp_path / "never"
    with pytest.raises(SystemExit) as exc:
        run(f"{argv} --seed -1 --out {out}".split())
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "--seed" in err and "Traceback" not in err
    assert not out.exists()


def test_truncation_demo_zero_samples_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["truncation-demo", "--samples", "0"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert "--samples" in captured.err
    assert "nan" not in captured.out


# Run in a child process, so stderr is what a user reads, outside pytest's
# capture of warnings.
@pytest.mark.parametrize("sub,loads", [("sweep", "300"), ("bound", "200,300")])
def test_few_blocks_warning_is_one_plain_line(tmp_path, sub, loads):
    proc = subprocess.run(
        [sys.executable, "-c", "import sys; from eonsim.cli import main; sys.exit(main())",
         sub, "--preset", "deeprmsa", "--topology", "nsfnet", "--k", "2", "--loads", loads,
         "--trials", "1", "--warmup", "10", "--measured", "50", "--jobs", "1",
         "--out", str(tmp_path / "run")],
        env={**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])},
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode in (0, 3), proc.stderr  # bound: no crossing within 200-300
    lines = proc.stderr.splitlines()
    # bound sweeps two curves and names each in its warnings, once per load
    for curve in [" (heuristic)", " (bound)"] if sub == "bound" else [""]:
        line = f"warning: load 300{curve}: only 0 blocking events across 1 trials; SBP estimate is noisy"
        assert lines.count(line) == 1
    warned = [line for line in lines if line.startswith("warning:")]
    assert len(warned) == len(set(warned))
    assert ".py:" not in proc.stderr


def test_one_trial_sweep_writes_no_nan(tmp_path, capsys):
    out = tmp_path / "run"
    code = run(
        "sweep --preset deeprmsa --topology nsfnet --k 2 --loads 100,300 --trials 1 "
        f"--warmup 10 --measured 50 --jobs 1 --out {out}".split()
    )
    assert code == 0
    summary = (out / "summary.csv").read_text()
    assert "nan" not in summary.lower()
    assert [row.split(",")[3] for row in summary.splitlines()[1:]] == ["", ""]
    printed = capsys.readouterr().out
    assert "std n/a" in printed and "nan" not in printed.lower()


# --- run metadata -----------------------------------------------------------------------

@pytest.mark.filterwarnings("ignore:load .* blocking events")
@pytest.mark.parametrize(
    "argv,code",
    [
        (SWEEP_ARGS, 0),
        # unbracketed, so it exits 3, but only after writing every output
        ("bound --preset ptrnet-40 --topology nsfnet --k 3 --loads 5,8 --trials 1 "
         "--warmup 50 --measured 300 --jobs 1 --target-sbp 0.01", 3),
        ("paths --topology nsfnet --k 5", 0),
    ],
)
def test_run_meta_records_path_set_up_seconds(tmp_path, argv, code):
    out = tmp_path / "run"
    assert run(f"{argv} --out {out}".split()) == code
    meta = json.loads((out / "run_meta.json").read_text())
    assert 0 <= meta["paths_s"] <= meta["duration_s"]


def test_run_meta_reads_the_clock_once(tmp_path, monkeypatch):
    ticks = iter([100.0, 101.25, 102.5])
    monkeypatch.setattr(cli, "time", SimpleNamespace(time=lambda: next(ticks)))
    args = build_parser().parse_args(["warmup", "--loads", "100", "--out", str(tmp_path)])
    cli._write_records(tmp_path, args, 99.0)
    meta = json.loads((tmp_path / "run_meta.json").read_text())
    assert meta["finished_unix"] == 100.0
    assert meta["duration_s"] == round(meta["finished_unix"] - meta["started_unix"], 3)


# --- README studies ---------------------------------------------------------------------

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_study_commands():
    """Argument lists of every ``eonsim`` command in the README's studies section.

    A command inside shell ``for`` loops yields one list per combination
    of the loop values.
    """
    section = README.read_text().split("\n## Studies\n")[1].split("\n## ")[0]
    for block in re.findall(r"```sh\n(.*?)```", section, re.S):
        script = block.replace("\\\n", " ")
        loops = dict(re.findall(r"for (\w+) in ([^;]+); do", script))
        values = itertools.product(*(v.split() for v in loops.values()))
        bindings = [dict(zip(loops, combo)) for combo in values]
        for line in script.splitlines():
            if line.strip().startswith("eonsim "):
                for env in bindings:
                    yield shlex.split(string.Template(line).substitute(env))[1:]


def test_readme_study_commands_parse():
    """The documented studies are valid CLI runs; they are parsed, not run."""
    commands = list(readme_study_commands())
    assert {argv[0] for argv in commands} == {"bound", "sweep", "paths"}
    parser = build_parser()
    for argv in commands:
        args = parser.parse_args(argv)
        if "loads" in args:
            parse_loads(args.loads)


# One small point of each study, pinned at the figures the study drivers
# printed for the same arguments before the studies moved onto the CLI.

def test_heuristic_comparison_point_is_pinned(tmp_path):
    out = tmp_path / "by-k"
    assert run(
        "sweep --preset deeprmsa --topology nsfnet --heuristic ksp-ff --k 3 --loads 300 "
        f"--trials 2 --seed 0 --jobs 1 --out {out}".split()
    ) == 0
    summary = (out / "summary.csv").read_text().strip().splitlines()
    assert summary[1].startswith("300,2,0.0282,") and summary[1].endswith(",564")


def test_capacity_gain_point_is_pinned(tmp_path, capsys):
    out = tmp_path / "bound"
    code = run(
        "bound --preset deeprmsa --topology nsfnet --k 5 --ordering hops "
        f"--loads 200,400 --trials 1 --seed 100 --jobs 1 --out {out}".split()
    )
    assert code == 0
    printed = capsys.readouterr()
    assert "heuristic 243.8 E, bound 309.6 E, relative gain +26.9%" in printed.out
    assert "SBP estimate is noisy" in printed.err
