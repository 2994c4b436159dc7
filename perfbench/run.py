"""Run one workload of the eonsim benchmark and print its result.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload NAME --pin [--seed N]

Run from anywhere; the simulator is imported from the ``src/`` directory
next to this one, and the run fails (exit code 2, no result) when it is
missing.  The second-to-last line of standard output is a record of the
run: environment, exact counts, CSV hashes and check outcomes.  The
last line is the result: ``correct``, ``attempted`` and ``failed``
(trials) and the metrics, end-to-end ones with ``--trace 0`` and
per-layer ones with ``--trace 1``.

``--pin`` recomputes the workload's reference outputs at the seed and
stores them in ``reference.json``.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
BENCHMARK_JSON = HERE.parent / "BENCHMARK.json"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu_model(),
        "loadavg_1m": os.getloadavg()[0],
        "platform": platform.platform(),
    }


def metric_units() -> dict[str, str]:
    spec = json.loads(BENCHMARK_JSON.read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pin", action="store_true")
    args = parser.parse_args(argv)

    if not (SRC / "eonsim" / "__init__.py").is_file():
        print(f"perfbench: no simulator sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import harness

    wl = harness.WORKLOADS.get(args.workload)
    if wl is None:
        print(
            f"perfbench: unknown workload {args.workload!r}; "
            f"expected one of {sorted(harness.WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    seed = harness.DEFAULT_SEED if args.seed is None else args.seed
    references = json.loads(harness.REFERENCE_PATH.read_text())

    if args.pin:
        references[wl.name] = harness.pin(wl, seed)
        harness.REFERENCE_PATH.write_text(json.dumps(references, indent=1, sort_keys=True) + "\n")
        print(f"pinned {wl.name} at seed {seed}")
        return 0

    result = harness.run_workload(
        wl, seed, args.seconds, bool(args.trace), references.get(wl.name)
    )
    record, line = result_lines(result)
    print(json.dumps(record, sort_keys=True))
    print(json.dumps(line))
    return 0


def result_lines(result: dict) -> tuple[dict, dict]:
    """Split a run's result into its record and its result line with units."""
    units = metric_units()
    line = {key: result[key] for key in ("correct", "attempted", "failed")}
    line["metrics"] = {
        name: {"value": value, "unit": units[name]}
        for name, value in result["metrics"].items()
    }
    return {"environment": environment(), **result["record"]}, line


if __name__ == "__main__":
    sys.exit(main())
