"""The package imports nothing outside the standard library but numpy."""
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# Imports every eonsim module in a fresh, isolated interpreter and prints the
# top-level names of the modules that importing them added.
PROBE = """
import pkgutil, sys
sys.path.insert(0, sys.argv[1])
before = set(sys.modules)
import eonsim
for info in pkgutil.iter_modules(eonsim.__path__, "eonsim."):
    __import__(info.name)
print(" ".join(sorted({name.split(".")[0] for name in set(sys.modules) - before})))
"""


def test_only_runtime_dependency_is_numpy():
    proc = subprocess.run(
        [sys.executable, "-I", "-c", PROBE, str(ROOT / "src")],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert "eonsim" in loaded
    foreign = {
        name for name in loaded - {"eonsim"}
        if name not in sys.stdlib_module_names
        and not (name.startswith("__") and name.endswith("__"))
    }
    assert foreign == {"numpy"}, sorted(foreign)
