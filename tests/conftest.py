import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from eonsim.topology import Topology


@pytest.fixture
def diamond():
    """A-D direct plus two 2-hop alternatives of different lengths."""
    return Topology(
        "diamond",
        ["A", "B", "C", "D"],
        [
            ("A", "B", 100),
            ("B", "D", 100),
            ("A", "C", 300),
            ("C", "D", 300),
            ("A", "D", 500),
        ],
        slots_per_fiber=8,
    )


@pytest.fixture
def single_link():
    return Topology("wire", ["A", "B"], [("A", "B", 100)], slots_per_fiber=10)


@pytest.fixture
def wide_ring():
    """A 130-node dual ring: 260 fibers, more than one byte can number."""
    n = 130
    return Topology(
        "ring", [str(i) for i in range(n)], [(str(i), str((i + 1) % n), 10) for i in range(n)],
        slots_per_fiber=8,
    )
