"""Distance-adaptive modulation and slot-demand computation.

A request's demand is an int: the number of contiguous 12.5 GHz slots
it occupies on the candidate path.  For a rate request the longest
usable modulation reach determines bits per symbol, and a slot carries
12.5 Gbps per bit per symbol.  Fixed-width request models bypass the
modulation table entirely and demand their stated slot count.

Demand is a compiled lookup: each path length resolves its format once
per table, and each (rate, bits per symbol, guard slots) triple its
slot count once, so :func:`demand_for_path` is the only place demand
is computed and costs a few dictionary lookups per candidate.
"""
from __future__ import annotations

import json
import math
import numbers
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from .topology import CandidatePath, _Lookup, _is_number

SLOT_WIDTH_GHZ = 12.5


@dataclass(frozen=True)
class ModulationFormat:
    name: str
    bits_per_symbol: int
    max_reach_km: float


class ModulationTable:
    """Ordered modulation formats with distance-dependent selection."""

    def __init__(self, formats: Sequence[ModulationFormat]):
        rows = sorted(formats, key=lambda f: f.bits_per_symbol, reverse=True)
        if not rows:
            raise ValueError("need at least one modulation format")
        for hi, lo in zip(rows, rows[1:]):
            if hi.bits_per_symbol == lo.bits_per_symbol:
                raise ValueError(f"duplicate bits_per_symbol {hi.bits_per_symbol}")
            if hi.max_reach_km >= lo.max_reach_km:
                raise ValueError(
                    "reach must strictly decrease as bits per symbol increase"
                )
        if not all(0 < f.max_reach_km < math.inf for f in rows):
            raise ValueError("reaches must be positive and finite")
        if rows[-1].bits_per_symbol < 1:
            raise ValueError(f"bits_per_symbol must be >= 1, got {rows[-1].bits_per_symbol}")
        if rows[0].bits_per_symbol > sys.float_info.max:  # demand divides a float by it
            raise ValueError(f"bits_per_symbol must be at most {sys.float_info.max:g}")
        self.formats: tuple[ModulationFormat, ...] = tuple(rows)
        # compiled lookups: path length -> format, and
        # (rate, bits per symbol, guard slots) -> slots
        self._by_length = _Lookup(self._resolve)
        self._slots = _Lookup(lambda key: slots_required(key[0], key[1]) + key[2])

    def __reduce__(self):
        # pickle the formats only; a copy compiles its own lookups
        return (ModulationTable, (self.formats,))

    def _resolve(self, length_km: float) -> ModulationFormat | None:
        """Highest-order format whose reach covers ``length_km`` (inclusive).

        None when the path exceeds every reach, i.e. the path is
        infeasible at any modulation.
        """
        if length_km <= 0:
            raise ValueError(f"length_km must be positive, got {length_km}")
        # formats run in descending bits per symbol
        return next((f for f in self.formats if f.max_reach_km >= length_km), None)

    @classmethod
    def default(cls) -> "ModulationTable":
        return cls(
            [
                ModulationFormat("BPSK", 1, 10_000.0),
                ModulationFormat("QPSK", 2, 2_500.0),
                ModulationFormat("8QAM", 3, 1_250.0),
                ModulationFormat("16QAM", 4, 625.0),
            ]
        )

    @classmethod
    def from_json(cls, source: str | Path) -> "ModulationTable":
        doc = json.loads(Path(source).read_text())
        formats = []
        for r in doc["formats"]:
            bits, reach = r["bits_per_symbol"], r["max_reach_km"]
            # a number is taken as written: no bool, string or fractional bits
            if not (_is_number(bits, numbers.Integral) and _is_number(reach, numbers.Real)):
                raise ValueError(
                    f"format {r['name']!r} needs an integer bits_per_symbol and a number "
                    f"max_reach_km, got {bits!r} and {reach!r}"
                )
            formats.append(ModulationFormat(r["name"], bits, float(reach)))
        return cls(formats)


def slots_required(rate_gbps: float, bits_per_symbol: int) -> int:
    """Slot count for a data rate under the Nyquist convention.

    One 12.5 GHz slot at m bits per symbol carries 12.5*m Gbps, so the
    demand is ceil(rate / (12.5 * m)), and never below one slot.
    """
    if rate_gbps <= 0 or bits_per_symbol < 1:
        raise ValueError("rate and bits per symbol must be positive")
    quotient = rate_gbps / (SLOT_WIDTH_GHZ * bits_per_symbol)
    nearest = round(quotient)
    if nearest >= 1 and abs(quotient - nearest) < 1e-9:
        return nearest
    return max(1, math.ceil(quotient))


def demand_for_path(
    request,
    path: CandidatePath,
    table: ModulationTable | None,
    guard_slots: int = 0,
) -> int | None:
    """Slots ``request`` occupies on ``path``, or None when infeasible.

    Fixed-width requests (``request.slots`` set) skip the table.  For
    rate requests the path length selects the modulation; paths beyond
    the longest reach are infeasible.  ``guard_slots`` extra slots are
    added to the allocated block.
    """
    if request.slots is not None:
        return request.slots + guard_slots
    if table is None:
        raise ValueError("rate-based request requires a modulation table")
    fmt = table._by_length[path.length_km]
    if fmt is None:
        return None
    return table._slots[request.rate_gbps, fmt.bits_per_symbol, guard_slots]
