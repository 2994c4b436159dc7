"""Distance-adaptive modulation and slot-demand computation.

A request's slot demand depends on the candidate path: the longest
usable modulation reach determines bits per symbol, which with the
slot width fixes the per-slot capacity.  Fixed-width request models
bypass the modulation table entirely and demand a literal slot count.

Demand is a compiled lookup: each path length resolves its format once
per table, and each (rate, bits per symbol) pair its slot count once
per slot model, so :func:`demand_for_path` is the only place demand is
computed and costs a few dictionary lookups per candidate.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from .topology import CandidatePath

DEFAULT_SLOT_WIDTH_GHZ = 12.5


@dataclass(frozen=True)
class ModulationFormat:
    name: str
    bits_per_symbol: int
    max_reach_km: float


class _Lookup(dict):
    """A dictionary that computes, and keeps, each missing entry."""

    __slots__ = ("_compute",)

    def __init__(self, compute):
        super().__init__()
        self._compute = compute

    def __missing__(self, key):
        value = self[key] = self._compute(key)
        return value


class ModulationTable:
    """Ordered modulation formats with distance-dependent selection."""

    def __init__(self, formats: Sequence[ModulationFormat]):
        rows = sorted(formats, key=lambda f: f.bits_per_symbol, reverse=True)
        for hi, lo in zip(rows, rows[1:]):
            if hi.bits_per_symbol == lo.bits_per_symbol:
                raise ValueError(f"duplicate bits_per_symbol {hi.bits_per_symbol}")
            if hi.max_reach_km >= lo.max_reach_km:
                raise ValueError(
                    "reach must strictly decrease as bits per symbol increase"
                )
        if any(f.max_reach_km <= 0 for f in rows):
            raise ValueError("reaches must be positive")
        self.formats: tuple[ModulationFormat, ...] = tuple(rows)
        # compiled lookups: path length -> format, and (rate, bits per symbol,
        # slot width, overhead, guard slots) -> demand
        self._by_length = _Lookup(self._resolve)
        self._demands = _Lookup(self._compile_demand)

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

    def demand(
        self,
        rate_gbps: float,
        fmt: ModulationFormat,
        slot_width_ghz: float = DEFAULT_SLOT_WIDTH_GHZ,
        overhead: float = 1.0,
        guard_slots: int = 0,
    ) -> SlotDemand:
        """Demand of a ``rate_gbps`` request carried at ``fmt``, one of this table's formats."""
        return self._demands[rate_gbps, fmt.bits_per_symbol, slot_width_ghz, overhead, guard_slots]

    def _compile_demand(self, key: tuple) -> SlotDemand:
        rate_gbps, bits, slot_width_ghz, overhead, guard_slots = key
        fmt = next(f for f in self.formats if f.bits_per_symbol == bits)
        n = slots_required(rate_gbps, bits, slot_width_ghz, overhead)
        return SlotDemand(n + guard_slots, fmt)

    @property
    def lowest_order(self) -> ModulationFormat:
        return self.formats[-1]

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
        return cls(
            [
                ModulationFormat(r["name"], int(r["bits_per_symbol"]), float(r["max_reach_km"]))
                for r in doc["formats"]
            ]
        )


def slots_required(
    rate_gbps: float,
    bits_per_symbol: int,
    slot_width_ghz: float = DEFAULT_SLOT_WIDTH_GHZ,
    overhead: float = 1.0,
) -> int:
    """Slot count for a data rate under the Nyquist convention.

    One slot of width w GHz at m bits per symbol carries w*m Gbps, so
    the demand is ceil(rate * overhead / (w * m)).  ``overhead`` > 1
    models framing or FEC surcharges; the default carries payload only.
    """
    if rate_gbps <= 0 or slot_width_ghz <= 0 or overhead <= 0 or bits_per_symbol < 1:
        raise ValueError("rate, slot width, overhead and bits per symbol must be positive")
    quotient = rate_gbps * overhead / (slot_width_ghz * bits_per_symbol)
    nearest = round(quotient)
    if nearest >= 1 and abs(quotient - nearest) < 1e-9:
        return nearest
    return max(1, math.ceil(quotient))


@dataclass(frozen=True)
class SlotDemand:
    """Resolved demand: contiguous slots to allocate, and how they arose.

    ``modulation`` is None in fixed-width mode, where the request
    already states its slot count and no reach check applies.
    """

    slots: int
    modulation: ModulationFormat | None

    def __post_init__(self):
        if self.slots < 1:
            raise ValueError(f"demand must be >= 1 slot, got {self.slots}")


_FIXED_DEMANDS = _Lookup(lambda slots: SlotDemand(slots, None))


def demand_for_path(
    request,
    path: CandidatePath,
    table: ModulationTable | None,
    slot_width_ghz: float = DEFAULT_SLOT_WIDTH_GHZ,
    overhead: float = 1.0,
    guard_slots: int = 0,
) -> SlotDemand | None:
    """Demand of ``request`` on ``path``, or None when infeasible.

    Fixed-width requests (``request.slots`` set) skip the table.  For
    rate requests the path length selects the modulation; paths beyond
    the longest reach are infeasible.  ``guard_slots`` extra slots are
    added to the allocated block.  Demands are shared, immutable objects.
    """
    if request.slots is not None:
        return _FIXED_DEMANDS[request.slots + guard_slots]
    if table is None:
        raise ValueError("rate-based request requires a modulation table")
    # the compiled lookups behind table.demand, without the method call
    fmt = table._by_length[path.length_km]
    if fmt is None:
        return None
    return table._demands[
        request.rate_gbps, fmt.bits_per_symbol, slot_width_ghz, overhead, guard_slots
    ]

