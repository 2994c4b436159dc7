"""Problem-setting presets for the recreated benchmark studies.

Each preset pins the fiber mode, slot count, demand model and
holding-time truncation of one published study family:

* ``deeprmsa`` / ``reward-rmsa`` / ``gcn-rmsa``: dual-fiber links,
  100 FSU, 25-100 Gbps requests with distance-adaptive modulation, and
  holding-time truncation ON (an artifact of the shared codebase those
  studies inherit).
* ``maskrsa``: single-fiber links, modulation ON, truncation OFF.
* ``ptrnet-40`` / ``ptrnet-80``: single-fiber links with 40/80 FSU and
  fixed 1 / 1-4 slot demands; no modulation table (fixed-width mode).

Modulation is on exactly when demands are data rates, and every preset
shares the traffic module's mean holding time.  Topology, k, ordering
and loads stay free parameters.  A preset's slot count and fiber mode
apply to any topology it loads, bundled or from a file; ptrnet presets
also map the shared topology names onto their variant files.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping

from .heuristics import HeuristicKind
from .service import ModulationTable
from .simulator import SimConfig
from .topology import PathOrdering, Topology, load_topology
from .traffic import TrafficConfig


class PresetError(ValueError):
    """Unknown preset name."""


@dataclass(frozen=True)
class ExperimentPreset:
    name: str
    fiber_mode: str
    slots_per_fiber: int
    truncate_holding: bool
    rate_gbps_range: tuple[int, int] | None = None
    fixed_slot_choices: tuple[int, ...] | None = None
    topology_aliases: Mapping[str, str] = field(default_factory=dict)

    def load_topology(
        self,
        source: str,
        *,
        slots_per_fiber: int | None = None,
        fiber_mode: str | None = None,
    ) -> Topology:
        """A bundled topology or file under this preset's grid, unless overridden."""
        return load_topology(
            self.topology_aliases.get(source, source),
            slots_per_fiber=self.slots_per_fiber if slots_per_fiber is None else slots_per_fiber,
            fiber_mode=self.fiber_mode if fiber_mode is None else fiber_mode,
        )

    def sim_config(
        self,
        topology: Topology,
        heuristic: HeuristicKind,
        k: int,
        ordering: PathOrdering,
        load_erlangs: float,
        **overrides,
    ) -> SimConfig:
        modulation = overrides.pop(
            "modulation", ModulationTable.default() if self.rate_gbps_range else None
        )
        return SimConfig(
            topology=topology,
            heuristic=heuristic,
            k=k,
            ordering=ordering,
            traffic=TrafficConfig(
                load_erlangs,
                rate_gbps_range=self.rate_gbps_range,
                fixed_slot_choices=self.fixed_slot_choices,
                truncate_holding=self.truncate_holding,
            ),
            modulation=modulation,
            **overrides,
        )


_DEEPRMSA_FAMILY = dict(
    fiber_mode="dual",
    slots_per_fiber=100,
    truncate_holding=True,
    rate_gbps_range=(25, 100),
)

_PTRNET_ALIASES = MappingProxyType(
    {"cost239": "cost239-ptrnet", "usnet": "usnet-ptrnet"}
)

PRESETS: Mapping[str, ExperimentPreset] = MappingProxyType(
    {
        "deeprmsa": ExperimentPreset(name="deeprmsa", **_DEEPRMSA_FAMILY),
        "reward-rmsa": ExperimentPreset(name="reward-rmsa", **_DEEPRMSA_FAMILY),
        "gcn-rmsa": ExperimentPreset(name="gcn-rmsa", **_DEEPRMSA_FAMILY),
        "maskrsa": ExperimentPreset(
            name="maskrsa",
            fiber_mode="single",
            slots_per_fiber=100,
            truncate_holding=False,
            rate_gbps_range=(25, 100),
        ),
        "ptrnet-40": ExperimentPreset(
            name="ptrnet-40",
            fiber_mode="single",
            slots_per_fiber=40,
            truncate_holding=False,
            fixed_slot_choices=(1,),
            topology_aliases=_PTRNET_ALIASES,
        ),
        "ptrnet-80": ExperimentPreset(
            name="ptrnet-80",
            fiber_mode="single",
            slots_per_fiber=80,
            truncate_holding=False,
            fixed_slot_choices=(1, 2, 3, 4),
            topology_aliases=_PTRNET_ALIASES,
        ),
    }
)


def get_preset(name: str) -> ExperimentPreset:
    try:
        return PRESETS[name]
    except KeyError:
        raise PresetError(
            f"unknown preset {name!r}; available: {sorted(PRESETS)}"
        ) from None
