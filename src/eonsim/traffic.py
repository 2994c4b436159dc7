"""Seeded stochastic request streams.

A traffic model is stated by its offered load A in Erlangs.  Holding
times are exponential with the fixed mean ``HOLDING_TIME_MEAN`` (tau),
so arrivals are Poisson at rate lambda = A / tau (exponential
inter-arrival times).  Endpoints are uniform over ordered node pairs,
and demands either uniform integer data rates or a fixed slot-count
set.

Some traffic models resample any holding time exceeding twice the mean
("holding-time truncation").  Resampling, not clamping: clamping would
pile probability mass at exactly 2*tau.  Truncation shrinks the mean
holding time to (1 - 3e^-2) / (1 - e^-2) of tau, about 0.687, so runs
with truncation enabled experience ~31% less load than nominal.

Each trial owns one RNG seed, split into four independent substreams
(arrivals, holding times, demands, endpoints) so changing one
distribution never perturbs draws from the others.

A stream keeps its draws as numpy columns and builds each request
tuple only when it is read.  So a trial holds about 19 bytes per
request (one byte per index column below 256 nodes or demand values)
plus its active requests, and can read its stream more than once.
"""
from __future__ import annotations

import math
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from itertools import count, repeat
from typing import NamedTuple

import numpy as np

#: mean holding time tau, in the time unit of arrival and holding times
HOLDING_TIME_MEAN = 10.0
TRUNCATED_MEAN_RATIO = (1.0 - 3.0 * math.exp(-2.0)) / (1.0 - math.exp(-2.0))


class TrafficConfigError(ValueError):
    """Inconsistent or incomplete traffic model parameters."""


@dataclass(frozen=True)
class TrafficConfig:
    """Traffic model parameters, stated by the offered load in Erlangs."""

    load_erlangs: float
    rate_gbps_range: tuple[int, int] | None = (25, 100)
    fixed_slot_choices: tuple[int, ...] | None = None
    truncate_holding: bool = False

    def __post_init__(self):
        if not (math.isfinite(self.load_erlangs) and self.load_erlangs > 0):
            raise TrafficConfigError(f"load must be finite and > 0, got {self.load_erlangs}")
        if self.arrival_rate == 0:
            raise TrafficConfigError(f"load {self.load_erlangs} gives an arrival rate of 0")
        if (self.rate_gbps_range is None) == (self.fixed_slot_choices is None):
            raise TrafficConfigError(
                "exactly one of rate_gbps_range / fixed_slot_choices must be set"
            )
        if self.rate_gbps_range is not None:
            lo, hi = self.rate_gbps_range
            if lo < 1 or hi < lo:
                raise TrafficConfigError(f"bad rate range {self.rate_gbps_range}")
        if self.fixed_slot_choices is not None:
            if not self.fixed_slot_choices or min(self.fixed_slot_choices) < 1:
                raise TrafficConfigError(f"bad slot choices {self.fixed_slot_choices}")

    @property
    def arrival_rate(self) -> float:
        return self.load_erlangs / HOLDING_TIME_MEAN


class ServiceRequest(NamedTuple):
    """One connection request; exactly one of rate_gbps / slots is set.

    An immutable tuple: a trial builds one per request, and a tuple is
    about three times cheaper to build than a frozen dataclass.
    """

    id: int
    src: str
    dst: str
    arrival_time: float
    holding_time: float
    rate_gbps: float | None = None
    slots: int | None = None

    @property
    def expiry_time(self) -> float:
        return self.arrival_time + self.holding_time


def _substreams(seed: int) -> tuple[np.random.Generator, ...]:
    # fixed spawn order: arrivals, holdings, demands, endpoints
    children = np.random.SeedSequence(seed).spawn(4)
    return tuple(np.random.default_rng(c) for c in children)


def sample_holding_times(
    mean: float, truncate: bool, rng: np.random.Generator, n: int
) -> np.ndarray:
    """``n`` exponential holding times, each resampled above 2*mean if truncating."""
    if mean <= 0:
        raise ValueError(f"mean must be > 0, got {mean}")
    values = rng.exponential(mean, n)
    if truncate:
        bad = values > 2.0 * mean
        while bad.any():
            values[bad] = rng.exponential(mean, int(bad.sum()))
            bad = values > 2.0 * mean
    return values


class RequestStream:
    """A sized, re-iterable run of requests, held as numpy columns.

    Each ``ServiceRequest`` is built afresh when iteration reaches it,
    with ids counting from 0; iterating again builds equal requests.
    """

    __slots__ = ("_nodes", "_src", "_dst", "_arrivals", "_holdings", "_demands", "_values",
                 "_rated")

    def __init__(self, nodes: tuple[str, ...], src: np.ndarray, dst: np.ndarray,
                 arrivals: np.ndarray, holdings: np.ndarray, demands: np.ndarray,
                 values: tuple, rated: bool):
        """``src``/``dst`` index ``nodes``, and ``demands`` indexes ``values``:
        data rates if ``rated``, else slot counts."""
        self._nodes, self._values, self._rated = nodes, values, rated
        self._src, self._dst, self._arrivals, self._holdings, self._demands = (
            src, dst, arrivals, holdings, demands
        )

    def __len__(self) -> int:
        return len(self._arrivals)

    def __iter__(self) -> Iterator[ServiceRequest]:
        # Iterating a memoryview of a column yields plain floats and ints one
        # at a time: no numpy scalar per field, and no list per column.
        nodes = self._nodes.__getitem__
        demands = map(self._values.__getitem__, memoryview(self._demands))
        rates, slots = (demands, repeat(None)) if self._rated else (repeat(None), demands)
        rows = zip(
            count(),
            map(nodes, memoryview(self._src)),
            map(nodes, memoryview(self._dst)),
            memoryview(self._arrivals),
            memoryview(self._holdings),
            rates,
            slots,
        )
        return map(ServiceRequest._make, rows)


def generate_stream(
    config: TrafficConfig,
    n_requests: int,
    nodes: Sequence[str],
    seed: int,
) -> RequestStream:
    """Generate ``n_requests`` requests, fully determined by the seed.

    :class:`TrafficConfigError` when an arrival time is past any float.
    """
    if n_requests < 1:
        raise TrafficConfigError(f"n_requests must be >= 1, got {n_requests}")
    if len(nodes) < 2:
        raise TrafficConfigError("need at least 2 nodes to draw src/dst pairs")

    arr_rng, hold_rng, demand_rng, pair_rng = _substreams(seed)
    with np.errstate(over="ignore"):  # an overflow is reported just below
        arrivals = np.cumsum(arr_rng.exponential(1.0 / config.arrival_rate, n_requests))
    if not math.isfinite(arrivals[-1]):
        raise TrafficConfigError(f"load {config.load_erlangs} gives arrival times past any float")
    holdings = sample_holding_times(
        HOLDING_TIME_MEAN, config.truncate_holding, hold_rng, n_requests
    )

    # each integer column is narrowed to the least dtype holding its values
    # as soon as it is drawn, so only one full-width draw at a time is held
    rated = config.rate_gbps_range is not None
    if rated:
        lo, hi = config.rate_gbps_range
        values = tuple(float(rate) for rate in range(lo, hi + 1))  # one object per rate
        demands = demand_rng.integers(lo, hi + 1, n_requests) - lo
    else:
        values = tuple(np.asarray(config.fixed_slot_choices).tolist())
        demands = demand_rng.integers(0, len(values), n_requests)
    demands = demands.astype(np.min_scalar_type(len(values) - 1))

    n = len(nodes)
    node_index = np.min_scalar_type(n - 1)
    src_idx = pair_rng.integers(0, n, n_requests).astype(node_index)
    other = pair_rng.integers(0, n - 1, n_requests)
    dst_idx = (other + (other >= src_idx)).astype(node_index)

    return RequestStream(
        tuple(nodes), src_idx, dst_idx, arrivals, holdings, demands, values, rated
    )
