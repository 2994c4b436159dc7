import math
from dataclasses import replace

import numpy as np
import pytest

from eonsim.traffic import (
    HOLDING_TIME_MEAN,
    TRUNCATED_MEAN_RATIO,
    ServiceRequest,
    TrafficConfig,
    TrafficConfigError,
    _substreams,
    generate_stream,
    sample_holding_times,
)
from reference import TRUNCATED_MEAN_ANALYTIC, reference_stream

NODES = [str(i) for i in range(1, 15)]


def config(**kw):
    base = dict(load_erlangs=100.0)
    base.update(kw)
    return TrafficConfig(**base)


# --- config validation -------------------------------------------------------

def test_load_is_rate_times_holding():
    assert HOLDING_TIME_MEAN == 10.0
    cfg = TrafficConfig(250.0)
    assert cfg.arrival_rate * HOLDING_TIME_MEAN == pytest.approx(cfg.load_erlangs)


def test_from_load_consistency():
    cfg = TrafficConfig(300.0)
    assert cfg.arrival_rate == 300.0 / HOLDING_TIME_MEAN == pytest.approx(30.0)
    assert cfg.load_erlangs == pytest.approx(300.0, abs=1e-9)


def test_exactly_one_demand_model():
    with pytest.raises(TrafficConfigError):
        config(rate_gbps_range=(25, 100), fixed_slot_choices=(1,))
    with pytest.raises(TrafficConfigError):
        config(rate_gbps_range=None)


def test_positive_parameters_required():
    with pytest.raises(TrafficConfigError):
        config(load_erlangs=0.0)
    with pytest.raises(TrafficConfigError):
        config(load_erlangs=-1.0)


@pytest.mark.parametrize("load", [math.nan, math.inf, -math.inf])
def test_non_finite_load_rejected_on_every_path(load):
    with pytest.raises(TrafficConfigError, match="finite"):
        config(load_erlangs=load)
    with pytest.raises(TrafficConfigError, match="finite"):
        replace(config(), load_erlangs=load)


# --- holding time truncation ---------------------------------------------------

def test_analytic_constant_matches_closed_form():
    # E[X | X <= 2 tau] = tau (1 - 3 e^-2) / (1 - e^-2) for X ~ Exp(tau)
    assert TRUNCATED_MEAN_RATIO == pytest.approx(TRUNCATED_MEAN_ANALYTIC)
    assert TRUNCATED_MEAN_RATIO == pytest.approx(0.68696, abs=1e-5)


def test_truncated_sample_mean_converges():
    rng = np.random.default_rng(42)
    samples = sample_holding_times(1.0, True, rng, 1_000_000)
    assert samples.max() <= 2.0
    # 3 standard errors of the truncated distribution's mean
    se = samples.std(ddof=1) / math.sqrt(len(samples))
    assert abs(samples.mean() - TRUNCATED_MEAN_ANALYTIC) < 3 * se


def test_untruncated_sample_mean():
    rng = np.random.default_rng(43)
    samples = sample_holding_times(1.0, False, rng, 1_000_000)
    assert samples.mean() == pytest.approx(1.0, abs=0.003)


def test_truncation_scales_with_mean():
    rng = np.random.default_rng(45)
    samples = sample_holding_times(10.0, True, rng, 200_000)
    assert samples.mean() == pytest.approx(10.0 * TRUNCATED_MEAN_ANALYTIC, rel=0.01)


# --- stream generation -----------------------------------------------------------

def test_stream_deterministic_by_seed():
    cfg = config()
    a = generate_stream(cfg, 500, NODES, seed=9)
    b = generate_stream(cfg, 500, NODES, seed=9)
    assert a == b
    c = generate_stream(cfg, 500, NODES, seed=10)
    assert a != c


@pytest.mark.parametrize(
    "demands",
    [
        dict(rate_gbps_range=(25, 100), truncate_holding=True),
        dict(rate_gbps_range=None, fixed_slot_choices=(1, 2, 4)),
    ],
    ids=["rate", "fixed-slots"],
)
def test_stream_equals_per_element_reference(demands):
    cfg = config(**demands)
    stream = generate_stream(cfg, 2000, NODES, seed=11)
    expected = reference_stream(cfg, 2000, NODES, seed=11)
    assert stream == expected
    for got, want in zip(stream, expected):
        for field in ("id", "src", "dst", "arrival_time", "holding_time", "rate_gbps", "slots"):
            assert type(getattr(got, field)) is type(getattr(want, field)), field


def test_arrivals_strictly_increasing_and_ids_monotone():
    stream = generate_stream(config(), 2000, NODES, seed=1)
    assert all(r.id == i for i, r in enumerate(stream))
    assert all(a.arrival_time < b.arrival_time for a, b in zip(stream, stream[1:]))
    assert all(r.holding_time > 0 for r in stream)
    assert all(r.src != r.dst for r in stream)


def test_mean_rate_of_uniform_demands():
    stream = generate_stream(config(), 100_000, NODES, seed=2)
    rates = np.array([r.rate_gbps for r in stream])
    assert rates.mean() == pytest.approx(62.5, abs=0.5)
    assert rates.min() >= 25 and rates.max() <= 100
    # integers only, both endpoints reachable
    assert np.all(rates == np.round(rates))
    assert 25 in rates and 100 in rates


def test_mean_interarrival_time():
    stream = generate_stream(config(load_erlangs=100.0), 100_000, NODES, seed=3)
    arrivals = np.array([r.arrival_time for r in stream])
    gaps = np.diff(arrivals)
    assert gaps.mean() == pytest.approx(0.100, abs=0.002)


def test_fixed_slot_choices():
    cfg = config(rate_gbps_range=None, fixed_slot_choices=(1, 2, 3, 4))
    stream = generate_stream(cfg, 50_000, NODES, seed=4)
    slots = np.array([r.slots for r in stream])
    assert set(np.unique(slots)) == {1, 2, 3, 4}
    assert all(r.rate_gbps is None for r in stream)
    assert slots.mean() == pytest.approx(2.5, abs=0.05)


def test_truncated_holding_in_stream():
    cfg = config(truncate_holding=True)
    stream = generate_stream(cfg, 20_000, NODES, seed=5)
    holdings = np.array([r.holding_time for r in stream])
    assert holdings.max() <= 2 * HOLDING_TIME_MEAN


def test_relabeling_permutes_endpoints_only():
    cfg = config()
    relabel = {old: new for old, new in zip(NODES, [f"x{i}" for i in range(len(NODES))])}
    a = generate_stream(cfg, 1000, NODES, seed=6)
    b = generate_stream(cfg, 1000, [relabel[n] for n in NODES], seed=6)
    for ra, rb in zip(a, b):
        assert rb.src == relabel[ra.src] and rb.dst == relabel[ra.dst]
        assert rb.arrival_time == ra.arrival_time
        assert rb.holding_time == ra.holding_time
        assert rb.rate_gbps == ra.rate_gbps


def test_endpoints_uniform_over_ordered_pairs():
    stream = generate_stream(config(), 200_000, NODES[:5], seed=7)
    counts = {}
    for r in stream:
        counts[(r.src, r.dst)] = counts.get((r.src, r.dst), 0) + 1
    assert len(counts) == 20  # all ordered pairs of 5 nodes
    freqs = np.array(list(counts.values())) / len(stream)
    assert abs(freqs - 1 / 20).max() < 0.003


def test_substream_isolation():
    # changing the demand model must not perturb arrivals or holdings
    a = generate_stream(config(), 300, NODES, seed=11)
    cfg_fixed = config(rate_gbps_range=None, fixed_slot_choices=(1,))
    b = generate_stream(cfg_fixed, 300, NODES, seed=11)
    for ra, rb in zip(a, b):
        assert ra.arrival_time == rb.arrival_time
        assert ra.holding_time == rb.holding_time
        assert (ra.src, ra.dst) == (rb.src, rb.dst)


# The first draws of each substream, in spawn order, as generate_stream
# makes them: arrival gaps (scaled here to a mean of 1), holding times,
# demand rates in 25-100 Gbps and source indices over 14 nodes.  numpy
# keeps a bit generator's raw stream stable across releases, but may
# change a Generator method's transform (NEP 19); such a change fails this
# one test by name rather than every pinned blocked count at once.
GOLDEN_DRAWS = {
    0: (
        ["0x1.a5925192ff674p+1", "0x1.86b91275da150p-1", "0x1.409b21ba37ff6p+0"],
        ["0x1.00fe50239580dp+3", "0x1.e8f6523591de9p+1", "0x1.d225316cd910bp+1"],
        [74, 88, 60],
        [12, 5, 4],
    ),
    12345: (
        ["0x1.9707e33eecc31p-2", "0x1.161573715df21p+1", "0x1.5406df88b3c01p-1"],
        ["0x1.67218d9f356aap+1", "0x1.65715a087e312p+2", "0x1.869209d57912ap+2"],
        [44, 35, 38],
        [12, 5, 7],
    ),
}


@pytest.mark.parametrize("seed", list(GOLDEN_DRAWS))
def test_substreams_first_draws_are_pinned(seed):
    arrivals, holdings, demands, endpoints = _substreams(seed)
    got = (
        [x.hex() for x in arrivals.exponential(1.0, 3).tolist()],
        [x.hex() for x in holdings.exponential(HOLDING_TIME_MEAN, 3).tolist()],
        demands.integers(25, 101, 3).tolist(),
        endpoints.integers(0, len(NODES), 3).tolist(),
    )
    assert got == GOLDEN_DRAWS[seed], f"numpy {np.__version__} draws differently"


def test_rejects_tiny_node_set():
    with pytest.raises(TrafficConfigError):
        generate_stream(config(), 10, ["only"], seed=0)


def test_rejects_missing_seed():
    with pytest.raises(TypeError, match="seed"):
        generate_stream(config(), 10, NODES)


def test_expiry_time_property():
    r = ServiceRequest(0, "a", "b", arrival_time=2.5, holding_time=1.25, rate_gbps=50.0)
    assert r.expiry_time == pytest.approx(3.75)


def test_request_rejects_attribute_assignment():
    r = ServiceRequest(0, "a", "b", arrival_time=2.5, holding_time=1.25, slots=2)
    with pytest.raises(AttributeError):
        r.slots = 3
    assert (r.slots, r.rate_gbps) == (2, None)
