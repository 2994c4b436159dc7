"""Each arrival's outcome in a bound trial, read through the event loop's hooks."""
from unittest import mock

from eonsim import bounds
from eonsim.simulator import ActiveLightpaths


def observe_bound_trial(config, stream, *, seed=0, on_event=None):
    """``defrag_bound_trial`` run on ``stream``: its result and every arrival's outcome.

    After each arrival, through ``run_stream``'s ``on_event`` hook, the
    outcome is ``blocked`` when the request is not active, ``defrag``
    when a spy on ``ActiveLightpaths.adopt_rebuild`` saw a rebuild
    adopted during the arrival, and ``direct`` otherwise.  ``seed`` is
    the seed the result reports; ``on_event(state, active)``, if given,
    is called after each arrival too.
    """
    ids = [request.id for request in stream]
    outcomes, adopted = [], []
    real_run_stream, real_adopt = bounds.run_stream, ActiveLightpaths.adopt_rebuild

    def adopt_spy(active, state, records, request):
        adopted.append(request.id)
        real_adopt(active, state, records, request)

    def observe(state, active):
        rid = ids[len(outcomes)]
        assert adopted in ([], [rid])  # only the arriving request is admitted by a rebuild
        if rid not in active.records:
            outcomes.append("blocked")
        else:
            outcomes.append("defrag" if adopted else "direct")
        adopted.clear()
        if on_event is not None:
            on_event(state, active)

    def run_observed(cfg, requests, **hooks):
        return real_run_stream(cfg, requests, on_event=observe, **hooks)

    with mock.patch.object(bounds, "generate_stream", return_value=stream), mock.patch.object(
        bounds, "run_stream", run_observed
    ), mock.patch.object(ActiveLightpaths, "adopt_rebuild", adopt_spy):
        result = bounds.defrag_bound_trial(config, seed)
    assert len(outcomes) == len(stream)
    return result, tuple(outcomes)
