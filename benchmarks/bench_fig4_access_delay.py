"""F4: regenerate Figure 4 (mean queueing delay heatmaps, access).

Grids come from the registered ``fig4-up`` / ``fig4-down`` sweeps; at
``REPRO_SCALE >= 4`` the upstream sweep switches to the full four-row
workload axis automatically.
"""

from repro import api
from repro.core.registry import get, resolve_scale
from repro.qoe.scales import g114_class

from benchmarks.common import print_figure


def test_fig4_upstream():
    spec = get("fig4-up")
    scale = resolve_scale()
    workloads = spec.workloads(scale)
    buffers = spec.buffer_axis(scale)
    results = api.run_sweep(spec, scale=scale)
    print_figure("fig4-up", results)
    # The bufferbloat staircase: delay grows with buffer size and crosses
    # the G.114 "bad" boundary at the oversized configurations.
    for workload in workloads:
        delays = [results[(workload, p)]["up_mean_delay"] for p in buffers]
        assert delays[-1] > delays[0] * 4
        assert g114_class(delays[0]) == "acceptable"
        assert g114_class(delays[-1]) == "bad"


def test_fig4_downstream_only():
    spec = get("fig4-down")
    scale = resolve_scale()
    results = api.run_sweep(spec, scale=scale)
    # Figure 4a envelope: downlink mean delay < 200 ms at every size,
    # uplink (pure ACK traffic) near zero.
    for packets in spec.buffer_axis(scale):
        record = results[("long-many", packets)]
        assert record["down_mean_delay"] < 0.2
        assert record["up_mean_delay"] < 0.05
