"""F11: regenerate Figure 11 (WebQoE heatmap, backbone testbed).

The grid is the registered ``fig11`` sweep (full workload axis at
``REPRO_SCALE >= 2``).
"""

from repro import api

from benchmarks.common import print_figure


def test_fig11():
    results = api.run_sweep("fig11")
    print_figure("fig11", results)
    # Baseline and light load are fine at every size; the sustained long
    # workload degrades PLT, worst with the 10x BDP buffer (RTT-dominated).
    assert results[("noBG", 749)]["median_plt"] < 1.2
    assert results[("short-medium", 749)]["median_plt"] < 1.5
    assert (results[("long", 7490)]["median_plt"]
            > results[("noBG", 7490)]["median_plt"])
