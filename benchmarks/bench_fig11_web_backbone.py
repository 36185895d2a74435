"""F11: regenerate Figure 11 (WebQoE heatmap, backbone testbed).

The grid is the registered ``fig11`` sweep (full workload axis at
``REPRO_SCALE >= 2``).
"""

from repro.core.paper_data import FIG11
from repro.core.registry import get

from benchmarks.common import (comparison_table, print_figure, run_once,
                               run_registered)


def test_fig11(benchmark):
    spec = get("fig11")
    workloads = spec.workloads()
    buffers = spec.buffer_axis()

    def run():
        return run_registered(spec.name)

    results = run_once(benchmark, run)
    print_figure("fig11", results)
    rows = []
    for workload in workloads:
        for packets in buffers:
            cell = results[(workload, packets)]
            rows.append((workload, packets,
                         "%.1f / %.1f" % (cell["median_plt"],
                                          FIG11[(workload, packets)]),
                         "%.1f" % cell["mos"]))
    comparison_table("Figure 11 (ours/paper): backbone PLT",
                     ("workload", "buffer", "PLT s ours/paper", "MOS"), rows)
    # Baseline and light load are fine at every size; the sustained long
    # workload degrades PLT, worst with the 10x BDP buffer (RTT-dominated).
    assert results[("noBG", 749)]["median_plt"] < 1.2
    assert results[("short-medium", 749)]["median_plt"] < 1.5
    assert (results[("long", 7490)]["median_plt"]
            > results[("noBG", 7490)]["median_plt"])
