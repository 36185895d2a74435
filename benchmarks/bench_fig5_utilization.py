"""F5: regenerate Figure 5 (utilization boxplots, bidirectional long).

The grid is the registered ``fig5`` sweep — the same cells (and cache
entries) that ``python -m repro run fig5`` executes.
"""

from repro.sim.stats import five_number_summary

from benchmarks.common import (fidelity_line, print_figure, run_once,
                               run_registered)


def test_fig5(benchmark):
    def run():
        return run_registered("fig5")

    results = run_once(benchmark, run)
    print_figure("fig5", results)
    fidelity_line("fig5", results)
    # Paper shape: the uplink is pinned near 100% at every size; the
    # downlink suffers when the uplink buffer bloats the ACK path, and
    # small buffers underutilize relative to the best configuration.
    up_medians = {r.buffer_packets:
                  five_number_summary(r["up_utilization_samples"])[2]
                  for r in results}
    down_medians = {r.buffer_packets:
                    five_number_summary(r["down_utilization_samples"])[2]
                    for r in results}
    assert min(up_medians.values()) > 0.8
    assert max(down_medians.values()) > 0.55
    assert min(down_medians.values()) < max(down_medians.values())
