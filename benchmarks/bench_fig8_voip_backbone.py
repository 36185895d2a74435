"""F8: regenerate Figure 8 (VoIP MOS heatmap, backbone testbed).

The grid is the registered ``fig8`` sweep (full workload/buffer axes at
``REPRO_SCALE >= 2``).
"""

from repro.core.paper_data import FIG8
from repro.core.registry import get

from benchmarks.common import (comparison_table, print_figure, run_once,
                               run_registered)


def test_fig8(benchmark):
    spec = get("fig8")
    workloads = spec.workloads()
    buffers = spec.buffer_axis()

    def run():
        return run_registered(spec.name)

    results = run_once(benchmark, run)
    print_figure("fig8", results)
    rows = []
    for workload in workloads:
        for packets in buffers:
            rows.append((workload, packets,
                         "%.1f / %.1f" % (results[(workload, packets)]["listens"],
                                          FIG8[(workload, packets)])))
    comparison_table("Figure 8 (ours/paper): backbone VoIP MOS",
                     ("workload", "buffer", "MOS ours/paper"), rows)
    # The paper's finding: workload, not buffer size, dominates — the
    # noBG and moderate rows are fine at every size; the sustained 'long'
    # workload at 10x BDP is clearly degraded.
    for packets in buffers:
        assert results[("noBG", packets)]["listens"] > 4.0
    assert results[("long", 7490)]["listens"] < 3.0
    assert (results[("long", 7490)]["listens"]
            < results[("long", 749)]["listens"])
