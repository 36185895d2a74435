"""F7: regenerate Figure 7 (VoIP MOS heatmaps, access testbed).

Grids come from the registered ``fig7b`` (upload activity, the headline
bufferbloat case) and ``fig7a`` (download activity) sweeps.
"""

from repro.core.paper_data import FIG7A_LISTENS, FIG7B_LISTENS, FIG7B_TALKS
from repro.core.registry import get

from benchmarks.common import (comparison_table, fidelity_line,
                               print_figure, run_once, run_registered)


def test_fig7b_upload_activity(benchmark):
    """The headline bufferbloat result: upload congestion."""
    spec = get("fig7b")
    workloads = spec.workloads()
    buffers = spec.buffer_axis()

    def run():
        return run_registered(spec.name)

    results = run_once(benchmark, run)
    print_figure("fig7b", results)
    fidelity_line("fig7b", results)
    rows = []
    for workload in workloads:
        for packets in buffers:
            cell = results[(workload, packets)]
            rows.append((workload, packets,
                         "%.1f / %.1f" % (cell["talks"],
                                          FIG7B_TALKS[(workload, packets)]),
                         "%.1f / %.1f" % (cell["listens"],
                                          FIG7B_LISTENS[(workload, packets)])))
    comparison_table("Figure 7b (ours/paper): MOS under upload congestion",
                     ("workload", "buffer", "talks", "listens"), rows)
    # noBG is excellent everywhere; congested talks at a bloated buffer is
    # terrible; the listening direction degrades too (conversational z2).
    assert results[("noBG", 64)]["talks"] > 3.9
    assert results[("long-many", 256)]["talks"] < 1.8
    assert results[("long-many", 256)]["listens"] < 3.3
    # Shrinking the uplink buffer mitigates (the paper's 2.5-point swing).
    assert (results[("long-many", 8)]["talks"]
            > results[("long-many", 256)]["talks"])


def test_fig7a_download_activity(benchmark):
    spec = get("fig7a")
    workloads = spec.workloads()
    buffers = spec.buffer_axis()

    def run():
        return run_registered(spec.name)

    results = run_once(benchmark, run)
    print_figure("fig7a", results)
    fidelity_line("fig7a", results)
    rows = []
    for workload in workloads:
        for packets in buffers:
            cell = results[(workload, packets)]
            rows.append((workload, packets, "%.1f" % cell["talks"],
                         "%.1f / %.1f" % (cell["listens"],
                                          FIG7A_LISTENS[(workload, packets)])))
    comparison_table("Figure 7a (ours/paper): MOS under download congestion",
                     ("workload", "buffer", "talks", "listens/paper"), rows)
    # Download congestion hurts the listening direction, not talking, and
    # far less than upload congestion does.
    assert results[("long-many", 64)]["talks"] > 3.5
    assert (results[("long-many", 64)]["listens"]
            < results[("noBG", 64)]["listens"])
