"""T1: regenerate Table 1's measured workload characteristics.

Rows come from the registered ``table1-access`` / ``table1-backbone``
sweeps (representative rows at scale 1, the full sweeps at higher
``REPRO_SCALE``).
"""

from repro import api
from repro.core.paper_data import TABLE1_BACKBONE

from benchmarks.common import comparison_table, print_figure


def test_table1_access():
    results = api.run_sweep("table1-access")
    print_figure("table1-access", results)
    # Upstream-congestion rows saturate the 1 Mbit/s uplink.
    assert results[("short-few/up", (64, 8))]["up_utilization"] > 0.9


def test_table1_backbone():
    results = api.run_sweep("table1-backbone")
    print_figure("table1-backbone", results)
    comparison_table(
        "Table 1 backbone (ours/paper): concurrent flows",
        ("workload", "flows"),
        [(record.key[0], "%.0f / %d" % (
            record["concurrent_flows"], TABLE1_BACKBONE[record.key[0]][3]))
         for record in results])
    # Load ordering must match the paper: low < medium < high.
    util = {record.key[0]: record["down_utilization"] for record in results}
    assert util["short-low"] < util["short-medium"] < util["short-high"]
    assert util["short-high"] > 0.9
