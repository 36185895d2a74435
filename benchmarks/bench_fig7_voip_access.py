"""F7: regenerate Figure 7 (VoIP MOS heatmaps, access testbed).

Grids come from the registered ``fig7b`` (upload activity, the headline
bufferbloat case) and ``fig7a`` (download activity) sweeps.
"""

from repro import api

from benchmarks.common import print_figure


def test_fig7b_upload_activity():
    """The headline bufferbloat result: upload congestion."""
    results = api.run_sweep("fig7b")
    print_figure("fig7b", results)
    # noBG is excellent everywhere; congested talks at a bloated buffer is
    # terrible; the listening direction degrades too (conversational z2).
    assert results[("noBG", 64)]["talks"] > 3.9
    assert results[("long-many", 256)]["talks"] < 1.8
    assert results[("long-many", 256)]["listens"] < 3.3
    # Shrinking the uplink buffer mitigates (the paper's 2.5-point swing).
    assert (results[("long-many", 8)]["talks"]
            > results[("long-many", 256)]["talks"])


def test_fig7a_download_activity():
    results = api.run_sweep("fig7a")
    print_figure("fig7a", results)
    # Download congestion hurts the listening direction, not talking, and
    # far less than upload congestion does.
    assert results[("long-many", 64)]["talks"] > 3.5
    assert (results[("long-many", 64)]["listens"]
            < results[("noBG", 64)]["listens"])
