"""F10: regenerate Figure 10 (WebQoE heatmaps, access testbed).

Grids come from the registered ``fig10a`` / ``fig10b`` sweeps.
"""

from repro import api

from benchmarks.common import print_figure


def test_fig10a_download_activity():
    results = api.run_sweep("fig10a")
    print_figure("fig10a", results)
    # Baseline is excellent; long-many pins the page load regardless of
    # buffer; long-few shows the bufferbloat PLT growth with buffer size.
    assert results[("noBG", 64)]["median_plt"] < 1.0
    assert results[("long-many", 64)]["median_plt"] > 2.0
    assert (results[("long-few", 256)]["median_plt"]
            > results[("long-few", 8)]["median_plt"])


def test_fig10b_upload_activity():
    results = api.run_sweep("fig10b")
    print_figure("fig10b", results)
    # Upload congestion wrecks the page load; small uplink buffers keep
    # long-few barely acceptable (the paper's only tolerable upload cell).
    assert results[("long-few", 8)]["median_plt"] < 3.0
    assert results[("long-few", 256)]["median_plt"] > 4.0
    assert results[("short-many", 64)]["median_plt"] > 4.0
