"""F9: regenerate Figure 9 (RTP video SSIM heatmaps).

Grids come from the registered ``fig9a`` (access) and ``fig9b``
(backbone) sweeps; result keys are (workload, buffer, resolution).
"""

from repro import api
from repro.core.registry import get

from benchmarks.common import print_figure


def test_fig9a_access():
    spec = get("fig9a")
    buffers = spec.buffer_axis()
    results = api.run_sweep(spec)
    print_figure("fig9a", results)
    # Binary behaviour: clean without congestion at every buffer size,
    # bad whenever long flows congest the downlink — and largely
    # independent of the buffer size.
    for packets in buffers:
        assert results[("noBG", packets, "SD")]["ssim"] > 0.99
        assert results[("long-many", packets, "SD")]["ssim"] < 0.75
    # HD weathers loss slightly better than SD (paper's observation).
    assert (results[("long-few", 64, "HD")]["ssim"]
            >= results[("long-few", 64, "SD")]["ssim"] - 0.05)


def test_fig9b_backbone():
    spec = get("fig9b")
    buffers = spec.buffer_axis()
    results = api.run_sweep(spec)
    print_figure("fig9b", results)
    # noBG and light load stream cleanly; the sustained long workload
    # degrades the stream regardless of buffer size.
    for packets in buffers:
        assert results[("noBG", packets, "SD")]["ssim"] > 0.99
    assert (results[("long", 749, "SD")]["ssim"]
            < results[("noBG", 749, "SD")]["ssim"])
