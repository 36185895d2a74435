"""F8: regenerate Figure 8 (VoIP MOS heatmap, backbone testbed).

The grid is the registered ``fig8`` sweep (full workload/buffer axes at
``REPRO_SCALE >= 2``).
"""

from repro import api
from repro.core.registry import get

from benchmarks.common import print_figure


def test_fig8():
    spec = get("fig8")
    buffers = spec.buffer_axis()
    results = api.run_sweep(spec)
    print_figure("fig8", results)
    # The paper's finding: workload, not buffer size, dominates — the
    # noBG and moderate rows are fine at every size; the sustained 'long'
    # workload at 10x BDP is clearly degraded.
    for packets in buffers:
        assert results[("noBG", packets)]["listens"] > 4.0
    assert results[("long", 7490)]["listens"] < 3.0
    assert (results[("long", 7490)]["listens"]
            < results[("long", 749)]["listens"])
