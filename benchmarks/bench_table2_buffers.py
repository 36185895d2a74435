"""T2: regenerate Table 2 (buffer sizes and maximum queueing delays)."""

from repro.core.buffers import access_buffer_delays
from repro.core.paper_data import TABLE2_ACCESS

from benchmarks.common import print_figure


def test_table2():
    access = access_buffer_delays()
    print_figure("table2", None)
    # The analytic delays must track the paper within framing tolerance.
    for packets, up, down in access:
        paper_up, paper_down = TABLE2_ACCESS[packets]
        assert abs(up * 1000 - paper_up) / paper_up < 0.15
        assert abs(down * 1000 - paper_down) / paper_down < 0.25
