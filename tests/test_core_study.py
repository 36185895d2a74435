"""Tests for the core study layer: catalogs, cells, viz."""

import numpy as np
import pytest

from repro.core.buffers import (
    ACCESS_BUFFERS,
    BACKBONE_BUFFERS,
    BufferConfig,
    bdp_packets,
    max_queueing_delay,
    stanford_packets,
)
from repro.core.experiment import build_network, run_qos_cell
from repro.core.scenarios import (
    ACCESS_SCENARIOS,
    BACKBONE_SCENARIOS,
    access_scenario,
    backbone_scenario,
)
from repro.core import paper_data
from repro.sim.stats import five_number_summary
from repro.sim.topology import BackboneNetwork
from repro.util.units import MBPS
from repro.viz.heatmap import render_grid, render_table


class TestBufferCatalog:
    def test_bdp_matches_paper_access(self):
        # ~8 packets uplink, ~64 packets downlink at 50 ms RTT.
        assert bdp_packets(1 * MBPS, 0.100) in (8, 9)
        assert abs(bdp_packets(16 * MBPS, 0.050) - 64) <= 3

    def test_bdp_matches_paper_backbone(self):
        assert abs(bdp_packets(BackboneNetwork.RATE, 0.060) - 749) <= 1

    def test_stanford_rule(self):
        bdp = bdp_packets(BackboneNetwork.RATE, 0.060)
        stanford = stanford_packets(BackboneNetwork.RATE, 0.060, 768)
        assert stanford == pytest.approx(bdp / np.sqrt(768), abs=2)
        assert 25 <= stanford <= 30  # the paper uses 28

    def test_stanford_requires_flows(self):
        with pytest.raises(ValueError):
            stanford_packets(BackboneNetwork.RATE, 0.060, 0)

    def test_catalog_sizes(self):
        assert [b.packets for b in ACCESS_BUFFERS] == [8, 16, 32, 64, 128, 256]
        assert [b.packets for b in BACKBONE_BUFFERS] == [8, 28, 749, 7490]

    def test_delay_formula(self):
        assert max_queueing_delay(8, 1 * MBPS) == pytest.approx(0.096)
        config = BufferConfig(64, "~BDP")
        assert config.delay_at(16 * MBPS) == pytest.approx(0.048)
        assert "BDP" in str(config)


class TestScenarioCatalog:
    def test_access_catalog_complete(self):
        # noBG + 4 workloads x 3 directions.
        assert len(ACCESS_SCENARIOS) == 13

    def test_backbone_catalog_complete(self):
        assert len(BACKBONE_SCENARIOS) == 6

    def test_direction_filtering(self):
        down = access_scenario("short-few", "down")
        assert down.down_sessions == 8
        assert down.up_sessions == 0
        up = access_scenario("short-few", "up")
        assert up.down_sessions == 0
        assert up.up_sessions == 1
        bidir = access_scenario("long-many", "bidir")
        assert bidir.up_flows == 8
        assert bidir.down_flows == 64

    def test_backbone_session_counts(self):
        assert backbone_scenario("short-overload").down_sessions == 768
        assert backbone_scenario("long").down_flows == 768

    def test_unknown_names_rejected(self):
        with pytest.raises(ValueError):
            access_scenario("mystery")
        with pytest.raises(ValueError):
            backbone_scenario("mystery")
        with pytest.raises(ValueError):
            access_scenario("short-few", "diagonal")

    def test_cc_defaults(self):
        assert access_scenario("short-few").cc == "cubic"
        assert backbone_scenario("short-low").cc == "reno"


class TestExperimentCell:
    def test_nobg_cell_is_idle(self):
        report = run_qos_cell(access_scenario("noBG"), 64, warmup=1,
                              duration=3)
        assert report.down_utilization == 0.0
        assert report.down_loss == 0.0

    def test_per_direction_buffers(self):
        sim, network = build_network(access_scenario("noBG"), (64, 8))
        assert network.down_bottleneck.queue.capacity_packets == 64
        assert network.up_bottleneck.queue.capacity_packets == 8

    def test_loaded_cell_reports_everything(self):
        report = run_qos_cell(access_scenario("long-few", "down"), 64,
                              warmup=3, duration=6)
        assert report.down_utilization > 0.5
        assert len(report.down_utilization_samples) >= 5
        box = five_number_summary(report.down_utilization_samples)
        assert box[0] <= box[2] <= box[4]

    def test_unknown_testbed_rejected(self):
        from repro.core.scenarios import Scenario

        bad = Scenario(name="x", testbed="space", direction="down",
                       kind="short")
        with pytest.raises(ValueError):
            build_network(bad, 64)


class TestViz:
    def test_render_grid(self):
        out = render_grid("T", ["r1", "r2"], [8, 64],
                          lambda r, c: "%s-%d" % (r, c))
        assert "T" in out
        assert "r1-8" in out
        assert "r2-64" in out

    def test_render_grid_empty_cells(self):
        out = render_grid("T", ["r"], [1], lambda r, c: None)
        assert "T" in out

    def test_render_table(self):
        out = render_table("T", ("a", "bb"), [(1, 2), (3, 4)])
        lines = out.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "bb" in lines[1]


class TestPaperData:
    def test_grids_complete(self):
        for table, cols in ((paper_data.FIG7B_TALKS, 6),
                            (paper_data.FIG9A_SD, 6),
                            (paper_data.FIG10A, 6),
                            (paper_data.FIG8, 4),
                            (paper_data.FIG11, 4)):
            rows = {k[0] for k in table}
            sizes = {k[1] for k in table}
            assert len(sizes) == cols
            assert len(table) == len(rows) * cols

    def test_known_anchor_values(self):
        assert paper_data.FIG8[("short-overload", 8)] == 1.5
        assert paper_data.FIG7B_TALKS[("long-many", 256)] == 1.0
        assert paper_data.FIG10B[("long-few", 256)] == 20.5
        assert paper_data.FIG9A_SD[("noBG", 8)] == 1
