"""Tests for the extension features: PLT analysis, ARQ."""

from repro.apps.web import PageFetch, WebServer
from repro.sim import Simulator
from repro.sim.topology import AccessNetwork


class TestPltAnalysis:
    def test_clean_fetch_is_rtt_dominated(self):
        sim = Simulator()
        net = AccessNetwork(sim)
        WebServer(sim, net.media_server)
        fetch = PageFetch(sim, net.media_client, net.media_server.addr)
        fetch.start()
        sim.run(until=10)
        analysis = fetch.analysis()
        assert analysis["class"] in ("rtt-dominated", "mixed")
        assert 0.0 < analysis["rtt_share"] <= 1.0

    def test_incomplete_fetch(self):
        sim = Simulator()
        net = AccessNetwork(sim)
        # No server: the fetch can never complete.
        fetch = PageFetch(sim, net.media_client, net.media_server.addr)
        fetch.start()
        sim.run(until=1)
        assert fetch.analysis()["class"] == "incomplete"

    def test_lossy_fetch_not_rtt_dominated(self):
        sim = Simulator()
        net = AccessNetwork(sim, down_buffer_packets=4, up_buffer_packets=4)
        WebServer(sim, net.media_server)
        # Saturate the downlink so the fetch suffers retransmissions.
        from repro.apps.bulk import BulkTraffic

        bulk = BulkTraffic(sim, net.traffic_servers(), net.traffic_clients(),
                           count=6, direction="down")
        bulk.start()
        sim.run(until=4)
        fetch = PageFetch(sim, net.media_client, net.media_server.addr)
        fetch.start()
        sim.run(until=40)
        if fetch.done:
            analysis = fetch.analysis()
            # With a 4-packet buffer the PLT growth comes from losses.
            assert analysis["class"] in ("loss-dominated", "mixed")
