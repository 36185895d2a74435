"""Tests for the dumbbell topologies and packet forwarding."""

import pytest

from repro.sim import Simulator
from repro.sim.packet import Packet
from repro.sim.topology import AccessNetwork, BackboneNetwork
from repro.udp import UdpSocket


class TestAccessNetwork:
    def test_base_rtt_is_50ms(self):
        net = AccessNetwork(Simulator())
        assert net.base_rtt == pytest.approx(0.050)

    def test_asymmetric_rates(self):
        net = AccessNetwork(Simulator())
        assert net.down_bottleneck.rate_bps == pytest.approx(16e6)
        assert net.up_bottleneck.rate_bps == pytest.approx(1e6)

    def test_buffer_sizes_applied(self):
        net = AccessNetwork(Simulator(), down_buffer_packets=128,
                            up_buffer_packets=16)
        assert net.down_bottleneck.queue.capacity_packets == 128
        assert net.up_bottleneck.queue.capacity_packets == 16

    def test_media_and_traffic_hosts_disjoint(self):
        net = AccessNetwork(Simulator())
        assert net.media_server not in net.traffic_servers()
        assert net.media_client not in net.traffic_clients()

    def test_end_to_end_delivery_both_directions(self):
        sim = Simulator()
        net = AccessNetwork(sim)
        got = []
        UdpSocket(sim, net.media_server, port=5000,
                  on_datagram=lambda s, p: got.append(("s", sim.now)))
        UdpSocket(sim, net.media_client, port=5001,
                  on_datagram=lambda s, p: got.append(("c", sim.now)))
        up_sender = UdpSocket(sim, net.media_client)
        up_sender.sendto(100, net.media_server.addr, 5000)
        down_sender = UdpSocket(sim, net.media_server)
        down_sender.sendto(100, net.media_client.addr, 5001)
        sim.run(until=1)
        assert {tag for tag, __ in got} == {"s", "c"}
        for __, arrival in got:
            assert arrival == pytest.approx(0.025, abs=0.005)

    def test_routers_forward(self):
        sim = Simulator()
        net = AccessNetwork(sim)
        UdpSocket(sim, net.media_server, port=5000)
        sender = UdpSocket(sim, net.media_client)
        sender.sendto(100, net.media_server.addr, 5000)
        sim.run(until=1)
        assert net.right_router.forwarded >= 1  # home router
        assert net.left_router.forwarded >= 1  # DSLAM


class TestBackboneNetwork:
    def test_base_rtt_is_60ms(self):
        net = BackboneNetwork(Simulator())
        assert net.base_rtt == pytest.approx(0.0604, abs=0.001)

    def test_symmetric_bottleneck(self):
        net = BackboneNetwork(Simulator(), buffer_packets=28)
        assert net.down_bottleneck.rate_bps == net.up_bottleneck.rate_bps
        assert net.down_bottleneck.queue.capacity_packets == 28
        assert net.up_bottleneck.queue.capacity_packets == 28

    def test_host_counts(self):
        net = BackboneNetwork(Simulator())
        assert len(net.servers) == 4
        assert len(net.clients) == 4

    def test_reset_measurements(self):
        sim = Simulator()
        net = BackboneNetwork(sim)
        UdpSocket(sim, net.clients[0], port=5000)
        sender = UdpSocket(sim, net.servers[0])
        sender.sendto(1000, net.clients[0].addr, 5000)
        sim.run(until=1)
        assert net.down_bottleneck.stats.tx_bytes > 0
        net.reset_measurements()
        assert net.down_bottleneck.stats.tx_bytes == 0


class TestNodeRouting:
    def test_no_route_raises(self):
        from repro.sim.node import Node

        node = Node(Simulator(), "lonely", 99)
        packet = Packet(src=99, dst=1, sport=1, dport=1, proto="udp",
                        size=100)
        with pytest.raises(LookupError):
            node.send(packet)

    def test_duplicate_tcp_registration_rejected(self):
        from repro.sim.node import Node

        node = Node(Simulator(), "n", 1)
        node.register_tcp(2, 80, 1000, object())
        with pytest.raises(ValueError):
            node.register_tcp(2, 80, 1000, object())

    def test_duplicate_listener_rejected(self):
        from repro.sim.node import Node

        node = Node(Simulator(), "n", 1)
        node.register_tcp_listener(80, object())
        with pytest.raises(ValueError):
            node.register_tcp_listener(80, object())

    def test_ephemeral_ports_unique(self):
        from repro.sim.node import Node

        node = Node(Simulator(), "n", 1)
        ports = {node.allocate_port() for __ in range(100)}
        assert len(ports) == 100
