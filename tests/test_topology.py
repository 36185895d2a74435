"""Tests for the dumbbell topologies and packet forwarding."""

import pytest

from repro.core.experiment import build_network
from repro.core.scenarios import access_scenario, backbone_scenario
from repro.runner.execute import execute_task
from repro.runner.task import CellTask
from repro.sim import Simulator
from repro.sim.link import DropTailLink
from repro.sim.packet import Packet
from repro.sim.queues import DropTailQueue
from repro.sim.topology import AccessNetwork, BackboneNetwork, DumbbellNetwork
from repro.udp import UdpSocket


def probe_round_trip(network_class):
    """Seconds for a header-only UDP probe to reach the media server of
    an empty testbed and be echoed back to the media client."""
    sim = Simulator()
    net = network_class(sim)
    UdpSocket(sim, net.media_server, port=7,
              on_datagram=lambda sock, packet: sock.sendto(
                  0, packet.src, packet.sport))
    echoes = []
    client = UdpSocket(sim, net.media_client,
                       on_datagram=lambda sock, packet: echoes.append(sim.now))
    client.sendto(0, net.media_server.addr, 7)
    sim.run(until=1)
    assert len(echoes) == 1
    return echoes[0]


class TestAccessNetwork:
    def test_base_rtt_is_50ms(self):
        # 50 ms of propagation plus well under 0.5 ms of serialization
        # for the probe's headers (0.22 ms of it on the 1 Mbit/s uplink).
        assert 0.050 < probe_round_trip(AccessNetwork) < 0.0505

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
        assert probe_round_trip(BackboneNetwork) == pytest.approx(
            0.0604, abs=0.001)

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


@pytest.mark.parametrize("scenario", [access_scenario("noBG"),
                                      backbone_scenario("noBG")],
                         ids=["access", "backbone"])
def test_testbeds_build_only_drop_tail_bottlenecks(scenario):
    __, network = build_network(scenario, 16)
    for link in network.bottlenecks():
        assert type(link) is DropTailLink
        assert type(link.queue) is DropTailQueue
        assert link.queue.capacity_packets == 16


#: (kind, scenario, buffer, params): golden-scale cells of every kind on
#: the access link, and one backbone cell.
CONSERVATION_CELLS = [
    pytest.param("qos", access_scenario("long-many"), 8, {},
                 id="qos-access"),
    pytest.param("voip", access_scenario("long-many"), 64, {"calls": 1},
                 id="voip-access"),
    pytest.param("video", access_scenario("long-few"), 64,
                 {"resolution": "SD"}, id="video-access"),
    pytest.param("web", access_scenario("long-many"), 64, {"fetches": 2},
                 id="web-access"),
    pytest.param("voip", backbone_scenario("short-medium"), 749,
                 {"calls": 1, "directions": ("listens",)},
                 id="voip-backbone"),
]


@pytest.mark.parametrize("kind,scenario,packets,params", CONSERVATION_CELLS)
def test_bottleneck_packets_are_conserved(monkeypatch, kind, scenario,
                                          packets, params):
    """Per bottleneck, since the last reset: every packet enqueued is
    dequeued or still waits, and every packet dequeued is transmitted
    or still serializing (counting the backlog at the reset)."""
    networks, backlog_at_reset = [], {}
    build, reset = DumbbellNetwork.__init__, DumbbellNetwork.reset_measurements

    def recording_build(self, *args, **kwargs):
        build(self, *args, **kwargs)
        networks.append(self)

    def recording_reset(self):
        for link in self.bottlenecks():
            backlog_at_reset[id(link)] = link.backlog()
        reset(self)

    monkeypatch.setattr(DumbbellNetwork, "__init__", recording_build)
    monkeypatch.setattr(DumbbellNetwork, "reset_measurements",
                        recording_reset)
    execute_task(CellTask.make(kind, scenario, packets, warmup=1.0,
                               duration=1.25, **params))
    (network,) = networks
    for link in network.bottlenecks():
        assert (id(link) in backlog_at_reset) == (kind == "qos")
        waiting_at_reset, in_service_at_reset = backlog_at_reset.get(
            id(link), (0, 0))
        queue = link.queue.stats
        waiting, in_service = link.backlog()
        assert queue.enqueued > 0
        assert queue.enqueued + waiting_at_reset == queue.dequeued + waiting
        assert (queue.dequeued + in_service_at_reset
                == link.stats.tx_packets + in_service)
