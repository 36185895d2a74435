"""Integration tests for the TCP implementation."""

import pytest

from reference_link import FifoQueue, Interface
from repro.sim import Simulator
from repro.sim.topology import AccessNetwork
from repro.tcp import Cubic, Reno, TcpConnection, TcpListener
from repro.util.units import MBPS, ms

from tests.netutil import TransferRecorder, run_transfer, two_hosts


class FirstSendDropQueue(FifoQueue):
    """Drop-tail queue that drops the first copy of each data segment
    whose sequence number is in ``seqs``."""

    def __init__(self, seqs):
        super().__init__(capacity_packets=100)
        self.seqs = set(seqs)

    def push(self, packet, now):
        if packet.payload_len and packet.seq in self.seqs:
            self.seqs.discard(packet.seq)
            self._reject(packet)
            return False
        return super().push(packet, now)


class TestHandshakeAndTransfer:
    def test_small_transfer_completes(self):
        sim, recorder, client = run_transfer(10_000)
        assert recorder.bytes == 10_000
        assert recorder.messages == ["file"]
        assert recorder.established == 1
        assert client.state == "closed"

    def test_large_transfer_completes(self):
        sim, recorder, client = run_transfer(2_000_000)
        assert recorder.bytes == 2_000_000

    def test_zero_byte_message(self):
        sim, a, b = two_hosts()
        recorder = TransferRecorder()

        def on_server_conn(conn):
            conn.send(0, meta="empty")
            conn.close()

        TcpListener(sim, b, 80, on_connection=on_server_conn)
        client = recorder.attach(
            TcpConnection(sim, a, peer_addr=b.addr, peer_port=80))
        client.on_peer_fin = lambda c: c.close()
        client.connect()
        sim.run(until=10)
        assert recorder.messages == ["empty"]
        assert recorder.bytes == 0

    def test_transfer_time_reasonable(self):
        # 1 MB at 10 Mbit/s is ~0.8 s of serialization + slow start.
        sim, recorder, client = run_transfer(1_000_000, rate_bps=10 * MBPS,
                                             delay=ms(10))
        assert recorder.bytes == 1_000_000
        finish = recorder.close_times[0]
        assert 0.8 < finish < 3.0

    def test_multiple_messages_in_order(self):
        sim, a, b = two_hosts()
        recorder = TransferRecorder()

        def on_server_conn(conn):
            for index in range(5):
                conn.send(10_000, meta=index)
            conn.close()

        TcpListener(sim, b, 80, on_connection=on_server_conn)
        client = recorder.attach(
            TcpConnection(sim, a, peer_addr=b.addr, peer_port=80))
        client.on_peer_fin = lambda c: c.close()
        client.connect()
        sim.run(until=30)
        assert recorder.messages == [0, 1, 2, 3, 4]
        assert recorder.bytes == 50_000

    def test_request_response_round_trip(self):
        sim, a, b = two_hosts(delay=ms(25))
        got = {}

        def on_server_conn(conn):
            conn.on_message = lambda c, meta: (c.send(40_000, meta="resp"),
                                               c.close())

        TcpListener(sim, b, 80, on_connection=on_server_conn)
        client = TcpConnection(sim, a, peer_addr=b.addr, peer_port=80)
        client.on_established = lambda c: c.send(300, meta="req")
        client.on_message = lambda c, meta: got.setdefault("meta", meta)
        client.on_peer_fin = lambda c: c.close()
        client.connect()
        sim.run(until=20)
        assert got["meta"] == "resp"
        assert client.state == "closed"

    def test_both_endpoints_unregistered_after_close(self):
        sim, a, b = two_hosts()

        def on_server_conn(conn):
            conn.send(1000)
            conn.close()

        TcpListener(sim, b, 80, on_connection=on_server_conn)
        client = TcpConnection(sim, a, peer_addr=b.addr, peer_port=80)
        client.on_peer_fin = lambda c: c.close()
        client.connect()
        sim.run(until=20)
        assert not a.tcp_connections
        assert not b.tcp_connections


class TestLossRecovery:
    def test_recovers_through_tiny_buffer(self):
        # A 5-packet buffer at 2 Mbit/s forces repeated loss; the transfer
        # must still complete, exercising fast retransmit and RTO paths.
        sim, recorder, client = run_transfer(
            500_000, rate_bps=2 * MBPS, queue_packets=5, until=120)
        assert recorder.bytes == 500_000
        assert recorder.messages == ["file"]

    def test_fast_retransmit_used_under_loss(self):
        sim, a, b = two_hosts(rate_bps=2 * MBPS, queue_packets=5)
        server_conns = []

        def on_server_conn(conn):
            server_conns.append(conn)
            conn.send(500_000, meta="file")
            conn.close()

        TcpListener(sim, b, 80, on_connection=on_server_conn)
        recorder = TransferRecorder()
        client = recorder.attach(
            TcpConnection(sim, a, peer_addr=b.addr, peer_port=80))
        client.on_peer_fin = lambda c: c.close()
        client.connect()
        sim.run(until=120)
        assert recorder.bytes == 500_000
        sender = server_conns[0]
        assert sender.stats.retransmitted_segments > 0
        assert sender.stats.fast_retransmits > 0

    @pytest.mark.parametrize("segments, dropped, timeouts, fast", [
        (8, range(8), 1, 0),  # the whole flight: one RTO, go-back-N
        (40, [2], 0, 1),      # one hole: dup ACKs, one fast retransmit
    ], ids=["rto-go-back-n", "fast-retransmit"])
    def test_every_resend_is_counted(self, segments, dropped, timeouts,
                                     fast):
        mss = 1460
        sim, a, b = two_hosts()
        b.set_default_route(Interface(sim, "b->a", 10 * MBPS, ms(10),
                                      FirstSendDropQueue(
                                          1 + index * mss
                                          for index in dropped), a))
        senders = []

        def on_server_conn(conn):
            senders.append(conn)
            conn.send(segments * mss)

        TcpListener(sim, b, 80, on_connection=on_server_conn,
                    cc_factory=lambda: Reno(mss, initial_window_segments=8))
        recorder = TransferRecorder()
        recorder.attach(TcpConnection(sim, a, peer_addr=b.addr,
                                      peer_port=80)).connect()
        sim.run(until=30)
        assert recorder.bytes == segments * mss
        stats = senders[0].stats
        assert (stats.timeouts, stats.fast_retransmits) == (timeouts, fast)
        assert stats.retransmitted_segments == len(dropped)

    def test_delivery_is_exactly_once_despite_retransmissions(self):
        sim, recorder, client = run_transfer(
            300_000, rate_bps=1 * MBPS, queue_packets=4, until=120)
        # Exactly the sent byte count — no duplicates delivered to the app.
        assert recorder.bytes == 300_000

    def test_srtt_statistics_populated(self):
        sim, recorder, client = run_transfer(200_000)
        assert client.srtt is not None and client.rttvar is not None
        assert 0 < client.min_rtt <= client.srtt

    def test_rtt_reflects_path_delay(self):
        sim, a, b = two_hosts(delay=ms(50), queue_packets=1000)

        def on_server_conn(conn):
            conn.send(100_000)
            conn.close()

        TcpListener(sim, b, 80, on_connection=on_server_conn)
        client = TcpConnection(sim, a, peer_addr=b.addr, peer_port=80)
        client.on_peer_fin = lambda c: c.close()
        client.connect()
        sim.run(until=30)
        # Base RTT is 100 ms; RTT samples and their smoothing must be at
        # least that.
        assert client.min_rtt >= 0.099
        assert client.srtt >= 0.099


class TestLongFlows:
    def test_send_forever_saturates_link(self):
        sim, a, b = two_hosts(rate_bps=10 * MBPS, queue_packets=100)
        TcpListener(sim, b, 80, on_connection=lambda c: c.send_forever())
        client = TcpConnection(sim, a, peer_addr=b.addr, peer_port=80)
        client.connect()
        sim.run(until=5)
        iface = b.default_route
        iface.reset_stats()
        sim.run(until=15)
        assert iface.utilization() > 0.90

    def test_infinite_source_rejects_close(self):
        sim, a, b = two_hosts()
        TcpListener(sim, b, 80, on_connection=lambda c: c.send_forever())
        client = TcpConnection(sim, a, peer_addr=b.addr, peer_port=80)
        client.connect()
        sim.run(until=2)
        server_conn = next(iter(b.tcp_connections.values()))
        with pytest.raises(RuntimeError):
            server_conn.close()

    def test_abort_cleans_up(self):
        sim, a, b = two_hosts()
        TcpListener(sim, b, 80, on_connection=lambda c: c.send_forever())
        client = TcpConnection(sim, a, peer_addr=b.addr, peer_port=80)
        client.connect()
        sim.run(until=2)
        client.abort()
        assert client.state == "closed"
        assert not a.tcp_connections


class TestApiGuards:
    def test_send_after_close_raises(self):
        sim, a, b = two_hosts()
        TcpListener(sim, b, 80)
        client = TcpConnection(sim, a, peer_addr=b.addr, peer_port=80)
        client.connect()
        sim.run(until=2)
        client.close()
        with pytest.raises(RuntimeError):
            client.send(100)

    def test_negative_send_raises(self):
        sim, a, b = two_hosts()
        TcpListener(sim, b, 80)
        client = TcpConnection(sim, a, peer_addr=b.addr, peer_port=80)
        with pytest.raises(ValueError):
            client.send(-1)

    def test_double_connect_raises(self):
        sim, a, b = two_hosts()
        TcpListener(sim, b, 80)
        client = TcpConnection(sim, a, peer_addr=b.addr, peer_port=80)
        client.connect()
        with pytest.raises(RuntimeError):
            client.connect()


class TestCongestionControlIntegration:
    @pytest.mark.parametrize("cc_cls", [Reno, Cubic])
    def test_transfer_completes_with_each_algorithm(self, cc_cls):
        sim, recorder, client = run_transfer(
            400_000, rate_bps=5 * MBPS, queue_packets=20,
            cc_factory=cc_cls, until=60)
        assert recorder.bytes == 400_000

    # Single-flow utilization differs by algorithm: Reno's AIMD matches a
    # BDP-sized buffer well; CUBIC's probing costs more on a single flow
    # (multi-flow aggregates recover, see below).
    @pytest.mark.parametrize(
        "cc_cls,min_util", [(Reno, 0.9), (Cubic, 0.8)])
    def test_long_flow_on_access_network(self, cc_cls, min_util):
        sim = Simulator()
        net = AccessNetwork(sim, down_buffer_packets=64, up_buffer_packets=8)
        TcpListener(sim, net.media_server, 80,
                    on_connection=lambda c: c.send_forever(),
                    cc_factory=cc_cls)
        client = TcpConnection(sim, net.media_client,
                               peer_addr=net.media_server.addr, peer_port=80,
                               cc=cc_cls())
        client.connect()
        sim.run(until=5)
        net.reset_measurements()
        sim.run(until=15)
        assert net.down_bottleneck.utilization() > min_util

    @pytest.mark.parametrize("cc_cls", [Reno, Cubic])
    def test_eight_long_flows_fill_access_downlink(self, cc_cls):
        sim = Simulator()
        net = AccessNetwork(sim, down_buffer_packets=64, up_buffer_packets=8)
        TcpListener(sim, net.media_server, 80,
                    on_connection=lambda c: c.send_forever(),
                    cc_factory=cc_cls)
        for index in range(8):
            client = net.clients[1 + index % 2]
            TcpConnection(sim, client, peer_addr=net.media_server.addr,
                          peer_port=80, cc=cc_cls()).connect()
        sim.run(until=5)
        net.reset_measurements()
        sim.run(until=15)
        assert net.down_bottleneck.utilization() > 0.9
