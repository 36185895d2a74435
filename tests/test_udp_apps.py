"""Tests for UDP/RTP and the application layer (VoIP, video, web)."""

import numpy as np
import pytest

from repro.apps.video import VideoStream, build_packet_plan, clip_frames
from repro.apps.voip import VoipCall
from repro.apps.web import PAGE_OBJECTS, PageFetch, WebServer
from repro.media.video_source import BITRATES
from repro.sim import Simulator
from repro.sim.packet import RTP_HEADER
from repro.sim.topology import AccessNetwork
from repro.udp import RtpReceiver, UdpSocket

from tests.netutil import two_hosts


class TestUdpSocket:
    def test_datagram_delivery(self):
        sim, a, b = two_hosts()
        got = []
        UdpSocket(sim, b, port=5000,
                  on_datagram=lambda s, p: got.append(p.payload_len))
        sender = UdpSocket(sim, a)
        sender.sendto(500, b.addr, 5000)
        sim.run(until=1)
        assert got == [500]

    def test_unbound_port_drops_silently(self):
        sim, a, b = two_hosts()
        sender = UdpSocket(sim, a)
        sender.sendto(100, b.addr, 9999)
        sim.run(until=1)  # must not raise

    def test_closed_socket_rejects_send(self):
        sim, a, b = two_hosts()
        sock = UdpSocket(sim, a)
        sock.close()
        with pytest.raises(RuntimeError):
            sock.sendto(10, b.addr, 5000)

    def test_port_collision_rejected(self):
        sim, a, __ = two_hosts()
        UdpSocket(sim, a, port=6000)
        with pytest.raises(ValueError):
            UdpSocket(sim, a, port=6000)


class TestRtp:
    def test_sequencing_and_stats(self):
        sim, a, b = two_hosts()
        receiver = RtpReceiver(sim, b, port=7000)
        sender = UdpSocket(sim, a)
        for i in range(10):
            sim.call_later(i * 0.02, sender.sendto, RTP_HEADER + 160,
                           b.addr, 7000, i)
        sim.run(until=2)
        assert [media for media, __ in receiver.arrivals] == list(range(10))
        # Spaced sends meet no queue: every datagram has the same transit.
        transits = [arrival - media * 0.02
                    for media, arrival in receiver.arrivals]
        assert transits == pytest.approx([transits[0]] * 10)
        assert transits[0] > 0

    def test_loss_rate_counts_gaps(self):
        sim, a, b = two_hosts(queue_packets=2, rate_bps=100_000)
        receiver = RtpReceiver(sim, b, port=7000)
        sender = UdpSocket(sim, a)
        # Burst 10 at t=0 (the 2-packet queue drops the middle), then a
        # spaced tail that all arrives.
        for i in range(10):
            sender.sendto(RTP_HEADER + 1000, b.addr, 7000, i)
        for i in range(5):
            sim.call_later(1.0 + 0.2 * i, sender.sendto, RTP_HEADER + 1000,
                           b.addr, 7000, 10 + i)
        sim.run(until=5)
        got = [media for media, __ in receiver.arrivals]
        assert got[-5:] == list(range(10, 15))
        assert 1.0 - len(got) / 15 > 0.2


class TestVoipCall:
    def test_clean_call(self):
        sim = Simulator()
        net = AccessNetwork(sim)
        call = VoipCall(sim, net.media_client, net.media_server, port=6000,
                        duration=2.0)
        call.start()
        sim.run(until=4)
        playout, degraded = call.finish()
        assert playout.frames == call.n_frames
        assert playout.effective_loss_rate == 0.0
        assert len(degraded) == call.n_frames * 160
        assert playout.mouth_to_ear_delay < 0.2

    def test_media_cached(self):
        sim = Simulator()
        net = AccessNetwork(sim)
        a = VoipCall(sim, net.media_client, net.media_server, 6000,
                     sample_seed=1000, duration=2.0)
        b = VoipCall(sim, net.media_client, net.media_server, 6002,
                     sample_seed=1000, duration=2.0)
        assert a.frames is b.frames


class TestVideoStream:
    def test_packet_plan_rate(self):
        # 24 frames = exactly two GOPs, so the budget is exact.
        plans, mapping = build_packet_plan("SD", 24)
        total = sum(p.payload_bytes for p in plans)
        expected = BITRATES["SD"] / 8 * 24 / 12.5
        assert total == pytest.approx(expected, rel=0.02)
        assert len(mapping) == 24 * 32

    def test_memoized_media_is_read_only(self):
        # Every later cell of the process reads the same objects, so no
        # caller may write into them.
        clip = clip_frames("A", "SD", 2)
        assert clip_frames("A", "SD", 2) is clip
        with pytest.raises(ValueError, match="read-only"):
            clip[0, 0, 0] = 0.5
        plans, mapping = build_packet_plan("SD", 24)
        assert build_packet_plan("SD", 24)[0] is plans
        assert isinstance(plans, tuple)
        with pytest.raises(TypeError):
            mapping[0, 0] = (0,)
        assert all(isinstance(packets, tuple)
                   for packets in mapping.values())

    def test_clean_stream_all_slices(self):
        sim = Simulator()
        net = AccessNetwork(sim)
        stream = VideoStream(sim, net.media_server, net.media_client,
                             port=6200, resolution="SD", duration=2.0)
        stream.start()
        sim.run(until=stream.end_time + 2)
        received = stream.finish()
        assert received.all()
        assert stream.packet_loss_rate == 0.0

    def test_hd_does_not_fit_uplink(self):
        # Streaming 8 Mbit/s into the 1 Mbit/s uplink must lose slices.
        sim = Simulator()
        net = AccessNetwork(sim)
        stream = VideoStream(sim, net.media_client, net.media_server,
                             port=6200, resolution="HD", duration=1.0)
        stream.start()
        sim.run(until=stream.end_time + 4)
        received = stream.finish()
        assert received.mean() < 0.5


class TestWeb:
    def test_page_fetch_plt(self):
        sim = Simulator()
        net = AccessNetwork(sim)
        WebServer(sim, net.media_server)
        fetch = PageFetch(sim, net.media_client, net.media_server.addr)
        fetch.start()
        sim.run(until=10)
        assert fetch.done
        # ~14 RTTs at 50 ms base RTT plus serialization.
        assert 0.3 < fetch.plt < 1.2

    def test_fetch_completion_callback(self):
        sim = Simulator()
        net = AccessNetwork(sim)
        WebServer(sim, net.media_server)
        done = []
        fetch = PageFetch(sim, net.media_client, net.media_server.addr,
                          on_complete=lambda f: done.append(f.plt))
        fetch.start()
        sim.run(until=10)
        assert len(done) == 1
        assert done[0] == fetch.plt

    def test_object_sizes_are_the_papers(self):
        assert PAGE_OBJECTS == (15_000, 5_800, 30_000, 30_000)

    def test_sequential_fetches_independent(self):
        sim = Simulator()
        net = AccessNetwork(sim)
        WebServer(sim, net.media_server)
        first = PageFetch(sim, net.media_client, net.media_server.addr)
        first.start()
        sim.run(until=10)
        second = PageFetch(sim, net.media_client, net.media_server.addr)
        second.start()
        sim.run(until=20)
        assert first.done and second.done
        assert abs(first.plt - second.plt) < 0.2
