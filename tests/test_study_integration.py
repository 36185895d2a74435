"""Fast integration tests for the per-figure study runners."""

import pytest

from repro.core.scenarios import access_scenario, backbone_scenario
from repro.core.study import (
    fig4_delay_grid,
    fig5_utilization,
    render_fig4,
    render_fig5,
    render_table1,
    render_table2,
    table1_rows,
)
from repro.apps.video import VideoStream, clip_frames
from repro.core.experiment import build_network
from repro.core.video_study import SETTLE_STEP, VIDEO_PORT, run_video_cell
from repro.core.voip_study import median_mos, run_voip_cell
from repro.core.web_study import run_web_cell
from repro.core.workloads import apply_workload
from repro.media.codec import decode
from repro.qoe.psnr import psnr_sequence
from repro.qoe.ssim import ssim_sequence
from repro.qoe.video import ssim_to_mos
from repro.sim.packet import Packet
from repro.sim.queues import CoDelQueue


class _Buf:
    def __init__(self, packets):
        self.packets = packets


class TestQosStudies:
    def test_fig4_grid_and_render(self):
        buffers = [_Buf(8), _Buf(64)]
        results = fig4_delay_grid("up", buffers=buffers,
                                  workloads=("long-few",), warmup=3,
                                  duration=5, seed=2)
        assert set(results) == {("long-few", 8), ("long-few", 64)}
        # Bigger buffer, bigger mean uplink delay.
        assert (results[("long-few", 64)].up_mean_delay
                > results[("long-few", 8)].up_mean_delay)
        text = render_fig4(results, "up", buffers=buffers,
                           workloads=("long-few",))
        assert "UPLINK" in text and "DOWNLINK" in text

    def test_fig5_and_render(self):
        results = fig5_utilization(buffers=[_Buf(64)], warmup=3, duration=5,
                                   seed=1)
        report = results[64]
        assert len(report.up_utilization_samples) >= 4
        assert "utilization" in render_fig5(results)

    def test_table1_rows_and_render(self):
        rows = table1_rows("backbone", warmup=2, duration=4, seed=1,
                           include_overload=False)
        assert len(rows) == 4
        text = render_table1(rows, "backbone")
        assert "short-low" in text

    def test_table2_render(self):
        text = render_table2()
        assert "96" in text  # 8-packet uplink delay
        assert "7490" in text


class TestVoipCells:
    def test_nobg_cell_excellent(self):
        scores = run_voip_cell(access_scenario("noBG"), 64, calls=1,
                               warmup=1, duration=2.0)
        assert median_mos(scores["talks"]) > 4.0
        assert median_mos(scores["listens"]) > 4.0

    def test_single_direction(self):
        scores = run_voip_cell(backbone_scenario("noBG"), 749, calls=1,
                               warmup=1, duration=2.0,
                               directions=("listens",))
        assert set(scores) == {"listens"}
        assert median_mos(scores["listens"]) > 4.0

    def test_queue_factory_plumbs_through(self):
        scores = run_voip_cell(
            access_scenario("noBG"), 64, calls=1, warmup=1, duration=2.0,
            queue_factory=lambda p: CoDelQueue(capacity_packets=p))
        assert median_mos(scores["talks"]) > 4.0

    def test_median_mos_empty(self):
        assert median_mos([]) == 0.0


class TestVideoCells:
    def test_nobg_cell_is_perfect(self):
        cell = run_video_cell(access_scenario("noBG"), 64, duration=2.0,
                              warmup=1)
        assert cell["ssim"] == pytest.approx(1.0, abs=1e-6)
        assert cell["mos"] == 5.0
        assert cell["packet_loss"] == 0.0

    def test_arq_flag(self):
        cell = run_video_cell(access_scenario("noBG"), 64, duration=2.0,
                              warmup=1, arq=True)
        assert cell["ssim"] == pytest.approx(1.0, abs=1e-6)


def _stream_after_warmup(scenario, buffer_packets, resolution, warmup,
                         duration, arq):
    sim, network = build_network(scenario, buffer_packets)
    apply_workload(sim, network, scenario, seed=0)
    sim.run(until=warmup)
    stream = VideoStream(sim, network.media_server, network.media_client,
                         port=VIDEO_PORT, resolution=resolution,
                         duration=duration, arq=arq)
    return sim, network, stream


def _video_cell_to_late_bound(scenario, buffer_packets, resolution, warmup,
                              duration, arq):
    """run_video_cell as it was before the settle rule: always simulate
    to ``end_time + 1.0`` after the stream starts."""
    sim, __, stream = _stream_after_warmup(
        scenario, buffer_packets, resolution, warmup, duration, arq)
    stream.start()
    sim.run(until=sim.now + stream.end_time + 1.0)
    received = stream.finish()
    reference = clip_frames(stream.clip, resolution, stream.n_frames)
    degraded = decode(reference, received)
    ssim_value = ssim_sequence(reference, degraded)
    return {
        "ssim": ssim_value,
        "psnr": psnr_sequence(reference, degraded),
        "mos": ssim_to_mos(ssim_value),
        "packet_loss": stream.packet_loss_rate,
        "slice_loss": float(1.0 - received.mean()),
    }


#: (scenario, buffer, resolution, arq): lossy access and backbone cells,
#: an ARQ cell whose retransmission checks outlive the last send, and a
#: deep-buffered cell that drains video packets from its bottleneck
#: queue for a while after the last send.
EARLY_END_CELLS = [
    pytest.param(access_scenario("long-many"), 8, "SD", False,
                 id="access-long-many-8"),
    pytest.param(backbone_scenario("short-medium"), 8, "SD", False,
                 id="backbone-short-medium-8"),
    pytest.param(access_scenario("long-many"), 8, "SD", True,
                 id="access-long-many-8-arq"),
    pytest.param(access_scenario("long-few"), 256, "HD", False,
                 id="access-long-few-256-HD"),
]


class TestVideoEarlyEnd:
    @pytest.mark.parametrize("scenario,packets,resolution,arq",
                             EARLY_END_CELLS)
    def test_payload_equals_run_to_late_bound(self, scenario, packets,
                                              resolution, arq):
        kwargs = dict(resolution=resolution, warmup=1.0, duration=1.0,
                      arq=arq)
        assert (run_video_cell(scenario, packets, **kwargs)
                == _video_cell_to_late_bound(scenario, packets, **kwargs))

    @pytest.mark.parametrize("scenario,packets,resolution,arq",
                             EARLY_END_CELLS)
    def test_no_arrival_after_settling(self, scenario, packets, resolution,
                                       arq):
        sim, network, stream = _stream_after_warmup(
            scenario, packets, resolution, 1.0, 1.0, arq)
        end = sim.now + stream.end_time + 1.0
        stream.start()
        until = sim.now + stream.duration
        sim.run(until=until)
        while not stream.settled(network.interfaces()):
            until += SETTLE_STEP
            sim.run(until=until)
        assert until < end  # the early end does save simulated time
        arrivals = list(stream.receiver.arrivals)
        retransmitted = set(stream._retransmitted)
        assert bool(retransmitted) == arq
        sim.run(until=end)
        assert stream.receiver.arrivals == arrivals
        assert stream._retransmitted == retransmitted

    @pytest.mark.parametrize("scenario,packets,resolution,arq",
                             EARLY_END_CELLS[:2])
    def test_cells_lose_slices(self, scenario, packets, resolution, arq):
        # Lossless cells would make the equality checks above weak.
        cell = run_video_cell(scenario, packets, resolution=resolution,
                              warmup=1.0, duration=1.0, arq=arq)
        assert cell["packet_loss"] > 0.0
        assert cell["slice_loss"] > 0.0

    def test_pending_send_is_not_settled(self):
        sim, network, stream = _stream_after_warmup(
            access_scenario("noBG"), 64, "SD", 1.0, 1.0, False)
        stream.start()
        assert not stream.settled(network.interfaces())
        sim.run(until=sim.now + stream.duration)
        # The last packet is still serializing or propagating.
        assert not stream.settled(network.interfaces())
        sim.run(until=sim.now + stream.end_time + 1.0)
        assert stream.settled(network.interfaces())

    def test_queued_packet_is_not_settled(self):
        sim, network, stream = _stream_after_warmup(
            access_scenario("noBG"), 64, "SD", 1.0, 1.0, False)
        stream.start()
        sim.run(until=sim.now + stream.end_time + 1.0)
        queue = network.down_bottleneck.queue
        # A packet for the receiver queued behind an idle serializer: no
        # event refers to it, only the queue holds it.
        queue.push(Packet(network.media_server.addr,
                          network.media_client.addr, 1, VIDEO_PORT, "udp",
                          1500), sim.now)
        assert not stream.settled(network.interfaces())
        queue.pop(sim.now)
        assert stream.settled(network.interfaces())


class TestWebCells:
    def test_nobg_cell_fast(self):
        cell = run_web_cell(access_scenario("noBG"), 64, fetches=2, warmup=1)
        assert cell["median_plt"] < 1.0
        assert cell["mos"] > 4.0
        assert len(cell["plts"]) == 2

    def test_backbone_anchor_used(self):
        cell = run_web_cell(backbone_scenario("noBG"), 749, fetches=2,
                            warmup=1)
        assert cell["mos"] == 5.0  # under the 0.85 s backbone anchor
