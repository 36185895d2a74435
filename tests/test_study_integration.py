"""Fast integration tests for the per-figure study runners."""

import numpy as np
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
from repro.apps.voip import VoipCall
from repro.apps.web import PageFetch, WebServer
from repro.core.experiment import SETTLE_STEP, build_network, settled
from repro.core.video_study import VIDEO_PORT, run_video_cell
from repro.core.voip_study import (
    CALL_GAP,
    CALL_SLACK,
    LISTEN_PORT,
    TALK_PORT,
    median_mos,
    run_voip_cell,
)
from repro.core.web_study import (
    FETCH_GAP,
    FETCH_TIMEOUT,
    POLL_STEP,
    run_web_cell,
)
from repro.core.workloads import apply_workload
from repro.media.codec import decode
from repro.qoe.psnr import psnr_sequence
from repro.qoe.ssim import ssim_sequence
from repro.qoe.video import ssim_to_mos
from repro.qoe.voip import score_call
from repro.qoe.web import g1030_mos, min_plt_for
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


def _cell_after_warmup(scenario, buffer_packets, warmup):
    sim, network = build_network(scenario, buffer_packets)
    workload = apply_workload(sim, network, scenario, seed=0)
    sim.run(until=warmup)
    return sim, network, workload


def _stream_after_warmup(scenario, buffer_packets, resolution, warmup,
                         duration, arq):
    sim, network, __ = _cell_after_warmup(scenario, buffer_packets, warmup)
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
        while not settled([stream], network.bottlenecks()):
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
        assert not settled([stream], network.bottlenecks())
        sim.run(until=sim.now + stream.duration)
        # The last packet is still serializing or propagating.
        assert not settled([stream], network.bottlenecks())
        sim.run(until=sim.now + stream.end_time + 1.0)
        assert settled([stream], network.bottlenecks())

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
        assert not settled([stream], network.bottlenecks())
        queue.pop(sim.now)
        assert settled([stream], network.bottlenecks())


#: (scenario, buffer): a lossy cell, and a deep-buffered cell whose
#: bottleneck queue still holds media packets after the last send.
MEDIA_EARLY_END_CELLS = [
    pytest.param(access_scenario("long-many"), 8, id="access-long-many-8"),
    pytest.param(access_scenario("long-few"), 256, id="access-long-few-256"),
]


def _voip_legs(sim, network, call_index, duration):
    talks = VoipCall(sim, network.media_client, network.media_server,
                     port=TALK_PORT + call_index,
                     sample_seed=1000 + call_index, duration=duration)
    listens = VoipCall(sim, network.media_server, network.media_client,
                       port=LISTEN_PORT + call_index,
                       sample_seed=1000 + call_index, duration=duration)
    return {"talks": talks.start(), "listens": listens.start()}


def _voip_cell_to_late_bound(scenario, buffer_packets, calls, warmup,
                             duration):
    """run_voip_cell as it was before the settle rule: every call runs
    ``duration + CALL_SLACK``, then ``CALL_GAP``."""
    sim, network, workload = _cell_after_warmup(scenario, buffer_packets,
                                                warmup)
    scores = {"talks": [], "listens": []}
    for call_index in range(calls):
        live = _voip_legs(sim, network, call_index, duration)
        sim.run(until=sim.now + duration + CALL_SLACK)
        finished = {direction: call.finish()
                    for direction, call in live.items()}
        delay = max(playout.mouth_to_ear_delay
                    for playout, __ in finished.values())
        for direction, (playout, degraded) in finished.items():
            scores[direction].append(score_call(
                live[direction].clean_signal, degraded, playout,
                conversational_delay=delay))
        sim.run(until=sim.now + CALL_GAP)
    workload.stop()
    return scores


class TestVoipEarlyEnd:
    @pytest.mark.parametrize("scenario,packets", MEDIA_EARLY_END_CELLS)
    def test_payload_equals_run_to_late_bound(self, scenario, packets):
        kwargs = dict(calls=2, warmup=1.0, duration=1.0)
        assert (run_voip_cell(scenario, packets, **kwargs)
                == _voip_cell_to_late_bound(scenario, packets, **kwargs))

    @pytest.mark.parametrize("scenario,packets", MEDIA_EARLY_END_CELLS)
    def test_no_arrival_after_settling(self, scenario, packets):
        sim, network, __ = _cell_after_warmup(scenario, packets, 1.0)
        legs = list(_voip_legs(sim, network, 0, 1.0).values())
        end = sim.now + 1.0 + CALL_SLACK
        until = sim.now + 1.0
        sim.run(until=until)
        while not settled(legs, network.bottlenecks()):
            until += SETTLE_STEP
            sim.run(until=until)
        assert until < end  # the early end does save simulated time
        arrivals = [list(leg.receiver.arrivals) for leg in legs]
        sim.run(until=end)
        assert [leg.receiver.arrivals for leg in legs] == arrivals

    def test_lossy_cell_loses_frames(self):
        # A lossless cell would make the equality checks above weak.
        scores = run_voip_cell(access_scenario("long-many"), 8, calls=1,
                               warmup=1.0, duration=1.0)
        assert scores["listens"][0].effective_loss > 0.0

    def test_either_pending_leg_blocks_settling(self):
        sim, network, __ = _cell_after_warmup(access_scenario("noBG"), 64,
                                              1.0)
        legs = list(_voip_legs(sim, network, 0, 1.0).values())
        sim.run(until=sim.now + 2.0)
        assert settled(legs, network.bottlenecks())
        # A third leg that has not sent its last frame keeps all unsettled.
        late = VoipCall(sim, network.media_server, network.media_client,
                        port=LISTEN_PORT + 1, duration=1.0).start()
        assert settled(legs, network.bottlenecks())
        assert not settled(legs + [late], network.bottlenecks())


def _web_cell_to_late_bound(scenario, buffer_packets, fetches, warmup):
    """run_web_cell as it was before the early end: every fetch is
    polled every ``POLL_STEP`` and followed by ``FETCH_GAP``."""
    sim, network, workload = _cell_after_warmup(scenario, buffer_packets,
                                                warmup)
    server = WebServer(sim, network.media_server, cc=scenario.cc)
    plts = []
    for __ in range(fetches):
        fetch = PageFetch(sim, network.media_client,
                          network.media_server.addr, cc=scenario.cc)
        fetch.start()
        deadline = sim.now + FETCH_TIMEOUT
        while sim.now < deadline and fetch.plt is None and not fetch.failed:
            sim.run(until=min(deadline, sim.now + POLL_STEP))
        plts.append(fetch.plt if fetch.plt is not None else FETCH_TIMEOUT)
        if fetch.plt is None:
            fetch.abort()
        sim.run(until=sim.now + FETCH_GAP)
    workload.stop()
    server.close()
    median_plt = float(np.median(plts))
    return {
        "plts": plts,
        "median_plt": median_plt,
        "mos": g1030_mos(median_plt, min_plt=min_plt_for(scenario.testbed)),
        "p80_plt": float(np.percentile(plts, 80)),
    }


class TestWebEarlyEnd:
    @pytest.mark.parametrize("scenario,packets", MEDIA_EARLY_END_CELLS)
    def test_payload_equals_run_to_late_bound(self, scenario, packets):
        kwargs = dict(fetches=2, warmup=1.0)
        assert (run_web_cell(scenario, packets, **kwargs)
                == _web_cell_to_late_bound(scenario, packets, **kwargs))

    @pytest.mark.parametrize("scenario,packets", MEDIA_EARLY_END_CELLS)
    def test_nothing_changes_after_the_early_end(self, scenario, packets):
        sim, network, __ = _cell_after_warmup(scenario, packets, 1.0)
        WebServer(sim, network.media_server, cc=scenario.cc)
        fetch = PageFetch(sim, network.media_client,
                          network.media_server.addr, cc=scenario.cc)
        fetch.start()
        polled = until = sim.now
        while fetch.plt is None and not fetch.failed:
            until += SETTLE_STEP
            sim.run(until=until)
        plt = fetch.plt
        assert plt is not None
        # The old tail: on to the first POLL_STEP boundary at or after
        # the last byte, then FETCH_GAP.
        while polled < fetch.last_byte_at:
            polled += POLL_STEP
        sim.run(until=polled + FETCH_GAP)
        assert fetch.plt == plt and fetch.done and not fetch.failed


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
