"""Fast integration tests for the per-figure study runners."""

import numpy as np
import pytest

from repro import api
from repro.core.registry import access, adhoc_sweep, backbone
from repro.core.scenarios import access_scenario, backbone_scenario
from repro.apps.video import VideoStream, clip_frames
from repro.apps.voip import VoipCall
from repro.apps.web import PageFetch, WebServer
from repro.core.experiment import SETTLE_STEP, settled, warm_up
from repro.core.video_study import VIDEO_PORT, run_video_cell
from repro.core.voip_study import (
    CALL_GAP,
    CALL_SLACK,
    LISTEN_PORT,
    TALK_PORT,
    median_mos,
    run_calls,
    run_voip_cell,
)
from repro.core.web_study import (
    FETCH_GAP,
    FETCH_TIMEOUT,
    POLL_STEP,
    run_web_cell,
)
from repro.media.codec import decode
from repro.qoe.psnr import psnr_sequence
from repro.qoe.ssim import ssim_sequence
from repro.qoe.video import ssim_to_mos
from repro.qoe.voip import score_call
from repro.qoe.web import g1030_mos, min_plt_for
from repro.report.figures import REPORT_FIGURES
from repro.runner import GridRunner, ResultCache
from repro.sim.packet import Packet


def run_qos_grid(scenarios, buffers, **timing):
    """A qos sweep over ``scenarios`` x ``buffers``, run serially."""
    spec = adhoc_sweep("t", "qos", scenarios, buffers, **timing)
    runner = GridRunner(workers=1, cache=ResultCache(enabled=False),
                        progress=False)
    return spec, api.run_sweep(spec, scale=1.0, runner=runner)


def figure_text(name, results, spec):
    return REPORT_FIGURES[name].model(results, spec, 1.0).text()


class TestQosStudies:
    def test_fig4_grid_and_render(self):
        spec, results = run_qos_grid([access("long-few", "up")], [8, 64],
                                     warmup=3, duration=5, seed=2)
        assert results.keys() == [("long-few", 8), ("long-few", 64)]
        # Bigger buffer, bigger mean uplink delay.
        assert (results[("long-few", 64)]["up_mean_delay"]
                > results[("long-few", 8)]["up_mean_delay"])
        text = figure_text("fig4-up", results, spec)
        assert "UPLINK" in text and "DOWNLINK" in text

    def test_fig5_and_render(self):
        spec, results = run_qos_grid([access("long-many", "bidir")], [64],
                                     warmup=3, duration=5, seed=1)
        assert len(results[("long-many", 64)]["up_utilization_samples"]) >= 4
        assert "utilization" in figure_text("fig5", results, spec)

    def test_table1_rows_and_render(self):
        spec, results = run_qos_grid(
            [backbone(w) for w in ("short-low", "short-medium",
                                   "short-high", "long")],
            [749], warmup=2, duration=4, seed=1)
        assert len(results) == 4
        text = figure_text("table1-backbone", results, spec)
        assert "short-low" in text

    def test_table2_render(self):
        text = figure_text("table2", None, None)
        assert "96" in text  # 8-packet uplink delay
        assert "7490" in text


class TestVoipCells:
    def test_nobg_cell_excellent(self):
        cell = run_voip_cell(access_scenario("noBG"), 64, calls=1,
                             warmup=1, duration=2.0)
        assert cell["talks"] > 4.0
        assert cell["listens"] > 4.0

    def test_single_direction(self):
        cell = run_voip_cell(backbone_scenario("noBG"), 749, calls=1,
                             warmup=1, duration=2.0,
                             directions=("listens",))
        assert set(cell) == {"listens", "delay"}
        assert set(cell["delay"]) == {"listens"}
        assert cell["listens"] > 4.0

    def test_median_mos_empty(self):
        assert median_mos([]) == 0.0


class TestVideoCells:
    def test_nobg_cell_is_perfect(self):
        cell = run_video_cell(access_scenario("noBG"), 64, duration=2.0,
                              warmup=1)
        assert cell["ssim"] == pytest.approx(1.0, abs=1e-6)
        assert cell["mos"] == 5.0
        assert cell["packet_loss"] == 0.0


def _stream_after_warmup(scenario, buffer_packets, resolution, warmup,
                         duration):
    sim, network, __ = warm_up(scenario, buffer_packets, warmup)
    stream = VideoStream(sim, network.media_server, network.media_client,
                         port=VIDEO_PORT, resolution=resolution,
                         duration=duration)
    return sim, network, stream


def _video_cell_to_late_bound(scenario, buffer_packets, resolution, warmup,
                              duration):
    """run_video_cell as it was before the settle rule: always simulate
    to ``end_time + 1.0`` after the stream starts."""
    sim, __, stream = _stream_after_warmup(
        scenario, buffer_packets, resolution, warmup, duration)
    stream.start()
    sim.run(until=sim.now + stream.end_time + 1.0)
    received = stream.finish()
    reference = clip_frames(stream.clip, resolution, stream.n_frames)
    frame_mse = []
    ssim_value = ssim_sequence(reference, decode(reference, received),
                               frame_mse)
    return {
        "ssim": ssim_value,
        "psnr": psnr_sequence(frame_mse),
        "mos": ssim_to_mos(ssim_value),
        "packet_loss": stream.packet_loss_rate,
        "slice_loss": float(1.0 - received.mean()),
    }


#: (scenario, buffer, resolution): lossy access and backbone cells, and
#: a deep-buffered cell that drains video packets from its bottleneck
#: queue for a while after the last send.
EARLY_END_CELLS = [
    pytest.param(access_scenario("long-many"), 8, "SD",
                 id="access-long-many-8"),
    pytest.param(backbone_scenario("short-medium"), 8, "SD",
                 id="backbone-short-medium-8"),
    pytest.param(access_scenario("long-few"), 256, "HD",
                 id="access-long-few-256-HD"),
]


class TestVideoEarlyEnd:
    @pytest.mark.parametrize("scenario,packets,resolution", EARLY_END_CELLS)
    def test_payload_equals_run_to_late_bound(self, scenario, packets,
                                              resolution):
        kwargs = dict(resolution=resolution, warmup=1.0, duration=1.0)
        assert (run_video_cell(scenario, packets, **kwargs)
                == _video_cell_to_late_bound(scenario, packets, **kwargs))

    @pytest.mark.parametrize("scenario,packets,resolution", EARLY_END_CELLS)
    def test_no_arrival_after_settling(self, scenario, packets, resolution):
        sim, __, stream = _stream_after_warmup(
            scenario, packets, resolution, 1.0, 1.0)
        end = sim.now + stream.end_time + 1.0
        stream.start()
        until = sim.now + stream.duration
        sim.run(until=until)
        while not settled([stream]):
            until += SETTLE_STEP
            sim.run(until=until)
        assert until < end  # the early end does save simulated time
        arrivals = list(stream.receiver.arrivals)
        sim.run(until=end)
        assert stream.receiver.arrivals == arrivals

    @pytest.mark.parametrize("scenario,packets,resolution",
                             EARLY_END_CELLS[:2])
    def test_cells_lose_slices(self, scenario, packets, resolution):
        # Lossless cells would make the equality checks above weak.
        cell = run_video_cell(scenario, packets, resolution=resolution,
                              warmup=1.0, duration=1.0)
        assert cell["packet_loss"] > 0.0
        assert cell["slice_loss"] > 0.0

    def test_pending_send_is_not_settled(self):
        sim, __, stream = _stream_after_warmup(
            access_scenario("noBG"), 64, "SD", 1.0, 1.0)
        stream.start()
        assert not settled([stream])
        sim.run(until=sim.now + stream.duration)
        # The last packet is still serializing or propagating.
        assert not settled([stream])
        sim.run(until=sim.now + stream.end_time + 1.0)
        assert settled([stream])

    def test_queued_packet_is_not_settled(self):
        sim, network, stream = _stream_after_warmup(
            access_scenario("noBG"), 64, "SD", 1.0, 1.0)
        stream.start()
        sim.run(until=sim.now + stream.end_time + 1.0)
        assert settled([stream])
        # A burst for the receiver into the idle downlink: all but the
        # first packet wait for the serializer.  The closed-form link
        # holds no packet in its queue; each one waits in the arrival
        # event of its next hop, where settled() finds it.
        bottleneck = network.down_bottleneck
        for __ in range(3):
            bottleneck.send(Packet(network.media_server.addr,
                                   network.media_client.addr, 1, VIDEO_PORT,
                                   "udp", 1500))
        assert bottleneck.backlog() == (2, 1)
        assert not settled([stream])
        sim.run(until=sim.now + 1.0)
        assert bottleneck.backlog() == (0, 0)
        assert settled([stream])


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
    """run_calls as it was before the settle rule: every call runs
    ``duration + CALL_SLACK``, then ``CALL_GAP``."""
    sim, network, workload = warm_up(scenario, buffer_packets, warmup)
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
        assert (run_calls(scenario, packets, **kwargs)
                == _voip_cell_to_late_bound(scenario, packets, **kwargs))

    @pytest.mark.parametrize("scenario,packets", MEDIA_EARLY_END_CELLS)
    def test_no_arrival_after_settling(self, scenario, packets):
        sim, network, __ = warm_up(scenario, packets, 1.0)
        legs = list(_voip_legs(sim, network, 0, 1.0).values())
        end = sim.now + 1.0 + CALL_SLACK
        until = sim.now + 1.0
        sim.run(until=until)
        while not settled(legs):
            until += SETTLE_STEP
            sim.run(until=until)
        assert until < end  # the early end does save simulated time
        arrivals = [list(leg.receiver.arrivals) for leg in legs]
        sim.run(until=end)
        assert [leg.receiver.arrivals for leg in legs] == arrivals

    def test_lossy_cell_loses_frames(self):
        # A lossless cell would make the equality checks above weak.
        scores = run_calls(access_scenario("long-many"), 8, calls=1,
                           warmup=1.0, duration=1.0)
        assert scores["listens"][0].effective_loss > 0.0

    def test_either_pending_leg_blocks_settling(self):
        sim, network, __ = warm_up(access_scenario("noBG"), 64, 1.0)
        legs = list(_voip_legs(sim, network, 0, 1.0).values())
        sim.run(until=sim.now + 2.0)
        assert settled(legs)
        # A third leg that has not sent its last frame keeps all unsettled.
        late = VoipCall(sim, network.media_server, network.media_client,
                        port=LISTEN_PORT + 1, duration=1.0).start()
        assert settled(legs)
        assert not settled(legs + [late])


def _web_cell_to_late_bound(scenario, buffer_packets, fetches, warmup):
    """run_web_cell as it was before the early end: every fetch is
    polled every ``POLL_STEP`` and followed by ``FETCH_GAP``."""
    sim, network, workload = warm_up(scenario, buffer_packets, warmup)
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
        sim, network, __ = warm_up(scenario, packets, 1.0)
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
