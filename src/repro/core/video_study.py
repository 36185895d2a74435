"""Video QoE cells: Figure 9 (access 9a, backbone 9b)."""

from repro.apps.video import VideoStream, clip_frames
from repro.core.experiment import build_network, run_until_settled
from repro.core.workloads import apply_workload
from repro.media.codec import decode
from repro.qoe.psnr import psnr_sequence
from repro.qoe.ssim import ssim_sequence
from repro.qoe.video import ssim_to_mos

VIDEO_PORT = 6200


def run_video_cell(scenario, buffer_packets, resolution="SD", clip="C",
                   duration=8.0, warmup=5.0, seed=0, arq=False,
                   queue_factory=None):
    """Stream one clip through a loaded cell and score it.

    ``warmup``/``duration`` are simulated seconds.  Returns a dict with
    ``ssim`` (in [0, 1]), ``psnr`` (dB), ``mos`` and ``packet_loss`` /
    ``slice_loss`` (fractions).  IPTV flows run server -> client (the
    paper streams only downstream).

    The payload is a function of the stream's send times and arrivals
    only.  So once the last packet is sent, the run ends as soon as the
    stream has settled (:func:`repro.core.experiment.run_until_settled`),
    at the latest ``end_time + 1.0`` after the start, with the same
    payload as a run to that late bound.
    """
    sim, network = build_network(scenario, buffer_packets,
                                 queue_factory=queue_factory)
    workload = apply_workload(sim, network, scenario, seed=seed)
    sim.run(until=warmup)
    stream = VideoStream(sim, network.media_server, network.media_client,
                         port=VIDEO_PORT, clip=clip, resolution=resolution,
                         duration=duration, arq=arq)
    end = sim.now + stream.end_time + 1.0
    until = sim.now + stream.duration  # after the last send
    stream.start()
    run_until_settled([stream], network.bottlenecks(), until, end)
    received = stream.finish()
    workload.stop()

    reference = clip_frames(clip, resolution, stream.n_frames)
    degraded = decode(reference, received)
    ssim_value = ssim_sequence(reference, degraded)
    return {
        "ssim": ssim_value,
        "psnr": psnr_sequence(reference, degraded),
        "mos": ssim_to_mos(ssim_value),
        "packet_loss": stream.packet_loss_rate,
        "slice_loss": float(1.0 - received.mean()),
    }
