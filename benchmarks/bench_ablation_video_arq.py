"""A3 (extension): IPTV retransmission recovery for video.

§8.1 notes that real IPTV set-top boxes request lost packets once via a
proprietary ARQ scheme and that the paper's numbers are therefore a
baseline "without error recovery".  This ablation enables the one-shot
ARQ mode of :class:`repro.apps.video.VideoStream` and quantifies the
SSIM recovery.  Both cells are one inline sweep with an ``arq`` axis,
run through :func:`repro.api.run_sweep` like every registered grid.
"""

from repro import api
from repro.core.registry import SweepSpec, access

from benchmarks.common import comparison_table

ARQ_SWEEP = SweepSpec(
    name="ablation-video-arq",
    kind="video",
    title="A3: video SSIM with and without one-shot ARQ",
    provenance="extension",
    scenarios=(access("long-few", "down"),),
    buffers=(64,),
    seed=4, warmup=6.0, duration=6.0, duration_min=4.0,
    params=(("resolution", "SD"),),
    axes=(("arq", (False, True)),))


def test_video_arq_recovers_quality():
    results = api.run_sweep(ARQ_SWEEP)
    base = results[("long-few", 64, False)]
    arq = results[("long-few", 64, True)]
    comparison_table(
        "A3: video SSIM with and without one-shot ARQ (long-few, 64 pkts)",
        ("mode", "SSIM", "MOS", "packet loss"),
        [("baseline", "%.3f" % base["ssim"], "%.1f" % base["mos"],
          "%.3f" % base["packet_loss"]),
         ("arq", "%.3f" % arq["ssim"], "%.1f" % arq["mos"],
          "%.3f" % arq["packet_loss"])])
    # Recovery must help (the paper predicts "higher quality" with ARQ).
    assert arq["ssim"] >= base["ssim"]
