"""Figure 9 in miniature: IPTV video quality is binary in the workload.

Streams the "movie" clip (SD and HD) through the access downlink under
increasing congestion and prints SSIM + MOS per cell.  The buffer size
column barely matters; available bandwidth decides everything — and HD
survives loss slightly better than SD, as the paper observes.

Run:  python examples/iptv_video.py
"""

from repro import api
from repro.core.registry import access, adhoc_sweep


def main(workloads=("noBG", "short-few", "long-few", "long-many"),
         resolutions=("SD", "HD"), buffers=(8, 256), duration=6.0,
         warmup=6.0):
    """Print one SSIM/MOS row per cell; times in simulated seconds."""
    spec = adhoc_sweep(
        "example-iptv", "video",
        scenarios=[access(w, "down") for w in workloads],
        buffers=buffers, seed=4, warmup=warmup, duration=duration,
        params=(("clip", "C"),),
        axes=(("resolution", tuple(resolutions)),))
    results = api.run_sweep(spec, scale=1.0)

    print("%-12s %-4s %-6s %-6s %-6s %-9s" %
          ("workload", "res", "buf", "SSIM", "MOS", "pkt loss"))
    for workload in workloads:
        for resolution in resolutions:
            for packets in buffers:
                cell = results[(workload, packets, resolution)]
                print("%-12s %-4s %-6d %-6.2f %-6.1f %-9.3f" %
                      (workload, resolution, packets, cell["ssim"],
                       cell["mos"], cell["packet_loss"]))


if __name__ == "__main__":
    main()
