"""Figure 7b in miniature: VoIP QoE vs uplink buffer size.

Sweeps the access testbed's buffer sizes under upload congestion and
prints the MOS of both call directions ("user talks" / "user listens")
per cell, showing the paper's key asymmetry: the uplink queue delays
*both* directions of the conversation through the delay impairment z2.

The grid runs through the stable ``repro.api`` facade (parallel cached
runner underneath).  The full registered version is drawn as SVG, with
its fidelity verdict and claims, by ``python -m repro report fig7b``.

Run:  python examples/bufferbloat_voip.py
"""

from repro import api
from repro.core.registry import access, adhoc_sweep
from repro.qoe.scales import voip_mos_class


def main(buffers=(8, 32, 64, 256), workloads=("noBG", "long-few", "long-many"),
         warmup=10.0, duration=6.0, runner=None):
    """Print the miniature Figure 7b; times in simulated seconds."""
    spec = adhoc_sweep(
        "example-fig7b", "voip",
        scenarios=[access(w, "up") for w in workloads],
        buffers=buffers, seed=3, warmup=warmup, duration=duration,
        params=(("calls", 1), ("directions", ("talks", "listens"))))
    results = api.run_sweep(spec, scale=1.0, runner=runner)

    print("%-12s %-6s %-22s %s" % ("workload", "buf", "user talks MOS",
                                   "user listens MOS"))
    for workload in workloads:
        for packets in buffers:
            cell = results[(workload, packets)]
            print("%-12s %-6d %-22s %s" % (
                workload, packets,
                *("%.1f (%s)" % (cell[direction],
                                 voip_mos_class(cell[direction]))
                  for direction in ("talks", "listens"))))
    print()
    print("Classes are Figure 6a's MOS bands.  Compare with the paper's")
    print("Figure 7b: talks collapses to ~1.0 at >= 64 packets; listens")
    print("loses 1.5-2 MOS points from delay alone.")


if __name__ == "__main__":
    main()
