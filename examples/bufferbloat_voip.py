"""Figure 7b in miniature: VoIP QoE vs uplink buffer size.

Sweeps the access testbed's buffer sizes under upload congestion and
prints the two heatmap halves ("user talks" / "user listens"), showing
the paper's key asymmetry: the uplink queue delays *both* directions of
the conversation through the delay impairment z2.

The grid runs through the stable ``repro.api`` facade (parallel cached
runner underneath) and prints with the same figure model as
``python -m repro figures fig7b``, the full registered version.

Run:  python examples/bufferbloat_voip.py
"""

from repro import api
from repro.core.registry import access, adhoc_sweep
from repro.report.figures import REPORT_FIGURES


def main(buffers=(8, 32, 64, 256), workloads=("noBG", "long-few", "long-many"),
         warmup=10.0, duration=6.0, runner=None):
    """Print the miniature Figure 7b; times in simulated seconds."""
    spec = adhoc_sweep(
        "example-fig7b", "voip",
        scenarios=[access(w, "up") for w in workloads],
        buffers=buffers, seed=3, warmup=warmup, duration=duration,
        params=(("calls", 1), ("directions", ("talks", "listens"))))
    results = api.run_sweep(spec, scale=1.0, runner=runner)
    print(REPORT_FIGURES["fig7b"].model(results, spec, 1.0).text())
    print()
    print("Markers: + fine   o degraded   ! bad (Figure 6a bands)")
    print("Compare with the paper's Figure 7b: talks collapses to ~1.0 at")
    print(">= 64 packets; listens loses 1.5-2 MOS points from delay alone.")


if __name__ == "__main__":
    main()
