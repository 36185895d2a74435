"""Quickstart: one VoIP call through a congested DSL uplink.

Reproduces the paper's headline bufferbloat case in ~20 lines: a G.711
call crossing a home-router uplink that eight long-lived TCP uploads
keep full, once with a sanely-sized buffer and once with a bloated one.

Run:  python examples/quickstart.py
"""

from repro.core.scenarios import access_scenario
from repro.core.voip_study import run_voip_cell
from repro.qoe.scales import voip_mos_class


def main(buffers=(8, 256), warmup=10.0, duration=6.0):
    """Score one call per uplink buffer size (packets); times in seconds."""
    scenario = access_scenario("long-many", "up")  # 8 uploading long flows

    for packets in buffers:
        cell = run_voip_cell(scenario, packets, calls=1, warmup=warmup,
                             duration=duration, seed=1)
        talks, listens = cell["talks"], cell["listens"]
        print("uplink buffer %3d pkts: user talks MOS %.1f (%s), "
              "listens MOS %.1f | talks m2e delay %.0f ms"
              % (packets, talks, voip_mos_class(talks), listens,
                 cell["delay"]["talks"] * 1000))

    print()
    print("The workload, not the buffer, ruins the call -- but the bloated")
    print("buffer turns 'bad' into 'unusable' by adding seconds of delay.")


if __name__ == "__main__":
    main()
