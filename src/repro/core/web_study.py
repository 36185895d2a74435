"""WebQoE cells: Figures 10 (access) and 11 (backbone)."""

import numpy as np

from repro.apps.web import PageFetch, WebServer
from repro.core.experiment import SETTLE_STEP, warm_up
# Unused here (warm_up builds); kept so tracers wrapping them here resolve.
from repro.core.experiment import build_network  # noqa: F401
from repro.core.workloads import apply_workload  # noqa: F401
from repro.qoe.web import g1030_mos, min_plt_for

#: Think time between consecutive page fetches.
FETCH_GAP = 0.25

#: Simulated seconds between checks whether a fetch has finished.
POLL_STEP = 0.25

#: Give-up time per fetch (PLTs beyond this are "bad" anyway).
FETCH_TIMEOUT = 30.0


def run_web_cell(scenario, buffer_packets, fetches=10, warmup=5.0, seed=0):
    """Fetch the page repeatedly through one cell.

    ``warmup`` is simulated seconds.  Returns a dict with the PLT list
    (seconds), median/80th-percentile PLT and median MOS (scored with
    the testbed's G.1030 anchor).  Fetches that exceed ``FETCH_TIMEOUT``
    count with that ceiling, like an impatient user.

    The run checks every ``POLL_STEP`` seconds whether a fetch has
    finished, and the next fetch starts ``FETCH_GAP`` after that check.
    So the gap between fetches includes the polling granularity: it is
    part of the model, and the golden traces pin it.  The PLTs
    themselves are exact event times, so the last fetch is polled in
    ``SETTLE_STEP`` chunks and the cell ends without the trailing gap.
    """
    sim, network, workload = warm_up(scenario, buffer_packets, warmup, seed)
    server = WebServer(sim, network.media_server, cc=scenario.cc)

    plts = []
    for index in range(fetches):
        last = index == fetches - 1
        step = SETTLE_STEP if last else POLL_STEP
        fetch = PageFetch(sim, network.media_client,
                          network.media_server.addr, cc=scenario.cc)
        fetch.start()
        deadline = sim.now + FETCH_TIMEOUT
        # Run until this fetch finishes or times out.
        while sim.now < deadline and fetch.plt is None and not fetch.failed:
            sim.run(until=min(deadline, sim.now + step))
        plts.append(fetch.plt if fetch.plt is not None else FETCH_TIMEOUT)
        if fetch.plt is None:
            fetch.abort()
        if not last:
            sim.run(until=sim.now + FETCH_GAP)
    workload.stop()
    server.close()

    min_plt = min_plt_for(scenario.testbed)
    median_plt = float(np.median(plts))
    return {
        "plts": plts,
        "median_plt": median_plt,
        "mos": g1030_mos(median_plt, min_plt=min_plt),
        "p80_plt": float(np.percentile(plts, 80)),
    }
