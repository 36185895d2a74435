"""WebQoE grids: Figures 10 (access) and 11 (backbone)."""

import numpy as np

from repro.apps.web import PageFetch, WebServer
from repro.core.experiment import SETTLE_STEP, build_network
from repro.core.registry import ScenarioSpec, adhoc_sweep
from repro.core.study import _deprecated_grid, _run_mapping
from repro.core.workloads import apply_workload
from repro.qoe.scales import heat_marker_from_mos
from repro.qoe.web import g1030_mos, min_plt_for
from repro.viz.heatmap import render_grid

FIG10_WORKLOADS = ("noBG", "long-few", "long-many", "short-few", "short-many")
FIG11_WORKLOADS = ("noBG", "short-low", "short-medium", "short-high",
                   "short-overload", "long")

#: Think time between consecutive page fetches.
FETCH_GAP = 0.25

#: Simulated seconds between checks whether a fetch has finished.
POLL_STEP = 0.25

#: Give-up time per fetch (PLTs beyond this are "bad" anyway).
FETCH_TIMEOUT = 30.0


def run_web_cell(scenario, buffer_packets, fetches=10, warmup=5.0, seed=0,
                 queue_factory=None):
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
    sim, network = build_network(scenario, buffer_packets,
                                 queue_factory=queue_factory)
    workload = apply_workload(sim, network, scenario, seed=seed)
    server = WebServer(sim, network.media_server, cc=scenario.cc)
    sim.run(until=warmup)

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


def fig10_grid(activity, buffers, workloads=FIG10_WORKLOADS, fetches=10,
               warmup=5.0, seed=0, runner=None):
    """Figure 10: access WebQoE per (workload, buffer).

    ``activity`` is ``"down"`` (10a), ``"up"`` (10b) or ``"bidir"``.

    .. deprecated:: use :func:`repro.api.run_sweep`.
    """
    _deprecated_grid("fig10_grid", "repro.api.run_sweep(\"fig10a\"/\"fig10b\")")
    spec = adhoc_sweep(
        "adhoc-fig10", "web",
        scenarios=[ScenarioSpec("access", w, activity) for w in workloads],
        buffers=buffers, seed=seed, warmup=warmup, duration=0.0,
        params=(("fetches", fetches),))
    return _run_mapping(spec, runner)


def fig11_grid(buffers, workloads=FIG11_WORKLOADS, fetches=10, warmup=5.0,
               seed=0, runner=None):
    """Figure 11: backbone WebQoE.

    .. deprecated:: use :func:`repro.api.run_sweep`.
    """
    _deprecated_grid("fig11_grid", "repro.api.run_sweep(\"fig11\")")
    spec = adhoc_sweep(
        "adhoc-fig11", "web",
        scenarios=[ScenarioSpec("backbone", w) for w in workloads],
        buffers=buffers, seed=seed, warmup=warmup, duration=0.0,
        params=(("fetches", fetches),))
    return _run_mapping(spec, runner)


def render_fig10(results, activity, buffers, workloads=FIG10_WORKLOADS,
                 title="Figure 10"):
    """ASCII Figures 10/11: median PLT with a MOS marker per cell."""
    def fn(workload, packets):
        cell = results[(workload, packets)]
        return "%.1fs%s" % (cell["median_plt"],
                            heat_marker_from_mos(cell["mos"]))

    return render_grid(
        "%s (%s): median page load time (marker = MOS class)"
        % (title, activity),
        list(workloads), list(buffers), fn, col_header="workload\\buf")
