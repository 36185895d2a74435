"""VoIP QoE grids: Figures 7 (access) and 8 (backbone).

One cell = one (workload, buffer size) pair.  Per cell we place calls in
both directions between the multimedia hosts:

* "user talks"  — client -> server, crossing the *uplink* buffer;
* "user listens" — server -> client, crossing the *downlink* buffer.

and report the median combined MOS per direction, exactly the two
heatmap halves of Figure 7.  The backbone (Figure 8) carries
unidirectional audio server -> client.
"""

import numpy as np

from repro.core.experiment import build_network, run_until_settled
from repro.core.registry import ScenarioSpec, adhoc_sweep
from repro.core.study import _deprecated_grid, _run_mapping
from repro.core.workloads import apply_workload
from repro.apps.voip import VoipCall
from repro.qoe.scales import heat_marker_from_mos
from repro.qoe.voip import score_call
from repro.viz.heatmap import render_grid

#: Figure 7 row order.
FIG7_WORKLOADS = ("noBG", "long-few", "long-many", "short-few", "short-many")
FIG8_WORKLOADS = ("noBG", "short-low", "short-medium", "short-high",
                  "short-overload", "long")

#: Gap between the end of one call and the start of the next.
CALL_GAP = 0.5

#: Simulated seconds a call runs past its duration for queued tail packets.
CALL_SLACK = 2.0

TALK_PORT = 6000
LISTEN_PORT = 6002


def run_voip_cell(scenario, buffer_packets, calls=2, warmup=5.0, seed=0,
                  duration=8.0, directions=("talks", "listens"),
                  queue_factory=None):
    """Run ``calls`` sequential calls per direction through one cell.

    ``warmup`` and ``duration`` (per call) are simulated seconds;
    ``buffer_packets`` is a packet count or ``(down, up)`` pair.
    Returns ``{direction: [VoipScore, ...]}``.

    Each call runs ``duration + CALL_SLACK`` seconds, and the next one
    starts ``CALL_GAP`` later.  The scores read only the legs' sends and
    arrivals, so the last call instead ends as soon as its legs have
    settled (:func:`repro.core.experiment.run_until_settled`), at the
    latest at that bound, with the same scores as a run to the bound.
    """
    sim, network = build_network(scenario, buffer_packets,
                                 queue_factory=queue_factory)
    workload = apply_workload(sim, network, scenario, seed=seed)
    sim.run(until=warmup)

    scores = {direction: [] for direction in directions}
    for call_index in range(calls):
        live = {}
        for direction in directions:
            if direction == "talks":
                call = VoipCall(sim, network.media_client,
                                network.media_server,
                                port=TALK_PORT + call_index,
                                sample_seed=1000 + call_index,
                                duration=duration)
            else:
                call = VoipCall(sim, network.media_server,
                                network.media_client,
                                port=LISTEN_PORT + call_index,
                                sample_seed=1000 + call_index,
                                duration=duration)
            live[direction] = call.start()
        # Let the calls play out plus slack for queued tail packets.
        end = sim.now + duration + CALL_SLACK
        last = call_index == calls - 1
        if last:
            run_until_settled(list(live.values()), network.bottlenecks(),
                              sim.now + duration, end)
        else:
            sim.run(until=end)
        finished = {direction: call.finish()
                    for direction, call in live.items()}
        # z2 reflects conversational dynamics: both directions share the
        # worse mouth-to-ear delay (an inflated uplink hurts listening too).
        conversational_delay = max(
            playout.mouth_to_ear_delay for playout, __ in finished.values())
        for direction, (playout, degraded) in finished.items():
            scores[direction].append(
                score_call(live[direction].clean_signal, degraded, playout,
                           conversational_delay=conversational_delay))
        if not last:
            sim.run(until=sim.now + CALL_GAP)
    workload.stop()
    return scores


def median_mos(score_list):
    """Median combined MOS across a cell's calls."""
    if not score_list:
        return 0.0
    return float(np.median([score.mos for score in score_list]))


def fig7_grid(activity, buffers, workloads=FIG7_WORKLOADS, calls=2,
              warmup=5.0, duration=8.0, seed=0, runner=None):
    """Figure 7: access VoIP MOS per (workload, buffer).

    ``activity`` is the background congestion direction: ``"down"``
    (Figure 7a), ``"up"`` (Figure 7b) or ``"bidir"`` (discussed in
    §7.2); ``warmup``/``duration`` are simulated seconds, ``buffers``
    packet counts.  Returns
    ``{(workload, packets): {"talks": mos, "listens": mos, ...}}``.

    .. deprecated:: use :func:`repro.api.run_sweep`.
    """
    _deprecated_grid("fig7_grid", "repro.api.run_sweep(\"fig7a\"/\"fig7b\")")
    spec = adhoc_sweep(
        "adhoc-fig7", "voip",
        scenarios=[ScenarioSpec("access", w, activity) for w in workloads],
        buffers=buffers, seed=seed, warmup=warmup, duration=duration,
        params=(("calls", calls), ("directions", ("talks", "listens"))))
    return _run_mapping(spec, runner)


def fig8_grid(buffers, workloads=FIG8_WORKLOADS, calls=2, warmup=5.0,
              duration=8.0, seed=0, runner=None):
    """Figure 8: backbone VoIP MOS (unidirectional, server -> client).

    .. deprecated:: use :func:`repro.api.run_sweep`.
    """
    _deprecated_grid("fig8_grid", "repro.api.run_sweep(\"fig8\")")
    spec = adhoc_sweep(
        "adhoc-fig8", "voip",
        scenarios=[ScenarioSpec("backbone", w) for w in workloads],
        buffers=buffers, seed=seed, warmup=warmup, duration=duration,
        params=(("calls", calls), ("directions", ("listens",))))
    return _run_mapping(spec, runner)


def render_fig7(results, activity, buffers, workloads=FIG7_WORKLOADS):
    """ASCII Figure 7: two blocks (user talks / user listens)."""
    def cell(direction):
        def fn(workload, packets):
            mos = results[(workload, packets)][direction]
            return "%.1f%s" % (mos, heat_marker_from_mos(mos))
        return fn

    talks = render_grid(
        "Figure 7 (%s activity): median MOS, user TALKS" % activity,
        list(workloads), list(buffers), cell("talks"),
        col_header="workload\\buf")
    listens = render_grid(
        "Figure 7 (%s activity): median MOS, user LISTENS" % activity,
        list(workloads), list(buffers), cell("listens"),
        col_header="workload\\buf")
    return talks + "\n\n" + listens


def render_fig8(results, buffers, workloads=FIG8_WORKLOADS):
    """ASCII Figure 8."""
    def fn(workload, packets):
        mos = results[(workload, packets)]["listens"]
        return "%.1f%s" % (mos, heat_marker_from_mos(mos))

    return render_grid(
        "Figure 8: backbone median MOS (server -> client audio)",
        list(workloads), list(buffers), fn, col_header="workload\\buf")
