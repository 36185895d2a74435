"""Single-cell experiment runners.

A "cell" is one (scenario, buffer size) combination — one cell of the
paper's heatmaps.  Every cell runs the same lifecycle: :func:`warm_up`
builds the testbed, applies the Table 1 workload and runs it to the
measurement start; then the cell's probe is measured on top of it.
:func:`run_qos_cell` measures the background traffic itself (Section 6
/ Table 1 / Figures 4-5); the per-application QoE cells live next to
their applications, reach their measurement start through the same
:func:`warm_up`, and end through the settle rule of
:func:`run_until_settled`.
"""

from dataclasses import dataclass, field

from repro.core.workloads import apply_workload
from repro.sim.engine import Simulator
from repro.sim.packet import Packet
from repro.sim.stats import UtilizationSampler
from repro.sim.topology import AccessNetwork, BackboneNetwork

#: Simulated seconds between checks whether finished media have settled.
SETTLE_STEP = 0.05


def build_network(scenario, buffer_packets):
    """Build the testbed network a scenario calls for, on a new simulator.

    ``buffer_packets`` is either a single size applied to both bottleneck
    directions (the paper's sweeps) or a ``(down, up)`` tuple — Table 1's
    QoS baseline uses per-direction BDP buffers (64 down, 8 up).  Both
    bottlenecks are drop-tail FIFOs.  Returns ``(sim, network)``.
    """
    sim = Simulator()
    if isinstance(buffer_packets, tuple):
        down_packets, up_packets = buffer_packets
    else:
        down_packets = up_packets = buffer_packets
    if scenario.testbed == "access":
        network = AccessNetwork(sim, down_packets, up_packets)
    elif scenario.testbed == "backbone":
        network = BackboneNetwork(sim, down_packets)
    else:
        raise ValueError("unknown testbed %r" % (scenario.testbed,))
    return sim, network


def warm_up(scenario, buffer_packets, warmup, seed=0):
    """The shared prefix of every cell: build, load, run to ``warmup``.

    Builds the network (:func:`build_network`), applies the scenario's
    background workload with ``seed`` and runs the simulation to
    ``warmup`` simulated seconds, the start of the measurement window.
    Returns ``(sim, network, workload)``.  The state reached depends only
    on these arguments, so a probe created afterwards measures the same
    thing whichever cell kind creates it.
    """
    sim, network = build_network(scenario, buffer_packets)
    workload = apply_workload(sim, network, scenario, seed=seed)
    sim.run(until=warmup)
    return sim, network, workload


def settled(legs):
    """True once nothing pending can still reach a receiver of ``legs``.

    A leg is a media stream or call leg with ``sim``, ``dst_node`` and
    ``port`` (:class:`repro.apps.video.VideoStream`,
    :class:`repro.apps.voip.VoipCall`).  Settled means: no live event is
    a bound method of a leg (a pending send), and no packet addressed to
    a receiver's (address, port) is held by an event.  Every packet in
    flight is held by one: the closed-form links hand an accepted packet
    straight to its next hop's arrival event, so no queue holds it.
    From then on the receivers get no further arrival, so every leg's
    outcome is final.
    """
    owners = {id(leg) for leg in legs}
    endpoints = {(leg.dst_node.addr, leg.port) for leg in legs}

    def to_receiver(item):
        return type(item) is Packet and (item.dst, item.dport) in endpoints

    for fn, args in legs[0].sim.live_calls():
        if id(getattr(fn, "__self__", None)) in owners:
            return False
        if any(map(to_receiver, args if type(args) is tuple else (args,))):
            return False
    return True


def run_until_settled(legs, until, end):
    """Run to ``until``, then on until ``legs`` have :func:`settled`.

    After ``until`` the run advances in ``SETTLE_STEP`` chunks and stops
    at the first chunk boundary where the legs have settled, at the
    latest at ``end``.  Back-to-back ``run`` calls equal one continuous
    run, and settled legs get no further arrival, so a payload that
    reads only the legs' sends and arrivals equals that of a run to
    ``end``.
    """
    sim = legs[0].sim
    until = min(until, end)
    sim.run(until=until)
    while until < end and not settled(legs):
        until = min(until + SETTLE_STEP, end)
        sim.run(until=until)


@dataclass
class QosReport:
    """QoS measurements for one cell (Table 1 / Figures 4-5 content)."""

    scenario: str
    buffer_packets: int
    duration: float
    down_utilization: float = 0.0
    up_utilization: float = 0.0
    down_utilization_sd: float = 0.0
    up_utilization_sd: float = 0.0
    down_loss: float = 0.0
    up_loss: float = 0.0
    down_mean_delay: float = 0.0
    up_mean_delay: float = 0.0
    down_max_delay: float = 0.0
    up_max_delay: float = 0.0
    concurrent_flows: float = 0.0
    completed_transfers: int = 0
    down_utilization_samples: list = field(default_factory=list)
    up_utilization_samples: list = field(default_factory=list)


def run_qos_cell(scenario, buffer_packets, warmup=5.0, duration=30.0,
                 seed=0):
    """Run background traffic alone and measure the bottleneck QoS.

    ``warmup``/``duration`` are simulated seconds.  Returns a
    :class:`QosReport` with utilization (mean and per-second samples),
    loss and queueing delay for both bottleneck directions.
    """
    import numpy as np

    sim, network, workload = warm_up(scenario, buffer_packets, warmup, seed)
    network.reset_measurements()
    workload.reset_measurements()
    down_sampler = UtilizationSampler(sim, network.down_bottleneck, 1.0)
    up_sampler = UtilizationSampler(sim, network.up_bottleneck, 1.0)
    down_sampler.start()
    up_sampler.start()
    sim.run(until=warmup + duration)
    down_sampler.stop()
    up_sampler.stop()

    down, up = network.bottlenecks()
    down_queue, up_queue = down.queue.stats, up.queue.stats
    report = QosReport(
        scenario=str(scenario),
        buffer_packets=buffer_packets,
        duration=duration,
        down_utilization=down.utilization(),
        up_utilization=up.utilization(),
        down_loss=down_queue.loss_rate,
        up_loss=up_queue.loss_rate,
        down_mean_delay=down_queue.mean_delay,
        up_mean_delay=up_queue.mean_delay,
        down_max_delay=down_queue.delay_max,
        up_max_delay=up_queue.delay_max,
        concurrent_flows=workload.mean_concurrent_flows(),
        completed_transfers=workload.completed_transfers(),
        down_utilization_samples=list(down_sampler.samples),
        up_utilization_samples=list(up_sampler.samples),
    )
    if report.down_utilization_samples:
        report.down_utilization_sd = float(np.std(report.down_utilization_samples))
    if report.up_utilization_samples:
        report.up_utilization_sd = float(np.std(report.up_utilization_samples))
    workload.stop()
    return report
