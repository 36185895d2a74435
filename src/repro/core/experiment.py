"""Single-cell experiment runners.

A "cell" is one (scenario, buffer size) combination — one cell of the
paper's heatmaps.  :func:`run_qos_cell` measures the background traffic
itself (Section 6 / Table 1 / Figures 4-5); the per-application QoE
runners live next to their applications and reuse the same build/warm-up
machinery via :func:`build_network`, and the end-of-run settle rule via
:func:`run_until_settled`.
"""

from dataclasses import dataclass, field

from repro.core.workloads import apply_workload
from repro.sim.engine import Simulator
from repro.sim.packet import Packet
from repro.sim.stats import UtilizationSampler, five_number_summary
from repro.sim.topology import AccessNetwork, BackboneNetwork

#: Default measurement windows (seconds, simulated).  The paper measures
#: for two hours; shapes stabilize within tens of seconds in simulation.
DEFAULT_WARMUP = 5.0
DEFAULT_DURATION = 30.0

#: Simulated seconds between checks whether finished media have settled.
SETTLE_STEP = 0.05


def build_network(scenario, buffer_packets, sim=None, queue_factory=None):
    """Build the testbed network a scenario calls for.

    ``buffer_packets`` is either a single size applied to both bottleneck
    directions (the paper's sweeps) or a ``(down, up)`` tuple — Table 1's
    QoS baseline uses per-direction BDP buffers (64 down, 8 up).
    """
    if sim is None:
        sim = Simulator()
    if isinstance(buffer_packets, tuple):
        down_packets, up_packets = buffer_packets
    else:
        down_packets = up_packets = buffer_packets
    if scenario.testbed == "access":
        network = AccessNetwork(
            sim,
            down_buffer_packets=down_packets,
            up_buffer_packets=up_packets,
            queue_factory=queue_factory,
            down_loss=scenario.down_loss,
            up_loss=scenario.up_loss,
        )
    elif scenario.testbed == "backbone":
        network = BackboneNetwork(
            sim, buffer_packets=down_packets, queue_factory=queue_factory,
            down_loss=scenario.down_loss, up_loss=scenario.up_loss)
    else:
        raise ValueError("unknown testbed %r" % (scenario.testbed,))
    return sim, network


def settled(legs, interfaces):
    """True once nothing pending can still reach a receiver of ``legs``.

    A leg is a media stream or call leg with ``sim``, ``dst_node`` and
    ``port`` (:class:`repro.apps.video.VideoStream`,
    :class:`repro.apps.voip.VoipCall`).  Settled means: no live event is
    a bound method of a leg (a pending send or ARQ check), and no packet
    addressed to a receiver's (address, port) waits in the queue of one
    of ``interfaces`` or in an event (serializing, propagating, or on an
    edge link, where only the arrival event holds it).  From then on the
    receivers get no further arrival, so every leg's outcome is final.
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
    return not any(to_receiver(packet) for interface in interfaces
                   for packet in interface.queue)


def run_until_settled(legs, interfaces, until, end):
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
    while until < end and not settled(legs, interfaces):
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

    def down_utilization_boxplot(self):
        """Five-number summary of per-second downlink utilization."""
        return five_number_summary(self.down_utilization_samples)

    def up_utilization_boxplot(self):
        """Five-number summary of per-second uplink utilization."""
        return five_number_summary(self.up_utilization_samples)


def run_qos_cell(scenario, buffer_packets, warmup=DEFAULT_WARMUP,
                 duration=DEFAULT_DURATION, seed=0, queue_factory=None):
    """Run background traffic alone and measure the bottleneck QoS.

    Returns a :class:`QosReport` with utilization (mean and per-second
    samples), loss and queueing delay for both bottleneck directions.
    """
    import numpy as np

    sim, network = build_network(scenario, buffer_packets,
                                 queue_factory=queue_factory)
    workload = apply_workload(sim, network, scenario, seed=seed)
    sim.run(until=warmup)
    network.reset_measurements()
    workload.reset_measurements()
    down_sampler = UtilizationSampler(sim, network.down_bottleneck, 1.0)
    up_sampler = UtilizationSampler(sim, network.up_bottleneck, 1.0)
    down_sampler.start()
    up_sampler.start()
    sim.run(until=warmup + duration)
    down_sampler.stop()
    up_sampler.stop()

    report = QosReport(
        scenario=str(scenario),
        buffer_packets=buffer_packets,
        duration=duration,
        down_utilization=network.down_bottleneck.utilization(),
        up_utilization=network.up_bottleneck.utilization(),
        down_loss=network.down_bottleneck.queue.stats.loss_rate,
        up_loss=network.up_bottleneck.queue.stats.loss_rate,
        down_mean_delay=network.down_bottleneck.queue.stats.mean_delay,
        up_mean_delay=network.up_bottleneck.queue.stats.mean_delay,
        down_max_delay=network.down_bottleneck.queue.stats.delay_max,
        up_max_delay=network.up_bottleneck.queue.stats.delay_max,
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
