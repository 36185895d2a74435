"""Store-and-forward output interfaces.

An :class:`Interface` models one *direction* of a link: an output queue,
a serializer running at ``rate_bps`` and a propagation delay to the
receiving node.  Buffers under study live in the queue attached to the
bottleneck interfaces; all QoS measurements (utilization, loss, queueing
delay) are taken here.

An :class:`EdgeLink` models one direction of a host<->router edge link,
which never drops and whose counters nothing reads: it computes its
FIFO serializer in closed form and costs one event per packet (the
arrival), where an :class:`Interface` costs two.

An interface may additionally model a lossy channel (``loss_rate``):
each successfully serialized packet is then dropped *on the wire* with
that probability, independently of the queue.  This approximates a
wireless-like access link where corruption loss is unrelated to
congestion.  The loss process is driven by a private generator seeded
from the interface name, so results stay bit-identical across runs and
worker processes.
"""

import hashlib
import random
from heapq import heappush


def _stable_seed(name):
    """Process-independent integer seed derived from an interface name."""
    digest = hashlib.sha256(name.encode("utf-8")).hexdigest()
    return int(digest[:16], 16)


class InterfaceStats:
    """Resettable transmit counters for one interface."""

    __slots__ = ("tx_packets", "tx_bytes", "busy_time", "window_start")

    def __init__(self, now=0.0):
        self.reset(now)

    def reset(self, now=0.0):
        self.tx_packets = 0
        self.tx_bytes = 0
        self.busy_time = 0.0
        self.window_start = now

    def utilization(self, rate_bps, now):
        """Mean utilization over the current measurement window."""
        elapsed = now - self.window_start
        if elapsed <= 0:
            return 0.0
        return min(1.0, (self.tx_bytes * 8.0) / (rate_bps * elapsed))


class Interface:
    """One direction of a point-to-point link.

    Hot-path notes: the serializer chain (``send`` → ``_tx_done``) runs
    once per packet and open-codes both the engine's scheduling and the
    start-of-next-transmission logic; packets lost on the wire are
    returned to the :mod:`repro.sim.packet` pool here, delivered
    packets by the receiving node.  A serialized packet whose next hop
    would forward it onto an :class:`EdgeLink` enters that edge link
    directly, at its arrival time (egress cut-through: the forwarding
    node's receive event is skipped).

    Parameters
    ----------
    sim:
        The driving :class:`repro.sim.engine.Simulator`.
    name:
        Diagnostic label, e.g. ``"homerouter->dslam"``.
    rate_bps:
        Serialization rate in bit/s.
    prop_delay:
        One-way propagation delay in seconds.
    queue:
        A :class:`repro.sim.queues.Queue` holding packets awaiting
        serialization.  The buffer size under study is this queue's
        capacity.
    dst_node:
        Receiving :class:`repro.sim.node.Node` (set later via
        :meth:`connect` if not known at construction).
    loss_rate:
        Probability in ``[0, 1]`` that a serialized packet is lost on
        the wire (wireless-like corruption loss); 0.0 models a clean
        wire.  Lost packets still consume serialization time and count
        as transmitted in the interface statistics — they vanish between
        the sender and the receiver, as on a real radio link — and are
        tallied in :attr:`wire_drops`.
    """

    __slots__ = ("sim", "name", "rate_bps", "prop_delay", "queue",
                 "dst_node", "loss_rate", "wire_drops", "_loss_rng",
                 "stats", "_busy", "_tx_started", "_tx_done_cb",
                 "_deliver_cb", "_q_push", "_q_pop")

    def __init__(self, sim, name, rate_bps, prop_delay, queue, dst_node=None,
                 loss_rate=0.0):
        self.sim = sim
        self.name = name
        self.rate_bps = float(rate_bps)
        self.prop_delay = float(prop_delay)
        self.queue = queue
        self.dst_node = dst_node
        self.loss_rate = float(loss_rate)
        if not 0.0 <= self.loss_rate < 1.0:
            raise ValueError("loss_rate must be in [0, 1), got %r"
                             % (loss_rate,))
        #: Packets lost on the wire (corruption, not queue overflow).
        self.wire_drops = 0
        self._loss_rng = (random.Random(_stable_seed(name))
                         if self.loss_rate > 0.0 else None)
        self.stats = InterfaceStats()
        self._busy = False
        self._tx_started = 0.0
        # Bound-method caches: creating a bound method per scheduled
        # event (or per queue operation) is measurable at packet rates.
        self._tx_done_cb = self._tx_done
        self._deliver_cb = dst_node.receive if dst_node is not None else None
        self._q_push = queue.push
        self._q_pop = queue.pop

    def connect(self, dst_node):
        """Attach the receiving node."""
        self.dst_node = dst_node
        self._deliver_cb = dst_node.receive if dst_node is not None else None

    # ------------------------------------------------------------------
    # The send/_tx_done pair below runs once per packet — with
    # EdgeLink.send_at, the hottest path in the simulator.  It
    # open-codes the engine's ``call_later`` (same ``[time, seq, fn,
    # args]`` entries, same sequence-number order, no negative delays
    # possible here), so keep it in lock-step with
    # :class:`repro.sim.engine.Simulator`.
    def send(self, packet):
        """Queue ``packet`` for transmission; start the serializer if idle.

        Returns False when the queue dropped the packet.
        """
        sim = self.sim
        now = sim.now
        accepted = self._q_push(packet, now)
        if accepted and not self._busy:
            packet = self._q_pop(now)
            if packet is not None:
                self._busy = True
                self._tx_started = now
                sim._seq = seq = sim._seq + 1
                heappush(sim._heap,
                         [now + (packet.size * 8.0) / self.rate_bps, seq,
                          self._tx_done_cb, packet])
                sim._live += 1
        return accepted

    def _tx_done(self, packet):
        sim = self.sim
        now = sim.now
        stats = self.stats
        stats.tx_packets += 1
        # A packet in flight across a reset_stats() only counts for the part
        # of its serialization inside the new window; crediting the whole
        # size would overstate post-warm-up utilization on slow links.
        started = self._tx_started
        tx_time = now - started
        if started < stats.window_start:
            started = stats.window_start
        if tx_time > 0.0:
            stats.tx_bytes += packet.size * (now - started) / tx_time
        else:
            stats.tx_bytes += packet.size
        stats.busy_time += now - started
        if self._loss_rng is not None and self._loss_rng.random() < self.loss_rate:
            self.wire_drops += 1
            packet.release()
        elif self._deliver_cb is not None:
            node = self.dst_node
            edge = node.routes.get(packet.dst)
            if edge.__class__ is EdgeLink:
                # Egress cut-through: the packet would only be forwarded
                # onto the edge link on arrival, so it enters it now, at
                # its arrival time.
                node.forwarded += 1
                edge.send_at(packet, now + self.prop_delay)
            else:
                sim._seq = seq = sim._seq + 1
                heappush(sim._heap,
                         [now + self.prop_delay, seq, self._deliver_cb,
                          packet])
                sim._live += 1
        # Start serializing the next queued packet (inline _start_next:
        # this tail runs once per transmitted packet).
        packet = self._q_pop(now)
        if packet is None:
            self._busy = False
            return
        self._tx_started = now
        sim._seq = seq = sim._seq + 1
        heappush(sim._heap,
                 [now + (packet.size * 8.0) / self.rate_bps, seq,
                  self._tx_done_cb, packet])
        sim._live += 1

    # ------------------------------------------------------------------
    @property
    def busy(self):
        """True while a packet is being serialized."""
        return self._busy

    def reset_stats(self):
        """Zero both interface and queue measurement counters (post warm-up)."""
        self.stats.reset(self.sim.now)
        self.queue.stats.reset()

    def utilization(self):
        """Utilization since the last :meth:`reset_stats`."""
        return self.stats.utilization(self.rate_bps, self.sim.now)

    def serialization_delay(self, nbytes):
        """Time to serialize ``nbytes`` at this interface's rate."""
        return (nbytes * 8.0) / self.rate_bps

    def __repr__(self):
        return "Interface(%s, %.0f bit/s, q=%d)" % (
            self.name,
            self.rate_bps,
            len(self.queue),
        )


class EdgeLink:
    """One direction of a host<->router edge link, in closed form.

    Edge links are the paper's delay boxes: they never drop and nothing
    reads their counters.  A packet entering at time ``t`` starts
    serializing at ``max(t, free)``, where ``free`` is when the previous
    packet finishes, and arrives at the receiving node ``prop_delay``
    after it finishes.  These are the same floats the event-driven
    :class:`Interface` serializer produces for a FIFO that never drops,
    but only the arrival is an event, and its sequence number is drawn
    at entry rather than at serializer completion.  A packet on an edge
    link is therefore held only by its arrival's heap entry.

    Entries must come in time order (they do when one feeder sends into
    the link, as in the dumbbell topologies); :meth:`send_at` raises
    ``ValueError`` otherwise.
    """

    __slots__ = ("sim", "name", "rate_bps", "prop_delay", "dst_node",
                 "_deliver_cb", "_free", "_entered")

    def __init__(self, sim, name, rate_bps, prop_delay, dst_node):
        self.sim = sim
        self.name = name
        self.rate_bps = float(rate_bps)
        self.prop_delay = float(prop_delay)
        self.dst_node = dst_node
        self._deliver_cb = dst_node.receive
        self._free = 0.0  # when the serializer finishes its last packet
        self._entered = 0.0  # entry time of the last packet

    def send(self, packet):
        """Enter ``packet`` now; an edge link accepts every packet."""
        self.send_at(packet, self.sim.now)
        return True

    def send_at(self, packet, time):
        """Enter ``packet`` at ``time`` (not earlier than the last entry).

        Open-codes the engine's ``call_at`` (keep in lock-step with
        :class:`repro.sim.engine.Simulator`); runs once per packet per
        edge hop.
        """
        if time < self._entered:
            raise ValueError(
                "%s: entry at %.9f precedes the previous entry at %.9f"
                % (self.name, time, self._entered))
        self._entered = time
        free = self._free
        if time > free:
            free = time
        self._free = free = free + (packet.size * 8.0) / self.rate_bps
        sim = self.sim
        sim._seq = seq = sim._seq + 1
        heappush(sim._heap,
                 [free + self.prop_delay, seq, self._deliver_cb, packet])
        sim._live += 1

    def __repr__(self):
        return "EdgeLink(%s, %.0f bit/s)" % (self.name, self.rate_bps)
