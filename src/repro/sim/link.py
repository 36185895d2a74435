"""Store-and-forward links.

One direction of a bottleneck link is an output queue, a serializer
running at ``rate_bps`` and a propagation delay to the receiving node.
Buffers under study live in the bottleneck queues; all QoS measurements
(utilization, loss, queueing delay) are taken there.

A :class:`DropTailLink`, for a plain drop-tail FIFO (the paper's
buffers), computes the serializer in closed form: a FIFO that drops only
at the tail knows a packet's departure time the moment it accepts it.
The arrival decides drop or accept and hands the packet straight to its
next hop, so the bottleneck adds no event of its own.  Its counters are
replayed lazily, in FIFO order, before every read.  The tests check it,
float for float, against an event-driven link with one event per
serialized packet (``tests/reference_link.py``).

An :class:`EdgeLink` models one direction of a host<->router edge link,
which never drops and whose counters nothing reads: it computes its
FIFO serializer in closed form and costs one event per packet (the
arrival).
"""

from heapq import heappush

from repro.sim.queues import DropTailQueue

_INF = float("inf")


class LinkStats:
    """Resettable transmit counters for one link direction."""

    __slots__ = ("tx_packets", "tx_bytes", "window_start")

    def __init__(self):
        self.reset(0.0)

    def reset(self, now):
        self.tx_packets = 0
        self.tx_bytes = 0
        self.window_start = now

    def utilization(self, rate_bps, now):
        """Mean utilization over the current measurement window."""
        elapsed = now - self.window_start
        if elapsed <= 0:
            return 0.0
        return min(1.0, (self.tx_bytes * 8.0) / (rate_bps * elapsed))


#: Started packets a :class:`DropTailLink` lets accumulate before it
#: replays their counters; bounds its log to ``capacity + 256`` records.
_REPLAY_BATCH = 256


class DropTailLink:
    """One direction of a drop-tail bottleneck, in closed form.

    Takes a plain :class:`repro.sim.queues.DropTailQueue` and produces
    the drops, departures and counters of an event-driven FIFO
    serializer, float for float, with no event of its own.  A packet
    offered at ``now`` (its arrival event at the router) is handled there
    and then:

    1. Every waiting packet whose service started before ``now`` is
       retired; the others are what the event-driven queue would hold.
    2. The packet is dropped if as many packets wait as the queue holds.
    3. Otherwise it starts at ``max(now, free)`` and finishes
       ``size * 8.0 / rate`` later, where ``free`` is when the previous
       packet finishes.
    4. The packet enters its next hop: the egress
       :class:`EdgeLink` at ``finish + prop_delay`` (finishes rise in
       FIFO order, so entries stay in time order), or else the receiving
       node's ``receive`` event at that time.

    **Tie rule.**  The engine orders equal-time events by when they were
    scheduled.  When an arrival falls at exactly the time a packet
    finishes, the event-driven completion goes first iff it was
    scheduled (when the finishing packet started) no later than the
    arrival (when the packet entered its upstream edge link, stamped as
    ``packet.scheduled_at`` by :meth:`EdgeLink.send_at`).  The same rule
    decides which completions a :class:`repro.sim.stats.UtilizationSampler`
    tick sees (:meth:`stats_at`).

    **Counters replayed on read.**  Accept and drop counts are kept at
    once; dequeues, sojourn times, transmit counters (a packet in
    flight across :meth:`reset_stats` counts only the part of its
    serialization inside the new window) and the egress node's
    ``forwarded`` count are logged per accepted packet and replayed, in
    FIFO order, up to the current time before every reader:
    :attr:`stats`, :attr:`queue`, :meth:`stats_at`,
    :meth:`utilization`, :meth:`reset_stats`, :meth:`backlog` and the
    node's ``forwarded``.  Read them between runs (or, like the sampler,
    through :meth:`stats_at`).  :attr:`queue` is the ``DropTailQueue``
    the link was built with: it carries the capacity and the statistics,
    but packets do not pass through it.  A waiting packet is held by the
    arrival event of its next hop.
    """

    __slots__ = ("sim", "name", "rate_bps", "prop_delay", "dst_node",
                 "_queue", "_capacity", "_stats", "_deliver_cb", "_free",
                 "_log", "_head", "_dequeued", "_done")

    def __init__(self, sim, name, rate_bps, prop_delay, queue, dst_node):
        if type(queue) is not DropTailQueue:
            raise TypeError("DropTailLink needs a DropTailQueue, got %r"
                            % (queue,))
        self.sim = sim
        self.name = name
        self.rate_bps = float(rate_bps)
        self.prop_delay = float(prop_delay)
        self.dst_node = dst_node
        self._queue = queue
        self._capacity = queue.capacity_packets
        self._stats = LinkStats()
        self._deliver_cb = dst_node.receive
        dst_node._lazy_links.append(self)  # its forwarded count reads ours
        self._free = 0.0  # when the last accepted packet finishes
        # One (start, finish, size, sojourn, to_edge) record per accepted
        # packet, in FIFO order.  Cursors: records before _head have
        # started, before _dequeued have had their dequeue counted, and
        # before _done their completion; _done <= _dequeued <= _head.
        self._log = []
        self._head = self._dequeued = self._done = 0

    def _retire(self, now, sched):
        """Advance past the packets whose service has started, as an
        event scheduled at ``sched`` and firing at ``now`` sees them;
        returns the index of the first one still waiting."""
        log = self._log
        count = len(log)
        head = self._head
        while head < count:
            start = log[head][0]  # starts rise in FIFO order
            if start >= now and (start > now
                                 or not self._started_first(head, sched)):
                break
            head += 1
        self._head = head
        return head

    def _started_first(self, index, sched):
        """Tie rule: did the packet at ``index``, starting exactly now,
        start before an event scheduled at ``sched`` that also fires now?

        It did if it started on its own arrival (on an idle link), or if
        the completion that started it was scheduled, when its
        predecessor started, no later than ``sched``.
        """
        if index == 0:
            return True  # the first packet starts on its arrival
        log = self._log
        prev_start, prev_finish = log[index - 1][:2]
        return log[index][0] != prev_finish or prev_start <= sched

    # ------------------------------------------------------------------
    # The arrival below runs once per offered packet.  It open-codes the
    # engine's heap push for a next hop that is not an edge link (keep
    # in lock-step with :class:`repro.sim.engine.Simulator`).
    def send(self, packet):
        """Offer ``packet`` now; returns False when the queue drops it."""
        sim = self.sim
        now = sim.now
        log = self._log
        count = len(log)
        head = self._retire(now, packet.scheduled_at)
        size = packet.size
        qstats = self._queue.stats
        if count - head >= self._capacity:
            qstats.dropped += 1
            qstats.bytes_dropped += size
            return False
        qstats.enqueued += 1
        qstats.bytes_enqueued += size
        start = self._free
        if now > start:
            start = now
        self._free = finish = start + (size * 8.0) / self.rate_bps
        edge = self.dst_node.routes.get(packet.dst)
        to_edge = edge.__class__ is EdgeLink
        if to_edge:
            edge.send_at(packet, finish + self.prop_delay)
        else:
            sim._seq = seq = sim._seq + 1
            heappush(sim._heap, [finish + self.prop_delay, seq,
                                 self._deliver_cb, packet])
            sim._live += 1
        log.append((start, finish, size, start - now, to_edge))
        if head - self._done >= _REPLAY_BATCH:
            self.replay(packet.scheduled_at)
        return True

    def replay(self, sched=_INF):
        """Count the dequeues and completions due by now, in FIFO order.

        They are counted as an event scheduled at ``sched`` and firing
        now sees them; the default, between runs, counts every one up to
        and including now.
        """
        now = self.sim.now
        log = self._log
        head = self._retire(now, sched)

        index = self._dequeued
        if index < head:
            qstats = self._queue.stats
            delay_sum = qstats.delay_sum
            delay_max = qstats.delay_max
            bytes_dequeued = qstats.bytes_dequeued
            for __, __, size, sojourn, __ in log[index:head]:
                bytes_dequeued += size
                delay_sum += sojourn
                if sojourn > delay_max:
                    delay_max = sojourn
            qstats.dequeued += head - index
            qstats.delay_samples += head - index
            qstats.bytes_dequeued = bytes_dequeued
            qstats.delay_sum = delay_sum
            qstats.delay_max = delay_max
            self._dequeued = head

        index = done = self._done
        if index == head:
            return
        stats = self._stats
        window_start = stats.window_start
        tx_bytes = stats.tx_bytes
        forwarded = 0
        while index < head:
            start, finish, size, __, to_edge = log[index]
            if finish >= now and (finish > now or start > sched):
                break
            # A packet in flight across a reset_stats() only counts for
            # the part of its serialization inside the new window;
            # crediting the whole size would overstate post-warm-up
            # utilization on slow links.
            tx_time = finish - start
            if start < window_start:
                start = window_start
            if tx_time > 0.0:
                tx_bytes += size * (finish - start) / tx_time
            else:
                tx_bytes += size
            if to_edge:
                forwarded += 1
            index += 1
        stats.tx_packets += index - done
        stats.tx_bytes = tx_bytes
        self.dst_node._forwarded += forwarded
        self._done = index
        if index > _REPLAY_BATCH:
            # Keep the last completed record: the tie rule reads the
            # predecessor of the first unstarted one.
            cut = index - 1
            del log[:cut]
            self._head -= cut
            self._dequeued -= cut
            self._done -= cut

    # ------------------------------------------------------------------
    @property
    def stats(self):
        """Transmit counters (:class:`LinkStats`), replayed up to now."""
        self.replay()
        return self._stats

    def stats_at(self, sched):
        """Transmit counters as an event scheduled at ``sched``, firing
        now, sees them (the tie rule above)."""
        self.replay(sched)
        return self._stats

    @property
    def queue(self):
        """The ``DropTailQueue`` (capacity and statistics), replayed up to now."""
        self.replay()
        return self._queue

    def reset_stats(self):
        """Zero both link and queue measurement counters (post warm-up)."""
        self.replay()
        self._stats.reset(self.sim.now)
        self._queue.stats.reset()

    def utilization(self):
        """Utilization since the last :meth:`reset_stats`."""
        return self.stats.utilization(self.rate_bps, self.sim.now)

    def backlog(self):
        """``(waiting, in_service)`` now: packets waiting for the
        serializer, and 1 while one is being serialized."""
        self.replay()
        return len(self._log) - self._head, int(self._done < self._head)

    def __repr__(self):
        return "DropTailLink(%s, %.0f bit/s, backlog=%r)" % (
            self.name, self.rate_bps, self.backlog())


class EdgeLink:
    """One direction of a host<->router edge link, in closed form.

    Edge links are the paper's delay boxes: they never drop and nothing
    reads their counters.  A packet entering at time ``t`` starts
    serializing at ``max(t, free)``, where ``free`` is when the previous
    packet finishes, and arrives at the receiving node ``prop_delay``
    after it finishes.  These are the same floats an event-driven
    serializer produces for a FIFO that never drops, but only the
    arrival is an event, and its sequence number is drawn
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

        Stamps ``packet.scheduled_at`` with the current time, when the
        arrival at the receiving node is scheduled (the tie rule of
        :class:`DropTailLink` reads it).  Open-codes the engine's heap
        push (the same ``[time, seq, fn, args]`` entries; keep in
        lock-step with :class:`repro.sim.engine.Simulator`); runs once
        per packet per edge hop.
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
        packet.scheduled_at = sim.now
        sim._seq = seq = sim._seq + 1
        heappush(sim._heap,
                 [free + self.prop_delay, seq, self._deliver_cb, packet])
        sim._live += 1

    def __repr__(self):
        return "EdgeLink(%s, %.0f bit/s)" % (self.name, self.rate_bps)
