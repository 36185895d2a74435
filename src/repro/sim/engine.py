"""Discrete-event simulation engine.

A minimal, fast event loop: a binary heap of timestamped callbacks.  The
whole reproduction — links, TCP timers, media sources — is driven by this
single clock, which makes experiments exactly reproducible.

Design notes
------------
* Heap entries are plain 4-item lists ``[time, seq, fn, args]``.  The
  monotonically increasing sequence number makes the ordering of
  simultaneous events deterministic (FIFO in scheduling order) and —
  because ``(time, seq)`` is unique — heap comparisons never reach the
  callback, so they run entirely in C.  This is the engine's hot path:
  no per-event wrapper object is allocated anywhere.  ``args`` is
  normally an argument tuple; as a further fast path for the sim core's
  open-coded scheduling sites, a non-tuple ``args`` value is passed as
  the callback's single positional argument (``fn(args)``), skipping
  one tuple allocation and unpack per event.
* Cancellation marks the entry in place (``entry[2] = None``) and is
  skipped when popped.  This refines the classic lazy-deletion side-set:
  cancel stays O(1), the hot pop path pays one identity test instead of
  a set lookup, and a live-event counter makes :meth:`Simulator.pending`
  O(1) as well.  The run loop also marks entries as it executes them,
  so cancelling an already-fired event is an exact no-op.
* There are two ways to schedule.  :meth:`Simulator.call_later` (and
  its batch form :meth:`Simulator.schedule_many`, for sources with a
  precomputed transmission plan) pushes a callback nobody can cancel.
  A :class:`Timer` is the cancellable one: the restartable timeout of
  TCP retransmission and delayed ACKs, and of the utilization sampler.
  It works on raw heap entries, so a per-ACK restart allocates nothing
  but the entry itself.  The sim core's hottest sites (link
  serialization, packet delivery) open-code the ``call_later`` push.
"""

from heapq import heappop, heappush

_INFINITY = float("inf")

#: Cumulative events executed by every Simulator in this process — perf
#: accounting for ``python -m repro perf`` (updated once per ``run()``
#: call, not per event).
_total_events = 0


def total_events():
    """Process-wide executed-event count (see :mod:`repro.perf.bench`)."""
    return _total_events


class SimTimeError(ValueError):
    """Raised when an event is scheduled in the past."""


class Simulator:
    """The event loop.  All times are seconds on a simulated clock."""

    def __init__(self):
        self.now = 0.0
        self._heap = []
        self._seq = 0
        self._live = 0  # non-cancelled entries still in the heap

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def call_later(self, delay, fn, *args):
        """Schedule ``fn(*args)`` after ``delay`` seconds.

        Nothing can cancel the call; arm a :class:`Timer` for a timeout
        that may be cancelled or restarted.
        """
        time = self.now + delay
        if time < self.now:
            raise SimTimeError(
                "cannot schedule at %.9f; clock already at %.9f" % (time, self.now)
            )
        self._seq = seq = self._seq + 1
        heappush(self._heap, [time, seq, fn, args])
        self._live += 1

    def schedule_many(self, events):
        """Batch-schedule ``(delay, fn, args)`` triples; returns None.

        Equivalent to ``for delay, fn, args in events: call_later(...)``
        — same sequence numbers, same FIFO tie-breaking — but with the
        per-call overhead hoisted out of the loop.  Media sources with a
        precomputed transmission plan (video pacing, staggered flow
        launches, session start ticks) push hundreds of events at once
        through this.
        """
        now = self.now
        heap = self._heap
        push = heappush
        seq = self._seq
        count = 0
        try:
            for delay, fn, args in events:
                time = now + delay
                if time < now:
                    raise SimTimeError(
                        "cannot schedule at %.9f; clock already at %.9f"
                        % (time, now)
                    )
                seq += 1
                push(heap, [time, seq, fn, args])
                count += 1
        finally:
            self._seq = seq
            self._live += count

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, until=None):
        """Run events until the heap drains or the next one is past ``until``.

        Returns the number of events executed.  When ``until`` is given the
        clock is advanced to ``until`` even if the heap drained earlier, so
        that back-to-back ``run`` calls behave like one continuous run.
        """
        global _total_events
        heap = self._heap
        pop = heappop
        tuple_type = tuple
        limit = _INFINITY if until is None else until
        executed = 0
        while heap:
            # Pop-first: cheaper than peek-then-pop on the hot path; the
            # rare beyond-limit entry is pushed back (once per run call).
            entry = pop(heap)
            time = entry[0]
            if time > limit:
                heappush(heap, entry)
                break
            fn = entry[2]
            if fn is None:
                continue  # cancelled; lazily discarded
            self.now = time
            entry[2] = None  # mark executed: cancel() becomes a no-op
            self._live -= 1
            args = entry[3]
            if type(args) is tuple_type:
                fn(*args)
            else:
                fn(args)  # scalar-arg fast path (see module docstring)
            executed += 1
        if until is not None and until > self.now:
            self.now = until
        _total_events += executed
        return executed

    def pending(self):
        """Number of live (non-cancelled) events still queued — O(1)."""
        return self._live

    def live_calls(self):
        """Yield ``(fn, args)`` of every live queued event, in heap order.

        A read-only view for inspecting what is still pending (e.g. which
        packets are serializing or propagating); it schedules nothing.
        """
        for entry in self._heap:
            fn = entry[2]
            if fn is not None:
                yield fn, entry[3]

    def __repr__(self):
        return "Simulator(now=%.6f, pending=%d)" % (self.now, self._live)


class Timer:
    """A restartable one-shot timer bound to a simulator.

    Wraps the schedule/cancel/reschedule dance of protocol timers::

        timer = Timer(sim, self._on_rto)
        timer.start(1.0)     # arm
        timer.restart(2.0)   # re-arm, cancelling the armed deadline
        timer.cancel()       # disarm

    Works on raw heap entries, so the per-ACK RTO restart of every TCP
    connection costs one list and nothing on top.
    """

    __slots__ = ("_sim", "_fn", "_entry", "_cb")

    def __init__(self, sim, fn):
        self._sim = sim
        self._fn = fn
        self._entry = None
        self._cb = self._fire  # bound once; restart runs per ACK

    @property
    def active(self):
        """True while the timer is armed and has not fired."""
        entry = self._entry
        return entry is not None and entry[2] is not None

    def start(self, delay):
        """Arm the timer; raises if already armed (use restart)."""
        entry = self._entry
        if entry is not None and entry[2] is not None:  # inline .active
            raise RuntimeError("timer already armed")
        self.restart(delay)

    def restart(self, delay):
        """Arm the timer, cancelling any armed deadline first.

        Inlines cancel + arm: TCP restarts its RTO timer on every ACK.
        """
        sim = self._sim
        entry = self._entry
        if entry is not None and entry[2] is not None:
            entry[2] = None
            sim._live -= 1
        time = sim.now + delay
        if time < sim.now:
            raise SimTimeError(
                "cannot schedule at %.9f; clock already at %.9f"
                % (time, sim.now)
            )
        sim._seq = seq = sim._seq + 1
        entry = [time, seq, self._cb, ()]
        heappush(sim._heap, entry)
        sim._live += 1
        self._entry = entry

    def cancel(self):
        """Disarm the timer (idempotent)."""
        entry = self._entry
        if entry is not None:
            if entry[2] is not None:
                entry[2] = None
                self._sim._live -= 1
            self._entry = None

    def _fire(self):
        self._entry = None
        self._fn()
