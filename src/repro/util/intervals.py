"""Half-open integer interval sets.

Used by the TCP receive path to track out-of-order byte ranges: the
receiver records every arriving ``[seq, seq + len)`` segment and asks for
the length of the contiguous prefix above ``rcv_nxt``.

The implementation keeps a sorted list of disjoint, non-adjacent
``(start, end)`` pairs and merges on insert.  Typical reassembly queues
hold only a handful of holes, so a list with :mod:`bisect` is both simple
and fast.
"""

import bisect


class IntervalSet:
    """A set of integers represented as disjoint half-open intervals."""

    def __init__(self, intervals=None):
        # Sorted, disjoint, non-adjacent list of [start, end) pairs.
        self._ivals = []
        if intervals:
            for start, end in intervals:
                self.add(start, end)

    def add(self, start, end):
        """Insert the half-open interval ``[start, end)``.

        Overlapping and adjacent intervals are merged.  Empty intervals
        are ignored.
        """
        if end <= start:
            return
        ivals = self._ivals
        # Find insertion window: all intervals with end >= start can merge.
        lo = bisect.bisect_left(ivals, (start,)) if ivals else 0
        # Step back if the previous interval touches/overlaps [start, end).
        if lo > 0 and ivals[lo - 1][1] >= start:
            lo -= 1
        hi = lo
        new_start, new_end = start, end
        while hi < len(ivals) and ivals[hi][0] <= end:
            new_start = min(new_start, ivals[hi][0])
            new_end = max(new_end, ivals[hi][1])
            hi += 1
        ivals[lo:hi] = [(new_start, new_end)]

    def contiguous_end(self, start):
        """Return the end of the contiguous run beginning at ``start``.

        If ``start`` is not covered, return ``start`` itself.  This is the
        core TCP reassembly query: ``rcv_nxt = set.contiguous_end(rcv_nxt)``.
        """
        ivals = self._ivals
        idx = bisect.bisect_right(ivals, (start, float("inf"))) - 1
        if idx >= 0 and ivals[idx][0] <= start <= ivals[idx][1]:
            return ivals[idx][1]
        return start

    def prune_below(self, cutoff):
        """Discard all content below ``cutoff`` (delivered bytes).

        O(dropped prefix), not O(n): intervals are sorted and disjoint,
        so only a leading run can fall below ``cutoff`` and only the
        first survivor can straddle it.  The TCP receive path calls this
        once per data segment during loss recovery — with a rebuilt-list
        implementation this was quadratic in the number of holes.
        """
        ivals = self._ivals
        drop = 0
        n = len(ivals)
        while drop < n and ivals[drop][1] <= cutoff:
            drop += 1
        if drop:
            del ivals[:drop]
        if ivals and ivals[0][0] < cutoff:
            ivals[0] = (cutoff, ivals[0][1])

    def __len__(self):
        return len(self._ivals)

    def __iter__(self):
        return iter(self._ivals)

    def __contains__(self, value):
        ivals = self._ivals
        idx = bisect.bisect_right(ivals, (value, float("inf"))) - 1
        return idx >= 0 and ivals[idx][0] <= value < ivals[idx][1]

    def __repr__(self):
        return "IntervalSet(%r)" % (self._ivals,)
