"""Per-layer measurement from outside the program.

:class:`Tracer` wraps public functions under the name their callers look
them up by (``repro.core.video_study.ssim_sequence``, not
``repro.qoe.ssim.ssim_sequence``), records one span per call in memory
and puts every original back when it exits.  Spans carry the request
(cell index) they belong to and the span that was open when they began.

:func:`module_shares` turns a cProfile run into self-time shares grouped
by the program's modules.
"""

import importlib
import os
import pstats
import time
from collections import defaultdict
from contextlib import contextmanager
from functools import wraps

#: Wrapped once per cell pass: ``(target, layer)``.  A target is
#: ``module:attribute`` or ``module:Class.method``.
CELL_LAYERS = (
    ("repro.core.experiment:build_network", "core.build"),
    ("repro.core.voip_study:build_network", "core.build"),
    ("repro.core.video_study:build_network", "core.build"),
    ("repro.core.web_study:build_network", "core.build"),
    ("repro.core.experiment:apply_workload", "core.build"),
    ("repro.core.voip_study:apply_workload", "core.build"),
    ("repro.core.video_study:apply_workload", "core.build"),
    ("repro.core.web_study:apply_workload", "core.build"),
    ("repro.sim.engine:Simulator.run", "sim.engine.run"),
    ("repro.core.video_study:clip_frames", "apps.clip_frames"),
    ("repro.core.video_study:decode", "media.decode"),
    ("repro.core.video_study:ssim_sequence", "qoe.ssim"),
    ("repro.core.video_study:psnr_sequence", "qoe.psnr"),
    ("repro.core.voip_study:score_call", "qoe.voip"),
    ("repro.runner.execute:jsonify", "results.jsonify"),
)

#: Wrapped around the runner passes (parent-process calls only).
RUNNER_LAYERS = (
    ("repro.runner.cache:ResultCache.get", "runner.cache_get"),
    ("repro.runner.cache:ResultCache.put", "runner.cache_put"),
    ("repro.runner.grid:record_from_payload", "results.record"),
)

#: Where each cell's network comes from (the counts are read from it).
NETWORK_BUILDERS = tuple(target for target, layer in CELL_LAYERS
                         if target.endswith(":build_network"))


def resolve(target):
    """``(owner, attribute)`` of a ``module:name.path`` target."""
    module_name, path = target.split(":")
    owner = importlib.import_module(module_name)
    *parents, attribute = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attribute


class Tracer:
    """Spans and counts at layer boundaries, kept in memory.

    Use as a context manager: :meth:`install` wraps targets, and leaving
    the ``with`` block restores every original, also on an exception.
    ``seconds[layer]`` and ``calls[layer]`` total each layer's spans;
    ``counts`` holds what the after-hooks count (events, frames, heap
    high-water mark).  Durations are CPU seconds of this process.
    """

    clock = staticmethod(time.process_time)

    def __init__(self):
        self.spans = []  # [name, request, start, end, parent index]
        self.seconds = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)
        self.networks = []  # networks built since the last take_networks()
        self.request = None
        self._open = []
        self._patches = []

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.restore()
        return False

    def restore(self):
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    # -- spans ------------------------------------------------------------
    def begin(self, name):
        parent = self._open[-1] if self._open else None
        self.spans.append([name, self.request, self.clock(), None, parent])
        self._open.append(len(self.spans) - 1)

    def end(self):
        span = self.spans[self._open.pop()]
        span[3] = self.clock()
        self.seconds[span[0]] += span[3] - span[2]
        self.calls[span[0]] += 1

    @contextmanager
    def span(self, name):
        """Record one span around a ``with`` block."""
        self.begin(name)
        try:
            yield
        finally:
            self.end()

    # -- wrappers ---------------------------------------------------------
    def wrap(self, target, layer=None, after=None):
        """Replace ``target``; time it as ``layer`` (None: do not time).

        ``after(args, result)`` runs after each successful call.
        """
        owner, attribute = resolve(target)
        original = getattr(owner, attribute)
        tracer = self

        @wraps(original)
        def wrapper(*args, **kwargs):
            if layer is not None:
                tracer.begin(layer)
            try:
                result = original(*args, **kwargs)
            finally:
                if layer is not None:
                    tracer.end()
            if after is not None:
                after(args, result)
            return result

        setattr(owner, attribute, wrapper)
        self._patches.append((owner, attribute, original))

    def install(self, layers):
        """Wrap every ``(target, layer)``, with the counting hooks."""
        hooks = {
            ":build_network": self._keep_network,
            ":Simulator.run": self._count_run,
            ":ssim_sequence": self._count_frames,
        }
        for target, layer in layers:
            after = next((hook for suffix, hook in hooks.items()
                          if target.endswith(suffix)), None)
            self.wrap(target, layer, after)
        return self

    def capture_networks(self):
        """Keep each cell's network, with no timing (for untimed passes)."""
        for target in NETWORK_BUILDERS:
            self.wrap(target, None, self._keep_network)
        return self

    def _keep_network(self, args, result):
        self.networks.append(result[1])

    def _count_run(self, args, executed):
        self.counts["sim.engine.events"] += executed
        self.counts["sim.engine.pending_max"] = max(
            self.counts["sim.engine.pending_max"], args[0].pending())

    def _count_frames(self, args, result):
        self.counts["qoe.frames_scored"] += len(args[0])

    def take_networks(self):
        """Simulated counts of the networks built since the last call.

        Summed over both bottleneck directions: packets enqueued and
        dropped at the bottleneck queues, packets sent on the links.
        """
        counts = {"sim.queues.enqueued": 0, "sim.queues.dropped": 0,
                  "sim.link.tx_packets": 0}
        for network in self.networks:
            for interface in network.bottlenecks():
                counts["sim.queues.enqueued"] += interface.queue.stats.enqueued
                counts["sim.queues.dropped"] += interface.queue.stats.dropped
                counts["sim.link.tx_packets"] += interface.stats.tx_packets
        self.networks = []
        return counts


# -- cProfile grouping --------------------------------------------------------
def module_group(function_key):
    """The group a profiled function's self time belongs to, or None.

    ``repro/sim/<module>.py`` groups as ``sim.<module>``, any other
    ``repro/<package>/`` as its package; the C heap primitives are
    ``heapq``.  Code outside the program (numpy, scipy, builtins) has no
    group of its own.
    """
    import repro

    filename, __, name = function_key
    if "_heapq." in name:
        return "heapq"
    package = os.path.dirname(os.path.abspath(repro.__file__))
    if not filename.startswith(package + os.sep):
        return None
    parts = os.path.relpath(filename, package).split(os.sep)
    if len(parts) < 2:
        return "repro"
    if parts[0] == "sim":
        return "sim." + os.path.splitext(parts[1])[0]
    return parts[0]


def module_shares(profile):
    """``(shares, base_seconds)`` of one cProfile run.

    ``base_seconds`` is the profile's total self time; ``shares`` maps
    each group of :func:`module_group` to its part of it.  Self time of
    code outside the program is charged to the groups that called it,
    split by the time each caller spent in it, so scipy's SSIM filters
    count as ``qoe``.  Time with no calling group is ``other``.
    """
    stats = pstats.Stats(profile).stats
    owners = {}

    def owner_weights(key, visiting=frozenset()):
        if key in owners:
            return owners[key]
        group = module_group(key)
        if group is not None:
            return {group: 1.0}
        callers = stats.get(key, (0, 0, 0, 0, {}))[4]
        total = sum(edge[2] for edge in callers.values())
        if key in visiting or total <= 0:
            return {"other": 1.0}
        weights = defaultdict(float)
        for caller, edge in callers.items():
            for group, weight in owner_weights(caller, visiting | {key}).items():
                weights[group] += weight * edge[2] / total
        owners[key] = weights
        return weights

    seconds = defaultdict(float)
    base = 0.0
    for key, (__, __, self_time, __, __) in stats.items():
        base += self_time
        for group, weight in owner_weights(key).items():
            seconds[group] += self_time * weight
    shares = {group: value / base for group, value in seconds.items()} \
        if base > 0 else {}
    return shares, base
