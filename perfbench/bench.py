"""Passes and metrics of one benchmark run over one workload.

With tracing off, a run repeats rounds of three passes over the
workload's cells until its time is spent (at least two rounds):

* **serial** — every cell in this process through ``execute_task``,
  cache off: ``cells_cpu_s`` (CPU seconds of the pass) and
  ``slowest_cell_s`` (CPU seconds of its slowest cell);
* **pool** — ``GridRunner(workers=2)`` into a private, empty
  ``ResultCache``, consumed by ``ResultSet.from_stream``: the body of
  ``repro.api.run_sweep``, over all of the workload's sweeps at once so
  single-cell sweeps share the pool (``sweep_wall_s``);
* **warm** — the same again, served wholly from that cache.

``sweep_wall_s`` is the least over rounds; the serial metrics come
from each cell's least time over rounds.  ``setup_s`` is the
median of several fresh interpreters timed up to the point a first cell
could start (:mod:`perfbench.probe`), ``peak_rss_mb`` the measuring
process's high-water mark.

With tracing on, a run makes one such round, then a serial pass with
:data:`perfbench.layers.CELL_LAYERS` wrapped and a serial pass under
cProfile, and reports the per-layer metrics.

Every pass's payloads are checked (:mod:`perfbench.checks`) and must be
bit-identical across passes; a cell that raises or fails either check
counts as failed.  Event counts, and in traced runs the simulated queue
and link counts, must repeat exactly between passes, or the run raises.
"""

import cProfile
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from contextlib import nullcontext
from dataclasses import dataclass, field, replace

from perfbench import layers
from perfbench.checks import check_payload, combined_digest, payload_digest
from perfbench.workloads import KIND_MODULES, WORKERS

HERE = os.path.dirname(os.path.abspath(__file__))
PROBE = os.path.join(HERE, "probe.py")

#: Set-up probes per run; ``setup_s`` is their median.
PROBES = 5
#: Rounds of an untraced run: at least MIN_ROUNDS (the determinism
#: guard compares two), then more while the next one is expected to end
#: within the run's seconds, counted from the start of the run.
MIN_ROUNDS = 2
MAX_ROUNDS = 6

#: Self-time groups reported as ``share.<group>``.
SHARE_GROUPS = ("sim.engine", "sim.link", "sim.queues", "sim.node",
                "sim.packet", "heapq", "tcp", "apps", "udp", "media", "qoe")


@dataclass
class Pass:
    """What one pass over the cells produced, aligned with the tasks."""

    name: str
    payloads: list
    seconds: list = field(default_factory=list)  # CPU s per cell (serial)
    events: list = field(default_factory=list)  # engine events per cell
    counts: list = field(default_factory=list)  # simulated counts per cell
    wall: float = 0.0  # wall seconds of the whole pass (pool, warm)
    stats: dict = field(default_factory=dict)  # GridRunner.last_stats


@dataclass
class Result:
    metrics: dict
    attempted: int
    failed: int
    payload_sha256: str
    problems: dict
    rounds: int


class Checker:
    """Checks every pass's payloads against the range rules and each other."""

    def __init__(self, tasks):
        self.tasks = tasks
        self.digests = [None] * len(tasks)
        self.problems = defaultdict(list)

    def add(self, run):
        for index, payload in enumerate(run.payloads):
            if payload is None:
                self.problems[index].append("%s pass: no payload" % run.name)
                continue
            digest = payload_digest(payload)
            if self.digests[index] is None:
                self.digests[index] = digest
                self.problems[index].extend(
                    "%s pass: %s" % (run.name, problem) for problem in
                    check_payload(self.tasks[index].kind, payload))
            elif digest != self.digests[index]:
                self.problems[index].append(
                    "%s pass: payload differs from the first pass" % run.name)

    @property
    def failed(self):
        return sum(1 for problems in self.problems.values() if problems)

    @property
    def payload_sha256(self):
        return combined_digest(digest or "" for digest in self.digests)


def _fresh_process_state():
    """Empty the program's memo caches and collect garbage.

    Each pass then starts the way a fresh worker process would, and a
    fork for the pool does not hand its workers warm caches.
    """
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or
                                  name.startswith("repro.")):
            continue
        for value in list(vars(module).values()):
            if (callable(getattr(value, "cache_clear", None))
                    and getattr(value, "__module__", None) == name):
                value.cache_clear()
    gc.collect()


def serial_pass(tasks, tracer=None, profile=None, name="serial"):
    """Run every cell in this process, cache off, one after another."""
    from repro.runner import execute
    from repro.sim import engine

    _fresh_process_state()
    run = Pass(name, [None] * len(tasks))
    for index, task in enumerate(tasks):
        if tracer is not None:
            tracer.request = index
        events = engine.total_events()
        start = time.process_time()
        try:
            with (tracer.span("cell") if tracer is not None
                  else nullcontext()), (profile or nullcontext()):
                run.payloads[index] = execute.execute_task(task)
        except Exception as exc:
            print("cell %d (%s) raised %r" % (index, task.label, exc),
                  file=sys.stderr)
        run.seconds.append(time.process_time() - start)
        run.events.append(engine.total_events() - events)
        if tracer is not None:
            run.counts.append(tracer.take_networks())
    return run


def pool_pass(workload, seed, cache_dir, name="pool"):
    """``repro.api.run_sweep``'s path over the workload, timed on the wall.

    Lowers the specs, runs the cells through ``GridRunner(workers=2)``
    with a ``ResultCache`` in ``cache_dir`` and collects a ``ResultSet``.
    """
    from repro.results.set import ResultSet
    from repro.runner import GridRunner
    from repro.runner.cache import ResultCache

    _fresh_process_state()
    start = time.perf_counter()
    tasks, keys = workload.lower(seed)
    runner = GridRunner(workers=WORKERS, progress=False,
                        cache=ResultCache(directory=cache_dir, enabled=True))
    records = []
    try:
        for __, record in runner.iter_run(tasks, keys=keys):
            records.append(record)
    except Exception as exc:
        print("%s pass raised %r" % (name, exc), file=sys.stderr)
    results = ResultSet.from_stream(records)
    wall = time.perf_counter() - start
    payloads = [None] * len(tasks)
    for record in results:
        payloads[record.index] = record.payload
    return Pass(name, payloads, wall=wall, stats=dict(runner.last_stats))


def probe_setup(workload, seed):
    """Median set-up times of :data:`PROBES` fresh interpreters."""
    command = [sys.executable, PROBE, workload.name]
    if seed is not None:
        command.append(str(seed))
    samples = []
    for __ in range(PROBES):
        start = time.perf_counter()
        with subprocess.Popen(command, stdout=subprocess.PIPE,
                              text=True) as child:
            line = child.stdout.readline()
            elapsed = time.perf_counter() - start
            child.communicate(timeout=120)
        if child.returncode != 0 or not line.strip():
            raise RuntimeError("set-up probe failed: %s" % " ".join(command))
        sample = json.loads(line)
        sample["setup_s"] = elapsed
        samples.append(sample)
    return {key: statistics.median(sample[key] for sample in samples)
            for key in samples[0]}


def _same(what, passes, attribute):
    first = getattr(passes[0], attribute)
    for run in passes[1:]:
        if getattr(run, attribute) != first:
            raise RuntimeError(
                "nondeterministic %s: %s pass %r != %s pass %r"
                % (what, passes[0].name, first, run.name,
                   getattr(run, attribute)))


def _check_seed(tasks, serial):
    """Fail loudly unless another seed changes a payload of the workload.

    Re-runs cells at seed + 1, cheapest first, until one payload
    changes: a saturated score (a VoIP MOS at its ceiling) may not move.
    """
    from repro.runner.execute import execute_task

    for index in sorted(range(len(tasks)), key=serial.seconds.__getitem__):
        task = tasks[index]
        other = execute_task(replace(task, seed=task.seed + 1))
        if payload_digest(other) != payload_digest(serial.payloads[index]):
            return
    raise RuntimeError("no cell's payload changes from seed + 1: the seed "
                       "does not reach the program")


def _end_to_end(workload, seed, deadline, tasks, checker, work, setup):
    rounds = []
    start = time.perf_counter()
    while True:
        cache_dir = os.path.join(work, "round%d" % len(rounds))
        serial = serial_pass(tasks)
        pool = pool_pass(workload, seed, cache_dir)
        warm = pool_pass(workload, seed, cache_dir, name="warm")
        shutil.rmtree(cache_dir, ignore_errors=True)
        for run in (serial, pool, warm):
            checker.add(run)
        rounds.append((serial, pool))
        _same("event counts", [serial for serial, __ in rounds], "events")
        now = time.perf_counter()
        if len(rounds) >= MIN_ROUNDS and (
                len(rounds) >= MAX_ROUNDS
                or now + (now - start) / len(rounds) > deadline):
            break
    # The cells do the same work every round, so other load on the host
    # can only add time: the least time seen is the steadiest estimate
    # of the program's own cost.  Taken per cell, a burst of load spoils
    # one sample of a few cells rather than a whole round.
    cell_seconds = [min(samples) for samples in
                    zip(*(serial.seconds for serial, __ in rounds))]
    metrics = {
        "sweep_wall_s": min(pool.wall for __, pool in rounds),
        "cells_cpu_s": sum(cell_seconds),
        "slowest_cell_s": max(cell_seconds),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": setup["setup_s"],
    }
    return metrics, rounds[0][0], len(rounds)


def _traced(workload, seed, tasks, checker, work, setup, spans_path):
    cache_dir = os.path.join(work, "traced")
    serial = serial_pass(tasks)
    with layers.Tracer() as cold:
        cold.install(layers.RUNNER_LAYERS)
        pool = pool_pass(workload, seed, cache_dir)
    with layers.Tracer() as warm_tracer:
        warm_tracer.install(layers.RUNNER_LAYERS)
        warm = pool_pass(workload, seed, cache_dir, name="warm")
    with layers.Tracer() as cells:
        cells.install(layers.CELL_LAYERS)
        traced = serial_pass(tasks, tracer=cells, name="traced")
    profile = cProfile.Profile()
    with layers.Tracer() as capture:
        capture.capture_networks()
        profiled = serial_pass(tasks, tracer=capture, profile=profile,
                               name="profiled")
    for run in (serial, pool, warm, traced, profiled):
        checker.add(run)
    _same("event counts", [serial, traced, profiled], "events")
    _same("simulated queue and link counts", [traced, profiled], "counts")

    cpu = sum(serial.seconds)
    traced_cpu = sum(traced.seconds)
    run_s = cells.seconds["sim.engine.run"]
    events = cells.counts["sim.engine.events"]
    totals = defaultdict(int)
    for counts in traced.counts:
        for name, value in counts.items():
            totals[name] += value
    arrived = totals["sim.queues.enqueued"] + totals["sim.queues.dropped"]
    shares, base = layers.module_shares(profile)
    metrics = {
        "core.lower_s": setup["lower_s"],
        "runner.fingerprint_s": setup["fingerprint_s"],
        "core.build_s": cells.seconds["core.build"],
        "sim.engine.run_s": run_s,
        "sim.engine.run_calls": cells.calls["sim.engine.run"],
        "sim.engine.events": events,
        "sim.engine.events_per_s": events / run_s if run_s else 0.0,
        "sim.engine.pending_max": cells.counts["sim.engine.pending_max"],
        "apps.clip_frames_s": cells.seconds["apps.clip_frames"],
        "media.decode_s": cells.seconds["media.decode"],
        "qoe.ssim_s": cells.seconds["qoe.ssim"],
        "qoe.psnr_s": cells.seconds["qoe.psnr"],
        "qoe.frames_scored": cells.counts["qoe.frames_scored"],
        "qoe.voip_s": cells.seconds["qoe.voip"],
        "results.jsonify_s": cells.seconds["results.jsonify"],
        "results.record_s": warm_tracer.seconds["results.record"],
        "runner.cache_put_s": cold.seconds["runner.cache_put"],
        "runner.cache_get_s": warm_tracer.seconds["runner.cache_get"],
        "runner.warm_sweep_s": warm.wall,
        "runner.cache_hit_ratio": warm.stats["cached"] / warm.stats["cells"],
        "runner.pool_busy_ratio": cpu / (WORKERS * pool.wall),
        "sim.queues.enqueued": totals["sim.queues.enqueued"],
        "sim.queues.dropped": totals["sim.queues.dropped"],
        "sim.queues.drop_ratio": (totals["sim.queues.dropped"] / arrived
                                  if arrived else 0.0),
        "sim.link.tx_packets": totals["sim.link.tx_packets"],
        "share.base_s": base,
        "traced.cells_cpu_s": traced_cpu,
        "trace_overhead_ratio": traced_cpu / cpu,
    }
    for group in SHARE_GROUPS:
        metrics["share." + group] = shares.get(group, 0.0)
    with open(spans_path, "w") as handle:
        for tracer_name, tracer in (("pool", cold), ("warm", warm_tracer),
                                    ("cells", cells)):
            for name, request, begin, end, parent in tracer.spans:
                handle.write(json.dumps({
                    "tracer": tracer_name, "name": name, "cell": request,
                    "start": begin, "end": end, "parent": parent}) + "\n")
    return metrics, serial, 1


def measure(workload, seed=None, seconds=50.0, trace=False, out_dir=None):
    """Run the benchmark on ``workload``; returns a :class:`Result`.

    ``seed`` replaces every sweep's registry seed (None keeps them).
    Scratch caches live under ``out_dir`` and are removed; a traced run
    leaves its spans there as ``spans-<workload>-<seed>.jsonl``.
    """
    import importlib

    from repro.runner.cache import code_fingerprint

    deadline = time.perf_counter() + seconds
    out_dir = out_dir or os.path.join(os.path.dirname(HERE), ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    tasks, __ = workload.lower(seed)
    # Lazy set-up is setup_s's business: finish it before any timing.
    for kind in workload.kinds():
        importlib.import_module(KIND_MODULES[kind])
    code_fingerprint()
    setup = probe_setup(workload, seed)
    checker = Checker(tasks)
    work = tempfile.mkdtemp(prefix="caches-", dir=out_dir)
    try:
        if trace:
            spans_path = os.path.join(out_dir, "spans-%s-%s.jsonl" % (
                workload.name, "registry" if seed is None else seed))
            metrics, serial, rounds = _traced(workload, seed, tasks, checker,
                                              work, setup, spans_path)
        else:
            metrics, serial, rounds = _end_to_end(
                workload, seed, deadline, tasks, checker, work, setup)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if workload.seed_check:
        _check_seed(tasks, serial)
    problems = {"cell %d (%s)" % (index, tasks[index].label): found
                for index, found in sorted(checker.problems.items()) if found}
    return Result(metrics=metrics, attempted=len(tasks),
                  failed=checker.failed,
                  payload_sha256=checker.payload_sha256,
                  problems=problems, rounds=rounds)
