"""Parallel grid execution with result caching and progress reporting.

The paper's artifacts are grids of independent (scenario x buffer x
seed) cells, so :class:`GridRunner` fans them out over a process pool.
Each cell builds its own :class:`repro.sim.engine.Simulator` and derives
all randomness from its task's seed, so results are bit-identical to a
serial run regardless of worker count or completion order.  Finished
cells land in a JSON cache keyed by task content hash; repeat runs skip
their simulations entirely.
"""

import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor, as_completed

from repro.results.record import record_from_payload
from repro.runner.cache import ResultCache
from repro.runner.execute import execute_task


def resolve_workers(workers=None):
    """Worker count: explicit arg > ``REPRO_WORKERS`` env > cpu count.

    Raises ``ValueError``, naming where the count came from, when it is
    not an integer of at least 1.
    """
    source = "workers"
    if workers is None:
        env = os.environ.get("REPRO_WORKERS", "")
        if not env:
            return os.cpu_count() or 1
        source = "REPRO_WORKERS"
        try:
            workers = int(env)
        except ValueError:
            raise ValueError("REPRO_WORKERS must be an integer, got %r"
                             % env) from None
    if workers < 1:
        raise ValueError("%s must be at least 1, got %r" % (source, workers))
    return int(workers)


def _name_cell(exc, task):
    """Note the failed cell on ``exc`` (type and message unchanged)."""
    exc.add_note("in grid cell %s (task %s)"
                 % (task.label, task.content_hash()))
    return exc


def _progress_enabled_by_env():
    return os.environ.get("REPRO_PROGRESS", "0").lower() not in (
        "0", "", "false", "no", "off")


class GridRunner:
    """Run a list of :class:`repro.runner.task.CellTask` cells.

    Parameters
    ----------
    workers:
        Process count; None reads ``REPRO_WORKERS`` and falls back to
        ``os.cpu_count()``.  ``workers=1`` runs serially in-process (no
        pool), which keeps tracebacks and debuggers usable.
    cache:
        A :class:`repro.runner.cache.ResultCache`; None builds the
        default one.  Pass ``use_cache=False`` to disable caching.
    progress:
        Emit per-cell progress/ETA lines; None reads ``REPRO_PROGRESS``.
    """

    def __init__(self, workers=None, cache=None, use_cache=True,
                 progress=None, log=None):
        self.workers = resolve_workers(workers)
        self.cache = (cache or ResultCache()) if use_cache else None
        self.progress = (_progress_enabled_by_env() if progress is None
                         else progress)
        self._log = log or (lambda message: print(
            message, file=sys.stderr, flush=True))
        #: Statistics of the most recent fully consumed :meth:`iter_run`.
        self.last_stats = {}

    # ------------------------------------------------------------------
    def iter_run(self, tasks, keys=None):
        """Yield ``(task, record)`` pairs as cells complete.

        Cache hits stream first (in task order), then computed cells in
        completion order — so incremental consumers (progress UIs,
        :func:`repro.api.iter_sweep`) see results as soon as they exist,
        in constant memory.  Records are
        :class:`repro.results.record.CellResult` values; ``keys``
        optionally supplies the sweep cell key stored on each record,
        aligned with ``tasks``.  Each record carries its task ``index``,
        so :meth:`repro.results.set.ResultSet.from_stream` (fed the
        records) restores task order.

        On a pool failure the remaining in-flight siblings are still
        drained (and yielded), then the first failure is re-raised; the
        serial path re-raises at once.  Either way the exception carries
        a note naming the failed cell (label and task hash), and
        ``last_stats`` is populated with ``failed=True``.  ``last_stats``
        is written when the stream is fully consumed.
        """
        tasks = list(tasks)
        for index, payload in self._iter_payloads(tasks):
            key = keys[index] if keys is not None else None
            yield tasks[index], record_from_payload(
                tasks[index], payload, key=key, index=index)

    def _iter_payloads(self, tasks):
        """Yield ``(task index, payload)`` as cells complete.

        Cache hits stream one at a time during the scan (nothing is
        buffered, so a warm million-cell grid aggregates in constant
        memory); pending cells follow from the pool or the serial path.
        """
        started = time.monotonic()
        pending = []
        cached = 0
        done = 0

        def stats(failed=False):
            self.last_stats = {
                "cells": len(tasks),
                "cached": cached,
                "computed": done if failed else len(pending),
                "workers": self.workers,
                "elapsed": time.monotonic() - started,
                "failed": failed,
            }

        try:
            for index, task in enumerate(tasks):
                payload = self.cache.get(task) if self._caching else None
                if payload is None:
                    pending.append(index)
                else:
                    cached += 1
                    yield index, payload
            self._say("running %d cells (%d cached) on %d worker%s" % (
                len(tasks), cached, self.workers,
                "" if self.workers == 1 else "s"))
            if self.workers == 1 or len(pending) <= 1:
                for index in pending:
                    try:
                        payload = execute_task(tasks[index])
                    except BaseException as exc:
                        _name_cell(exc, tasks[index])
                        raise
                    done += 1
                    self._finish(tasks[index], payload,
                                 done, len(pending), started)
                    yield index, payload
            elif pending:
                pool_size = min(self.workers, len(pending))
                failure = None
                with ProcessPoolExecutor(max_workers=pool_size) as pool:
                    futures = {pool.submit(execute_task, tasks[index]): index
                               for index in pending}
                    try:
                        for future in as_completed(futures):
                            index = futures[future]
                            try:
                                payload = future.result()
                            except BaseException as exc:
                                # Keep draining so sibling cells that
                                # already finished still reach the cache
                                # (and the consumer); re-raise after.
                                if failure is None:
                                    failure = _name_cell(exc, tasks[index])
                                continue
                            done += 1
                            self._finish(tasks[index], payload,
                                         done, len(pending), started)
                            yield index, payload
                    except GeneratorExit:
                        # The consumer abandoned the stream mid-grid:
                        # drop every queued cell so pool shutdown only
                        # waits for the handful already running.
                        for future in futures:
                            future.cancel()
                        raise
                if failure is not None:
                    raise failure
        except GeneratorExit:
            # A deliberately abandoned stream is not a failure; leave
            # last_stats untouched (it reflects fully-consumed runs).
            raise
        except BaseException:
            # Populate the stats of the partial run before re-raising so
            # callers can still report cells/cached/computed/elapsed.
            stats(failed=True)
            raise
        stats()

    # ------------------------------------------------------------------
    @property
    def _caching(self):
        return self.cache is not None and self.cache.enabled

    def _finish(self, task, payload, done, total, started):
        if self._caching:
            self.cache.put(task, payload)
        if done and total:
            elapsed = time.monotonic() - started
            eta = elapsed / done * (total - done)
            self._say("cell %d/%d done (%s) elapsed %.1fs eta %.1fs"
                      % (done, total, task.label, elapsed, eta))

    def _say(self, message):
        if self.progress:
            self._log("[gridrunner] " + message)
