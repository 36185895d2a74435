"""Tests for the stable facade (repro.api) and streaming grid runs."""

import os
import subprocess
import sys

import pytest

from repro import api
from repro.core import registry
from repro.core.registry import access, adhoc_sweep
from repro.results import ResultSet
from repro.runner import GridRunner, ResultCache
from repro.runner.execute import execute_task

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "src")


def tiny_spec(buffers=(8, 16), duration=2.0):
    return adhoc_sweep("api-test", "qos",
                       scenarios=[access("long-few", "down")],
                       buffers=buffers, seed=3, warmup=1.0,
                       duration=duration)


def runner_for(tmp_path, workers=1):
    return GridRunner(workers=workers, progress=False,
                      cache=ResultCache(directory=str(tmp_path / "cache"),
                                        enabled=True))


class TestRunSweep:
    def test_accepts_registry_names_and_overrides(self, tmp_path):
        spec = api.apply_overrides(
            registry.get("fig4-up"), scale=1.0, workloads=("long-few",),
            buffers=(8,), duration=2.0, warmup=1.0)
        results = api.run_sweep(spec, scale=1.0, runner=runner_for(tmp_path))
        assert results.keys() == [("long-few", 8)]
        assert results[("long-few", 8)].payload["duration"] == 2.0

    def test_unknown_override_labels_raise(self):
        spec = registry.get("fig4-up")
        with pytest.raises(ValueError, match="mystery"):
            api.apply_overrides(spec, scale=1.0, workloads=("mystery",))
        with pytest.raises(ValueError, match="fifo"):
            api.apply_overrides(spec, scale=1.0, disciplines=("fifo",))

    def test_duration_override_is_literal_above_scale_one(self):
        spec = api.apply_overrides(tiny_spec(), scale=4.0, duration=2.0)
        assert spec.resolved_duration(scale=4.0) == 2.0

    def test_duration_override_on_a_web_sweep_raises(self):
        # A web cell runs a fixed fetch count; dropping the window
        # silently would run something other than what was asked for.
        with pytest.raises(ValueError, match="fig10b.*fetch count"):
            api.apply_overrides(registry.get("fig10b"), scale=1.0,
                                duration=99.0)
        spec = api.apply_overrides(registry.get("fig10b"), scale=1.0,
                                   warmup=2.0)
        assert spec.warmup == 2.0

    def test_web_tasks_still_normalize_the_default_window(self):
        spec = adhoc_sweep("t", "web", [access("noBG")], [8], duration=5.0)
        (task,) = spec.tasks(scale=1.0)
        assert task.duration == 0.0


def test_importing_the_api_loads_no_cell_module():
    # Worker and CLI start-up pay for this import; the cell modules
    # and scipy load only when a cell of their kind runs.
    code = ("import sys, repro.api; print(sorted(name for name in ("
            "'scipy', 'repro.core.voip_study', 'repro.core.video_study', "
            "'repro.core.web_study') if name in sys.modules))")
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


class TestStreaming:
    def test_iter_sweep_equals_run_sweep(self, tmp_path):
        spec = tiny_spec()
        batch = api.run_sweep(spec, scale=1.0,
                              runner=runner_for(tmp_path / "a"))
        streamed = ResultSet.from_stream(
            api.iter_sweep(spec, scale=1.0,
                           runner=runner_for(tmp_path / "b")))
        assert streamed == batch
        assert streamed.keys() == batch.keys()

    @pytest.mark.parametrize("workers", [1, 4])
    def test_iter_run_bit_identical_to_run(self, tmp_path, workers):
        """iter_run payloads equal direct in-process cell runs."""
        spec = tiny_spec(buffers=(8, 12, 16, 24), duration=1.0)
        tasks = spec.tasks(1.0)
        direct = [execute_task(task) for task in tasks]
        runner = runner_for(tmp_path, workers=workers)
        streamed = ResultSet.from_stream(
            record for __, record in runner.iter_run(tasks,
                                                     keys=spec.cells(1.0)))
        # from_stream restores task order, so records align with direct.
        assert [record.payload for record in streamed] == direct
        assert [r.index for r in streamed] == [0, 1, 2, 3]
        assert runner.last_stats["failed"] is False

    def test_iter_run_streams_cache_hits_lazily(self, tmp_path):
        # Constant-memory contract: the cache scan must not pre-load
        # every hit before the first yield.
        spec = tiny_spec(duration=1.0)
        tasks = spec.tasks(1.0)
        cache = ResultCache(directory=str(tmp_path / "cache"), enabled=True)
        list(GridRunner(workers=1, cache=cache, progress=False)
             .iter_run(tasks))

        reads = []
        original = cache.get
        cache.get = lambda task: reads.append(task) or original(task)
        stream = GridRunner(workers=1, cache=cache,
                            progress=False).iter_run(tasks)
        next(stream)
        assert len(reads) == 1  # second hit not touched yet
        stream.close()

    def test_abandoning_iter_run_cancels_queued_cells(self, tmp_path):
        # Breaking out of the stream must not compute the whole grid:
        # queued pool futures are cancelled on GeneratorExit.
        spec = tiny_spec(buffers=(8, 12, 16, 24, 32, 48), duration=1.0)
        tasks = spec.tasks(1.0)
        cache = ResultCache(directory=str(tmp_path / "cache"), enabled=True)
        runner = GridRunner(workers=2, cache=cache, progress=False)
        for __, record in runner.iter_run(tasks):
            break  # abandon after the first completed cell
        # Only the cells that actually ran reached the cache; the
        # cancelled tail never executed.
        finished = sum(1 for task in tasks if cache.get(task) is not None)
        assert finished < len(tasks)
        # A deliberate abandon is not a failure.
        assert runner.last_stats.get("failed") is not True

    def test_iter_run_yields_cache_hits_first(self, tmp_path):
        spec = tiny_spec(duration=1.0)
        tasks = spec.tasks(1.0)
        cache = ResultCache(directory=str(tmp_path / "cache"), enabled=True)
        warm = GridRunner(workers=1, cache=cache, progress=False)
        list(warm.iter_run([tasks[1]]))  # only the *second* task is cached
        runner = GridRunner(workers=1, cache=cache, progress=False)
        order = [task.buffer_packets
                 for task, __ in runner.iter_run(tasks)]
        assert order == [16, 8]  # hit streams before the computed cell
        assert runner.last_stats["cached"] == 1
        assert runner.last_stats["computed"] == 1


class TestLoadSweep:
    def test_cache_only_round_trip(self, tmp_path):
        spec = tiny_spec()
        cache = ResultCache(directory=str(tmp_path / "cache"), enabled=True)
        ran = api.run_sweep(spec, scale=1.0,
                            runner=GridRunner(workers=1, cache=cache,
                                              progress=False))
        loaded = api.load_sweep(spec, scale=1.0, cache=cache)
        assert loaded == ran

    def test_misses_skip_or_raise(self, tmp_path):
        spec = tiny_spec()
        cache = ResultCache(directory=str(tmp_path / "empty"), enabled=True)
        assert len(api.load_sweep(spec, scale=1.0, cache=cache)) == 0
