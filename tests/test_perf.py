"""Tests for the repro.perf benchmark/profiler subsystem."""

import io
import json

import pytest

from repro.perf import bench
from repro.perf.profile import profile_cell, timeit_cell
from repro.sim import engine
from repro.sim.engine import Simulator


class TestSimRunTimer:
    def test_accumulates_and_restores(self):
        original = engine.Simulator.run
        with bench._SimRunTimer() as timer:
            sim = Simulator()
            for index in range(50):
                sim.schedule(float(index), lambda: None)
            sim.run()
        assert engine.Simulator.run is original
        assert timer.seconds >= 0.0

    def test_total_events_counts_executed_only(self):
        before = engine.total_events()
        sim = Simulator()
        kept = sim.schedule(1.0, lambda: None)
        cancelled = sim.schedule(2.0, lambda: None)
        cancelled.cancel()
        sim.run()
        assert engine.total_events() - before == 1
        assert not kept.cancelled


class TestBench:
    @pytest.fixture()
    def tiny_workloads(self, monkeypatch):
        tiny = (("fig7", (("fig7a", 0.1),)),)
        monkeypatch.setattr(bench, "FULL_WORKLOADS", tiny)
        monkeypatch.setattr(bench, "QUICK_WORKLOADS", tiny)
        return tiny

    def test_run_bench_document_shape(self, tiny_workloads, tmp_path):
        document = bench.run_bench(quick=True, repetitions=1,
                                   reference={"events_per_sec": {}})
        assert document["mode"] == "quick"
        workload = document["workloads"]["fig7"]
        assert workload["cells"] == 9
        assert workload["events"] > 0
        assert workload["events_per_sec"] > 0
        assert document["totals"]["events"] == workload["events"]
        assert document["totals"]["peak_rss_kb"] > 0
        assert document["reference"] == {"events_per_sec": {}}
        path = bench.write_bench(document, str(tmp_path / "bench.json"))
        assert bench.load_baseline(path) == json.loads(
            json.dumps(document))
        assert "ev/s" in bench.render_summary(document)

    def test_full_run_measures_the_quick_workloads(self, tiny_workloads):
        document = bench.run_bench(quick=False, repetitions=1)
        assert document["mode"] == "full"
        assert set(document["quick"]) == {"fig7"}
        assert (document["quick"]["fig7"]["events"]
                == document["workloads"]["fig7"]["events"])
        assert document["quick"]["fig7"]["sim_seconds"] > 0

    def test_rejects_nonpositive_repetitions(self, tiny_workloads):
        with pytest.raises(ValueError):
            bench.run_bench(quick=True, repetitions=0)

    def test_event_counts_deterministic_across_reps(self, tiny_workloads):
        one = bench.run_bench(quick=True, repetitions=1)
        two = bench.run_bench(quick=True, repetitions=2)
        assert (one["workloads"]["fig7"]["events"]
                == two["workloads"]["fig7"]["events"])


class TestRegressionCheck:
    def _doc(self, sim_seconds, mode="full", name="fig5"):
        return {"mode": mode,
                "workloads": {name: {"sim_seconds": sim_seconds,
                                     "events_per_sec": 1000}}}

    def test_ok_within_tolerance(self, capsys):
        assert bench.check_regression(self._doc(1.25), self._doc(1.0),
                                      tolerance=0.30)

    def test_fails_beyond_tolerance(self):
        assert not bench.check_regression(self._doc(1.35), self._doc(1.0),
                                          tolerance=0.30)

    def test_events_per_sec_is_not_gated(self):
        current = self._doc(1.0)
        current["workloads"]["fig5"]["events_per_sec"] = 10
        assert bench.check_regression(current, self._doc(1.0))

    def test_missing_baseline_workload_is_skipped(self):
        current = self._doc(10.0)
        current["workloads"]["fig7"] = {"sim_seconds": 1.0}
        assert bench.check_regression(current, self._doc(1.0, name="fig7"))

    def test_quick_run_is_checked_against_the_quick_block(self):
        baseline = self._doc(10.0)
        baseline["quick"] = self._doc(1.0)["workloads"]
        assert bench.check_regression(self._doc(1.2, "quick"), baseline)
        assert not bench.check_regression(self._doc(2.0, "quick"), baseline)

    def test_baseline_without_the_mode_fails(self):
        out = io.StringIO()
        assert not bench.check_regression(self._doc(1.0, "quick"),
                                          self._doc(1.0), out=out)
        assert "no quick-mode workloads" in out.getvalue()


class TestProfileHarness:
    def test_profile_cell_smoke(self):
        text, task = profile_cell("fig7a", cell=0, scale=0.1, top=5)
        assert "profile: fig7a cell 0" in text
        assert "function calls" in text
        assert task.kind == "voip"

    def test_profile_cell_bad_args(self):
        with pytest.raises(ValueError):
            profile_cell("fig7a", sort="nonsense")
        with pytest.raises(IndexError):
            profile_cell("fig7a", cell=999, scale=0.1)

    def test_timeit_cell(self):
        assert timeit_cell("fig7a", cell=0, scale=0.1, repetitions=1) >= 0.0


def test_committed_baseline_is_wellformed():
    """BENCH_simcore.json at the repo root stays loadable and complete."""
    from pathlib import Path

    path = Path(__file__).resolve().parent.parent / "BENCH_simcore.json"
    document = json.loads(path.read_text())
    assert document["kind"] == "simcore-bench"
    assert set(document["workloads"]) == {"fig5", "fig7"}
    assert set(document["quick"]) == {"fig5", "fig7"}
    for workload in (*document["workloads"].values(),
                     *document["quick"].values()):
        assert workload["sim_seconds"] > 0
        assert workload["events_per_sec"] > 0
    assert document["reference"]["events_per_sec"]["fig5"] > 0
