"""Tests for the repro.perf benchmark/profiler subsystem."""

import json

import pytest

from repro.perf import bench
from repro.perf.profile import profile_cell
from repro.sim import engine
from repro.sim.engine import Simulator, Timer


class TestSimRunTimer:
    def test_accumulates_and_restores(self):
        original = engine.Simulator.run
        with bench._SimRunTimer() as timer:
            sim = Simulator()
            for index in range(50):
                sim.call_later(float(index), lambda: None)
            sim.run()
        assert engine.Simulator.run is original
        assert timer.seconds >= 0.0

    def test_total_events_counts_executed_only(self):
        before = engine.total_events()
        sim = Simulator()
        fired = []
        sim.call_later(1.0, fired.append, "kept")
        cancelled = Timer(sim, lambda: fired.append("cancelled"))
        cancelled.start(2.0)
        cancelled.cancel()
        sim.run()
        assert engine.total_events() - before == 1
        assert fired == ["kept"]


class TestBench:
    @pytest.fixture()
    def tiny_workloads(self, monkeypatch):
        tiny = (("fig7", (("fig7a", 0.1),)),)
        monkeypatch.setattr(bench, "WORKLOADS", tiny)
        monkeypatch.setattr(bench, "REPETITIONS", 1)
        return tiny

    def test_run_bench_document_shape(self, tiny_workloads, tmp_path,
                                      monkeypatch):
        document = bench.run_bench()
        assert set(document) == {"schema", "kind", "repetitions", "python",
                                  "machine", "workloads", "totals"}
        workload = document["workloads"]["fig7"]
        assert workload["cells"] == 9
        assert workload["events"] > 0
        assert workload["events_per_sec"] > 0
        assert document["totals"]["events"] == workload["events"]
        assert document["totals"]["peak_rss_kb"] > 0
        monkeypatch.chdir(tmp_path)
        bench.write_bench(document)
        assert bench.load_baseline() == json.loads(json.dumps(document))
        assert "ev/s" in bench.render_summary(document)

    def test_event_counts_deterministic_across_reps(self, tiny_workloads,
                                                    monkeypatch):
        one = bench.run_bench()
        monkeypatch.setattr(bench, "REPETITIONS", 2)
        two = bench.run_bench()
        assert (one["workloads"]["fig7"]["events"]
                == two["workloads"]["fig7"]["events"])


class TestRegressionCheck:
    def _doc(self, sim_seconds, events=1000, name="fig5"):
        return {"workloads": {name: {"sim_seconds": sim_seconds,
                                     "events": events,
                                     "events_per_sec": 1000}}}

    def test_ok_within_tolerance(self, capsys):
        assert bench.check_regression(self._doc(1.25), self._doc(1.0))
        assert "fig5   ok" in capsys.readouterr().err

    def test_fails_beyond_tolerance(self, capsys):
        assert not bench.check_regression(self._doc(1.35), self._doc(1.0))
        assert "fig5   TIME" in capsys.readouterr().err

    def test_events_per_sec_is_not_gated(self):
        current = self._doc(1.0)
        current["workloads"]["fig5"]["events_per_sec"] = 10
        assert bench.check_regression(current, self._doc(1.0))

    def test_an_event_off_by_one_fails_even_when_faster(self, capsys):
        assert not bench.check_regression(self._doc(0.5, events=336627),
                                          self._doc(1.0, events=336626))
        err = capsys.readouterr().err
        assert "fig5   EVENTS" in err
        assert "336627 events vs baseline 336626" in err

    def test_missing_baseline_workload_fails(self, capsys):
        current = self._doc(1.0)
        current["workloads"]["fig7"] = self._doc(1.0)["workloads"]["fig5"]
        assert not bench.check_regression(current, self._doc(1.0))
        err = capsys.readouterr().err
        assert "fig5   ok" in err
        assert "fig7   MISSING" in err


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


def test_committed_baseline_is_wellformed():
    """BENCH_simcore.json at the repo root stays loadable and complete."""
    from pathlib import Path

    path = Path(__file__).resolve().parent.parent / "BENCH_simcore.json"
    document = json.loads(path.read_text())
    assert document["kind"] == "simcore-bench"
    assert document["schema"] == bench.SCHEMA
    assert "mode" not in document and "quick" not in document
    workloads = document["workloads"]
    assert {name: workload["sweeps"] for name, workload in workloads.items()
            } == {name: ["%s@%g" % part for part in parts]
                  for name, parts in bench.WORKLOADS}
    assert workloads["fig5"]["events"] == 336626
    assert workloads["fig7"]["events"] == 495844
    for workload in workloads.values():
        assert workload["sim_seconds"] > 0
        assert workload["events_per_sec"] > 0


def test_pinned_perfbench_digests_cover_the_benchmark():
    """CI compares each perfbench workload's digest with a pinned one."""
    from pathlib import Path

    import perfbench_digest

    root = Path(__file__).resolve().parent.parent
    declared = json.loads((root / "BENCHMARK.json").read_text())
    pinned = json.loads(Path(perfbench_digest.PINNED).read_text())
    assert pinned["seed"] == 1
    assert (set(pinned["payload_sha256"])
            == {workload["name"] for workload in declared["workloads"]})
    digest = pinned["payload_sha256"]["video-access"]
    output = ["  payload_sha256 %s" % digest, '{"correct": true}']
    assert perfbench_digest.problems("video-access", output) == []
    assert perfbench_digest.problems("access-bulk", output) != []
    assert perfbench_digest.problems(
        "video-access", [output[0], '{"correct": false}']) != []
    assert perfbench_digest.problems("video-access", output[:1]) != []
