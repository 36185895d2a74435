"""Tests of the benchmark itself, on tiny versions of its workloads."""

import json
import math
import os
import shutil
import subprocess
import sys
from dataclasses import replace

import pytest

from perfbench import bench, layers
from perfbench.checks import check_payload, payload_digest
from perfbench.workloads import WORKLOADS, Part, Workload

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

TINY_ACCESS = replace(WORKLOADS["access-bulk"], seed_check=False, parts=(
    Part("fig5", {"warmup": 0.3, "duration": 0.4, "buffers": [8, 64]}),
    Part("fig7a", {"warmup": 0.3, "duration": 0.5, "buffers": [64],
                   "workloads": ["noBG", "long-few"]}),
    Part("fig10a", {"warmup": 0.3, "buffers": [64], "workloads": ["noBG"]},
         {"counts": (("fetches", 1, 1),)}),
    Part("fig9a", {"warmup": 0.3, "duration": 0.3, "buffers": [64],
                   "workloads": ["long-few"]},
         {"axes": (("resolution", ("SD",)),)}),
))

TINY_SESSIONS = Workload(
    name="access-bulk", why="", seed_check=True, parts=(
        Part("table1-backbone", {"workloads": ["short-medium"],
                                 "buffers": [749], "warmup": 0.3,
                                 "duration": 0.3}),
    ))


@pytest.fixture
def quick(monkeypatch):
    monkeypatch.setattr(bench, "PROBES", 1)


def declared():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def test_benchmark_json_matches_the_workloads():
    spec = declared()
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: workload.why for name, workload in WORKLOADS.items()}
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    assert "setup_s" in names
    assert all(m["bound"] <= 0.25 for m in spec["end_to_end"])


@pytest.mark.parametrize("trace", [False, True])
def test_metric_names_match_benchmark_json(quick, tmp_path, trace):
    result = bench.measure(TINY_ACCESS, seconds=0, trace=trace,
                           out_dir=str(tmp_path))
    section = "per_layer" if trace else "end_to_end"
    assert set(result.metrics) == {m["name"] for m in declared()[section]}
    assert all(math.isfinite(value) for value in result.metrics.values())
    assert (result.attempted, result.failed) == (6, 0), result.problems
    if trace:
        assert result.metrics["runner.cache_hit_ratio"] == 1.0
        assert result.metrics["qoe.frames_scored"] > 0
        assert result.metrics["sim.link.tx_packets"] > 0
        assert list(tmp_path.glob("spans-*.jsonl"))
    else:
        assert all(result.metrics[m["name"]] > 0
                   for m in declared()["end_to_end"])


def test_wrappers_restore_the_originals():
    targets = layers.CELL_LAYERS + layers.RUNNER_LAYERS
    originals = [getattr(*layers.resolve(target)) for target, __ in targets]
    with pytest.raises(RuntimeError):
        with layers.Tracer() as tracer:
            tracer.install(targets)
            assert all(getattr(*layers.resolve(target)) is not original
                       for (target, __), original in zip(targets, originals))
            raise RuntimeError("leave the block early")
    assert all(getattr(*layers.resolve(target)) is original
               for (target, __), original in zip(targets, originals))


def test_an_injected_bad_payload_counts_as_failed(quick, tmp_path,
                                                  monkeypatch):
    from repro.core import experiment

    original = experiment.run_qos_cell

    def corrupt(scenario, buffer_packets, **kwargs):
        report = original(scenario, buffer_packets, **kwargs)
        if buffer_packets == 8:
            report.down_loss = 1.5
        return report

    # Pool workers are forked, so they run the corrupted cell too.
    monkeypatch.setattr(experiment, "run_qos_cell", corrupt)
    result = bench.measure(TINY_ACCESS, seconds=0, out_dir=str(tmp_path))
    assert result.failed == 1
    (problems,) = result.problems.values()
    assert any("down_loss=1.5" in problem for problem in problems)


def test_the_seed_reaches_harpoon_sessions(quick, tmp_path):
    result = bench.measure(TINY_SESSIONS, seed=3, seconds=0,
                           out_dir=str(tmp_path))
    other = bench.measure(TINY_SESSIONS, seed=4, seconds=0,
                          out_dir=str(tmp_path))
    assert result.failed == other.failed == 0
    assert result.payload_sha256 != other.payload_sha256


def test_a_nondeterministic_count_raises():
    first = bench.Pass("serial", [], events=[10, 20])
    second = bench.Pass("traced", [], events=[10, 21])
    with pytest.raises(RuntimeError, match="nondeterministic event counts"):
        bench._same("event counts", [first, second], "events")


@pytest.mark.parametrize("kind, payload, problem", [
    ("video", {"ssim": 1.2, "packet_loss": 0.0, "slice_loss": 0.0,
               "mos": 4.0, "psnr": 40.0}, "ssim=1.2"),
    ("video", {"ssim": 0.9, "packet_loss": 0.0, "slice_loss": 0.0,
               "mos": 4.0, "psnr": float("nan")}, "not finite"),
    ("voip", {"talks": 0.5, "delay": {"talks": 0.1}}, "talks=0.5"),
    ("web", {"plts": [0.0], "median_plt": 1.0, "p80_plt": 1.0, "mos": 3.0},
     "plts[0]=0.0"),
    ("web", {"plts": [31.0], "median_plt": 1.0, "p80_plt": 1.0, "mos": 3.0},
     "plts[0]=31.0"),
    ("qos", {"down_utilization": 0.5, "up_utilization": 0.5,
             "down_loss": -0.1, "up_loss": 0.0, "down_mean_delay": 0.0,
             "up_mean_delay": 0.0, "down_max_delay": 0.0,
             "up_max_delay": 0.0}, "down_loss=-0.1"),
])
def test_check_payload_names_the_bad_value(kind, payload, problem):
    problems = check_payload(kind, payload)
    assert any(problem in found for found in problems), problems


def test_payload_digest_is_canonical():
    assert payload_digest({"a": 1.0, "b": [1, 2]}) == \
        payload_digest({"b": [1, 2], "a": 1.0})
    assert payload_digest({"a": 1.0}) != payload_digest({"a": 1.0000001})


def test_module_groups():
    import repro

    package = os.path.dirname(os.path.abspath(repro.__file__))
    assert layers.module_group(
        (os.path.join(package, "sim", "link.py"), 1, "f")) == "sim.link"
    assert layers.module_group(
        (os.path.join(package, "tcp", "connection.py"), 1, "f")) == "tcp"
    assert layers.module_group(
        ("~", 0, "<built-in method _heapq.heappush>")) == "heapq"
    assert layers.module_group(("/usr/lib/numpy/core.py", 1, "f")) is None


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    env = {key: value for key, value in os.environ.items()
           if key != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "access-bulk",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
