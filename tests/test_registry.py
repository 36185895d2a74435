"""Tests for the declarative sweep registry (repro.core.registry)."""

import json

import pytest

from repro import api
from repro.core import registry
from repro.core.registry import (
    REGISTRY,
    ScenarioSpec,
    SweepSpec,
    access,
    adhoc_sweep,
    backbone,
    get,
)
from repro.core.scenarios import access_scenario
from repro.runner import CellTask, GridRunner, ResultCache

PAPER_NAMES = ("fig4-up", "fig4-down", "fig5", "table1-access",
               "table1-backbone", "fig7a", "fig7b", "fig8", "fig9a",
               "fig9b", "fig10a", "fig10b", "fig11")


def scenario_from_json(data):
    """The :class:`ScenarioSpec` whose ``to_json()`` is ``data``."""
    return ScenarioSpec(**data)


def sweep_from_json(data):
    """The :class:`SweepSpec` whose ``to_json()`` is ``data`` (after a
    JSON round trip, which turns every tuple into a list)."""
    def tuples(value):
        return (tuple(tuples(item) for item in value)
                if isinstance(value, list) else value)

    data = {name: tuples(value) for name, value in data.items()}
    for axis in ("scenarios", "scenarios_small"):
        if data.get(axis) is not None:
            data[axis] = tuple(ScenarioSpec(**item) for item in data[axis])
    return SweepSpec(**data)


def runner_for(tmp_path):
    return GridRunner(workers=1, progress=False,
                      cache=ResultCache(directory=str(tmp_path), enabled=True))


class TestScenarioSpec:
    def test_build_access(self):
        scenario = access("long-many", "bidir").build()
        assert scenario.testbed == "access"
        assert scenario.up_flows == 8 and scenario.down_flows == 64

    def test_build_backbone_ignores_direction(self):
        scenario = backbone("short-low").build()
        assert scenario.testbed == "backbone"
        assert scenario.direction == "down"

    def test_key_defaults_to_workload(self):
        assert access("noBG").key == "noBG"
        assert access("noBG", label="clean").key == "clean"

    def test_validation(self):
        with pytest.raises(ValueError):
            ScenarioSpec("space", "noBG")

    def test_json_round_trip(self):
        spec = access("long-few", "up", label="uplink")
        assert scenario_from_json(spec.to_json()) == spec


class TestRegistryCatalog:
    def test_all_paper_grids_registered(self):
        assert set(REGISTRY) == set(PAPER_NAMES)
        for name in PAPER_NAMES:
            assert get(name).provenance.startswith(("Figure", "Table"))

    def test_unknown_name_rejected(self):
        with pytest.raises(KeyError):
            get("fig99")

    def test_names_cover_registry(self):
        assert set(registry.names()) == set(REGISTRY)

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError):
            registry.register(get("fig5"))

    def test_every_spec_json_round_trips(self):
        for spec in REGISTRY.values():
            data = json.loads(json.dumps(spec.to_json()))
            assert sweep_from_json(data) == spec, spec.name

    def test_every_spec_lowers_to_tasks(self):
        for spec in REGISTRY.values():
            tasks = spec.tasks(scale=1.0)
            assert len(tasks) == spec.cell_count(scale=1.0), spec.name
            assert len(tasks) == len(spec.cells(scale=1.0)), spec.name
            for task in tasks:
                assert task.content_hash()


class TestSweepSpecValidation:
    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            SweepSpec(name="x", kind="quantum", title="", provenance="")

    def test_duplicate_labels(self):
        with pytest.raises(ValueError):
            SweepSpec(name="x", kind="qos", title="", provenance="",
                      scenarios=(access("noBG", "down"),
                                 access("noBG", "up")))

    @pytest.mark.parametrize("axes, message", [
        ({"buffers": (8, 64, 8)}, "repeats buffer size 8"),
        ({"buffers": ((64, 8), (64, 8))}, r"repeats buffer size \(64, 8\)"),
        ({"buffers_small": (8, 8)}, "repeats buffer size 8"),
    ])
    def test_repeated_axis_values(self, axes, message):
        # Two equal cells share one content hash and one key: a result
        # would silently vanish.
        with pytest.raises(ValueError, match=message):
            SweepSpec(name="x", kind="qos", title="", provenance="", **axes)

    def test_repeated_axis_values_through_every_constructor(self):
        with pytest.raises(ValueError, match="repeats buffer size"):
            adhoc_sweep("t", "qos", [access("noBG")], [8, 8])
        with pytest.raises(ValueError, match="repeats buffer size"):
            api.apply_overrides(get("fig7a"), scale=1.0, buffers=(8, 8))

    def test_per_direction_pairs_are_not_repeats(self):
        spec = SweepSpec(name="x", kind="qos", title="", provenance="",
                         buffers=((64, 8), (8, 64), 64))
        assert len(spec.buffers) == 3


class TestScaleResolution:
    def test_duration_floor(self):
        spec = get("fig5")  # duration 15 s, floor 10 s
        assert spec.resolved_duration(scale=1.0) == 15.0
        assert spec.resolved_duration(scale=0.1) == 10.0
        assert spec.resolved_duration(scale=4.0) == 60.0

    def test_axis_switching(self):
        spec = get("fig7b")
        assert len(spec.scenario_axis(scale=1.0)) == 3
        assert len(spec.scenario_axis(scale=4.0)) == 5
        assert spec.buffer_axis(scale=1.0) == (8, 64, 256)
        assert len(spec.buffer_axis(scale=4.0)) == 6

    def test_count_scaling(self):
        spec = get("fig10a")  # fetches base 8, floor 4
        assert spec.resolved_counts(scale=1.0) == {"fetches": 8}
        assert spec.resolved_counts(scale=0.25) == {"fetches": 4}
        assert spec.resolved_counts(scale=2.0) == {"fetches": 16}

    def test_env_scale_used_by_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "4")
        assert registry.resolve_scale() == 4.0
        assert len(get("fig7b").scenario_axis(registry.resolve_scale())) == 5

    def test_bad_env_scale_raises(self, monkeypatch):
        for bad in ("banana", "nan", "inf", "0", "-3"):
            monkeypatch.setenv("REPRO_SCALE", bad)
            with pytest.raises(ValueError, match="REPRO_SCALE"):
                registry.resolve_scale()
        monkeypatch.setenv("REPRO_SCALE", "")
        assert registry.resolve_scale() == 1.0

    def test_describe_is_jsonable(self):
        for spec in REGISTRY.values():
            json.dumps(spec.describe(scale=1.0))


class TestTaskEquivalence:
    def test_fig5_spec_encodes_benchmark_grid(self):
        """The registered fig5 cells ARE the benchmark's historical grid."""
        spec = get("fig5")
        expected = [
            CellTask.make("qos", access_scenario("long-many", "bidir"),
                          packets, seed=1, warmup=8.0, duration=15.0)
            for packets in (8, 16, 32, 64, 128, 256)
        ]
        assert ([task.content_hash() for task in spec.tasks(scale=1.0)]
                == [task.content_hash() for task in expected])


class TestAdhocSweep:
    def test_duration_passes_through_verbatim(self):
        spec = adhoc_sweep("t", "qos", [access("noBG")], [8], duration=2.5)
        assert spec.resolved_duration(scale=1.0) == 2.5
        assert spec.resolved_duration(scale=0.01) == 2.5

    def test_run_returns_keyed_reports(self, tmp_path):
        spec = adhoc_sweep("t", "qos", [access("long-few", "down")], [8, 16],
                           seed=3, warmup=1.0, duration=2.0)
        results = api.run_sweep(spec, scale=1.0, runner=runner_for(tmp_path))
        assert results.keys() == [("long-few", 8), ("long-few", 16)]
        for record in results:
            assert record["down_utilization"] > 0.0

    def test_axes_extend_cell_keys(self, tmp_path):
        spec = adhoc_sweep("t", "video", [access("noBG")], [8],
                           warmup=0.5, duration=1.0,
                           params=(("clip", "C"),),
                           axes=(("resolution", ("SD",)),))
        results = api.run_sweep(spec, scale=1.0, runner=runner_for(tmp_path))
        assert results.keys() == [("noBG", 8, "SD")]
        assert results[("noBG", 8, "SD")]["ssim"] > 0.9
