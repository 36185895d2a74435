"""Tests for the results layer (repro.results).

The round-trip suite executes one real cell per kind (tiny windows) and
checks payload → record → rows/CSV/JSON → parse-back fidelity; the
ResultSet and summary tests run on synthetic records and stay sim-free.
"""

import csv
import io
import json

import pytest

from repro.core.scenarios import access_scenario
from repro.results import (
    CellResult,
    ResultSet,
    flatten_metrics,
    format_buffer,
    jsonify,
    key_str,
    record_from_payload,
)
from repro.runner import CellTask
from repro.runner.execute import execute_task
from repro.sim.stats import five_number_summary

# ---------------------------------------------------------------------------
# One real payload per kind (executed once per test session).
# ---------------------------------------------------------------------------
KIND_TASKS = {
    "qos": lambda: CellTask.make(
        "qos", access_scenario("long-few", "down"), 16, seed=1,
        warmup=0.5, duration=1.0),
    "voip": lambda: CellTask.make(
        "voip", access_scenario("noBG"), 64, seed=0, warmup=0.5,
        duration=1.5, calls=1, directions=("listens",)),
    "video": lambda: CellTask.make(
        "video", access_scenario("noBG"), 64, seed=0, warmup=0.5,
        duration=1.0, clip="C", resolution="SD"),
    "web": lambda: CellTask.make(
        "web", access_scenario("noBG"), 64, seed=0, warmup=0.5, fetches=2),
}


@pytest.fixture(scope="module")
def executed():
    """``{kind: (task, payload)}`` — each cell simulated exactly once."""
    out = {}
    for kind, make in KIND_TASKS.items():
        task = make()
        out[kind] = (task, execute_task(task))
    return out


class TestRecordRoundTrip:
    @pytest.mark.parametrize("kind", sorted(KIND_TASKS))
    def test_payload_to_record_to_rows_preserves_every_metric(self, kind,
                                                              executed):
        task, payload = executed[kind]
        record = record_from_payload(task, payload, key=("cell", 1),
                                     index=0)
        assert isinstance(record, CellResult)
        assert record.kind == kind
        assert record.payload == payload  # wire format untouched
        metrics = record.metrics
        assert metrics, "every kind must expose scalar metrics"

        (row,) = ResultSet([record]).to_rows()
        for name, value in metrics.items():
            assert row[name] == value, name

        text = ResultSet([record]).to_csv()
        (parsed,) = list(csv.DictReader(io.StringIO(text)))
        for name, value in metrics.items():
            assert float(parsed[name]) == value, (
                "metric %s did not survive the CSV round trip" % name)
        assert parsed["kind"] == kind
        assert parsed["scenario"] == str(task.scenario)
        assert parsed["key"] == "cell/1"

    @pytest.mark.parametrize("kind", sorted(KIND_TASKS))
    def test_json_export_keeps_payload_bit_identical(self, kind, executed):
        task, payload = executed[kind]
        rs = ResultSet([record_from_payload(task, payload)])
        (entry,) = json.loads(rs.to_json())
        assert entry["payload"] == payload
        assert entry["kind"] == kind
        assert entry["seed"] == task.seed

    def test_qos_record_reads_its_payload(self, executed):
        task, payload = executed["qos"]
        record = record_from_payload(task, payload)
        assert record["down_utilization"] == payload["down_utilization"]
        assert record.value("up_mean_delay") == payload["up_mean_delay"]
        assert record.buffer_packets == 16  # axis value, not payload echo
        box = five_number_summary(record["down_utilization_samples"])
        assert box[0] <= box[2] <= box[4]

    def test_voip_record_accessors(self, executed):
        task, payload = executed["voip"]
        record = record_from_payload(task, payload)
        assert record["listens"] == payload["listens"]  # dict-style
        assert record["delay"]["listens"] == payload["delay"]["listens"]
        assert record.value("listens") == payload["listens"]
        assert record.metrics["delay.listens"] == payload["delay"]["listens"]
        assert record.value("calls") == 1  # a param column

    def test_video_and_web_accessors(self, executed):
        __, video_payload = executed["video"]
        video = record_from_payload(KIND_TASKS["video"](), video_payload)
        assert video["ssim"] == video_payload["ssim"]
        assert video.value("resolution") == "SD"  # a param column

        __, web_payload = executed["web"]
        web = record_from_payload(KIND_TASKS["web"](), web_payload)
        assert web["median_plt"] == web_payload["median_plt"]
        assert web["plts"] == web_payload["plts"]  # series kept on payload
        assert "plts" not in web.metrics  # ... but it is not a metric


# ---------------------------------------------------------------------------
# Sim-free ResultSet verbs on synthetic records.
# ---------------------------------------------------------------------------
def voip_record(scenario, packets, talks, listens, index=None):
    return CellResult(
        kind="voip", scenario=scenario, buffer_packets=packets, seed=3,
        params=(("calls", 1),),
        payload={"talks": talks, "listens": listens,
                 "delay": {"talks": 0.1, "listens": 0.2}},
        key=(scenario, packets), index=index)


@pytest.fixture()
def synthetic():
    return ResultSet([
        voip_record("noBG", 8, 4.2, 4.3, index=0),
        voip_record("noBG", 256, 4.1, 4.2, index=1),
        voip_record("long-few", 8, 3.0, 3.6, index=2),
        voip_record("long-few", 256, 1.2, 2.8, index=3),
    ])


class TestResultSet:
    def test_len_iter_and_indexing(self, synthetic):
        assert len(synthetic) == 4
        assert [r.buffer_packets for r in synthetic] == [8, 256, 8, 256]
        assert synthetic[0].scenario == "noBG"
        assert synthetic[("long-few", 256)].value("talks") == 1.2
        assert ("noBG", 8) in synthetic
        assert ("ghost", 8) not in synthetic

    def test_column_and_value_lookup(self, synthetic):
        record = synthetic[("long-few", 256)]
        assert record.value("talks") == 1.2  # metric
        assert record.value("buffer") == 256  # axis alias
        assert record.value("kind") == "voip"  # axis
        assert record.value("calls") == 1  # param
        assert record.value("delay.listens") == 0.2  # nested metric
        with pytest.raises(KeyError):
            record.value("mystery")

    def test_filter_is_equality_only(self, synthetic):
        assert len(synthetic.filter(scenario="noBG")) == 2
        assert len(synthetic.filter(scenario="noBG", buffer=8)) == 1
        # A tuple is a value, not a set of choices: a (down, up) buffer
        # pair matches only records with that pair.
        assert len(synthetic.filter(buffer=(8, 256))) == 0
        pair = voip_record("noBG", (64, 8), 4.0, 4.0)
        assert list(ResultSet([pair]).filter(buffer=(64, 8))) == [pair]

    def test_value_map_is_heatmap_shaped(self, synthetic):
        grid = synthetic.value_map("talks")
        assert grid[("long-few", 256)] == 1.2
        assert grid[("noBG", 8)] == 4.2
        assert len(grid) == 4
        assert synthetic.value_map("talks", scenario="noBG") == {
            ("noBG", 8): 4.2, ("noBG", 256): 4.1}

    def test_from_stream_restores_task_order(self, synthetic):
        shuffled = [synthetic[2], synthetic[0], synthetic[3], synthetic[1]]
        rs = ResultSet.from_stream(shuffled)
        assert [r.index for r in rs] == [0, 1, 2, 3]
        assert rs == synthetic

    def test_value_map_requires_keys(self, synthetic):
        grid = synthetic.value_map("talks")
        assert grid[("noBG", 8)] == synthetic[0]["talks"]
        keyless = ResultSet([CellResult(
            kind="voip", scenario="s", buffer_packets=8, seed=0, params=(),
            payload={"talks": 1.0})])
        with pytest.raises(KeyError):
            keyless.value_map("talks")

    def test_csv_handles_heterogeneous_columns(self, synthetic):
        web = CellResult(
            kind="web", scenario="w", buffer_packets=8, seed=0, params=(),
            payload={"median_plt": 1.0, "mos": 4.0, "p80_plt": 1.2,
                     "plts": [1.0]},
            key=("w", 8))
        text = ResultSet(list(synthetic) + [web]).to_csv()
        rows = list(csv.DictReader(io.StringIO(text)))
        assert len(rows) == 5
        assert rows[0]["median_plt"] == ""  # missing column left empty
        assert rows[4]["median_plt"] == "1.0"


class TestConvertHelpers:
    def test_key_str_and_format_buffer(self):
        assert key_str(("long-few", 64, "HD")) == "long-few/64/HD"
        assert format_buffer(64) == "64"
        assert format_buffer((64, 8)) == "64:8"

    def test_flatten_metrics(self):
        flat = flatten_metrics({"a": 1.5, "b": {"c": 2, "d": {"e": 3}},
                                "s": "text", "l": [1, 2], "f": True})
        assert flat == {"a": 1.5, "b.c": 2, "b.d.e": 3}

    def test_jsonify_reexported_and_canonical(self):
        import numpy as np

        assert jsonify({"a": np.float64(1.5), "b": (1, 2)}) == {
            "a": 1.5, "b": [1, 2]}
        from repro.runner.execute import jsonify as runner_jsonify

        assert runner_jsonify is jsonify  # one copy, not three

    def test_unknown_kind_rejected(self):
        class Fake:
            kind = "quantum"

        with pytest.raises(ValueError):
            record_from_payload(Fake(), {})

    def test_base_record_value_errors_name_unknown_columns(self):
        record = CellResult(kind="qos", scenario="s", buffer_packets=8,
                            seed=0, params=(), payload={"x": 1.0})
        assert record.value("x") == 1.0
        with pytest.raises(KeyError):
            record.value("y")
