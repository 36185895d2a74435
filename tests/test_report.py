"""Tests for the reproduction-report subsystem (repro.report).

Covers the fidelity engine (known rank-correlation/deviation values,
verdict threshold edges, SKIP paths), the SVG layer (well-formedness),
the fidelity.json schema validator, report generation end to end, and
byte-identical regeneration of the committed ``docs/sample_report/``.
"""

import dataclasses
import json
import os
import xml.etree.ElementTree as ElementTree

import pytest

from repro import api
from repro.core import registry
from repro.qoe.scales import heat_marker_from_mos
from repro.report import build, fidelity, schema, svg
from repro.report.fidelity import (
    FAIL,
    PASS,
    SKIP,
    WARN,
    FigureCheck,
    MonotoneSpec,
    SeriesSpec,
    Thresholds,
    evaluate,
    spearman,
)
from repro.report.figures import (
    REPORT_FIGURES,
    Boxplots,
    Heatmaps,
    ReportFigure,
    Table,
)
from repro.results.record import CellResult
from repro.results.set import ResultSet
from repro.sim.stats import five_number_summary

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.setenv("REPRO_WORKERS", "1")
    monkeypatch.delenv("REPRO_SCALE", raising=False)


# ---------------------------------------------------------------------------
# Rank statistics.
# ---------------------------------------------------------------------------
class TestSpearman:
    def test_perfect_agreement(self):
        assert spearman([1, 2, 3, 4], [10, 20, 30, 40]) == pytest.approx(1.0)

    def test_perfect_inversion(self):
        assert spearman([1, 2, 3], [9, 5, 1]) == pytest.approx(-1.0)

    def test_known_value(self):
        # One adjacent swap in n=4: rho = 1 - 6*2/(4*15) = 0.8.
        assert spearman([1, 2, 3, 4], [1, 3, 2, 4]) == pytest.approx(0.8)

    def test_ties_share_average_ranks(self):
        assert spearman([1, 1, 2], [5, 5, 9]) == pytest.approx(1.0)

    def test_constant_side_is_undefined(self):
        assert spearman([1, 2, 3], [7, 7, 7]) is None

    def test_too_short_is_undefined(self):
        assert spearman([1], [2]) is None

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            spearman([1, 2], [1, 2, 3])


# ---------------------------------------------------------------------------
# Fidelity engine on hand-built ResultSets.
# ---------------------------------------------------------------------------
def voip_set(talks_by_cell):
    """A keyed VoIP ResultSet from ``{(workload, buffer): talks MOS}``."""
    records = []
    for index, (key, talks) in enumerate(sorted(talks_by_cell.items())):
        records.append(CellResult(
            kind="voip", scenario=key[0], buffer_packets=key[1], seed=0,
            params=(), payload={"talks": talks, "delay": {"talks": 0.15}},
            key=key, index=index))
    return ResultSet(records)


PAPER = {("w", 8): 4.0, ("w", 64): 3.0, ("w", 256): 2.0}


def check_with(thresholds):
    return FigureCheck(units="MOS",
                       series=(SeriesSpec("talks", PAPER, "talks"),),
                       thresholds=thresholds)


class TestEvaluate:
    def test_exact_reproduction_passes(self):
        results = voip_set({key: value for key, value in PAPER.items()})
        scored = evaluate(check_with(Thresholds(
            max_deviation_pass=0.5, rank_pass=0.9, trend_pass=0.9,
            flat_epsilon=0.5)), results)
        assert scored.verdict == PASS
        assert scored.compared == 3
        assert scored.metrics["max_abs_deviation"] == 0.0
        assert scored.metrics["buffer_rank_correlation"] \
            == pytest.approx(1.0)
        assert scored.metrics["trend_agreement"] == 1.0

    def test_known_deviation_value(self):
        results = voip_set({("w", 8): 4.2, ("w", 64): 3.0, ("w", 256): 1.7})
        scored = evaluate(check_with(Thresholds(max_deviation_pass=0.5)),
                          results)
        assert scored.metrics["max_abs_deviation"] == pytest.approx(0.3)
        assert scored.metrics["mean_abs_deviation"] \
            == pytest.approx(0.5 / 3)

    def test_deviation_threshold_edges(self):
        # Exactly at the pass bound -> PASS; between bounds -> WARN;
        # beyond the warn bound -> FAIL.
        results = voip_set({("w", 8): 4.5, ("w", 64): 3.0, ("w", 256): 2.0})
        for pass_bound, warn_bound, expected in (
                (0.5, 1.0, PASS), (0.49, 0.5, WARN), (0.2, 0.49, FAIL)):
            scored = evaluate(check_with(Thresholds(
                max_deviation_pass=pass_bound,
                max_deviation_warn=warn_bound)), results)
            assert scored.verdict == expected, (pass_bound, expected)

    def test_inverted_ordering_fails_rank_gate(self):
        results = voip_set({("w", 8): 2.0, ("w", 64): 3.0, ("w", 256): 4.0})
        scored = evaluate(check_with(Thresholds(
            rank_pass=0.6, rank_warn=0.0, flat_epsilon=0.5)), results)
        assert scored.metrics["buffer_rank_correlation"] \
            == pytest.approx(-1.0)
        assert scored.metrics["trend_agreement"] == 0.0
        assert scored.verdict == FAIL

    def test_flat_epsilon_excludes_row_from_rank_gate(self):
        # Paper range is 2.0; a flat_epsilon above that removes the only
        # row, the buffer-axis metrics become undefined and the pooled
        # rank correlation takes over the gate.
        results = voip_set({("w", 8): 2.0, ("w", 64): 3.0, ("w", 256): 4.0})
        scored = evaluate(check_with(Thresholds(
            rank_pass=0.6, rank_warn=0.0, flat_epsilon=2.5)), results)
        assert scored.metrics["buffer_rank_correlation"] is None
        assert scored.metrics["trend_agreement"] is None
        assert scored.gates["rank_correlation"]["value"] \
            == pytest.approx(-1.0)  # pooled
        assert scored.verdict == FAIL

    def test_verdict_is_worst_gate(self):
        results = voip_set({("w", 8): 4.0, ("w", 64): 3.0, ("w", 256): 2.0})
        scored = evaluate(check_with(Thresholds(
            max_deviation_pass=0.5,          # PASS (deviation 0)
            rank_pass=1.1, rank_warn=0.9,    # WARN (rho 1.0 < 1.1)
            flat_epsilon=0.5)), results)
        assert scored.verdict == WARN

    def test_no_overlap_skips(self):
        results = voip_set({("other", 8): 4.0})
        scored = evaluate(check_with(Thresholds(max_deviation_pass=0.5)),
                          results)
        assert scored.verdict == SKIP
        assert "no overlap" in scored.notes

    def test_empty_results_skip(self):
        scored = evaluate(check_with(Thresholds(max_deviation_pass=0.5)),
                          ResultSet())
        assert scored.verdict == SKIP

    def test_unknown_figure_skips(self):
        unchecked = ReportFigure("unchecked", "fig7b", draw=None)
        assert unchecked.score(voip_set(PAPER)).verdict == SKIP
        assert fidelity.skip("unchecked").verdict == SKIP

    def test_monotone_expectation(self):
        check = FigureCheck(
            units="pp",
            monotone=(MonotoneSpec("up", "talks", direction=1),),
            thresholds=Thresholds(rank_pass=0.8, rank_warn=0.0))
        rising = voip_set({("w", 8): 1.0, ("w", 64): 2.0, ("w", 256): 3.0})
        falling = voip_set({("w", 8): 3.0, ("w", 64): 2.0, ("w", 256): 1.0})
        assert evaluate(check, rising).verdict == PASS
        scored = evaluate(check, falling)
        assert scored.metrics["monotonicity"] == pytest.approx(-1.0)
        assert scored.verdict == FAIL

    def test_table2_closed_form_passes(self):
        scored = fidelity.table2_fidelity()
        assert scored.verdict == PASS
        assert scored.compared > 0

    def test_fidelity_json_roundtrip(self):
        results = voip_set({key: value for key, value in PAPER.items()})
        scored = evaluate(check_with(Thresholds(max_deviation_pass=0.5)),
                          results)
        document = scored.to_json()
        assert json.loads(json.dumps(document)) == document
        assert document["verdict"] == PASS


# ---------------------------------------------------------------------------
# SVG layer.
# ---------------------------------------------------------------------------
class TestSvg:
    def test_heatmap_is_well_formed_xml(self):
        markup = svg.heatmap_panels(
            "t & t", [("panel <1>", ["row"], [8, 64],
                       lambda row, col: ("4.2", "+", "4.0")
                       if col == 8 else None)])
        root = ElementTree.fromstring(markup)
        assert root.tag.endswith("svg")

    def test_heatmap_uses_marker_colors(self):
        markup = svg.heatmap_panels(
            "t", [("p", ["r"], [1], lambda row, col: ("x", "!", None))])
        assert svg.MARKER_COLORS["!"][1] in markup

    def test_line_chart_well_formed(self):
        markup = svg.line_chart(
            "util", [8, 64, 256],
            [("down", [10.0, None, 30.0], [(5.0, 15.0), None,
                                           (25.0, 35.0)])],
            y_label="%")
        ElementTree.fromstring(markup)

    def test_table_well_formed_and_escaped(self):
        markup = svg.table("T <2>", ("a", "b"), [("1 & 2", "x")])
        ElementTree.fromstring(markup)
        assert "&amp;" in markup

    def test_deterministic(self):
        build_one = lambda: svg.line_chart(
            "t", [1, 2], [("s", [0.5, 1.5], None)])
        assert build_one() == build_one()


# ---------------------------------------------------------------------------
# Schema validator.
# ---------------------------------------------------------------------------
class TestSchemaValidator:
    SCHEMA = {
        "type": "object",
        "required": ["verdict"],
        "additionalProperties": False,
        "properties": {
            "verdict": {"enum": ["PASS", "FAIL"]},
            "value": {"type": ["number", "null"]},
            "tags": {"type": "array", "items": {"type": "string"}},
        },
    }

    def test_valid_document(self):
        assert schema.validate({"verdict": "PASS", "value": None,
                                "tags": ["a"]}, self.SCHEMA) == []

    def test_violations_are_reported_with_paths(self):
        errors = schema.validate({"verdict": "MAYBE", "value": "x",
                                  "extra": 1, "tags": [2]}, self.SCHEMA)
        text = "\n".join(errors)
        assert "$.verdict" in text
        assert "$.value" in text
        assert "extra" in text
        assert "$.tags[0]" in text

    def test_missing_required(self):
        errors = schema.validate({}, self.SCHEMA)
        assert any("verdict" in error for error in errors)

    def test_booleans_are_not_numbers(self):
        assert schema.validate(True, {"type": "number"})

    def test_unsupported_keyword_raises(self):
        with pytest.raises(ValueError):
            schema.validate({}, {"patternProperties": {}})

    def test_checked_in_schema_loads(self):
        path = os.path.join(ROOT, "docs", "fidelity.schema.json")
        with open(path, encoding="utf-8") as handle:
            json.load(handle)


# ---------------------------------------------------------------------------
# Report generation end to end (tiny sample).
# ---------------------------------------------------------------------------
class TestGenerateReport:
    def test_sample_report_end_to_end(self, tmp_path):
        out = tmp_path / "report"
        summary = build.generate_report(sample=True, out_dir=str(out))
        assert sorted(entry["figure"] for entry in summary["figures"]) \
            == sorted(build.SAMPLE_FIGURES)
        for name in build.SAMPLE_FIGURES:
            ElementTree.parse(out / ("%s.svg" % name))
        document = json.loads((out / "fidelity.json").read_text())
        schema_path = os.path.join(ROOT, "docs", "fidelity.schema.json")
        with open(schema_path, encoding="utf-8") as handle:
            assert schema.validate(document,
                                   json.load(handle)) == []
        index = (out / "index.md").read_text()
        for name in build.SAMPLE_FIGURES:
            assert "%s.svg" % name in index
        # Schema v2 carries every figure's claims; the sample's fig7a
        # grid lacks the long-many cells its claims read, so they are
        # unevaluated, not true.
        assert document["schema_version"] == build.SCHEMA_VERSION == 2
        fig7a = document["figures"]["fig7a"]["fidelity"]["claims"]
        assert [claim["holds"] for claim in fig7a] == [None, None]
        assert "Claims: 0 of 2 hold" in index

    def test_cached_only_cold_cache_is_graceful(self, tmp_path):
        # Nothing cached: the report must still be produced, with SKIP
        # verdicts and honest 0/N coverage — and must not simulate.
        out = tmp_path / "report"
        summary = build.generate_report(["fig7a"], str(out),
                                        cached_only=True)
        entry = summary["figures"][0]
        assert entry["verdict"] == SKIP
        assert entry["cells_present"] == 0
        assert entry["cells_expected"] > 0
        assert "partial grid" in (out / "index.md").read_text()

    def test_cached_only_after_run_matches_bytes(self, tmp_path):
        first = tmp_path / "first"
        second = tmp_path / "second"
        build.generate_report(sample=True, out_dir=str(first))
        # Second pass: cache-only, zero simulations, identical bytes.
        build.generate_report(sample=True, out_dir=str(second),
                              cached_only=True)
        for name in os.listdir(first):
            assert (first / name).read_bytes() \
                == (second / name).read_bytes(), name

    def test_unknown_figure_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="fig99"):
            build.generate_report(["fig99"], str(tmp_path))

    def test_sample_conflicts_are_rejected(self, tmp_path):
        # --sample must not silently override explicit names or scale.
        with pytest.raises(ValueError, match="figure names"):
            build.generate_report(["fig8"], str(tmp_path), sample=True)
        with pytest.raises(ValueError, match="scale"):
            build.generate_report(None, str(tmp_path), sample=True,
                                  scale=2.0)

    def test_trend_uses_highlighted_buffers(self):
        # A non-highlighted extreme (16) must not anchor the trend when
        # highlighted sizes (8, 256) are present: paper rises end to
        # end at the anchors, and the reproduction matching at the
        # anchors passes even though it dips at 16.
        paper = {("w", 8): 3.0, ("w", 16): 1.0, ("w", 256): 4.0}
        results = voip_set({("w", 8): 3.0, ("w", 16): 3.5,
                            ("w", 256): 4.0})
        check = FigureCheck(
            units="MOS",
            series=(SeriesSpec("talks", paper, "talks"),),
            thresholds=Thresholds(trend_pass=1.0, flat_epsilon=0.5))
        scored = evaluate(check, results)
        assert scored.metrics["trend_agreement"] == 1.0

    def test_table2_needs_no_results(self, tmp_path):
        summary = build.generate_report(["table2"], str(tmp_path),
                                        cached_only=True)
        assert summary["figures"][0]["verdict"] == PASS

    def test_rescoped_run_removes_stale_figure_svgs(self, tmp_path):
        # A narrower re-run must not leave orphaned SVGs that the new
        # index.md/fidelity.json no longer reference; unrelated files
        # are untouched.
        build.generate_report(["table2", "fig7a"], str(tmp_path),
                              cached_only=True)
        (tmp_path / "notes.txt").write_text("keep me")
        build.generate_report(["table2"], str(tmp_path),
                              cached_only=True)
        assert not (tmp_path / "fig7a.svg").exists()
        assert (tmp_path / "table2.svg").exists()
        assert (tmp_path / "notes.txt").read_text() == "keep me"


class TestFigureModels:
    """Every catalog figure is one model, drawn as SVG."""

    @pytest.mark.parametrize("name", list(REPORT_FIGURES))
    def test_empty_results_render_blank(self, name):
        figure = REPORT_FIGURES[name]
        spec = results = None
        if figure.sweep is not None:
            spec = registry.get(figure.sweep)
            results = ResultSet()
        model = figure.model(results, spec, 1.0)
        markup = model.svg()
        ElementTree.fromstring(markup)
        if isinstance(model, Heatmaps):
            for __, rows, cols, cell_fn in model.panels:
                assert rows and cols
                assert all(cell_fn(row, col) is None
                           for row in rows for col in cols)
                for row in rows:
                    assert ">%s</text>" % row in markup
        elif isinstance(model, Boxplots):
            assert all(box is None
                       for __, boxes in model.series for box in boxes)
            assert "<circle" not in markup and "<polygon" not in markup
        elif figure.sweep is not None:
            assert isinstance(model, Table) and model.rows == []
        else:  # closed-form Table 2 needs no results
            assert ">backbone 7490</text>" in markup
        # Every figure states its claims once each; with no cells they
        # are unevaluated, except Table 2's, which read no results.
        statements = [statement for statement, __ in figure.claims]
        assert statements and len(set(statements)) == len(statements)
        holds = [claim["holds"] for claim in figure.score(results).claims]
        assert holds == [figure.sweep is None or None] * len(statements)

    def test_sample_results_fill_the_model_and_its_svg(self):
        committed = os.path.join(ROOT, "docs", "sample_report")
        for name in build.SAMPLE_FIGURES:
            figure = REPORT_FIGURES[name]
            spec = api.apply_overrides(registry.get(figure.sweep),
                                       scale=1.0,
                                       **build.SAMPLE_OVERRIDES[name])
            results = api.run_sweep(spec, scale=1.0)
            model = figure.model(results, spec, 1.0)
            markup = model.svg()
            with open(os.path.join(committed, "%s.svg" % name),
                      encoding="utf-8") as handle:
                assert markup == handle.read()
            assert ">%s</text>" % model.title in markup
            if name == "fig7a":
                for title, __, __, cell_fn in model.panels:
                    direction = title.split()[1]  # "user talks — ..."
                    for record in results:
                        mos = record[direction]
                        text, marker, __ = cell_fn(*record.key)
                        assert text == "%.1f" % mos
                        assert marker == heat_marker_from_mos(mos)
                        assert ">%s</text>" % text in markup
            else:
                workload = spec.workloads(1.0)[0]
                for side, (__, boxes) in zip(("down", "up"), model.series):
                    assert boxes == [five_number_summary(
                        results[(workload, packets)]
                        ["%s_utilization_samples" % side])
                        for packets in model.buffers]


#: Every column a catalog figure reads, per cell kind; synthetic cells
#: hold 0.0 wherever no paper series sets a value.
KIND_COLUMNS = {
    "qos": ("up_mean_delay", "down_mean_delay", "up_utilization",
            "down_utilization", "up_loss", "down_loss", "concurrent_flows"),
    "voip": ("talks", "listens"),
    "video": ("ssim", "mos"),
    "web": ("median_plt", "mos"),
}

PAPER_FIGURES = [name for name, figure in REPORT_FIGURES.items()
                 if figure.check is not None and figure.check.series]


def paper_results(figure, spec, scale):
    """A ResultSet over ``spec``'s cells whose values equal the figure's
    paper grids, each divided by its series' factor, and the paper cells
    those grids put on the sweep's axes (``{series label: {paper key:
    value}}``)."""
    axis_names = [param for param, __ in spec.axes]
    records = []
    on_axes = {series.label: {} for series in figure.check.series}
    for index, key in enumerate(spec.cells(scale)):
        params = tuple(sorted(zip(axis_names, key[2:])))
        payload = dict.fromkeys(KIND_COLUMNS[spec.kind], 0.0)
        payload["up_utilization_samples"] = [0.0]
        payload["down_utilization_samples"] = [0.0]
        for series in figure.check.series:
            paper = series.paper.get(series.map_key(key))
            if paper is not None and set(series.filters) <= set(params):
                payload[series.column] = paper / series.factor
                on_axes[series.label][series.map_key(key)] = paper
        records.append(CellResult(
            kind=spec.kind, scenario=key[0], buffer_packets=key[1], seed=0,
            params=params, payload=payload, key=key, index=index))
    return ResultSet(records), on_axes


def _tolerance(token):
    """Half a unit in the last printed digit of ``token``."""
    decimals = len(token.split(".")[1]) if "." in token else 0
    return 0.5 * 10 ** -decimals + 1e-9


def _panel_shows(panel, markup, paper):
    """Whether one heatmap panel's ``cell_fn`` puts every value of the
    ``paper`` grid, and only those, on its axes, and the figure's SVG
    ``markup`` draws each."""
    __, rows, cols, cell_fn = panel
    for row in rows:
        for col in cols:
            cell = cell_fn(row, col)
            shown = cell[2] if cell else None
            if (row, col) not in paper:
                if shown is not None:
                    return False
            elif (shown is None
                  or abs(float(shown) - paper[(row, col)]) > _tolerance(shown)
                  or ">%s</text>" % shown not in markup):
                return False
    return True


class TestProductionPairing:
    """Every catalog figure with paper series draws and scores the same
    grids: fed its own paper values, it deviates by nothing and shows
    each one on its axes."""

    @pytest.mark.parametrize("name", PAPER_FIGURES)
    def test_paper_grid_scores_zero_and_is_shown(self, name):
        figure = REPORT_FIGURES[name]
        spec = registry.get(figure.sweep)
        scale = spec.full_scale
        results, on_axes = paper_results(figure, spec, scale)
        scored = figure.score(results)
        assert scored.compared == sum(len(cells)
                                      for cells in on_axes.values()) > 0
        assert scored.metrics["max_abs_deviation"] <= 1e-9

        model = figure.model(results, spec, scale)
        markup = model.svg()
        if isinstance(model, Heatmaps):
            for label, paper in on_axes.items():
                assert any(_panel_shows(panel, markup, paper)
                           for panel in model.panels), label
        elif isinstance(model, Table):
            for index, paper in enumerate(on_axes.values(), start=1):
                shown = sorted(float(row[index].split(" / ")[1])
                               for row in model.rows)
                assert shown == pytest.approx(sorted(paper.values()),
                                              abs=0.05)
            for row in model.rows:
                for cell in row:
                    assert ">%s</text>" % cell in markup
        else:
            # Figure 5 anchors on Table 1's utilizations, which its
            # boxplots do not draw.
            assert isinstance(model, Boxplots)


    def test_one_record_mutation_flips_its_claim(self):
        figure = REPORT_FIGURES["fig7b"]
        spec = registry.get(figure.sweep)
        results, __ = paper_results(figure, spec, spec.full_scale)
        mutated = ResultSet(
            dataclasses.replace(record,
                                payload=dict(record.payload, talks=3.0))
            if record.key == ("noBG", 64) else record
            for record in results)
        before = figure.score(results).claims
        after = figure.score(mutated).claims
        assert [(old["claim"], old["holds"], new["holds"])
                for old, new in zip(before, after) if old != new] == [
            ("noBG at 64 packets: talks MOS above 3.9", True, False)]


class TestCommittedSample:
    def test_sample_report_regenerates_byte_identically(self, tmp_path):
        committed = os.path.join(ROOT, "docs", "sample_report")
        out = tmp_path / "regenerated"
        build.generate_report(sample=True, out_dir=str(out))
        generated = sorted(os.listdir(out))
        assert sorted(os.listdir(committed)) == generated
        for name in generated:
            with open(os.path.join(committed, name), "rb") as handle:
                expected = handle.read()
            assert (out / name).read_bytes() == expected, (
                "docs/sample_report/%s is stale — regenerate with "
                "`python -m repro report --sample -o docs/sample_report`"
                % name)


class TestReportCli:
    def test_report_command(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "rep"
        assert main(["report", "--sample", "-o", str(out)]) == 0
        assert (out / "fidelity.json").exists()
        assert "PASS" in capsys.readouterr().err

    def test_unknown_name_exits_cleanly(self, tmp_path):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["report", "fig99", "-o", str(tmp_path)])

    def test_sample_with_names_exits_cleanly(self, tmp_path):
        from repro.cli import main

        with pytest.raises(SystemExit, match="renders exactly"):
            main(["report", "fig8", "--sample", "-o", str(tmp_path)])

    def test_schema_cli(self, tmp_path, capsys):
        from repro.report.schema import main as schema_main

        document = tmp_path / "doc.json"
        document.write_text('{"schema_version": 1, "scale": 1.0, '
                            '"figures": {}}')
        schema_path = os.path.join(ROOT, "docs", "fidelity.schema.json")
        assert schema_main([str(document), schema_path]) == 0
        document.write_text('{"scale": 1.0}')
        assert schema_main([str(document), schema_path]) == 1
