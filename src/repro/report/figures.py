"""The figure catalog: one definition per reportable paper artifact.

Each entry of :data:`REPORT_FIGURES` is the only place its figure is
declared: which registered sweep feeds it (``sweep`` — None for the
closed-form Table 2), how its :class:`repro.results.set.ResultSet`
becomes a *model* of what the figure shows (``model(results, spec,
scale)``), and its fidelity declaration (``check``, a
:class:`repro.report.fidelity.FigureCheck`).  The paper values a model
draws are the series of that check, so what the figure shows and what
its verdict scores cannot drift apart.  Models come in three shapes:

* :class:`Heatmaps` — per-(workload, buffer) panels coloured by QoE
  class (Figures 4 and 7–11), with the digitized paper value beside
  every cell that has one;
* :class:`Boxplots` — Figure 5's per-buffer five-number summaries;
* :class:`Table` — headers and rows of measured-vs-paper values
  (Tables 1 and 2).

Every model has two backends: ``svg()`` draws it for the report
(:mod:`repro.report.svg`) and ``text()`` prints it for ``python -m repro
figures`` and the benchmarks (:mod:`repro.viz.heatmap`).  Text cells
show the value plus its quality marker (``+``/``o``/``!``) and, where
the paper has one, `` / `` and the paper value; the SVG shows the
matching traffic-light fill of :data:`repro.viz.heatmap.MARKER_COLORS`
with the paper value under the reproduced one.

Models tolerate partial results (``--cached-only`` on a cold cache):
cells absent from the set come out blank, so a figure is always
producible and visibly honest about its coverage.
"""

from dataclasses import dataclass

from repro.core import paper_data
from repro.qoe.scales import heat_marker_from_delay, heat_marker_from_mos
from repro.report import fidelity, svg
from repro.report.fidelity import (FigureCheck, MonotoneSpec, SeriesSpec,
                                   Thresholds)
from repro.sim.stats import five_number_summary
from repro.viz.heatmap import render_grid, render_table


# ---------------------------------------------------------------------------
# Models and their two backends.
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class Heatmaps:
    """Labelled heatmap panels under one title.

    ``panels`` holds ``(panel title, row labels, col labels, cell_fn)``;
    ``cell_fn(row, col)`` returns None (no data) or a ``(text, marker,
    subtext)`` triple, where ``marker`` is the quality marker (or None)
    and ``subtext`` the paper value (or None).
    """

    title: str
    panels: list

    def svg(self):
        return svg.heatmap_panels(self.title, self.panels)

    def text(self):
        blocks = [self.title]
        for panel_title, rows, cols, cell_fn in self.panels:
            def cell(row, col, cell_fn=cell_fn):
                value = cell_fn(row, col)
                if value is None:
                    return None
                text, marker, paper = value
                return (text + (marker or "")
                        + (" / " + paper if paper else ""))
            blocks.append(render_grid(panel_title, rows, cols, cell,
                                      col_header="workload\\buf"))
        return "\n\n".join(blocks)


@dataclass(frozen=True)
class Boxplots:
    """Figure 5: per-buffer five-number summaries of utilization.

    ``series`` holds ``(label, boxes)`` with one ``(min, q1, median, q3,
    max)`` fraction tuple (or None when missing) per entry of
    ``buffers``.
    """

    title: str
    buffers: list
    series: list

    def svg(self):
        lines = []
        for label, boxes in self.series:
            lines.append((
                label,
                [box[2] * 100.0 if box else None for box in boxes],
                [(box[1] * 100.0, box[3] * 100.0) if box else None
                 for box in boxes]))
        return svg.line_chart(
            self.title, self.buffers, lines,
            y_label="utilization [%] (median, quartile band)",
            y_range=(0.0, 102.0), y_ticks=(0, 25, 50, 75, 100))

    def text(self):
        rows = []
        for index, packets in enumerate(self.buffers):
            for label, boxes in self.series:
                box = boxes[index]
                rows.append((packets, label) + (
                    tuple("%.0f%%" % (value * 100) for value in box)
                    if box else ("",) * 5))
        return render_table(
            self.title,
            ("buffer", "link", "min", "q1", "median", "q3", "max"), rows)


@dataclass(frozen=True)
class Table:
    """An aligned table of cell strings, with an optional note."""

    title: str
    headers: tuple
    rows: list
    note: str = None

    def svg(self):
        return svg.table(self.title, self.headers, self.rows, note=self.note)

    def text(self):
        text = render_table(self.title, self.headers, self.rows)
        return text + "\n" + self.note if self.note else text


@dataclass(frozen=True)
class ReportFigure:
    """One figure: its feeding sweep, its drawing and its check.

    ``draw(results, spec, scale, check)`` builds the model and takes the
    paper values it shows from ``check``.  The report heads a figure
    with its sweep's title; only the sweepless Table 2 has a ``title``
    of its own.
    """

    name: str
    sweep: str  # registered sweep feeding it; None for closed-form
    draw: callable  # -> Heatmaps/Boxplots/Table
    check: FigureCheck = None  # None: no paper data, the verdict is SKIP
    title: str = None

    def model(self, results, spec, scale):
        """The figure's model over ``results`` of ``spec`` at ``scale``."""
        return self.draw(results, spec, scale, self.check)

    def text(self, results, spec, scale):
        """The model's text and a ``fidelity NAME: VERDICT (gates)`` line.

        What ``python -m repro figures`` and the benchmarks print; the
        verdict is :meth:`score`'s, the one the report writes.
        """
        scored = self.score(results)
        gates = ", ".join("%s %.3g" % (gate_name, gate["value"])
                          for gate_name, gate in scored.gates.items())
        return "%s\nfidelity %s: %s%s" % (
            self.model(results, spec, scale).text(), self.name,
            scored.verdict, " (%s)" % gates if gates else "")

    def score(self, results):
        """The figure's :class:`repro.report.fidelity.FigureFidelity`."""
        if self.name == "table2":
            return fidelity.table2_fidelity()
        if self.check is None:
            return fidelity.skip(self.name)
        if results is None or len(results) == 0:
            return fidelity.skip(
                self.name, "no reproduced cells available (cold cache?)")
        return fidelity.evaluate(self.check, results, figure=self.name)


# ---------------------------------------------------------------------------
# Grid helpers.
# ---------------------------------------------------------------------------
def _grid(results, column, **filters):
    """``{(workload, buffer): value}`` for one column, axes pinned by
    ``filters`` (missing column values are simply absent)."""
    return {key[:2]: value
            for key, value in results.value_map(column, **filters).items()}


def _heat_cell(values, markers, paper, fmt):
    """A heatmap ``cell_fn`` over value/marker grids + paper overlay."""
    def cell(row, col):
        value = values.get((row, col))
        if value is None:
            return None
        subtext = None
        if (row, col) in paper:
            subtext = fmt % paper[(row, col)]
        return (fmt % value, markers.get((row, col)), subtext)
    return cell


def _axes(results, spec, scale):
    """Row/column labels: the spec's axes (so missing cells show as
    gaps), falling back to the result keys for ad-hoc specs."""
    rows = list(spec.workloads(scale))
    cols = list(spec.buffer_axis(scale))
    if not rows or not cols:
        keys = sorted({key[:2] for key in results.keys()})
        rows = sorted({row for row, __ in keys})
        cols = sorted({col for __, col in keys})
    return rows, cols


# ---------------------------------------------------------------------------
# Heatmap figures.
# ---------------------------------------------------------------------------
def _fig4(direction):
    def draw(results, spec, scale, check):
        rows, cols = _axes(results, spec, scale)
        panels = []
        for side, label in (("up", "uplink"), ("down", "downlink")):
            delays = _grid(results, "%s_mean_delay" % side)
            values = {key: value * 1000.0 for key, value in delays.items()}
            markers = {key: heat_marker_from_delay(value)
                       for key, value in delays.items()}
            panels.append((
                "mean %sLINK queueing delay [ms]" % side.upper(),
                rows, cols,
                _heat_cell(values, markers, check.paper(label), "%.0f")))
        return Heatmaps(
            "Figure 4 (%sstream congestion): mean queueing delay"
            % direction, panels)
    return draw


def _voip(results, spec, scale, check):
    # Panels follow the sweep's call directions, whatever order the
    # check scores its series in.
    rows, cols = _axes(results, spec, scale)
    directions = dict(spec.params).get("directions", ("talks", "listens"))
    panels = []
    for direction in directions:
        values = _grid(results, direction)
        markers = {key: heat_marker_from_mos(value)
                   for key, value in values.items()}
        panels.append(("user %s — median MOS" % direction, rows, cols,
                       _heat_cell(values, markers, check.paper(direction),
                                  "%.1f")))
    return Heatmaps(spec.title, panels)


def _video(results, spec, scale, check):
    rows, cols = _axes(results, spec, scale)
    resolutions = dict(spec.axes).get("resolution", ("SD", "HD"))
    panels = []
    for resolution in resolutions:
        values = _grid(results, "ssim", resolution=resolution)
        mos = _grid(results, "mos", resolution=resolution)
        markers = {key: heat_marker_from_mos(value)
                   for key, value in mos.items()}
        panels.append(("%s — median SSIM" % resolution, rows, cols,
                       _heat_cell(values, markers, check.paper(resolution),
                                  "%.2f")))
    return Heatmaps(spec.title, panels)


def _web(results, spec, scale, check):
    rows, cols = _axes(results, spec, scale)
    values = _grid(results, "median_plt")
    markers = {key: heat_marker_from_mos(value)
               for key, value in _grid(results, "mos").items()}
    panel = ("median page-load time [s] (colour: G.1030 MOS)", rows, cols,
             _heat_cell(values, markers, check.paper("median PLT"), "%.1f"))
    return Heatmaps(spec.title, [panel])


# ---------------------------------------------------------------------------
# Figure 5: per-second utilization per buffer size.
# ---------------------------------------------------------------------------
def _fig5(results, spec, scale, check):
    __, cols = _axes(results, spec, scale)
    workloads = spec.workloads(scale)
    workload = workloads[0] if workloads else None
    series = []
    for label, column in (("downlink", "down_utilization_samples"),
                          ("uplink", "up_utilization_samples")):
        boxes = []
        for buffer_packets in cols:
            key = (workload, buffer_packets)
            boxes.append(five_number_summary(results[key][column])
                         if key in results else None)
        series.append((label, boxes))
    return Boxplots(
        "Figure 5: per-second link utilization, bidirectional long "
        "workload", cols, series)


# ---------------------------------------------------------------------------
# Tables 1 and 2 (measured next to the paper's numbers).
# ---------------------------------------------------------------------------
def _paper_text(value, fmt="%s"):
    """A paper value as printed in a table cell (``—`` when absent)."""
    return "—" if value is None else fmt % value


def _table1_series(paper, paper_key, columns):
    """Table 1 series: ``columns`` holds ``(label, index in the paper
    row, record column)``; ``paper_key`` maps a row label to its paper
    row."""
    return tuple(
        SeriesSpec(label, {key: row[index] for key, row in paper.items()},
                   column, factor=100.0,
                   map_key=lambda key: paper_key(key[0]))
        for label, index, column in columns)


def _table1(title, headers):
    """A Table 1 half: one row per present cell, one ``reproduced /
    paper`` percent cell per series of the figure's check."""
    def draw(results, spec, scale, check):
        rows = []
        for label in spec.workloads(scale):
            for key in results.keys():
                if key[0] != label:
                    continue
                record = results[key]
                rows.append((label,) + tuple(
                    "%.1f / %s" % (
                        record.value(series.column) * series.factor,
                        _paper_text(series.paper.get(series.map_key(key)),
                                    "%.1f"))
                    for series in check.series))
        return Table(title, headers, rows,
                     note="each cell: reproduced value / paper value")
    return draw


def _table2(results, spec, scale, check):
    from repro.core.buffers import (access_buffer_delays,
                                    backbone_buffer_delays)

    rows = []
    for packets, up_delay, down_delay in access_buffer_delays():
        paper = paper_data.TABLE2_ACCESS.get(packets, (None, None))
        rows.append(("access %d" % packets,
                     "%.0f / %s" % (up_delay * 1000.0,
                                    _paper_text(paper[0])),
                     "%.0f / %s" % (down_delay * 1000.0,
                                    _paper_text(paper[1]))))
    for packets, delay in backbone_buffer_delays():
        rows.append(("backbone %d" % packets,
                     "%.1f / %s" % (delay * 1000.0, _paper_text(
                         paper_data.TABLE2_BACKBONE.get(packets))),
                     ""))
    return Table(
        "Table 2: maximum queueing delay per buffer size [ms]",
        ("buffer", "uplink / paper", "downlink / paper"), rows,
        note="closed-form (repro.core.buffers), no simulation involved; "
             "backbone rows have a single direction")


# ---------------------------------------------------------------------------
# The figure catalog (report order).
#
# Threshold calibration: the PASS/WARN bounds below were set against a
# full-scale (REPRO_SCALE=4) reproduction run with comfortable headroom
# over the measured deviation (see docs/REPORTING.md for the measured
# values per figure).  Tightening a bound is a deliberate act: do it
# only with a fresh full-scale run in hand.
# ---------------------------------------------------------------------------
REPORT_FIGURES = {}


def _register(figure):
    REPORT_FIGURES[figure.name] = figure
    return figure


_MOS_THRESHOLDS = Thresholds(
    max_deviation_pass=1.5, max_deviation_warn=2.5,
    rank_pass=0.6, rank_warn=0.3,
    trend_pass=0.5, trend_warn=0.25,
    flat_epsilon=0.5)


def _fig5_anchor(index):
    """Table 1's long-many/bidir utilization, anchored at the 64-packet
    downlink-BDP buffer of the fig5 sweep."""
    return {("long-many", 64):
            paper_data.TABLE1_ACCESS[("long-many", "bidir")][index]}


_register(ReportFigure(
    "fig4-up", "fig4-up", _fig4("up"), FigureCheck(
        units="ms",
        series=(SeriesSpec("uplink", paper_data.FIG4_UP_ONLY_UPLINK,
                           "up_mean_delay", factor=1000.0),),
        thresholds=Thresholds(
            max_deviation_pass=1500.0, max_deviation_warn=2500.0,
            rank_pass=0.9, rank_warn=0.6,
            trend_pass=0.99, trend_warn=0.5,
            flat_epsilon=50.0),
        notes="the bufferbloat staircase: ordering and growth trend are "
              "the signal, absolute ms deviations are secondary")))
_register(ReportFigure(
    "fig4-down", "fig4-down", _fig4("down"), FigureCheck(
        units="ms",
        envelope_column="down_mean_delay",
        envelope_bound=paper_data.FIG4_DOWN_ONLY_DOWNLINK_MAX_MS,
        envelope_factor=1000.0,
        notes="Figure 4a digitizes ambiguously; the paper's qualitative "
              "envelope (mean downlink delay < 200 ms everywhere) is "
              "checked instead")))
_register(ReportFigure(
    "fig5", "fig5", _fig5, FigureCheck(
        units="pp",
        series=(SeriesSpec("up utilization", _fig5_anchor(0),
                           "up_utilization", factor=100.0),
                SeriesSpec("down utilization", _fig5_anchor(1),
                           "down_utilization", factor=100.0)),
        monotone=(MonotoneSpec("down utilization grows with the buffer",
                               "down_utilization", direction=1),),
        thresholds=Thresholds(
            max_deviation_pass=25.0, max_deviation_warn=40.0,
            rank_pass=0.8, rank_warn=0.5),
        notes="Figure 5's boxplots are not digitized; the check anchors "
              "on Table 1's long-many/bidir utilizations at the 64-packet "
              "BDP buffer plus the figure's monotone downlink trend")))
_register(ReportFigure(
    "table1-access", "table1-access",
    _table1("Table 1 (access): measured / paper at the BDP buffers (64/8)",
            ("workload", "up util %", "down util %", "up loss %",
             "down loss %")),
    FigureCheck(
        units="pp",
        series=_table1_series(
            paper_data.TABLE1_ACCESS,
            lambda label: tuple(label.split("/", 1)),
            (("up utilization", 0, "up_utilization"),
             ("down utilization", 1, "down_utilization"),
             ("up loss", 2, "up_loss"),
             ("down loss", 3, "down_loss"))),
        thresholds=Thresholds(
            max_deviation_pass=35.0, max_deviation_warn=50.0,
            rank_pass=0.6, rank_warn=0.3),
        notes="Harpoon session behaviour is calibrated, not specified "
              "(see docs/SCENARIOS.md), so utilization/loss columns "
              "carry wide tolerances")))
_register(ReportFigure(
    "table1-backbone", "table1-backbone",
    _table1("Table 1 (backbone): measured / paper at the 749-packet BDP "
            "buffer", ("workload", "down util %", "loss %")),
    FigureCheck(
        units="pp",
        series=_table1_series(
            paper_data.TABLE1_BACKBONE, lambda label: label,
            (("down utilization", 0, "down_utilization"),
             ("loss", 2, "down_loss"))),
        thresholds=Thresholds(
            max_deviation_pass=25.0, max_deviation_warn=40.0,
            rank_pass=0.6, rank_warn=0.3))))
_register(ReportFigure(
    "fig7a", "fig7a", _voip, FigureCheck(
        units="MOS",
        series=(SeriesSpec("listens", paper_data.FIG7A_LISTENS, "listens"),
                SeriesSpec("talks", paper_data.FIG7A_TALKS, "talks")),
        thresholds=Thresholds(
            max_deviation_pass=1.5, max_deviation_warn=2.5,
            rank_pass=0.6, rank_warn=0.3,
            trend_pass=0.5, trend_warn=0.25,
            # Figure 7a is the paper's near-flat figure (download
            # activity barely moves MOS): every row's range is < 0.8
            # MOS, so per-row buffer ordering is noise and the pooled
            # rank correlation carries the gate instead.
            flat_epsilon=0.8))))
_register(ReportFigure(
    "fig7b", "fig7b", _voip, FigureCheck(
        units="MOS",
        series=(SeriesSpec("listens", paper_data.FIG7B_LISTENS, "listens"),
                SeriesSpec("talks", paper_data.FIG7B_TALKS, "talks")),
        thresholds=_MOS_THRESHOLDS,
        notes="the headline bufferbloat collapse: MOS must fall with the "
              "uplink buffer in both call directions")))
_register(ReportFigure(
    "fig8", "fig8", _voip, FigureCheck(
        units="MOS",
        series=(SeriesSpec("listens", paper_data.FIG8, "listens"),),
        thresholds=_MOS_THRESHOLDS)))
_register(ReportFigure(
    "fig9a", "fig9a", _video, FigureCheck(
        units="SSIM",
        series=(SeriesSpec("SD", paper_data.FIG9A_SD, "ssim",
                           filters=(("resolution", "SD"),)),
                SeriesSpec("HD", paper_data.FIG9A_HD, "ssim",
                           filters=(("resolution", "HD"),))),
        thresholds=Thresholds(
            max_deviation_pass=0.35, max_deviation_warn=0.6,
            rank_pass=0.5, rank_warn=0.2, flat_epsilon=0.1),
        notes="our stream recovers at large buffers under short-few "
              "where the paper's stays degraded — expect WARN")))
_register(ReportFigure(
    "fig9b", "fig9b", _video, FigureCheck(
        units="SSIM",
        series=(SeriesSpec("SD", paper_data.FIG9B_SD, "ssim",
                           filters=(("resolution", "SD"),)),
                SeriesSpec("HD", paper_data.FIG9B_HD, "ssim",
                           filters=(("resolution", "HD"),))),
        thresholds=Thresholds(
            max_deviation_pass=0.45, max_deviation_warn=0.6,
            rank_pass=0.5, rank_warn=0.2, flat_epsilon=0.1))))
_register(ReportFigure(
    "fig10a", "fig10a", _web, FigureCheck(
        units="s",
        series=(SeriesSpec("median PLT", paper_data.FIG10A, "median_plt"),),
        thresholds=Thresholds(
            max_deviation_pass=4.0, max_deviation_warn=8.0,
            rank_pass=0.4, rank_warn=0.0, flat_epsilon=1.0))))
_register(ReportFigure(
    "fig10b", "fig10b", _web, FigureCheck(
        units="s",
        series=(SeriesSpec("median PLT", paper_data.FIG10B, "median_plt"),),
        thresholds=Thresholds(
            max_deviation_pass=12.0, max_deviation_warn=20.0,
            rank_pass=0.5, rank_warn=0.2, flat_epsilon=1.0))))
_register(ReportFigure(
    "fig11", "fig11", _web, FigureCheck(
        units="s",
        series=(SeriesSpec("median PLT", paper_data.FIG11, "median_plt"),),
        thresholds=Thresholds(
            max_deviation_pass=5.0, max_deviation_warn=10.0,
            rank_pass=0.4, rank_warn=0.0, flat_epsilon=1.0))))
_register(ReportFigure(
    "table2", None, _table2,
    title="Table 2: buffer sizes and maximum queueing delay"))


def figure_names():
    """Reportable figure names in report order."""
    return list(REPORT_FIGURES)
