"""The figure catalog: one definition per reportable paper artifact.

Each entry of :data:`REPORT_FIGURES` describes one figure: which
registered sweep feeds it (``sweep`` — None for the closed-form
Table 2) and how its :class:`repro.results.set.ResultSet` becomes a
*model* of what the figure shows (``model(results, spec, scale)``):

* :class:`Heatmaps` — per-(workload, buffer) panels coloured by QoE
  class (Figures 4 and 7–11), with the digitized paper value of
  :data:`repro.core.paper_data.DIGITIZED` beside every cell that has one;
* :class:`Boxplots` — Figure 5's per-buffer five-number summaries;
* :class:`Table` — headers and rows of measured-vs-paper values
  (Tables 1 and 2).

Every model has two backends: ``svg()`` draws it for the report
(:mod:`repro.report.svg`) and ``text()`` prints it for ``python -m repro
figures`` and the benchmarks (:mod:`repro.viz.heatmap`).  Text cells
show the value plus its quality marker (``+``/``o``/``!``), the SVG the
matching traffic-light fill of :data:`repro.viz.heatmap.MARKER_COLORS`.

Models tolerate partial results (``--cached-only`` on a cold cache):
cells absent from the set come out blank, so a figure is always
producible and visibly honest about its coverage.
"""

from dataclasses import dataclass

from repro.core import paper_data
from repro.core.paper_data import DIGITIZED
from repro.qoe.scales import heat_marker_from_delay, heat_marker_from_mos
from repro.report import svg
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
                text, marker, __ = value
                return text + (marker or "")
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
    """One figure: its feeding sweep and its model builder."""

    name: str
    sweep: str  # registered sweep feeding it; None for closed-form
    title: str
    model: callable  # model(results, spec, scale) -> Heatmaps/Boxplots/Table


# ---------------------------------------------------------------------------
# Grid helpers.
# ---------------------------------------------------------------------------
def _grid(results, column, **filters):
    """``{(workload, buffer): value}`` for one column, axes pinned by
    ``filters`` (missing column values are simply absent)."""
    return {key[:2]: value
            for key, value in results.value_map(column, **filters).items()}


def _paper_overlay(figure, label):
    """The digitized grid for one series of ``figure`` (or ``{}``)."""
    return DIGITIZED.get(figure, {}).get(label, {})


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
    def model(results, spec, scale):
        rows, cols = _axes(results, spec, scale)
        panels = []
        for side, overlay_label in (("up", "uplink"), ("down", "downlink")):
            delays = _grid(results, "%s_mean_delay" % side)
            values = {key: value * 1000.0 for key, value in delays.items()}
            markers = {key: heat_marker_from_delay(value)
                       for key, value in delays.items()}
            panels.append((
                "mean %sLINK queueing delay [ms]" % side.upper(),
                rows, cols,
                _heat_cell(values, markers,
                           _paper_overlay("fig4-%s" % direction,
                                          overlay_label),
                           "%.0f")))
        return Heatmaps(
            "Figure 4 (%sstream congestion): mean queueing delay"
            % ("up" if direction == "up" else "down"), panels)
    return model


def _voip(figure_name, title):
    def model(results, spec, scale):
        rows, cols = _axes(results, spec, scale)
        directions = dict(spec.params).get("directions",
                                           ("talks", "listens"))
        panels = []
        for direction in directions:
            values = _grid(results, direction)
            markers = {key: heat_marker_from_mos(value)
                       for key, value in values.items()}
            panels.append(("user %s — median MOS" % direction, rows, cols,
                           _heat_cell(values, markers,
                                      _paper_overlay(figure_name,
                                                     direction),
                                      "%.1f")))
        return Heatmaps(title, panels)
    return model


def _video(figure_name, title):
    def model(results, spec, scale):
        rows, cols = _axes(results, spec, scale)
        resolutions = dict(spec.axes).get("resolution", ("SD", "HD"))
        panels = []
        for resolution in resolutions:
            values = _grid(results, "ssim", resolution=resolution)
            mos = _grid(results, "mos", resolution=resolution)
            markers = {key: heat_marker_from_mos(value)
                       for key, value in mos.items()}
            panels.append(("%s — median SSIM" % resolution, rows, cols,
                           _heat_cell(values, markers,
                                      _paper_overlay(figure_name,
                                                     resolution),
                                      "%.2f")))
        return Heatmaps(title, panels)
    return model


def _web(figure_name, title):
    def model(results, spec, scale):
        rows, cols = _axes(results, spec, scale)
        values = _grid(results, "median_plt")
        markers = {key: heat_marker_from_mos(value)
                   for key, value in _grid(results, "mos").items()}
        panel = ("median page-load time [s] (colour: G.1030 MOS)",
                 rows, cols,
                 _heat_cell(values, markers,
                            _paper_overlay(figure_name, "median PLT"),
                            "%.1f"))
        return Heatmaps(title, [panel])
    return model


# ---------------------------------------------------------------------------
# Figure 5: per-second utilization per buffer size.
# ---------------------------------------------------------------------------
def _fig5(results, spec, scale):
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
def _versus(value, paper_row, index):
    """``"measured / paper"`` percent cell (``—`` without a paper row)."""
    return "%.1f / %s" % (value * 100.0, "%.1f" % paper_row[index]
                          if paper_row else "—")


def _table1(paper, paper_key, columns, title, headers):
    """A Table 1 half: one row per present cell, ``columns`` pairing
    each record column with its index in the paper row."""
    def model(results, spec, scale):
        rows = []
        for label in spec.workloads(scale):
            paper_row = paper.get(paper_key(label))
            for key in results.keys():
                if key[0] != label:
                    continue
                record = results[key]
                rows.append((label,) + tuple(
                    _versus(record.value(column), paper_row, index)
                    for column, index in columns))
        return Table(title, headers, rows,
                     note="each cell: reproduced value / paper value")
    return model


def _table2(results, spec, scale):
    from repro.core.buffers import (access_buffer_delays,
                                    backbone_buffer_delays)

    rows = []
    for packets, up_delay, down_delay in access_buffer_delays():
        paper = paper_data.TABLE2_ACCESS.get(packets)
        rows.append(("access %d" % packets,
                     "%.0f / %s" % (up_delay * 1000.0,
                                    paper[0] if paper else "—"),
                     "%.0f / %s" % (down_delay * 1000.0,
                                    paper[1] if paper else "—")))
    for packets, delay in backbone_buffer_delays():
        paper = paper_data.TABLE2_BACKBONE.get(packets)
        rows.append(("backbone %d" % packets,
                     "%.1f / %s" % (delay * 1000.0,
                                    paper if paper is not None else "—"),
                     ""))
    return Table(
        "Table 2: maximum queueing delay per buffer size [ms]",
        ("buffer", "uplink / paper", "downlink / paper"), rows,
        note="closed-form (repro.core.buffers), no simulation involved; "
             "backbone rows have a single direction")


# ---------------------------------------------------------------------------
# The figure catalog (report order).
# ---------------------------------------------------------------------------
REPORT_FIGURES = {}


def _register(figure):
    REPORT_FIGURES[figure.name] = figure
    return figure


_register(ReportFigure(
    "fig4-up", "fig4-up",
    "Figure 4c: mean queueing delay, upstream congestion",
    _fig4("up")))
_register(ReportFigure(
    "fig4-down", "fig4-down",
    "Figure 4a: mean queueing delay, downstream congestion",
    _fig4("down")))
_register(ReportFigure(
    "fig5", "fig5",
    "Figure 5: link utilization, bidirectional long workload",
    _fig5))
_register(ReportFigure(
    "table1-access", "table1-access",
    "Table 1 (access): workload characteristics",
    _table1(paper_data.TABLE1_ACCESS,
            lambda label: tuple(label.split("/", 1)),
            (("up_utilization", 0), ("down_utilization", 1),
             ("up_loss", 2), ("down_loss", 3)),
            "Table 1 (access): measured / paper at the BDP buffers (64/8)",
            ("workload", "up util %", "down util %", "up loss %",
             "down loss %"))))
_register(ReportFigure(
    "table1-backbone", "table1-backbone",
    "Table 1 (backbone): workload characteristics",
    _table1(paper_data.TABLE1_BACKBONE, lambda label: label,
            (("down_utilization", 0), ("down_loss", 2)),
            "Table 1 (backbone): measured / paper at the 749-packet BDP "
            "buffer",
            ("workload", "down util %", "loss %"))))
_register(ReportFigure(
    "fig7a", "fig7a", "Figure 7a: access VoIP MOS, download activity",
    _voip("fig7a", "Figure 7a: access VoIP MOS, download activity")))
_register(ReportFigure(
    "fig7b", "fig7b",
    "Figure 7b: access VoIP MOS, upload activity (bufferbloat)",
    _voip("fig7b", "Figure 7b: access VoIP MOS, upload activity "
                   "(bufferbloat)")))
_register(ReportFigure(
    "fig8", "fig8", "Figure 8: backbone VoIP MOS",
    _voip("fig8", "Figure 8: backbone VoIP MOS")))
_register(ReportFigure(
    "fig9a", "fig9a", "Figure 9a: access IPTV SSIM",
    _video("fig9a", "Figure 9a: access IPTV SSIM, download activity")))
_register(ReportFigure(
    "fig9b", "fig9b", "Figure 9b: backbone IPTV SSIM",
    _video("fig9b", "Figure 9b: backbone IPTV SSIM")))
_register(ReportFigure(
    "fig10a", "fig10a", "Figure 10a: access WebQoE, download activity",
    _web("fig10a", "Figure 10a: access WebQoE, download activity")))
_register(ReportFigure(
    "fig10b", "fig10b", "Figure 10b: access WebQoE, upload activity",
    _web("fig10b", "Figure 10b: access WebQoE, upload activity")))
_register(ReportFigure(
    "fig11", "fig11", "Figure 11: backbone WebQoE",
    _web("fig11", "Figure 11: backbone WebQoE")))
_register(ReportFigure(
    "table2", None, "Table 2: buffer sizes and maximum queueing delay",
    _table2))


def figure_names():
    """Reportable figure names in report order."""
    return list(REPORT_FIGURES)
