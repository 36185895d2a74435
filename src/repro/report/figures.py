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

Each entry also states the paper's qualitative findings for its figure
as ``claims``: ``(statement, predicate)`` pairs whose predicate reads
the figure's ``ResultSet`` and returns True or False.  A claim whose
cells are not in the set scores None (see :func:`_holds`), so a partial
grid leaves it unevaluated rather than vacuously true.
"""

from dataclasses import dataclass

from repro.core import paper_data
from repro.qoe.scales import (g114_class, heat_marker_from_delay,
                              heat_marker_from_mos)
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


#: How text and ``index.md`` name a claim's ``holds`` value.
CLAIM_STATES = {True: "holds", False: "broken", None: "unevaluated"}


def claim_tally(claims):
    """``"k of n hold"`` over a scored ``claims`` list."""
    return "%d of %d hold" % (
        sum(claim["holds"] is True for claim in claims), len(claims))


def _holds(predicate, results):
    """A claim's value: True or False, or None when a cell it reads is
    not in ``results`` (the predicate raised KeyError)."""
    try:
        return bool(predicate(results))
    except KeyError:
        return None


@dataclass(frozen=True)
class ReportFigure:
    """One figure: its feeding sweep, its drawing, its check and claims.

    ``draw(results, spec, scale, check)`` builds the model and takes the
    paper values it shows from ``check``.  ``claims`` holds the paper's
    findings as ``(statement, predicate)`` pairs, scored by
    :meth:`score` but never part of the verdict.  The report heads a
    figure with its sweep's title; only the sweepless Table 2 has a
    ``title`` of its own.
    """

    name: str
    sweep: str  # registered sweep feeding it; None for closed-form
    draw: callable  # -> Heatmaps/Boxplots/Table
    check: FigureCheck = None  # None: no paper data, the verdict is SKIP
    title: str = None
    claims: tuple = ()  # ((statement, predicate(results) -> bool), ...)

    def model(self, results, spec, scale):
        """The figure's model over ``results`` of ``spec`` at ``scale``."""
        return self.draw(results, spec, scale, self.check)

    def text(self, results, spec, scale):
        """The model's text, a ``fidelity NAME: VERDICT (gates)`` line
        and a ``claims NAME: k of n hold`` line naming every claim that
        is broken or unevaluated.

        What ``python -m repro figures`` and the benchmarks print; the
        verdict and claims are :meth:`score`'s, the ones the report
        writes.
        """
        scored = self.score(results)
        gates = ", ".join("%s %.3g" % (gate_name, gate["value"])
                          for gate_name, gate in scored.gates.items())
        lines = [self.model(results, spec, scale).text(),
                 "fidelity %s: %s%s" % (self.name, scored.verdict,
                                        " (%s)" % gates if gates else ""),
                 "claims %s: %s" % (self.name, claim_tally(scored.claims))]
        lines.extend("  %s: %s" % (CLAIM_STATES[claim["holds"]],
                                   claim["claim"])
                     for claim in scored.claims if claim["holds"] is not True)
        return "\n".join(lines)

    def score(self, results):
        """The figure's :class:`repro.report.fidelity.FigureFidelity`,
        with every claim evaluated over ``results``."""
        if self.name == "table2":
            scored = fidelity.table2_fidelity()
        elif self.check is None:
            scored = fidelity.skip(self.name)
        elif results is None or len(results) == 0:
            scored = fidelity.skip(
                self.name, "no reproduced cells available (cold cache?)")
        else:
            scored = fidelity.evaluate(self.check, results, figure=self.name)
        scored.claims = [{"claim": statement,
                          "holds": _holds(predicate, results)}
                         for statement, predicate in self.claims]
        return scored


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
# Claim helpers.  A claim reads named cells by key, so a missing cell
# raises KeyError; an "every cell" claim with no cell present raises it
# too.  Either way the claim scores None.
# ---------------------------------------------------------------------------
def _present(values):
    """``values`` as a list; KeyError when there is none."""
    values = list(values)
    if not values:
        raise KeyError("none of the claim's cells is in the set")
    return values


def _cells(results, column, workload=None, **filters):
    """The present values of ``column``, in one ``workload`` row when
    given, axes pinned by ``filters``."""
    return _present(value for key, value in
                    results.value_map(column, **filters).items()
                    if workload is None or key[0] == workload)


def _staircase(results):
    """``(smallest, largest)`` buffer's mean uplink delay of every row
    with at least two buffers present."""
    rows = {}
    for key, delay in results.value_map("up_mean_delay").items():
        rows.setdefault(key[0], {})[key[1]] = delay
    return _present((row[min(row)], row[max(row)])
                    for row in rows.values() if len(row) > 1)


def _median_utilizations(results, side):
    """Every cell's median per-second utilization of one link side."""
    return _present(
        five_number_summary(record["%s_utilization_samples" % side])[2]
        for record in results)


def _table2_within(side, bound):
    """Whether every access buffer's analytic ``side`` (0 up, 1 down)
    maximum delay is within ``bound`` (relative) of the paper's."""
    from repro.core.buffers import access_buffer_delays

    for packets, *delays in access_buffer_delays():
        paper = paper_data.TABLE2_ACCESS[packets][side]
        if abs(delays[side] * 1000.0 - paper) / paper >= bound:
            return False
    return True


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


def _table1(title, headers, flows=None):
    """A Table 1 half: one row per present cell, one ``reproduced /
    paper`` percent cell per series of the figure's check.  ``flows``,
    when given, maps a row label to the paper's concurrent flow count,
    shown in a last ``reproduced / paper`` column that is not scored."""
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
                    for series in check.series) + (
                    ("%.0f / %s" % (record["concurrent_flows"],
                                    _paper_text(flows.get(label))),)
                    if flows else ()))
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
              "the signal, absolute ms deviations are secondary"),
    claims=(
        ("in every row, the mean uplink delay at the largest buffer is "
         "more than 4x the delay at the smallest",
         lambda rs: all(high > low * 4 for low, high in _staircase(rs))),
        ("in every row, the smallest buffer's delay is G.114 acceptable "
         "and the largest buffer's is G.114 bad",
         lambda rs: all(g114_class(low) == "acceptable"
                        and g114_class(high) == "bad"
                        for low, high in _staircase(rs))))))
_register(ReportFigure(
    "fig4-down", "fig4-down", _fig4("down"), FigureCheck(
        units="ms",
        envelope_column="down_mean_delay",
        envelope_bound=paper_data.FIG4_DOWN_ONLY_DOWNLINK_MAX_MS,
        envelope_factor=1000.0,
        notes="Figure 4a digitizes ambiguously; the paper's qualitative "
              "envelope (mean downlink delay < 200 ms everywhere) is "
              "checked instead"),
    claims=(
        ("mean downlink delay below 200 ms at every buffer",
         lambda rs: all(delay < 0.2
                        for delay in _cells(rs, "down_mean_delay"))),
        ("mean uplink delay (ACKs only) below 50 ms at every buffer",
         lambda rs: all(delay < 0.05
                        for delay in _cells(rs, "up_mean_delay"))))))
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
              "BDP buffer plus the figure's monotone downlink trend"),
    claims=(
        ("the uplink's median utilization is above 80% at every buffer",
         lambda rs: min(_median_utilizations(rs, "up")) > 0.8),
        ("the downlink's median utilization is above 55% at its best "
         "buffer",
         lambda rs: max(_median_utilizations(rs, "down")) > 0.55),
        ("the downlink's median utilization is lower at its worst buffer "
         "than at its best",
         lambda rs: (min(_median_utilizations(rs, "down"))
                     < max(_median_utilizations(rs, "down")))))))
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
              "carry wide tolerances"),
    claims=(
        ("short-few/up at the 64/8 buffers: uplink utilization above 90%",
         lambda rs: rs[("short-few/up", (64, 8))]["up_utilization"] > 0.9),
    )))
_register(ReportFigure(
    "table1-backbone", "table1-backbone",
    _table1("Table 1 (backbone): measured / paper at the 749-packet BDP "
            "buffer", ("workload", "down util %", "loss %", "flows"),
            flows={label: row[3]
                   for label, row in paper_data.TABLE1_BACKBONE.items()}),
    FigureCheck(
        units="pp",
        series=_table1_series(
            paper_data.TABLE1_BACKBONE, lambda label: label,
            (("down utilization", 0, "down_utilization"),
             ("loss", 2, "down_loss"))),
        thresholds=Thresholds(
            max_deviation_pass=25.0, max_deviation_warn=40.0,
            rank_pass=0.6, rank_warn=0.3)),
    claims=(
        ("downlink utilization orders short-low < short-medium < "
         "short-high",
         lambda rs: (rs[("short-low", 749)]["down_utilization"]
                     < rs[("short-medium", 749)]["down_utilization"]
                     < rs[("short-high", 749)]["down_utilization"])),
        ("short-high: downlink utilization above 90%",
         lambda rs: rs[("short-high", 749)]["down_utilization"] > 0.9))))
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
            flat_epsilon=0.8)),
    claims=(
        ("long-many at 64 packets: talks MOS above 3.5",
         lambda rs: rs[("long-many", 64)]["talks"] > 3.5),
        ("long-many at 64 packets: listens MOS below noBG's",
         lambda rs: rs[("long-many", 64)]["listens"]
         < rs[("noBG", 64)]["listens"]))))
_register(ReportFigure(
    "fig7b", "fig7b", _voip, FigureCheck(
        units="MOS",
        series=(SeriesSpec("listens", paper_data.FIG7B_LISTENS, "listens"),
                SeriesSpec("talks", paper_data.FIG7B_TALKS, "talks")),
        thresholds=_MOS_THRESHOLDS,
        notes="the headline bufferbloat collapse: MOS must fall with the "
              "uplink buffer in both call directions"),
    claims=(
        ("noBG at 64 packets: talks MOS above 3.9",
         lambda rs: rs[("noBG", 64)]["talks"] > 3.9),
        ("long-many at 256 packets: talks MOS below 1.8",
         lambda rs: rs[("long-many", 256)]["talks"] < 1.8),
        ("long-many at 256 packets: listens MOS below 3.3",
         lambda rs: rs[("long-many", 256)]["listens"] < 3.3),
        ("long-many: talks MOS is higher at 8 packets than at 256",
         lambda rs: rs[("long-many", 8)]["talks"]
         > rs[("long-many", 256)]["talks"]))))
_register(ReportFigure(
    "fig8", "fig8", _voip, FigureCheck(
        units="MOS",
        series=(SeriesSpec("listens", paper_data.FIG8, "listens"),),
        thresholds=_MOS_THRESHOLDS),
    claims=(
        ("noBG: listens MOS above 4.0 at every buffer",
         lambda rs: all(mos > 4.0 for mos in _cells(rs, "listens", "noBG"))),
        ("long at 7490 packets: listens MOS below 3.0",
         lambda rs: rs[("long", 7490)]["listens"] < 3.0),
        ("long: listens MOS is lower at 7490 packets than at 749",
         lambda rs: rs[("long", 7490)]["listens"]
         < rs[("long", 749)]["listens"]))))
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
              "where the paper's stays degraded — expect WARN"),
    claims=(
        ("noBG: SD SSIM above 0.99 at every buffer",
         lambda rs: all(ssim > 0.99 for ssim in
                        _cells(rs, "ssim", "noBG", resolution="SD"))),
        ("long-many: SD SSIM below 0.75 at every buffer",
         lambda rs: all(ssim < 0.75 for ssim in
                        _cells(rs, "ssim", "long-many", resolution="SD"))),
        ("long-few at 64 packets: HD SSIM at least SD SSIM - 0.05",
         lambda rs: rs[("long-few", 64, "HD")]["ssim"]
         >= rs[("long-few", 64, "SD")]["ssim"] - 0.05))))
_register(ReportFigure(
    "fig9b", "fig9b", _video, FigureCheck(
        units="SSIM",
        series=(SeriesSpec("SD", paper_data.FIG9B_SD, "ssim",
                           filters=(("resolution", "SD"),)),
                SeriesSpec("HD", paper_data.FIG9B_HD, "ssim",
                           filters=(("resolution", "HD"),))),
        thresholds=Thresholds(
            max_deviation_pass=0.45, max_deviation_warn=0.6,
            rank_pass=0.5, rank_warn=0.2, flat_epsilon=0.1)),
    claims=(
        ("noBG: SD SSIM above 0.99 at every buffer",
         lambda rs: all(ssim > 0.99 for ssim in
                        _cells(rs, "ssim", "noBG", resolution="SD"))),
        ("long at 749 packets: SD SSIM below noBG's",
         lambda rs: rs[("long", 749, "SD")]["ssim"]
         < rs[("noBG", 749, "SD")]["ssim"]))))
_register(ReportFigure(
    "fig10a", "fig10a", _web, FigureCheck(
        units="s",
        series=(SeriesSpec("median PLT", paper_data.FIG10A, "median_plt"),),
        thresholds=Thresholds(
            max_deviation_pass=4.0, max_deviation_warn=8.0,
            rank_pass=0.4, rank_warn=0.0, flat_epsilon=1.0)),
    claims=(
        ("noBG at 64 packets: median PLT below 1 s",
         lambda rs: rs[("noBG", 64)]["median_plt"] < 1.0),
        ("long-many at 64 packets: median PLT above 2 s",
         lambda rs: rs[("long-many", 64)]["median_plt"] > 2.0),
        ("long-few: median PLT is longer at 256 packets than at 8",
         lambda rs: rs[("long-few", 256)]["median_plt"]
         > rs[("long-few", 8)]["median_plt"]))))
_register(ReportFigure(
    "fig10b", "fig10b", _web, FigureCheck(
        units="s",
        series=(SeriesSpec("median PLT", paper_data.FIG10B, "median_plt"),),
        thresholds=Thresholds(
            max_deviation_pass=12.0, max_deviation_warn=20.0,
            rank_pass=0.5, rank_warn=0.2, flat_epsilon=1.0)),
    claims=(
        ("long-few at 8 packets: median PLT below 3 s",
         lambda rs: rs[("long-few", 8)]["median_plt"] < 3.0),
        ("long-few at 256 packets: median PLT above 4 s",
         lambda rs: rs[("long-few", 256)]["median_plt"] > 4.0),
        ("short-many at 64 packets: median PLT above 4 s",
         lambda rs: rs[("short-many", 64)]["median_plt"] > 4.0))))
_register(ReportFigure(
    "fig11", "fig11", _web, FigureCheck(
        units="s",
        series=(SeriesSpec("median PLT", paper_data.FIG11, "median_plt"),),
        thresholds=Thresholds(
            max_deviation_pass=5.0, max_deviation_warn=10.0,
            rank_pass=0.4, rank_warn=0.0, flat_epsilon=1.0)),
    claims=(
        ("noBG at 749 packets: median PLT below 1.2 s",
         lambda rs: rs[("noBG", 749)]["median_plt"] < 1.2),
        ("short-medium at 749 packets: median PLT below 1.5 s",
         lambda rs: rs[("short-medium", 749)]["median_plt"] < 1.5),
        ("long at 7490 packets: median PLT above noBG's",
         lambda rs: rs[("long", 7490)]["median_plt"]
         > rs[("noBG", 7490)]["median_plt"]))))
_register(ReportFigure(
    "table2", None, _table2,
    title="Table 2: buffer sizes and maximum queueing delay",
    claims=(
        ("every access buffer's analytic uplink delay is within 15% of "
         "the paper's", lambda rs: _table2_within(0, 0.15)),
        ("every access buffer's analytic downlink delay is within 25% of "
         "the paper's", lambda rs: _table2_within(1, 0.25)))))


def figure_names():
    """Reportable figure names in report order."""
    return list(REPORT_FIGURES)
