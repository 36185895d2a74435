"""Fidelity scoring: reproduced grids vs the paper's digitized values.

This module turns the digitized numbers of :mod:`repro.core.paper_data`
into a machine-checked verdict per figure.  Each figure of the catalog
(:data:`repro.report.figures.REPORT_FIGURES`) declares one
:class:`FigureCheck`: which paper grid each reproduced column is
compared against and which thresholds gate the verdict.  Calling
:func:`evaluate` with the sweep's :class:`repro.results.set.ResultSet`
produces a :class:`FigureFidelity` carrying the metrics and a
``PASS``/``WARN``/``FAIL`` verdict (``SKIP`` when there is no digitized
data or no overlapping cells).

Metrics
-------
``max_abs_deviation`` / ``mean_abs_deviation``
    Cell-wise ``|reproduced - paper|`` in the figure's own units (MOS,
    SSIM, seconds of page-load time, percentage points of utilization,
    ms of queueing delay).
``rank_correlation``
    Spearman's rho between the paper's values and ours over **all**
    compared cells — does the reproduction order the cells the way the
    paper does?  This is the primary scientific gate: the paper's
    conclusions are about *which* configurations are better, not about
    third decimals.
``buffer_rank_correlation``
    Mean Spearman's rho along the buffer axis, per workload row, over
    rows whose paper series is not flat (range >= ``flat_epsilon``) and
    has at least three overlapping sizes.  ``None`` when no row
    qualifies — flat paper rows carry no ordering signal.
``trend_agreement``
    Fraction of qualifying rows whose end-to-end direction (value at
    the largest highlighted buffer minus the smallest — the paper's
    discussion anchors, see
    :data:`repro.core.paper_data.HIGHLIGHT_BUFFERS`) matches the
    paper's sign.
``monotonicity``
    For checks with :class:`MonotoneSpec` expectations (Figure 5):
    the minimum per-row Spearman's rho of the reproduced series against
    its expected direction across the buffer axis.

Verdict rule: every *gated* metric is graded PASS/WARN/FAIL against its
thresholds and the figure verdict is the worst grade.  Metrics whose
value is undefined (``None``) never gate.  Threshold values are
calibrated against full-scale (``REPRO_SCALE=4``) reproduction runs —
see ``docs/REPORTING.md`` for each figure's measured margins.
"""

import math
from dataclasses import dataclass, field

from repro.core import paper_data
from repro.core.buffers import access_buffer_delays, backbone_buffer_delays

PASS, WARN, FAIL, SKIP = "PASS", "WARN", "FAIL", "SKIP"

#: Severity order for combining per-gate grades into one verdict.
_SEVERITY = {PASS: 0, WARN: 1, FAIL: 2}


# ---------------------------------------------------------------------------
# Rank statistics (dependency-free).
# ---------------------------------------------------------------------------
def _ranks(values):
    """Average ranks (1-based) with ties sharing their mean rank."""
    order = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0.0] * len(values)
    start = 0
    while start < len(order):
        stop = start
        while (stop + 1 < len(order)
               and values[order[stop + 1]] == values[order[start]]):
            stop += 1
        mean_rank = (start + stop) / 2.0 + 1.0
        for position in range(start, stop + 1):
            ranks[order[position]] = mean_rank
        start = stop + 1
    return ranks


def spearman(xs, ys):
    """Spearman's rank correlation; None for n < 2 or a constant side."""
    if len(xs) != len(ys):
        raise ValueError("length mismatch: %d vs %d" % (len(xs), len(ys)))
    if len(xs) < 2:
        return None
    rank_x, rank_y = _ranks(list(xs)), _ranks(list(ys))
    mean_x = sum(rank_x) / len(rank_x)
    mean_y = sum(rank_y) / len(rank_y)
    sxy = sum((a - mean_x) * (b - mean_y) for a, b in zip(rank_x, rank_y))
    sxx = sum((a - mean_x) ** 2 for a in rank_x)
    syy = sum((b - mean_y) ** 2 for b in rank_y)
    if sxx == 0.0 or syy == 0.0:
        return None  # a constant series carries no ordering signal
    return sxy / math.sqrt(sxx * syy)


# ---------------------------------------------------------------------------
# Check declarations.
# ---------------------------------------------------------------------------
def _default_map_key(key):
    """Sweep cell key -> paper grid key: ``(workload, buffer)``."""
    return (key[0], key[1])


@dataclass(frozen=True)
class Thresholds:
    """Verdict gates for one figure (all in the figure's units).

    A ``None`` pass bound disables that gate entirely; a metric whose
    measured value is ``None`` (undefined) never gates either way.
    """

    max_deviation_pass: float = None
    max_deviation_warn: float = None
    rank_pass: float = None
    rank_warn: float = None
    trend_pass: float = None
    trend_warn: float = None
    #: Paper rows with a value range below this are "flat" and excluded
    #: from buffer-axis rank / trend statistics.
    flat_epsilon: float = 0.0


@dataclass(frozen=True)
class SeriesSpec:
    """One reproduced column compared against one digitized paper grid."""

    label: str  # series name, e.g. "talks" / "uplink" / "SD"
    paper: dict  # {paper key: digitized value}
    column: str  # record column (repro.results record.value name)
    factor: float = 1.0  # repro value -> figure units (e.g. 100 for %)
    filters: tuple = ()  # ((column, value), ...) pre-filters on the set
    map_key: callable = _default_map_key


@dataclass(frozen=True)
class MonotoneSpec:
    """A qualitative expectation: ``column`` is monotone in the buffer
    size (``direction`` +1 rising / -1 falling) for every workload row.
    Used where the paper shows a trend but no digitizable per-cell
    numbers (Figure 5's utilization boxplots).  On sweeps with extra
    cell axes (resolution), ``filters`` must pin them to a
    single variant — mixed variants in one row raise rather than
    silently corrupting the per-row statistic."""

    label: str
    column: str
    direction: int = 1
    factor: float = 1.0
    filters: tuple = ()  # ((column, value), ...) pre-filters on the set


@dataclass(frozen=True)
class FigureCheck:
    """Everything needed to score one figure's reproduction.

    Each entry of :data:`repro.report.figures.REPORT_FIGURES` carries
    its check; the figure draws its paper values from the same
    ``series`` this check scores.
    """

    units: str  # unit of the deviation metrics ("MOS", "pp", "s", ...)
    series: tuple = ()  # SeriesSpec entries
    monotone: tuple = ()  # MonotoneSpec entries
    thresholds: Thresholds = field(default_factory=Thresholds)
    #: Envelope mode (Figure 4a): every cell of ``envelope_column``
    #: (scaled by ``envelope_factor``) must stay below ``envelope_bound``.
    envelope_column: str = None
    envelope_bound: float = None
    envelope_factor: float = 1.0
    notes: str = ""

    def paper(self, label):
        """The paper grid of the series called ``label`` (``{}`` if none)."""
        for spec in self.series:
            if spec.label == label:
                return spec.paper
        return {}


@dataclass
class FigureFidelity:
    """The scored comparison of one figure (see module docstring)."""

    figure: str
    verdict: str
    units: str = ""
    compared: int = 0
    metrics: dict = field(default_factory=dict)
    gates: dict = field(default_factory=dict)
    series: list = field(default_factory=list)
    worst: list = field(default_factory=list)
    notes: str = ""
    #: ``{"claim": statement, "holds": True/False/None}`` per claim of
    #: the figure, filled by ``ReportFigure.score``; reported, never
    #: graded.
    claims: list = field(default_factory=list)

    def to_json(self):
        """Plain-JSON dict (the ``fidelity.json`` per-figure shape)."""
        return {
            "figure": self.figure,
            "verdict": self.verdict,
            "units": self.units,
            "compared": self.compared,
            "metrics": dict(self.metrics),
            "gates": {name: dict(gate) for name, gate in self.gates.items()},
            "series": [dict(entry) for entry in self.series],
            "worst": [list(entry) for entry in self.worst],
            "notes": self.notes,
            "claims": [dict(claim) for claim in self.claims],
        }


# ---------------------------------------------------------------------------
# Evaluation.
# ---------------------------------------------------------------------------
def _series_pairs(spec, results):
    """Aligned ``{paper key: (paper value, repro value)}`` for one series."""
    filters = dict(spec.filters)
    grid = results.value_map(spec.column, **filters)
    pairs = {}
    for cell_key, repro_value in grid.items():
        key = spec.map_key(cell_key)
        if key in spec.paper and repro_value is not None:
            pairs[key] = (float(spec.paper[key]),
                          float(repro_value) * spec.factor)
    return pairs


#: The paper's discussion anchors, flattened across both testbeds;
#: trend agreement compares the endpoints at the smallest/largest
#: highlighted size present in a row (falling back to the row's own
#: extremes when a partial grid holds no highlighted cell).
_HIGHLIGHTS = frozenset(size for sizes in
                        paper_data.HIGHLIGHT_BUFFERS.values()
                        for size in sizes)


def _buffer_rows(pairs):
    """Group series pairs by workload row: ``{row: [(buffer, p, r)]}``.

    Only keys of the ``(workload, numeric buffer)`` shape contribute —
    table-style paper keys carry no buffer axis.
    """
    rows = {}
    for key, (paper_value, repro_value) in pairs.items():
        if not (isinstance(key, tuple) and len(key) == 2
                and isinstance(key[1], (int, float))):
            continue
        rows.setdefault(key[0], []).append((key[1], paper_value,
                                            repro_value))
    return {row: sorted(points) for row, points in rows.items()}


def _trend_endpoints(points):
    """The two (buffer, paper, repro) anchor points of one sorted row:
    the smallest and largest *highlighted* buffer size present
    (:data:`repro.core.paper_data.HIGHLIGHT_BUFFERS`), or the row's own
    extremes when no highlighted size overlaps."""
    highlighted = [point for point in points if point[0] in _HIGHLIGHTS]
    anchors = highlighted if len(highlighted) >= 2 else points
    return anchors[0], anchors[-1]


def _grade(value, pass_bound, warn_bound, higher_is_better):
    if higher_is_better:
        if value >= pass_bound:
            return PASS
        if warn_bound is not None and value >= warn_bound:
            return WARN
        return FAIL
    if value <= pass_bound:
        return PASS
    if warn_bound is not None and value <= warn_bound:
        return WARN
    return FAIL


def evaluate(check, results, figure=""):
    """Score the :class:`ResultSet` of ``figure`` against its check."""
    thresholds = check.thresholds
    fidelity = FigureFidelity(figure=figure, verdict=SKIP,
                              units=check.units, notes=check.notes)
    deviations = []  # (abs deviation, paper key, paper, repro)
    pooled_paper, pooled_repro = [], []
    row_rhos, trend_hits, trend_rows = [], 0, 0

    for spec in check.series:
        pairs = _series_pairs(spec, results)
        series_devs = [abs(r - p) for p, r in pairs.values()]
        fidelity.series.append({
            "label": spec.label,
            "column": spec.column,
            "compared": len(pairs),
            "paper_cells": len(spec.paper),
            "max_abs_deviation": max(series_devs) if series_devs else None,
        })
        for key, (paper_value, repro_value) in sorted(
                pairs.items(), key=lambda item: str(item[0])):
            deviations.append((abs(repro_value - paper_value),
                               "%s %s" % (spec.label, "/".join(
                                   str(part) for part in (
                                       key if isinstance(key, tuple)
                                       else (key,)))),
                               paper_value, repro_value))
            pooled_paper.append(paper_value)
            pooled_repro.append(repro_value)
        for row, points in sorted(_buffer_rows(pairs).items()):
            paper_series = [p for __, p, __ in points]
            repro_series = [r for __, __, r in points]
            if (len(points) < 3 or max(paper_series) - min(paper_series)
                    < thresholds.flat_epsilon):
                continue
            rho = spearman(paper_series, repro_series)
            if rho is not None:
                row_rhos.append(rho)
            trend_rows += 1
            low, high = _trend_endpoints(points)
            paper_delta = high[1] - low[1]
            repro_delta = high[2] - low[2]
            if paper_delta * repro_delta > 0 or (
                    paper_delta == 0 and repro_delta == 0):
                trend_hits += 1

    # Qualitative expectations evaluated on the reproduction alone.
    mono_rhos = []
    for spec in check.monotone:
        grid = results.value_map(spec.column, **dict(spec.filters))
        rows = {}
        for key, value in grid.items():
            if value is None or not isinstance(key[1], (int, float)):
                continue
            row = rows.setdefault(key[0], {})
            if key[1] in row:
                raise ValueError(
                    "monotone check %r on figure %r sees several cells "
                    "at (%r, %r) — pin the sweep's extra axes with "
                    "MonotoneSpec.filters" % (spec.label, figure,
                                              key[0], key[1]))
            row[key[1]] = float(value) * spec.factor
        for row, by_buffer in sorted(rows.items()):
            points = sorted(by_buffer.items())
            if len(points) < 3:
                continue
            rho = spearman([b for b, __ in points], [v for __, v in points])
            if rho is not None:
                mono_rhos.append(rho * spec.direction)

    # Envelope mode (Figure 4a).
    envelope_max = None
    if check.envelope_column is not None:
        values = [float(value) * check.envelope_factor for value in
                  results.value_map(check.envelope_column).values()
                  if value is not None]
        envelope_max = max(values) if values else None

    compared = len(deviations)
    fidelity.compared = compared
    if compared == 0 and envelope_max is None and not mono_rhos:
        fidelity.notes = (fidelity.notes
                          or "no overlap between reproduced cells and "
                             "digitized paper data")
        return fidelity

    # Fewer than three pooled pairs make Spearman degenerate (always
    # exactly +/-1 — a sign test masquerading as a correlation), so the
    # metric is undefined and never gates (fig5 has only two anchors;
    # its ordering is gated by monotonicity instead).
    pooled_rho = (spearman(pooled_paper, pooled_repro)
                  if compared >= 3 else None)
    metrics = {
        "max_abs_deviation": (max(d for d, *__ in deviations)
                              if deviations else None),
        "mean_abs_deviation": (sum(d for d, *__ in deviations) / compared
                               if deviations else None),
        "rank_correlation": pooled_rho,
        "buffer_rank_correlation": (sum(row_rhos) / len(row_rhos)
                                    if row_rhos else None),
        "trend_agreement": (trend_hits / trend_rows if trend_rows
                            else None),
        "monotonicity": min(mono_rhos) if mono_rhos else None,
        "envelope_max": envelope_max,
    }
    fidelity.metrics = metrics
    fidelity.worst = [
        [label, paper_value, round(repro_value, 4)]
        for __, label, paper_value, repro_value in sorted(
            deviations, key=lambda item: (-item[0], item[1]))[:3]]

    # -- gates ----------------------------------------------------------
    gates = {}

    def gate(name, value, pass_bound, warn_bound, higher_is_better):
        if value is None or pass_bound is None:
            return
        gates[name] = {
            "value": value,
            "pass": pass_bound,
            "warn": warn_bound,
            "level": _grade(value, pass_bound, warn_bound,
                            higher_is_better),
        }

    gate("max_abs_deviation", metrics["max_abs_deviation"],
         thresholds.max_deviation_pass, thresholds.max_deviation_warn,
         higher_is_better=False)
    rank_value = metrics["buffer_rank_correlation"]
    if rank_value is None:
        rank_value = metrics["rank_correlation"]
    gate("rank_correlation", rank_value, thresholds.rank_pass,
         thresholds.rank_warn, higher_is_better=True)
    gate("trend_agreement", metrics["trend_agreement"],
         thresholds.trend_pass, thresholds.trend_warn,
         higher_is_better=True)
    gate("monotonicity", metrics["monotonicity"], thresholds.rank_pass,
         thresholds.rank_warn, higher_is_better=True)
    if check.envelope_bound is not None:
        gate("envelope_max", envelope_max, check.envelope_bound,
             check.envelope_bound * 1.5, higher_is_better=False)
    fidelity.gates = gates
    if gates:
        fidelity.verdict = max((g["level"] for g in gates.values()),
                               key=_SEVERITY.get)
    else:
        fidelity.verdict = SKIP
        fidelity.notes = fidelity.notes or ("not enough overlapping data "
                                            "to gate any metric")
    return fidelity


def table2_rows():
    """``(label, side, computed ms, printed ms)`` for every delay of
    Table 2: each access buffer's ``"up"`` and ``"down"`` delay, then
    each backbone buffer's single one (side None).  ``computed`` is
    :mod:`repro.core.buffers`'s analytic maximum queueing delay,
    ``printed`` the paper's."""
    for packets, up_delay, down_delay in access_buffer_delays():
        label = "access %d" % packets
        up_printed, down_printed = paper_data.TABLE2_ACCESS[packets]
        yield label, "up", up_delay * 1000.0, up_printed
        yield label, "down", down_delay * 1000.0, down_printed
    for packets, delay in backbone_buffer_delays():
        yield ("backbone %d" % packets, None, delay * 1000.0,
               paper_data.TABLE2_BACKBONE[packets])


def table2_fidelity():
    """Score the closed-form Table 2 (no sweep results involved).

    Compares :func:`table2_rows`'s analytic maximum queueing delays
    against the paper's printed values; the paper rounds to whole
    (access) / tenth (backbone) milliseconds, so a 10% relative
    deviation gate is generous while still catching any topology-rate
    regression.
    """
    deviations = [(abs(computed - printed) / printed,
                   label if side is None else "%s %s" % (label, side),
                   printed, computed)
                  for label, side, computed, printed in table2_rows()]
    fidelity = FigureFidelity(figure="table2", verdict=SKIP,
                              units="relative",
                              notes="closed-form check: analytic max "
                                    "queueing delays vs the printed "
                                    "Table 2")
    worst = max(d for d, *__ in deviations)
    fidelity.compared = len(deviations)
    fidelity.metrics = {
        "max_abs_deviation": worst,
        "mean_abs_deviation": sum(d for d, *__ in deviations)
        / len(deviations),
    }
    fidelity.gates = {"max_abs_deviation": {
        "value": worst, "pass": 0.1, "warn": 0.25,
        "level": _grade(worst, 0.1, 0.25, higher_is_better=False)}}
    fidelity.verdict = fidelity.gates["max_abs_deviation"]["level"]
    fidelity.worst = [
        [label, printed, round(computed, 4)]
        for __, label, printed, computed in sorted(
            deviations, key=lambda item: (-item[0], item[1]))[:3]]
    return fidelity


def skip(figure, notes="no digitized paper data for this sweep"):
    """A SKIP :class:`FigureFidelity` for sweeps without paper data."""
    return FigureFidelity(figure=figure, verdict=SKIP, notes=notes)
