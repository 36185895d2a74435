"""Reproduction reports: SVG paper figures + machine-checked fidelity.

This package answers "does this reproduction actually match the paper?"
without anyone eyeballing text heatmaps.  It has three layers:

:mod:`repro.report.svg`
    Dependency-free deterministic SVG primitives (heatmaps, line
    charts, tables) sharing the traffic-light colour semantics of the
    text backend (:data:`repro.viz.heatmap.MARKER_COLORS`).
:mod:`repro.report.figures`
    The figure catalog: one model per paper artifact (Figures 4–11,
    Tables 1–2), built straight from
    :class:`repro.results.set.ResultSet`s with the digitized paper
    value beside each cell, and rendered as SVG or as text.
:mod:`repro.report.fidelity`
    Per-figure scoring against :data:`repro.core.paper_data.DIGITIZED`
    — rank correlation along the buffer axis, trend agreement at the
    paper's highlighted sizes, max absolute MOS/SSIM/PLT deviation —
    graded into a ``PASS``/``WARN``/``FAIL``/``SKIP`` verdict.

:func:`repro.report.build.generate_report` ties them together into a
self-contained ``index.md`` + SVGs + ``fidelity.json`` directory; the
CLI front end is ``python -m repro report`` and the stable programmatic
entry point is :func:`repro.api.generate_report`.  See
``docs/REPORTING.md`` for the workflow and threshold calibration.
"""

from repro.report.build import (
    SAMPLE_FIGURES,
    SAMPLE_OVERRIDES,
    SCHEMA_VERSION,
    generate_report,
)
from repro.report.fidelity import (
    CHECKS,
    FAIL,
    PASS,
    SKIP,
    WARN,
    FigureCheck,
    FigureFidelity,
    MonotoneSpec,
    SeriesSpec,
    Thresholds,
    evaluate,
    spearman,
)
from repro.report.figures import REPORT_FIGURES, ReportFigure, figure_names

__all__ = [
    "CHECKS",
    "FAIL",
    "FigureCheck",
    "FigureFidelity",
    "MonotoneSpec",
    "PASS",
    "REPORT_FIGURES",
    "ReportFigure",
    "SAMPLE_FIGURES",
    "SAMPLE_OVERRIDES",
    "SCHEMA_VERSION",
    "SKIP",
    "SeriesSpec",
    "Thresholds",
    "WARN",
    "evaluate",
    "figure_names",
    "generate_report",
    "spearman",
]
