"""Reproduction reports: SVG paper figures + machine-checked fidelity.

This package answers "does this reproduction actually match the paper?"
without anyone eyeballing a heatmap.  It has three layers:

:mod:`repro.report.svg`
    Dependency-free deterministic SVG primitives (heatmaps, line
    charts, tables) and the traffic-light colours of the quality
    markers (:data:`repro.report.svg.MARKER_COLORS`).
:mod:`repro.report.figures`
    The figure catalog: one entry per paper artifact (Figures 4–11,
    Tables 1–2) declaring its sweep, its model — built straight from
    :class:`repro.results.set.ResultSet`s with the digitized paper
    value beside each cell, and drawn as SVG — the fidelity check whose
    paper series that model draws, and the paper's claims about it.
:mod:`repro.report.fidelity`
    The scoring engine behind those checks — rank correlation along
    the buffer axis, trend agreement at the paper's highlighted sizes,
    max absolute MOS/SSIM/PLT deviation — graded into a
    ``PASS``/``WARN``/``FAIL``/``SKIP`` verdict.

:func:`repro.report.build.generate_report` ties them together into a
self-contained ``index.md`` + SVGs + ``fidelity.json`` directory; the
front end is ``python -m repro report``, whose ``--strict`` flag fails
on a FAIL verdict or a claim that does not hold.  See
``docs/REPORTING.md`` for the workflow and threshold calibration.
"""
