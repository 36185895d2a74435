"""Regenerate every catalog figure and check the paper's claims on it.

One test per entry of :data:`repro.report.figures.REPORT_FIGURES`, in
report order: it runs the figure's registered sweep through
:func:`repro.api.run_sweep` (Table 2 is closed-form and runs none),
prints :meth:`repro.report.figures.ReportFigure.text` — the text
``python -m repro figures`` prints, with its fidelity and claims lines
— and asserts that every claim of the figure holds.  A claim whose
cells are missing from the grid reads None, so it fails too.

    PYTHONPATH=src python -m pytest benchmarks/bench_figures.py -k fig4 -q -s
"""

import pytest

from repro import api
from repro.core.registry import get, resolve_scale
from repro.report.figures import REPORT_FIGURES, figure_names


@pytest.mark.parametrize("name", figure_names())
def test_figure(name):
    figure = REPORT_FIGURES[name]
    scale = resolve_scale()
    spec = results = None
    if figure.sweep is not None:
        spec = get(figure.sweep)
        results = api.run_sweep(spec, scale=scale)
    print()
    print(figure.text(results, spec, scale))
    claims = figure.score(results).claims
    assert claims
    assert [claim for claim in claims if claim["holds"] is not True] == []
