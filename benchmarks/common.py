"""Shared helpers for the benchmark harness.

Every benchmark regenerates one of the paper's tables or figures at a
reduced scale and prints the report figure — measured values next to
the paper's reported ones — with its fidelity verdict.  The grids
themselves are declared once in the sweep registry
(:mod:`repro.core.registry`): each benchmark runs its registered (or
inline) :class:`repro.core.registry.SweepSpec` through
:func:`repro.api.run_sweep`, so the benchmark, ``python -m repro run
<name>`` and any other consumer execute the *same cells* (bit-identical
task hashes, shared result cache).

``REPRO_SCALE`` (float, default 1.0) multiplies simulated durations /
repetition counts and switches the specs' reduced axes to the full paper
grids; raise it for higher-fidelity runs::

    REPRO_SCALE=4 pytest benchmarks/ -s

Grids run through :class:`repro.runner.grid.GridRunner`: cells fan out
over ``REPRO_WORKERS`` processes and finished cells are cached under
``.repro_cache/``, so a repeat invocation (same scale/seed/code) skips
the simulations entirely.  Set ``REPRO_CACHE=0`` to force recomputation
and ``REPRO_PROGRESS=1`` for per-cell progress/ETA lines.
"""

from repro.core.registry import get, resolve_scale
from repro.report.figures import REPORT_FIGURES
from repro.viz.heatmap import render_table


def print_figure(name, results):
    """Print (and return) report figure ``name`` and its verdict.

    :meth:`repro.report.figures.ReportFigure.text` over the registered
    sweep's ``results`` at the current scale (None for the closed-form
    Table 2) — the text ``python -m repro figures`` prints: each cell
    shows the reproduced value and, where the paper has one, `` / ``
    and the paper value, and the closing verdict line is the scoring
    ``python -m repro report`` runs.
    """
    figure = REPORT_FIGURES[name]
    spec = get(figure.sweep) if figure.sweep is not None else None
    text = figure.text(results, spec, resolve_scale())
    print()
    print(text)
    return text


def comparison_table(title, headers, rows):
    """Print (and return) an aligned paper-vs-measured table (``-s``).

    The same text backend as the figure catalog's tables.
    """
    text = render_table(title, headers, rows)
    print()
    print(text)
    return text
