"""Shared helpers for the benchmark harness.

Every benchmark regenerates one of the paper's tables or figures at a
reduced scale and prints the report figure — measured values next to
the paper's reported ones — with its fidelity verdict.  The grids
themselves are declared once in the sweep registry
(:mod:`repro.core.registry`): each figure benchmark looks up its
registered :class:`repro.core.registry.SweepSpec` and runs it, so the
benchmark, ``python -m repro run <name>`` and any other consumer execute
the *same cells* (bit-identical task hashes, shared result cache).

``REPRO_SCALE`` (float, default 1.0) multiplies simulated durations /
repetition counts and switches the specs' reduced axes to the full paper
grids; raise it for higher-fidelity runs::

    REPRO_SCALE=4 pytest benchmarks/ --benchmark-only -s

Grids run through :class:`repro.runner.grid.GridRunner`: cells fan out
over ``REPRO_WORKERS`` processes and finished cells are cached under
``.repro_cache/``, so a repeat invocation (same scale/seed/code) skips
the simulations entirely.  Set ``REPRO_CACHE=0`` to force recomputation
and ``REPRO_PROGRESS=1`` for per-cell progress/ETA lines.
"""

from repro import api
from repro.core.registry import resolve_scale
from repro.runner import GridRunner
from repro.viz.heatmap import render_table


def scale():
    """Global fidelity knob (``REPRO_SCALE``, float, default 1.0)."""
    return resolve_scale()


def grid_runner(**kwargs):
    """The benchmarks' shared grid configuration (env-driven defaults)."""
    return GridRunner(**kwargs)


def run_registered(name, runner=None):
    """Run a registered sweep through the stable facade.

    Returns the typed :class:`repro.results.set.ResultSet`, indexed by
    cell key (``results[("noBG", 64)]["talks"]``).  Same tasks, same
    cache entries as ``python -m repro run <name>``.
    """
    return api.run_sweep(name, runner=runner or grid_runner())


def print_figure(name, results):
    """Print (and return) report figure ``name`` and its verdict.

    The same model ``python -m repro figures`` prints and ``python -m
    repro report`` draws as SVG, built from the registered sweep's
    ``results`` at the current scale (None for the closed-form Table
    2): each cell shows the reproduced value and, where the paper has
    one, `` / `` and the paper value.  The verdict line is the scoring
    ``python -m repro report`` runs, so a benchmark session and the
    report agree by construction.
    """
    from repro.core.registry import get
    from repro.report.figures import REPORT_FIGURES

    figure = REPORT_FIGURES[name]
    spec = get(figure.sweep) if figure.sweep is not None else None
    scored = figure.score(results)
    gates = ", ".join("%s %.3g" % (gate_name, gate["value"])
                      for gate_name, gate in scored.gates.items())
    text = "%s\nfidelity %s: %s%s" % (
        figure.model(results, spec, scale()).text(), name, scored.verdict,
        " (%s)" % gates if gates else "")
    print()
    print(text)
    return text


def scaled_duration(base, minimum=4.0):
    """Simulated seconds for a measurement window at the current scale."""
    return max(minimum, base * scale())


def scaled_count(base, minimum=1):
    """Repetition count at the current scale."""
    return max(minimum, int(round(base * scale())))


def run_once(benchmark, fn):
    """Run ``fn`` exactly once under pytest-benchmark timing.

    The experiments are deterministic simulations — repeating them
    measures nothing new and multiplies runtime.
    """
    return benchmark.pedantic(fn, rounds=1, iterations=1)


def comparison_table(title, headers, rows):
    """Print (and return) an aligned paper-vs-measured table (``-s``).

    The same text backend as the figure catalog's tables.
    """
    text = render_table(title, headers, rows)
    print()
    print(text)
    return text
