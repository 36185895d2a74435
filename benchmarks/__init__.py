"""Benchmark harness: ``bench_figures.py`` regenerates every catalog
figure and checks its claims.

It runs each figure's registered :class:`repro.core.registry.SweepSpec`
through :func:`repro.api.run_sweep`, so the benchmark, ``python -m repro
run <name>`` and any other consumer execute the *same cells*
(bit-identical task hashes, shared result cache).

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
