"""Performance measurement for the sim core.

* :mod:`repro.perf.bench` — the ``BENCH_simcore.json`` benchmark
  (CPU seconds inside ``Simulator.run``, events/sec, cells/sec, peak RSS
  over registry cell workloads) with a regression check on the CPU
  seconds against the committed baseline.
* :mod:`repro.perf.profile` — a cProfile harness over registry cells for
  finding the next hot spot.

Both are exposed through ``python -m repro perf``.
"""
