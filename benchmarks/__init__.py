"""Benchmark harness package: the catalog figures and the ablations."""
