"""End-to-end and per-layer benchmark of the reproduction (see README.md).

Run it from the repository root::

    python3 perfbench/run.py --workload video-access --seed 1 --seconds 50 --trace 0
"""
