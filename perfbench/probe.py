"""Set-up probe: a fresh interpreter up to the point a first cell can start.

``python3 perfbench/probe.py <workload> [seed]`` imports the program,
lowers the workload's registry specs, computes the cache's source
fingerprint and triggers the imports its cell kinds make lazily, then
prints one JSON line with the time of each step and exits.  The parent
times the whole process up to that line as ``setup_s``.
"""

import importlib
import json
import os
import sys
import time

START = time.perf_counter()

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main(argv):
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    import repro.api  # noqa: F401  (the facade every user path imports)
    from perfbench.workloads import KIND_MODULES, WORKLOADS
    from repro.runner.cache import code_fingerprint

    workload = WORKLOADS[argv[0]]
    seed = int(argv[1]) if len(argv) > 1 else None
    imported = time.perf_counter()
    workload.lower(seed)
    lowered = time.perf_counter()
    code_fingerprint()
    fingerprinted = time.perf_counter()
    for kind in workload.kinds():
        importlib.import_module(KIND_MODULES[kind])
    print(json.dumps({
        "import_s": imported - START,
        "lower_s": lowered - imported,
        "fingerprint_s": fingerprinted - lowered,
        "lazy_import_s": time.perf_counter() - fingerprinted,
    }), flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
