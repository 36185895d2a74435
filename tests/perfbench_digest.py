"""Check a perfbench run against its pinned seed-1 payload digest.

Usage, from the repository root::

    python3 perfbench/run.py --workload video-access --seed 1 | tee out.txt
    python3 tests/perfbench_digest.py video-access out.txt

Exits non-zero unless the run's closing JSON line reports ``"correct":
true`` and its ``payload_sha256`` line equals the digest pinned for the
workload in ``tests/perfbench_digests.json``.  Only a deliberate
re-baseline edits that file.
"""

import json
import os
import sys

PINNED = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "perfbench_digests.json")


def problems(workload, lines):
    """What is wrong with one run's output lines (empty if nothing)."""
    with open(PINNED) as handle:
        want = json.load(handle)["payload_sha256"][workload]
    found = []
    try:
        correct = json.loads(lines[-1]).get("correct") is True
    except (IndexError, ValueError):  # no closing JSON line
        correct = False
    if not correct:
        found.append("the run is not correct")
    got = [line.split()[1] for line in lines
           if line.split()[:1] == ["payload_sha256"]]
    if got != [want]:
        found.append("payload_sha256 %s, pinned %s" % (got, want))
    return found


def main(argv):
    workload, path = argv
    with open(path) as handle:
        lines = handle.read().splitlines()
    found = problems(workload, lines)
    for problem in found:
        print("%s: %s" % (workload, problem))
    if not found:
        print("%s: correct, payload_sha256 matches the pinned digest"
              % workload)
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
