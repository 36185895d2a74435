"""Dead-name guard: every name ``src/repro`` defines must be read somewhere.

The scan collects, from every module under ``src/repro``, the top-level
functions, classes and UPPER_CASE constants plus every non-dunder method,
then collects every name *read* by the code in ``src/``, ``benchmarks/``,
``examples/`` and ``perfbench/``: loaded identifiers, attribute accesses,
and string literals spelling an identifier (``getattr`` and registry
lookups).  Definitions, imports and ``__all__`` entries are not reads, so
a name that is only re-exported, or only exercised by ``tests/``, counts
as dead.  Delete it, or add it to ``ALLOWED`` with the reason it stays.
"""

import ast
import os
import re

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "repro")
READERS = ("src", "benchmarks", "examples", "perfbench")

ALLOWED = {
    # Reference oracles the tests compare the models against.
    "snr_db": "oracle: tests check the G.711 codec's SNR against it",
    "weibull_mean": "oracle: tests check the Harpoon sampler's mean against it",
    "EModel": "G.107 E-model as one object: tests check the standard's "
              "anchor points through it",
    "stanford_packets": "Table 2's BDP/sqrt(n) rule: tests check it yields "
                        "the 28-packet backbone buffer",
    # Paper data and catalogs kept for the paper, not for a caller.
    "FIG4_BIDIR_DOWNLINK": "digitized paper data (Figure 4, bidir panel)",
    "FIG4_BIDIR_UPLINK": "digitized paper data (Figure 4, bidir panel)",
    "ACCESS_SCENARIOS": "Table 1 access catalog: tests check its rows",
    "BACKBONE_SCENARIOS": "Table 1 backbone catalog: tests check its rows",
    # Public API that README.md or docs/ show, with no caller in the tree.
    "QosResult": "record type named in docs/RESULTS.md",
    "VoipResult": "record type named in docs/RESULTS.md",
    "VideoResult": "record type named in docs/RESULTS.md",
    "WebResult": "record type named in docs/RESULTS.md",
    "pivot": "ResultSet verb shown in README.md and docs/RESULTS.md",
    "merge": "ResultSet verb shown in docs/RESULTS.md",
    "StreamAggregator": "streaming aggregation shown in README.md; ROADMAP "
                        "item 1 puts per-cell CIs in it",
    "consume": "StreamAggregator verb shown in README.md",
    "call_at": "Simulator scheduling API in docs/ARCHITECTURE.md; the link "
               "hot path open-codes it",
    "expiry": "Timer state the engine tests pin",
    "covers": "IntervalSet query the interval property tests check",
    "gaps": "IntervalSet query the interval property tests check",
    "byte_length": "queued bytes: the conservation property tests read it",
    # Needed by open ROADMAP work.
    "fork": "RngRegistry.fork: per-flow seed jitter (ROADMAP item 1) needs it",
}

CONSTANT = re.compile(r"^_?[A-Z][A-Z0-9_]*$")
IDENTIFIER = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")


def python_files(top):
    for directory, _dirs, files in os.walk(top):
        for name in sorted(files):
            if name.endswith(".py"):
                yield os.path.join(directory, name)


def parse(path):
    with open(path, encoding="utf-8") as handle:
        return ast.parse(handle.read(), path)


def is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def definitions(tree):
    """(name, line) for the module's functions, classes, constants, methods."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.name, node.lineno
        elif isinstance(node, ast.ClassDef):
            yield node.name, node.lineno
            for item in node.body:
                if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not is_dunder(item.name)):
                    yield item.name, item.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            for target in targets:
                if isinstance(target, ast.Name) and CONSTANT.match(target.id):
                    yield target.id, node.lineno


def reads(tree):
    """Every identifier the module reads, excluding ``__all__`` entries."""
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            exported.update(id(child) for child in ast.walk(node.value))
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and IDENTIFIER.match(node.value) and id(node) not in exported):
            yield node.value


def defined_names():
    """(path, line, name) for every definition under ``src/repro``."""
    for path in python_files(PACKAGE):
        for name, line in definitions(parse(path)):
            yield os.path.relpath(path, ROOT), line, name


def read_names():
    read = set()
    for top in READERS:
        for path in python_files(os.path.join(ROOT, top)):
            read.update(reads(parse(path)))
    return read


def test_every_defined_name_is_read():
    read = read_names()
    dead = ["%s:%d %s" % entry for entry in defined_names()
            if entry[2] not in read and entry[2] not in ALLOWED]
    assert not dead, ("names nothing in %s reads (delete them or allowlist "
                      "them with a reason):\n  %s"
                      % ("/".join(READERS), "\n  ".join(dead)))


def test_allowlist_names_only_unread_definitions():
    read = read_names()
    defined = {name for __, __, name in defined_names()}
    stale = sorted(name for name in ALLOWED
                   if name not in defined or name in read)
    assert not stale, "allowlisted names that are gone or now read: %s" % stale
